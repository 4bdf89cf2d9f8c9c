"""The benchmark's tracer patches package functions by name; every
boundary it lists must still resolve, or a traced benchmark run fails,
and every boundary a run goes through must record a span, or its
layer's metric silently reads 0."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"

# Listed boundaries that no run calls through
NEVER_TRACED = {
    "spamtomo.runner:embed_n_plus_1",
    "spamtomo.runner:validate_expectation_matrix",
    "spamtomo.runner:density_from_stokes",
    "spamtomo.runner:povm_from_observable",
    "spamtomo.reconstruct:povm_element_fidelity",
}


def load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attribute", [b[:2] for b in load_layertrace().BOUNDARIES])
def test_boundary_resolves(module_name, attribute):
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_boundaries_that_record_spans(tmp_path, capsys):
    # the benchmark's three kinds of run, for both schemes
    layertrace = load_layertrace()
    import spamtomo
    import spamtomo.cli

    with layertrace.Tracer() as tracer:
        for scheme in ("2n", "n+1"):
            out = tmp_path / scheme
            config = {"mode": "full", "scheme": scheme}
            path = tmp_path / f"{scheme}.json"
            path.write_text(json.dumps(config))
            # the patched functions are looked up on their modules at call time
            spamtomo.run(spamtomo.config_from_dict(config))
            assert spamtomo.cli.main(["full", "--config", str(path), "--out", str(out)]) == 0
            data = str(out / "measurements.csv")
            assert spamtomo.cli.main(["analyze", "--data", data, "--scheme", scheme, "--out", str(out / "a")]) == 0
    capsys.readouterr()
    boundaries = {f"{module_name}:{attribute}" for module_name, attribute, *_ in layertrace.BOUNDARIES}
    recorded = {span[3] for span in tracer.spans}
    assert recorded <= boundaries
    assert boundaries - recorded == NEVER_TRACED
