import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from spamtomo import (
    ConfigError,
    ErrorInjection,
    EXIT_CLEAN,
    EXIT_DETECTED,
    ExperimentPlan,
    NoiseModel,
    RunConfig,
    RunReport,
    Scheme,
    config_from_dict,
    emit_plot_data,
    load_measurements,
    run,
    save_measurements,
    theoretical_observables,
    write_outputs,
)
from spamtomo.cli import main


def null_config(mode="full", noise=None, **fields):
    """A run at seed 42.  ``fields`` are RunConfig and ExperimentPlan
    fields; ``noise`` overrides NoiseModel fields."""
    run_fields = {k: fields.pop(k) for k in ("input_data_path", "output_dir", "known_povms") if k in fields}
    plan = ExperimentPlan(noise=NoiseModel(**{"seed": 42, **(noise or {})}), **fields)
    return RunConfig(mode=mode, experiment=plan, **run_fields)


def record_name(stack):
    """What a report says of its record: the repetition count, the matrix
    size and the SHA-256 digest of the little-endian float64 bytes in C
    order."""
    data = np.asarray(stack, dtype="<f8").tobytes(order="C")
    return {"repetitions": stack.shape[0], "size": stack.shape[2], "sha256": hashlib.sha256(data).hexdigest()}


class TestRun:
    def test_null_run_is_clean(self):
        report = run(null_config())
        assert report.exit_code == EXIT_CLEAN
        assert not report.detection.detected
        assert report.stats.significance.max() < 3.0
        assert min(report.scores.fidelities) > 0.99
        assert report.reconstruction is not None

    def test_large_injection_detected(self):
        config = null_config(errors=(ErrorInjection(1, 1, np.pi / 4),))
        report = run(config)
        assert report.exit_code == EXIT_DETECTED
        assert report.detection.flagged_elements[0][2] > 10.0
        # no reconstruction on contaminated data
        assert report.reconstruction is None

    def test_small_injection_not_detected(self):
        config = null_config(errors=(ErrorInjection(1, 1, np.pi / 40),))
        report = run(config)
        assert report.exit_code == EXIT_CLEAN

    def test_samples_are_one_stack(self, tmp_path):
        report = run(null_config(mode="simulate", repetitions=3))
        assert isinstance(report.samples, np.ndarray) and report.samples.shape == (3, 6, 6)
        data_path = str(tmp_path / "m.csv")
        save_measurements(data_path, report.samples, Scheme.TWO_N)
        loaded = run(null_config(mode="simulate", input_data_path=data_path))
        assert isinstance(loaded.samples, np.ndarray)
        np.testing.assert_array_equal(loaded.samples, report.samples)

    def test_simulate_mode_skips_analysis(self):
        report = run(null_config(mode="simulate"))
        assert report.stats is None
        assert report.detection is None
        assert report.exit_code == EXIT_CLEAN

    def test_compact_scheme_runs(self):
        report = run(null_config(scheme=Scheme.N_PLUS_ONE))
        assert report.samples[0].shape == (4, 4)
        assert report.exit_code == EXIT_CLEAN
        # scored operators: 4 states + setting 4, the one the loop reconstructs
        assert len(report.scores.fidelities) == 5
        assert len(report.scores.relative_errors) == 1

    def test_compact_loop_returns_each_operator_once(self):
        # four states and four settings, none a rounding copy of another
        for source in ("pure_h", "mixed"):
            for seed in range(8):
                report = run(config_from_dict({"mode": "reconstruct", "scheme": "n+1", "state": source, "seed": seed}))
                reconstruction = report.to_dict()["reconstruction"]
                assert reconstruction["scored_states"] == [1, 2, 3, 4]
                assert reconstruction["scored_povms"] == [4]
                for vectors in (report.reconstruction.prep_stokes, report.reconstruction.obs_vectors.T):
                    assert vectors.shape == (4, 3)
                    gaps = np.abs(vectors[:, None] - vectors[None]).max(axis=-1)
                    assert gaps[~np.eye(4, dtype=bool)].min() > 1e-6, (source, seed)

    def test_compact_scores_only_the_setting_it_reconstructs(self):
        # known observables off the nominal ones are the run's own input:
        # only setting 4, which the loop infers from them, is scored
        plan = null_config(scheme=Scheme.N_PLUS_ONE).experiment
        known = 0.9 * theoretical_observables(plan)[:, :3].T
        report = run(null_config(mode="reconstruct", scheme=Scheme.N_PLUS_ONE, known_povms=tuple(map(tuple, known))))
        assert len(report.scores.relative_errors) == 1
        assert len(report.scores.fidelities) == 5
        assert report.to_dict()["reconstruction"]["scored_povms"] == [4]
        np.testing.assert_array_equal(report.reconstruction.obs_vectors[:, :3], known.T)

    def test_analyze_external_data(self, tmp_path):
        sim = run(null_config(mode="simulate"))
        data_path = str(tmp_path / "m.csv")
        save_measurements(data_path, sim.samples, Scheme.TWO_N)
        report = run(null_config(mode="analyze", input_data_path=data_path))
        assert report.exit_code == EXIT_CLEAN
        np.testing.assert_array_equal(report.samples[0], sim.samples[0])

    def test_scheme_mismatch_with_data(self, tmp_path):
        sim = run(null_config(mode="simulate"))
        data_path = str(tmp_path / "m.csv")
        save_measurements(data_path, sim.samples, Scheme.TWO_N)
        with pytest.raises(ConfigError, match="scheme"):
            run(null_config(mode="analyze", scheme=Scheme.N_PLUS_ONE, input_data_path=data_path))

    def test_known_povms_override(self):
        # supplying the true observables explicitly must match the default
        config = null_config(known_povms=((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)))
        report = run(config)
        assert min(report.scores.fidelities) > 0.99


class TestOutputs:
    def test_report_files_written(self, tmp_path):
        config = null_config(output_dir=str(tmp_path))
        report = run(config)
        paths = write_outputs(report)
        for kind in ("report", "measurements", "plot_grids", "timing"):
            assert os.path.exists(paths[kind]), kind
        payload = json.loads(Path(paths["report"]).read_text())
        assert payload["schema"] == "spamtomo-report v7"
        assert payload["exit_code"] == EXIT_CLEAN
        assert payload["detection"]["detected"] is False
        assert payload["samples"] == {"repetitions": 10, "size": 6, "sha256": record_name(report.samples)["sha256"]}

    def test_byte_identical_reports(self, tmp_path):
        config = null_config()
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        paths_a = write_outputs(run(config), dir_a)
        paths_b = write_outputs(run(config), dir_b)
        for kind in ("report", "measurements", "plot_grids"):
            assert Path(paths_a[kind]).read_bytes() == Path(paths_b[kind]).read_bytes(), kind

    def test_saved_data_reanalysis_identical(self, tmp_path):
        config = null_config(output_dir=str(tmp_path / "first"))
        report = run(config)
        paths = write_outputs(report)
        loaded, _ = load_measurements(paths["measurements"])
        again = run(null_config(mode="analyze", input_data_path=paths["measurements"]))
        np.testing.assert_allclose(again.stats.mean, report.stats.mean, atol=1e-15)
        np.testing.assert_allclose(again.stats.std, report.stats.std, atol=1e-15)

    def test_plot_grid_pattern_matches_analytic_prediction(self, tmp_path):
        # a (2,2) injection with six settings concentrates the mean-grid
        # deviation at element (2,2), as the noiseless computation predicts
        config = null_config(
            errors=(ErrorInjection(2, 2, np.pi / 4),), output_dir=str(tmp_path)
        )
        paths = write_outputs(run(config))
        lines = Path(paths["plot_grids"]).read_text().splitlines()
        start = lines.index("# grid=mean") + 1
        mean = np.array([[float(v) for v in lines[start + r].split(",")] for r in range(3)])
        assert np.unravel_index(np.abs(mean).argmax(), (3, 3)) == (1, 1)

    def test_infinite_significance_report_is_standard_json(self, tmp_path):
        # without counting noise or drift the injected element deviates
        # identically in every repetition: zero spread, infinite significance
        config = null_config(
            noise={"shots_per_setting": None, "angle_jitter_sigma": 0.0},
            errors=(ErrorInjection(1, 1, np.pi / 4),),
            output_dir=str(tmp_path),
        )
        report = run(config)
        assert np.isinf(report.stats.significance).any()
        paths = write_outputs(report)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(Path(paths["report"]).read_text(), parse_constant=reject)
        assert payload["schema"] == "spamtomo-report v7"
        assert "inf" in [v for row in payload["delta_stats"]["significance"] for v in row]
        emit_plot_data(payload, str(tmp_path / "again.csv"))
        assert (tmp_path / "again.csv").read_text() == Path(paths["plot_grids"]).read_text()

    def test_detected_run_report_carries_candidates(self, tmp_path):
        config = null_config(
            errors=(ErrorInjection(1, 1, np.pi / 4),), output_dir=str(tmp_path)
        )
        report = run(config)
        paths = write_outputs(report)
        payload = json.loads(Path(paths["report"]).read_text())
        assert payload["exit_code"] == EXIT_DETECTED
        assert payload["detection"]["detected"] is True
        assert [1, 1] in payload["detection"]["candidate_locations"]


class TestRecordName:
    """The report names its record by count, size and digest; the samples
    themselves live in the record file or follow from the config echo."""

    @pytest.mark.parametrize("scheme", ["2n", "n+1"])
    def test_analyzed_record_is_named_by_its_digest(self, tmp_path, scheme):
        record = str(tmp_path / "rec.csv")
        sim = run(null_config(mode="simulate", scheme=Scheme(scheme), repetitions=7))
        save_measurements(record, sim.samples, Scheme(scheme))
        out = tmp_path / "out"
        assert main(["analyze", "--data", record, "--scheme", scheme, "--out", str(out)]) in (0, 2)
        stack, _ = load_measurements(record)
        assert json.loads((out / "report.json").read_text())["samples"] == record_name(stack)

    @pytest.mark.parametrize("scheme,size", [("2n", 6), ("n+1", 4)])
    def test_full_run_names_its_own_measurements(self, tmp_path, scheme, size):
        assert main(["full", "--seed", "5", "--scheme", scheme, "--out", str(tmp_path)]) in (0, 2)
        stack, _ = load_measurements(str(tmp_path / "measurements.csv"))
        named = json.loads((tmp_path / "report.json").read_text())["samples"]
        assert named == record_name(stack)
        assert (named["repetitions"], named["size"]) == (10, size)

    def test_digest_reads_values_not_memory_layout(self):
        samples = run(null_config(mode="simulate", repetitions=4)).samples
        swapped = np.asfortranarray(samples.astype(">f8"))
        assert swapped.dtype.byteorder == ">" and not swapped.flags.c_contiguous
        config = null_config(mode="simulate")
        native = RunReport(config=config, samples=samples).to_dict()["samples"]
        assert RunReport(config=config, samples=swapped).to_dict()["samples"] == native == record_name(samples)

    @pytest.mark.parametrize("scheme", [Scheme.TWO_N, Scheme.N_PLUS_ONE])
    def test_config_echo_reproduces_simulated_record(self, tmp_path, scheme):
        config = null_config(
            mode="analyze", scheme=scheme, errors=(ErrorInjection(2, 2, np.pi / 8),), output_dir=str(tmp_path)
        )
        payload = json.loads(Path(write_outputs(run(config))["report"]).read_text())
        assert not (tmp_path / "measurements.csv").exists()
        again = run(config_from_dict(payload["config"]))
        assert again.to_dict()["samples"] == payload["samples"] == record_name(again.samples)
