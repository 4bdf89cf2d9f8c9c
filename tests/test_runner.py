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
    Scheme,
    emit_plot_data,
    load_measurements,
    run,
    save_measurements,
    write_outputs,
)


def null_config(mode="full", noise=None, **fields):
    """A run at seed 42.  ``fields`` are RunConfig and ExperimentPlan
    fields; ``noise`` overrides NoiseModel fields."""
    run_fields = {k: fields.pop(k) for k in ("input_data_path", "output_dir", "known_povms") if k in fields}
    plan = ExperimentPlan(noise=NoiseModel(**{"seed": 42, **(noise or {})}), **fields)
    return RunConfig(mode=mode, experiment=plan, **run_fields)


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
        # scored operators: 4 states + 3 distinct reconstructed settings
        assert len(report.scores.fidelities) == 7

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
        assert payload["schema"] == "spamtomo-report v4"
        assert payload["exit_code"] == EXIT_CLEAN
        assert payload["detection"]["detected"] is False
        assert len(payload["samples"]) == 10

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
        assert payload["schema"] == "spamtomo-report v4"
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
