import numpy as np
import pytest

from spamtomo import (
    DataFormatError,
    ExperimentPlan,
    NoiseModel,
    Scheme,
    ShapeError,
    SpamTomoError,
    default_settings,
    delta_statistics,
    emit_plot_data,
    load_measurements,
    read_report,
    run_experiment,
    save_measurements,
    validate_expectation_matrix,
    write_report,
)


def simulated_blocks(scheme=Scheme.TWO_N, seed=4, repetitions=10):
    plan = ExperimentPlan(
        scheme=scheme,
        prep_settings=default_settings(scheme),
        meas_settings=default_settings(scheme),
        noise=NoiseModel(seed=seed),
        repetitions=repetitions,
    )
    return run_experiment(plan)


class TestMeasurementsRoundTrip:
    def test_full_blocks(self, tmp_path):
        path = str(tmp_path / "m.csv")
        blocks = simulated_blocks()
        save_measurements(path, blocks, Scheme.TWO_N)
        loaded, scheme = load_measurements(path)
        assert scheme is Scheme.TWO_N
        assert len(loaded) == 10
        for a, b in zip(blocks, loaded):
            assert np.array_equal(a, b)

    def test_compact_blocks(self, tmp_path):
        path = str(tmp_path / "m.csv")
        blocks = simulated_blocks(Scheme.N_PLUS_ONE)
        save_measurements(path, blocks, Scheme.N_PLUS_ONE)
        loaded, scheme = load_measurements(path)
        assert scheme is Scheme.N_PLUS_ONE
        assert all(m.shape == (4, 4) for m in loaded)

    def test_reanalysis_identical(self, tmp_path):
        # saving at repr precision keeps the statistics bit-identical
        path = str(tmp_path / "m.csv")
        blocks = simulated_blocks()
        save_measurements(path, blocks, Scheme.TWO_N)
        loaded, _ = load_measurements(path)
        before = delta_statistics(blocks)
        after = delta_statistics(loaded)
        np.testing.assert_allclose(after.mean, before.mean, atol=1e-15)
        np.testing.assert_allclose(after.std, before.std, atol=1e-15)


class TestMeasurementErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        return str(path)

    def test_out_of_range_entry_located(self, tmp_path):
        rows = ["0.0,0.0,0.0,0.0"] * 4
        rows[2] = "0.0,0.0,1.7,0.0"
        text = "# spamtomo-measurements v1 scheme=n+1 blocks=1\n" + "\n".join(rows) + "\n"
        with pytest.raises(DataFormatError) as excinfo:
            load_measurements(self.write(tmp_path, text))
        assert (excinfo.value.block, excinfo.value.row, excinfo.value.col) == (1, 3, 3)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_located(self, tmp_path, entry):
        rows = ["0.0,0.0,0.0,0.0"] * 4
        rows[1] = f"0.0,{entry},0.0,0.0"
        text = "# spamtomo-measurements v1 scheme=n+1 blocks=2\n" + "\n".join(rows) + "\n\n" + "\n".join(rows) + "\n"
        with pytest.raises(DataFormatError) as excinfo:
            load_measurements(self.write(tmp_path, text))
        assert (excinfo.value.block, excinfo.value.row, excinfo.value.col) == (1, 2, 2)

    def test_validation_rejects_nan(self):
        matrix = np.zeros((6, 6))
        matrix[3, 0] = np.nan
        with pytest.raises(ShapeError, match=r"\(4, 1\)"):
            validate_expectation_matrix(matrix)

    def test_wrong_column_count(self, tmp_path):
        text = (
            "# spamtomo-measurements v1 scheme=n+1 blocks=1\n"
            + "\n".join(["0.0,0.0,0.0,0.0"] * 3 + ["0.0,0.0,0.0"])
            + "\n"
        )
        with pytest.raises(DataFormatError, match="columns"):
            load_measurements(self.write(tmp_path, text))

    def test_malformed_value(self, tmp_path):
        text = (
            "# spamtomo-measurements v1 scheme=n+1 blocks=1\n"
            + "\n".join(["0.0,0.0,0.0,0.0"] * 3 + ["0.0,zero,0.0,0.0"])
            + "\n"
        )
        with pytest.raises(DataFormatError, match="not a number"):
            load_measurements(self.write(tmp_path, text))

    def test_missing_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="header"):
            load_measurements(self.write(tmp_path, "0.0,0.0,0.0,0.0\n"))

    def test_block_count_mismatch(self, tmp_path):
        text = (
            "# spamtomo-measurements v1 scheme=n+1 blocks=2\n"
            + "\n".join(["0.0,0.0,0.0,0.0"] * 4)
            + "\n"
        )
        with pytest.raises(DataFormatError, match="blocks"):
            load_measurements(self.write(tmp_path, text))

    def test_wrong_row_count(self, tmp_path):
        text = (
            "# spamtomo-measurements v1 scheme=n+1 blocks=1\n"
            + "\n".join(["0.0,0.0,0.0,0.0"] * 5)
            + "\n"
        )
        with pytest.raises(DataFormatError, match="rows"):
            load_measurements(self.write(tmp_path, text))


class TestReports:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "report.json")
        payload = {
            "schema": "spamtomo-report v1",
            "scheme": "2n",
            "threshold": 3.0,
            "delta_stats": {
                "mean": np.zeros((3, 3)),
                "std": np.ones((3, 3)),
                "significance": np.zeros((3, 3)),
                "repetitions": 10,
            },
        }
        write_report(path, payload)
        loaded = read_report(path)
        assert loaded["scheme"] == "2n"
        assert loaded["delta_stats"]["repetitions"] == 10
        assert loaded["delta_stats"]["mean"] == [[0.0] * 3] * 3

    def test_plot_grids(self, tmp_path):
        path = str(tmp_path / "grids.csv")
        report = {
            "scheme": "2n",
            "threshold": 3.0,
            "delta_stats": {
                "mean": [[0.1] * 3] * 3,
                "std": [[0.2] * 3] * 3,
                "significance": [[0.5] * 3] * 3,
                "repetitions": 10,
            },
        }
        emit_plot_data(report, path)
        text = open(path).read()
        assert "grid=mean" in text and "grid=std" in text and "grid=significance" in text
        assert "scheme=2n" in text

    def test_plot_grids_need_stats(self, tmp_path):
        with pytest.raises(SpamTomoError, match="statistics"):
            emit_plot_data({"scheme": "2n"}, str(tmp_path / "grids.csv"))
