import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

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
    run_experiment,
    save_measurements,
    validate_expectation_matrix,
    write_report,
)
from spamtomo import data_io


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

    def test_loads_one_stack(self, tmp_path):
        path = str(tmp_path / "m.csv")
        blocks = simulated_blocks(Scheme.N_PLUS_ONE, repetitions=3)
        save_measurements(path, blocks, Scheme.N_PLUS_ONE)
        loaded, _ = load_measurements(path)
        assert isinstance(loaded, np.ndarray)
        assert loaded.shape == (3, 4, 4) and loaded.dtype == float
        np.testing.assert_array_equal(loaded, blocks)

    def test_zero_blocks_give_empty_stack(self, tmp_path):
        path = str(tmp_path / "m.csv")
        save_measurements(path, np.empty((0, 6, 6)), Scheme.TWO_N)
        loaded, scheme = load_measurements(path)
        assert scheme is Scheme.TWO_N and loaded.shape == (0, 6, 6)

    def test_double_rounded_values_load_bit_exact(self, tmp_path):
        # samples as earlier versions simulated them, 2k/N - 1 rounded
        # twice: 17-digit values one ulp off the four-decimal fractions
        text = """\
# spamtomo-measurements v1 scheme=n+1 blocks=2
0.9934000000000001,0.07679999999999998,0.01540000000000008,0.8488
0.03400000000000003,-0.9908,0.09919999999999995,0.3320000000000001
-0.027000000000000024,0.052200000000000024,0.9990000000000001,0.35660000000000003
0.8612,0.3206,0.39280000000000004,0.8240000000000001

0.9936,0.07440000000000002,-0.008000000000000007,0.8444
0.020999999999999908,-0.9882,-0.0736,0.2669999999999999
0.009600000000000053,-0.08399999999999996,1.0,0.37359999999999993
0.8324,0.35620000000000007,0.37240000000000006,0.7587999999999999
"""
        path = tmp_path / "m.csv"
        path.write_text(text)
        loaded, scheme = load_measurements(str(path))
        expected = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:] if line]
        assert scheme is Scheme.N_PLUS_ONE
        assert np.array_equal(loaded, np.reshape(expected, (2, 4, 4)))
        assert loaded[0, 2, 2] != 0.999 and loaded[0, 2, 2] == 0.9990000000000001
        save_measurements(str(path), loaded, scheme)
        assert path.read_text() == text.rstrip("\n") + "\n"

    def test_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet exports begin with a UTF-8 byte-order mark
        path = tmp_path / "m.csv"
        blocks = simulated_blocks(Scheme.N_PLUS_ONE, repetitions=3)
        save_measurements(str(path), blocks, Scheme.N_PLUS_ONE)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded, scheme = load_measurements(str(path))
        assert scheme is Scheme.N_PLUS_ONE
        assert np.array_equal(loaded, blocks)

    @pytest.mark.parametrize("layout", ["crlf", "two_blank_lines", "whitespace_separators", "trailing_blank_lines"])
    def test_other_valid_layouts_load_the_same_stack(self, tmp_path, layout):
        path = tmp_path / "m.csv"
        save_measurements(str(path), simulated_blocks(repetitions=4), Scheme.TWO_N)
        canonical, _ = load_measurements(str(path))
        text = path.read_text(encoding="utf-8")
        text = {
            "crlf": text.replace("\n", "\r\n"),
            "two_blank_lines": text.replace("\n\n", "\n\n\n"),
            "whitespace_separators": text.replace("\n\n", "\n \t\n"),
            "trailing_blank_lines": text + "\n\n",
        }[layout]
        path.write_bytes(text.encode("utf-8"))
        loaded, scheme = load_measurements(str(path))
        assert scheme is Scheme.TWO_N
        assert loaded.shape == (4, 6, 6)
        assert loaded.tobytes() == canonical.tobytes()

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no_bom", "bom"])
    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("repetitions", [1, 3])
    def test_own_layout_is_read_without_the_line_scan(self, tmp_path, monkeypatch, scheme, repetitions, line_end, bom):
        # the saver's output, also as a Windows copy or a spreadsheet
        # export leaves it
        path = tmp_path / "m.csv"
        blocks = simulated_blocks(scheme, repetitions=repetitions)
        save_measurements(str(path), blocks, scheme)
        path.write_bytes(bom + path.read_bytes().replace(b"\n", line_end))

        def no_scan(*args):
            raise AssertionError("line scan used")

        monkeypatch.setattr(data_io, "_scanned_stack", no_scan)
        loaded, _ = load_measurements(str(path))
        assert loaded.tobytes() == blocks.tobytes()

    @pytest.mark.parametrize("change", ["fewer_blocks", "more_blocks", "no_blocks", "removed"])
    def test_file_changed_between_reads_loads_as_first_read(self, tmp_path, monkeypatch, change):
        # the chunked parse opens the file again; when it finds another
        # number of rows than the bytes checked before, or no file, the
        # line scan of those bytes decides, and no numpy warning shows
        path = tmp_path / "m.csv"
        blocks = simulated_blocks(repetitions=3)
        save_measurements(str(path), blocks, Scheme.TWO_N)
        parse = data_io._parse

        def change_then_parse(source, **kwargs):
            if isinstance(source, str):
                if change == "removed":
                    path.unlink()
                else:
                    stack = {"fewer_blocks": blocks[:2], "more_blocks": simulated_blocks(repetitions=4), "no_blocks": blocks[:0]}
                    save_measurements(str(path), stack[change], Scheme.TWO_N)
            return parse(source, **kwargs)

        monkeypatch.setattr(data_io, "_parse", change_then_parse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded, _ = load_measurements(str(path))
        assert loaded.tobytes() == blocks.tobytes()
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_record_under_a_compressed_file_name(self, tmp_path, suffix):
        # numpy's chunked reader opens such a name as a compressed file
        path = tmp_path / f"m.csv{suffix}"
        blocks = simulated_blocks(repetitions=3)
        save_measurements(str(path), blocks, Scheme.TWO_N)
        loaded, _ = load_measurements(str(path))
        assert loaded.tobytes() == blocks.tobytes()

    def test_loading_holds_no_string_per_line(self, tmp_path):
        # a 20,000-repetition record's peak memory while loading is its
        # bytes, a one-byte mask of them, then the stack: about 2.6 times
        # the file for samples of four decimals; decoding the text and
        # splitting it into one string per line held about 4.8 times
        path = tmp_path / "m.csv"
        stack = np.round(np.random.default_rng(5).uniform(-1.0, 1.0, (20_000, 6, 6)), 4)
        save_measurements(str(path), stack, Scheme.TWO_N)
        load_measurements(str(path))  # first-use allocations stay out
        tracemalloc.start()
        try:
            loaded, _ = load_measurements(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == stack.tobytes()
        assert peak < 3.5 * path.stat().st_size

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("repetitions", [1, 2, 257])
    def test_record_bytes_pinned(self, tmp_path, scheme, repetitions):
        # the file is the header, then each block's rows at repr precision
        # with a blank line after every block but the last, written here
        # line by line; signed zero and a subnormal keep their bits
        path = tmp_path / "m.csv"
        values = [-0.0, 5e-324, 1e-05, 1.0, -1.0, 0.0, 0.1234, -0.9999, 1 / 3, -2 / 3, 0.5]
        stack = np.resize(values, (repetitions, scheme.n_settings, scheme.n_settings))
        blocks = ["".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix) for matrix in stack]
        expected = f"# spamtomo-measurements v1 scheme={scheme.value} blocks={repetitions}\n" + "\n".join(blocks)
        save_measurements(str(path), stack, scheme)
        assert path.read_bytes() == expected.encode("ascii")
        loaded, loaded_scheme = load_measurements(str(path))
        assert loaded_scheme is scheme
        assert loaded.tobytes() == stack.tobytes()

    def test_saving_holds_one_matrix_of_floats_at_a_time(self, tmp_path):
        # a long record's peak memory while saving is its text, as rows and
        # then joined and encoded (about 4.3 times the file for samples of
        # four decimals); converting the whole stack to Python floats at
        # once held about 8 times the file
        path = tmp_path / "m.csv"
        stack = np.round(np.random.default_rng(5).uniform(-1.0, 1.0, (2000, 6, 6)), 4)
        save_measurements(str(path), stack, Scheme.TWO_N)  # first-use allocations stay out
        tracemalloc.start()
        try:
            save_measurements(str(path), stack, Scheme.TWO_N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * path.stat().st_size

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
    @pytest.mark.parametrize(
        "scheme,shape", [(Scheme.N_PLUS_ONE, (2, 6, 6)), (Scheme.TWO_N, (2, 5, 5)), (Scheme.TWO_N, (6, 6))]
    )
    def test_save_rejects_stack_of_another_scheme(self, tmp_path, scheme, shape):
        # a file load_measurements would refuse is never written
        path = tmp_path / "m.csv"
        with pytest.raises(ShapeError, match=rf"scheme {re.escape(scheme.value)} record"):
            save_measurements(str(path), np.zeros(shape), scheme)
        assert not path.exists()

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

    @pytest.mark.parametrize("entry,col", [("1_0", 2), ("", 3), ("#", 1), ("0.5 0.5", 4)])
    def test_unparseable_entry_located(self, tmp_path, entry, col):
        rows = ["0.0,0.0,0.0,0.0"] * 4
        values = rows[2].split(",")
        values[col - 1] = entry
        rows[2] = ",".join(values)
        text = "# spamtomo-measurements v1 scheme=n+1 blocks=2\n" + "\n".join(["0.0,0.0,0.0,0.0"] * 4) + "\n\n" + "\n".join(rows) + "\n"
        with pytest.raises(DataFormatError, match="not a number") as excinfo:
            load_measurements(self.write(tmp_path, text))
        assert (excinfo.value.block, excinfo.value.row, excinfo.value.col) == (2, 3, col)

    def test_malformed_lines_reported_in_file_order(self, tmp_path):
        # an unparseable entry in block 1 comes before a short block 2, and
        # a long row in block 1 before both
        block_1 = ["0.0,0.0,0.0,0.0", "0.0,zero,0.0,0.0", "0.0,0.0,0.0,0.0", "0.0,0.0,0.0,0.0"]
        block_2 = ["0.0,0.0,0.0,0.0"] * 3
        for rows, expected in ((block_1, (1, 2, 2)), (["0.0,0.0,0.0,0.0,0.0"] + block_1[1:], (1, 1, None))):
            text = "# spamtomo-measurements v1 scheme=n+1 blocks=2\n" + "\n".join(rows) + "\n\n" + "\n".join(block_2) + "\n"
            with pytest.raises(DataFormatError) as excinfo:
                load_measurements(self.write(tmp_path, text))
            assert (excinfo.value.block, excinfo.value.row, excinfo.value.col) == expected
        text = "# spamtomo-measurements v1 scheme=n+1 blocks=2\n" + "\n".join(block_2) + "\n\n" + "\n".join(block_1) + "\n"
        with pytest.raises(DataFormatError, match="block 1 has 3 rows"):
            load_measurements(self.write(tmp_path, text))

    def test_malformed_number_parses_each_row_once(self, tmp_path, monkeypatch):
        # the error search parses each good row whole and only the failing
        # row cell by cell, after the chunked parse and the line scan's
        path = str(tmp_path / "m.csv")
        save_measurements(path, np.zeros((2000, 6, 6)), Scheme.TWO_N)
        text = Path(path).read_text()
        Path(path).write_text(text[: text.rindex(",") + 1] + "zero\n")
        parse, calls = data_io._parse, []

        def counted(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(data_io, "_parse", counted)
        with pytest.raises(DataFormatError, match=r"^block 2000, row 6, column 6: 'zero' is not a number$"):
            load_measurements(path)
        assert len(calls) <= 2000 * 6 + 6 + 2

    def test_parse_checked_before_range(self, tmp_path):
        block_1 = ["0.0,0.0,7.0,0.0"] + ["0.0,0.0,0.0,0.0"] * 3
        block_2 = ["0.0,0.0,0.0,0.0"] * 3 + ["0.0,zero,0.0,0.0"]
        text = "# spamtomo-measurements v1 scheme=n+1 blocks=2\n" + "\n".join(block_1) + "\n\n" + "\n".join(block_2) + "\n"
        with pytest.raises(DataFormatError, match="not a number") as excinfo:
            load_measurements(self.write(tmp_path, text))
        assert (excinfo.value.block, excinfo.value.row, excinfo.value.col) == (2, 4, 2)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"# spamtomo-measurements v1 scheme=n+1 blocks=1\n\xff\xfe\n")
        with pytest.raises(DataFormatError, match="UTF-8"):
            load_measurements(str(path))

    def test_not_utf8_reported_before_the_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"spamtomo-measurements v1 scheme=n+1 blocks=1\n0.0,\xff,0.0,0.0\n")
        with pytest.raises(DataFormatError, match="not UTF-8 text"):
            load_measurements(str(path))

    def test_missing_header(self, tmp_path):
        with pytest.raises(DataFormatError, match="header"):
            load_measurements(self.write(tmp_path, "0.0,0.0,0.0,0.0\n"))

    @pytest.mark.parametrize("fields, message", [
        ("scheme=3n blocks=1", "unknown scheme '3n' in header"),
        ("scheme=2n blocks=ten", "block count 'ten' is not an integer"),
    ])
    def test_header_values_checked(self, tmp_path, fields, message):
        with pytest.raises(DataFormatError) as excinfo:
            load_measurements(self.write(tmp_path, f"# spamtomo-measurements v1 {fields}\n"))
        assert str(excinfo.value) == message
        assert (excinfo.value.block, excinfo.value.row, excinfo.value.col) == (None, None, None)

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

    @pytest.mark.parametrize("rows,message", [
        ([",".join(["0.5"] * 16), "", "", ""], "block 1 has 1 rows, expected 4"),
        ([",".join(["0.25"] * 8), "", ",".join(["0.25"] * 8), ""], "header declares 1 blocks but file contains 2"),
        (["", "", "", ""], "header declares 1 blocks but file contains 0"),
    ])
    def test_empty_rows_not_made_up_by_wide_rows(self, tmp_path, rows, message):
        # the right line count, with empty lines in place of rows and any
        # values on wider rows; such a file never reaches the parser, so
        # numpy does not warn of empty input either
        text = "# spamtomo-measurements v1 scheme=n+1 blocks=1\n" + "\n".join(rows) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError) as excinfo:
                load_measurements(self.write(tmp_path, text))
        assert str(excinfo.value) == message


def oracle_jsonify(obj):
    """Test oracle: the element-by-element conversion the report writer
    used to pass to ``json.dump(..., sort_keys=True, indent=2)``."""
    if isinstance(obj, np.ndarray):
        return oracle_jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return oracle_jsonify(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: oracle_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_jsonify(v) for v in obj]
    return obj


class TestReports:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "report.json")
        payload = {
            "schema": "spamtomo-report v3",
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
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["scheme"] == "2n"
        assert loaded["delta_stats"]["repetitions"] == 10
        assert loaded["delta_stats"]["mean"] == [[0.0] * 3] * 3

    def test_non_finite_numbers_written_as_strings(self, tmp_path):
        path = str(tmp_path / "report.json")
        significance = np.array([[np.inf, 1.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, np.nan]])
        payload = {
            "scheme": "2n",
            "threshold": 3.0,
            "delta_stats": {"mean": np.zeros((3, 3)), "std": np.zeros((3, 3)),
                            "significance": significance, "repetitions": 2},
        }
        write_report(path, payload)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        loaded = json.loads(Path(path).read_text(), parse_constant=reject)
        assert loaded["delta_stats"]["significance"][0][:2] == ["inf", 1.0]
        assert loaded["delta_stats"]["significance"][1][1] == "-inf"
        assert loaded["delta_stats"]["significance"][2][2] == "nan"
        np.testing.assert_array_equal(
            np.asarray(loaded["delta_stats"]["significance"], dtype=float), significance
        )
        grids = str(tmp_path / "grids.csv")
        emit_plot_data(loaded, grids)
        assert "inf,1.0,0.0" in Path(grids).read_text()

    def test_bytes_equal_streaming_encoder(self, tmp_path):
        payload = {
            "schema": "spamtomo-report v3",
            "samples": np.random.default_rng(5).uniform(-1, 1, (3, 4, 4)),
            "delta_stats": {
                "mean": np.array([[0.1, -0.0, 1e-300], [2.5e-17, 1.0, -1.0], [0.0, 3.0, 7.0]]),
                "significance": np.array([[np.inf, 1.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, np.nan]]),
                "repetitions": np.int64(10),
            },
            "flags": np.array([True, False]),
            "counts": np.arange(3),
            "empty": np.empty((0, 3)),
            "detection": {"flagged_elements": [(1, 2, np.float64(4.5)), (3, 3, float("inf"))],
                          "candidate_locations": [(1, 1)], "note": "aliasing \u00e9", "detected": True},
            "nested": [[1.0, [float("-inf"), (float("nan"), None)]], (), {"b": np.float64(-np.inf), "a": 1}],
            "threshold": 3.0,
            "none": None,
        }
        old = tmp_path / "old.json"
        with open(old, "w", encoding="utf-8") as handle:
            json.dump(oracle_jsonify(payload), handle, sort_keys=True, indent=2, allow_nan=False)
            handle.write("\n")
        new = tmp_path / "new.json"
        write_report(str(new), payload)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("value", [np.bool_(True), 1j, {1, 2}, object()])
    def test_unsupported_values_raise_type_error(self, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            json.dumps(oracle_jsonify({"x": [value]}))
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_report(str(path), {"x": [value]})
        assert not path.exists()

    def test_non_string_key_raises_type_error(self, tmp_path):
        with pytest.raises(TypeError):
            write_report(str(tmp_path / "report.json"), {"a": {1: 0.5}})

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
        text = Path(path).read_text()
        assert "grid=mean" in text and "grid=std" in text and "grid=significance" in text
        assert "scheme=2n" in text

    def test_plot_grids_need_stats(self, tmp_path):
        with pytest.raises(SpamTomoError, match="statistics"):
            emit_plot_data({"scheme": "2n"}, str(tmp_path / "grids.csv"))
