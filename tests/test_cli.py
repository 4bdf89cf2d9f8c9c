import json
import os
import re
import warnings

import numpy as np
import pytest

from spamtomo import ConfigError, ExperimentPlan, NoiseModel, load_config, run, save_measurements
from spamtomo.cli import build_parser, main
from conftest import tiny_corner_stack


def write_config(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestCli:
    def test_full_null_run(self, tmp_path, capsys):
        code = main(["full", "--seed", "42", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no correlated SPAM errors detected" in out
        assert os.path.exists(tmp_path / "report.json")
        assert os.path.exists(tmp_path / "measurements.csv")

    def test_detection_exit_code(self, tmp_path):
        config = write_config(
            tmp_path,
            {"seed": 42, "error_injections": [{"prep": 1, "setting": 1, "hwp_offset": "pi/4"}]},
        )
        code = main(["full", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 2

    def test_compact_detection_prints_the_indeterminate_note(self, tmp_path, capsys):
        # with four settings a detection has no candidate locations; the
        # note says so in their place
        config = write_config(tmp_path, {"error_injections": [{"prep": 1, "setting": 1, "hwp_offset": "pi/4"}]})
        code = main(["analyze", "--config", config, "--seed", "0", "--scheme", "n+1", "--out", str(tmp_path / "out")])
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("correlated SPAM error detected: deviation at element (1, 1)")
        assert lines[1] == (
            "correlated error present, location indeterminate: with four settings the "
            "duplicated rows/columns alias distinct errors onto row 1/column 1"
        )
        assert not any(line.startswith("candidate locations") for line in lines)

    def test_flag_overrides(self, tmp_path):
        config = write_config(tmp_path, {"seed": 1, "scheme": "2n"})
        code = main(
            [
                "analyze",
                "--config",
                config,
                "--out",
                str(tmp_path / "out"),
                "--seed",
                "7",
                "--scheme",
                "n+1",
                "--threshold",
                "4.5",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["seed"] == 7
        assert payload["scheme"] == "n+1"
        assert payload["threshold"] == 4.5

    def test_analyze_loaded_data(self, tmp_path):
        out_a = str(tmp_path / "a")
        assert main(["simulate", "--seed", "3", "--out", out_a]) == 0
        code = main(
            ["analyze", "--data", os.path.join(out_a, "measurements.csv"), "--out", str(tmp_path / "b")]
        )
        assert code == 0

    def test_analyze_compact_record_needs_its_scheme(self, tmp_path, capsys):
        # an n+1 record analysed in the default scheme is refused with the
        # fix named; in its own scheme it is analysed
        out_a = str(tmp_path / "a")
        assert main(["simulate", "--seed", "3", "--scheme", "n+1", "--out", out_a]) == 0
        data = os.path.join(out_a, "measurements.csv")
        capsys.readouterr()
        assert main(["analyze", "--data", data, "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert "data file uses scheme n+1" in err
        assert '"scheme": "n+1"' in err and "--scheme n+1" in err
        code = main(["analyze", "--data", data, "--scheme", "n+1", "--out", str(tmp_path / "c")])
        assert code in (0, 2)
        with open(tmp_path / "c" / "report.json") as handle:
            assert json.load(handle)["scheme"] == "n+1"

    def test_analyze_data_with_byte_order_mark(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"seed": 5, "error_injections": [{"prep": 1, "setting": 1, "hwp_offset": "pi/4"}]},
        )
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "a")]) == 0
        plain = tmp_path / "a" / "measurements.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        capsys.readouterr()
        verdicts = []
        for data, out in ((plain, "b"), (marked, "c")):
            code = main(["analyze", "--data", str(data), "--out", str(tmp_path / out)])
            verdicts.append((code, capsys.readouterr().out.splitlines()[:2]))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0] == 2

    def test_non_utf8_data_exit_code(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_bytes(b"# spamtomo-measurements v1 scheme=n+1 blocks=1\n\xff\xfe\n")
        assert main(["analyze", "--data", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 3}).encode())
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--seed", "3", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "measurements.csv").read_bytes() == (tmp_path / "b" / "measurements.csv").read_bytes()

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: configuration file is not UTF-8 text")

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["analyze", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, {"shots": 0})
        code = main(["full", "--config", config])
        assert code == 1

    def test_singular_known_observables_exit_code(self, tmp_path, capsys):
        # the loop inverts the known observables first and names them
        config = write_config(tmp_path, {"seed": 1, "known_povms": [[0, 0, 0]] * 3})
        code = main(["full", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "near-singular known observables" in capsys.readouterr().err

    def test_non_finite_data_exit_code(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        assert main(["simulate", "--seed", "3", "--out", out_a]) == 0
        path = tmp_path / "a" / "measurements.csv"
        lines = path.read_text().splitlines()
        values = lines[8].split(",")
        values[4] = "nan"
        lines[8] = ",".join(values)
        path.write_text("\n".join(lines))
        code = main(["analyze", "--data", str(path), "--out", str(tmp_path / "b")])
        assert code == 1
        assert "block 2, row 1, column 5" in capsys.readouterr().err

    def test_overflowing_statistics_exit_code(self, tmp_path, capsys):
        # every entry in range, but the statistics overflow: that is named,
        # with no numpy warning, no report and no clean verdict
        path = str(tmp_path / "tiny.csv")
        save_measurements(path, tiny_corner_stack(np.random.default_rng(0)), "2n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", "--data", path, "--out", str(tmp_path / "out")])
        assert code == 1
        assert caught == []
        assert re.match(r"error: standard deviation of Delta element \(\d, \d\) is inf, not finite$", capsys.readouterr().err)
        assert not (tmp_path / "out" / "report.json").exists()

    def test_unparseable_config_value_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, {"state": "circular"})
        assert main(["full", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error: state must be one of")

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exit_code(self, tmp_path, capsys, threshold):
        # a NaN or infinite threshold would flag nothing: a false "clean" verdict
        config = write_config(
            tmp_path,
            {"seed": 42, "error_injections": [{"prep": 1, "setting": 1, "hwp_offset": "pi/4"}]},
        )
        code = main(["analyze", "--config", config, "--threshold", threshold, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: threshold must be a finite number")

    def test_single_repetition_file_simulates(self, tmp_path):
        # the file is validated in the subcommand's mode, not its own default
        config = write_config(tmp_path, {"seed": 3, "repetitions": 1})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 0
        header = (tmp_path / "out" / "measurements.csv").read_text().splitlines()[0]
        assert header.endswith("blocks=1")

    def test_single_repetition_file_cannot_analyze(self, tmp_path, capsys):
        config = write_config(tmp_path, {"seed": 3, "repetitions": 1})
        assert main(["analyze", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert "repetitions" in capsys.readouterr().err

    # too many bytes to allocate; beyond numpy's largest array dimension
    @pytest.mark.parametrize("repetitions", [10**13, 10**20])
    def test_record_too_large_exit_code(self, tmp_path, capsys, repetitions):
        config = write_config(tmp_path, {"repetitions": repetitions})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: repetitions={repetitions} is too large")
        with pytest.raises(ConfigError) as exc:
            run(load_config(config))
        assert exc.value.field == "repetitions"

    # an integer beyond the float range, in each float-valued key
    @pytest.mark.parametrize("payload,field", [
        ({"threshold": 10**400}, "threshold"),
        ({"angle_jitter_sigma": 10**400}, "angle_jitter_sigma"),
        ({"prep_angles": [[10**400, 0]] + [[0, 0]] * 5}, "prep_angles[0].qwp"),
        ({"meas_angles": [[0, 0]] * 5 + [[0, -10**400]]}, "meas_angles[5].hwp"),
        ({"error_injections": [{"prep": 1, "setting": 1, "hwp_offset": 10**400}]}, "error_injections[0].hwp_offset"),
        ({"known_povms": [[1, 0, 0], [0, 10**400, 0], [0, 0, 1]]}, "known_povms"),
    ], ids=["threshold", "angle_jitter_sigma", "prep_angles", "meas_angles", "hwp_offset", "known_povms"])
    def test_huge_integer_exit_code(self, tmp_path, capsys, payload, field):
        config = write_config(tmp_path, payload)
        assert main(["analyze", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ") and "finite" in err and err.count("\n") == 1
        with pytest.raises(ConfigError) as exc:
            load_config(config)
        assert exc.value.field == field

    def test_deeply_nested_config_exit_code(self, tmp_path, capsys):
        depth = 100_000
        path = tmp_path / "run.json"
        path.write_text('{"mode": "analyze", "x": ' + "[" * depth + "]" * depth + "}")
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: configuration file is nested too deeply to parse\n"

    def test_integer_beyond_digit_limit_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text('{"threshold": 1' + "0" * 5000 + "}")
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: configuration parse error: ") and err.count("\n") == 1

    def test_scheme_flag_replaces_file_angles(self, tmp_path):
        # six angle pairs fit the file's 2n scheme; --scheme n+1 falls back
        # to the four default pairs of the new scheme
        angles = [["0", "0"], ["pi/4", "0"], ["pi/4", "pi/8"],
                  ["pi/16", "pi/16"], ["5pi/16", "pi/16"], ["5pi/16", "3pi/16"]]
        config = write_config(tmp_path, {"seed": 5, "scheme": "2n", "prep_angles": angles, "meas_angles": angles})
        code = main(["analyze", "--config", config, "--scheme", "n+1", "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["scheme"] == "n+1"
        assert len(payload["config"]["prep_angles"]) == 4

    def test_rerun_writes_new_output_files(self, tmp_path):
        # a rerun into a used directory replaces each output file instead of
        # rewriting it in place, so a hard link keeps the old bytes
        out = tmp_path / "out"
        names = ("report.json", "measurements.csv", "plot_grids.csv", "timing.txt")
        assert main(["full", "--seed", "3", "--out", str(out)]) == 0
        for name in names:
            os.link(out / name, tmp_path / name)
        old = {name: (out / name).read_bytes() for name in names}
        assert main(["full", "--seed", "4", "--out", str(out)]) == 0
        for name in names:
            assert (tmp_path / name).read_bytes() == old[name], name
            assert not os.path.samefile(out / name, tmp_path / name), name
        assert (out / "report.json").read_bytes() != old["report.json"]


class TestParser:
    @pytest.mark.parametrize("mode", ["simulate", "analyze", "reconstruct", "full"])
    def test_each_mode_parses_and_runs(self, tmp_path, capsys, mode):
        args = build_parser().parse_args([mode, "--seed", "4", "--out", str(tmp_path)])
        assert (args.mode, args.seed, args.out) == (mode, 4, str(tmp_path))
        assert main([mode, "--seed", "4", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["config"]["mode"] == mode
        assert capsys.readouterr().out.endswith(f"report written to {tmp_path / 'report.json'}\n")

    def test_flags_before_mode(self, tmp_path):
        args = build_parser().parse_args(["--scheme", "n+1", "--threshold", "2.5", "analyze", "--data", "m.csv"])
        assert (args.mode, args.scheme, args.threshold, args.data) == ("analyze", "n+1", 2.5, "m.csv")

    def test_help_lists_modes_and_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "analyze", "reconstruct", "full",
                     "--config", "--data", "--out", "--seed", "--threshold", "--scheme"):
            assert name in out

    def test_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        assert main(["full", "--seed", "3", "--scheme", "n+1", "--out", str(tmp_path / "a")]) == 0
        assert main(["full", "--out", str(tmp_path / "b")]) == 0
        first, second = (json.loads((tmp_path / out / "report.json").read_text()) for out in ("a", "b"))
        assert (first["seed"], first["scheme"]) == (3, "n+1")
        assert (second["seed"], second["scheme"]) == (NoiseModel.seed, ExperimentPlan.scheme.value)
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["--help"])
        assert capsys.readouterr().out == build_parser().format_help()

    @pytest.mark.parametrize(
        "argv",
        [["bogus"], [], ["--seed", "3"], ["full", "extra"], ["full", "--seed", "abc"], ["full", "--scheme", "3n"]],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # status 2 means a detected correlated error, so a typo must not
        # exit with argparse's usual 2
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: spamtomo" in capsys.readouterr().err
