import json
import os

import numpy as np
import pytest

from spamtomo.cli import build_parser, main


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
        payload = json.load(open(tmp_path / "out" / "report.json"))
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

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["analyze", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, {"shots": 0})
        code = main(["full", "--config", config])
        assert code == 1

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

    def test_scheme_flag_replaces_file_angles(self, tmp_path):
        # six angle pairs fit the file's 2n scheme; --scheme n+1 falls back
        # to the four default pairs of the new scheme
        angles = [["0", "0"], ["pi/4", "0"], ["pi/4", "pi/8"],
                  ["pi/16", "pi/16"], ["5pi/16", "pi/16"], ["5pi/16", "3pi/16"]]
        config = write_config(tmp_path, {"seed": 5, "scheme": "2n", "prep_angles": angles, "meas_angles": angles})
        code = main(["analyze", "--config", config, "--scheme", "n+1", "--out", str(tmp_path / "out")])
        assert code == 0
        payload = json.load(open(tmp_path / "out" / "report.json"))
        assert payload["scheme"] == "n+1"
        assert len(payload["config"]["prep_angles"]) == 4


class TestParser:
    @pytest.mark.parametrize("mode", ["simulate", "analyze", "reconstruct", "full"])
    def test_each_mode_parses_and_runs(self, tmp_path, capsys, mode):
        args = build_parser().parse_args([mode, "--seed", "4", "--out", str(tmp_path)])
        assert (args.mode, args.seed, args.out) == (mode, 4, str(tmp_path))
        assert main([mode, "--seed", "4", "--out", str(tmp_path)]) == 0
        assert json.load(open(tmp_path / "report.json"))["config"]["mode"] == mode
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

    @pytest.mark.parametrize("argv", [["bogus"], [], ["--seed", "3"], ["full", "extra"]])
    def test_bad_mode_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: spamtomo" in capsys.readouterr().err
