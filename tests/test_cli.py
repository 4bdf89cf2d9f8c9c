import json
import os

import numpy as np

from spamtomo.cli import main


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
