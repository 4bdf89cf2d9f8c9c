import json

import numpy as np
import pytest

from spamtomo import (
    ConfigError,
    ExperimentPlan,
    NoiseModel,
    RunConfig,
    Scheme,
    SourceKind,
    load_config,
    parse_angle,
)


def write_config(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi/16", np.pi / 16),
            ("5pi/16", 5 * np.pi / 16),
            ("3*pi/16", 3 * np.pi / 16),
            ("-pi/4", -np.pi / 4),
            ("pi", np.pi),
            ("0.5", 0.5),
            (0, 0.0),
            (0.7853981634, 0.7853981634),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-12)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_angle("one quarter turn")

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            parse_angle(float("inf"))


class TestLoadConfig:
    def test_minimal_config_defaults(self, tmp_path):
        path = write_config(tmp_path, {"scheme": "n+1", "state": "pure_h", "seed": 1})
        config = load_config(path)
        plan = config.experiment
        assert plan.scheme is Scheme.N_PLUS_ONE
        assert plan.source is SourceKind.PURE_H
        assert plan.noise.seed == 1
        assert plan.noise.shots_per_setting == 10_000
        assert plan.repetitions == 10
        assert config.detection_threshold == 3.0
        # defaults fall back to the first four angle pairs
        assert len(plan.prep_settings) == 4
        assert plan.prep_settings[3].qwp_angle == pytest.approx(np.pi / 16)
        assert plan.prep_settings[3].hwp_angle == pytest.approx(np.pi / 16)

    def test_injection_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            {"error_injections": [{"prep": 1, "setting": 1, "hwp_offset": 0.7853981634}]},
        )
        config = load_config(path)
        injection = config.experiment.errors[0]
        assert (injection.prep_index, injection.setting_index) == (1, 1)
        assert injection.hwp_offset == pytest.approx(np.pi / 4, abs=1e-9)

    def test_pi_fraction_injection(self, tmp_path):
        path = write_config(
            tmp_path,
            {"error_injections": [{"prep": 2, "setting": 2, "hwp_offset": "pi/4"}]},
        )
        config = load_config(path)
        assert config.experiment.errors[0].hwp_offset == pytest.approx(np.pi / 4, abs=1e-15)

    def test_rejects_zero_shots(self, tmp_path):
        path = write_config(tmp_path, {"shots": 0})
        with pytest.raises(ConfigError, match="shots"):
            load_config(path)

    def test_analytic_shots(self, tmp_path):
        for value in (None, "inf"):
            path = write_config(tmp_path, {"shots": value})
            assert load_config(path).experiment.noise.shots_per_setting is None

    def test_rejects_unknown_key(self, tmp_path):
        path = write_config(tmp_path, {"shotz": 100})
        with pytest.raises(ConfigError, match="shotz"):
            load_config(path)

    def test_rejects_wrong_angle_count(self, tmp_path):
        path = write_config(
            tmp_path, {"scheme": "2n", "prep_angles": [["0", "0"]] * 5}
        )
        with pytest.raises(ConfigError, match="prep_angles"):
            load_config(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": 1,\n  "shots": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_explicit_angles(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scheme": "n+1",
                "meas_angles": [["0", "0"], ["pi/4", "0"], ["pi/4", "pi/8"], ["pi/16", "pi/16"]],
            },
        )
        config = load_config(path)
        assert config.experiment.meas_settings[2].hwp_angle == pytest.approx(np.pi / 8)

    def test_known_povms_shape_checked(self, tmp_path):
        path = write_config(tmp_path, {"known_povms": [[0, 0, 1], [0, 1, 0]]})
        with pytest.raises(ConfigError, match="known_povms"):
            load_config(path)

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"state": "circular"}, "state"),
            ({"scheme": "3n"}, "scheme"),
            ({"error_injections": [{"prep": "x", "setting": 1, "hwp_offset": 0.1}]}, "error_injections[0].prep"),
            ({"error_injections": [{"prep": 1.7, "setting": 1, "hwp_offset": 0.1}]}, "error_injections[0].prep"),
            ({"error_injections": [{"prep": 1, "setting": True, "hwp_offset": 0.1}]}, "error_injections[0].setting"),
            ({"repetitions": 2.5}, "repetitions"),
            ({"repetitions": True}, "repetitions"),
            ({"shots": 2**63}, "shots"),
            ({"shots": 100000000000000000000}, "shots"),
            ({"angle_jitter_sigma": True}, "angle_jitter_sigma"),
            ({"input_data": 5}, "input_data"),
            ({"output_dir": 5}, "output_dir"),
            ({"threshold": float("nan")}, "threshold"),
            ({"threshold": float("inf")}, "threshold"),
            # a simulated analysis needs two repetitions for its statistics
            ({"repetitions": 1}, "repetitions"),
            ({"mode": "analyze", "repetitions": 1}, "repetitions"),
            # wrongly typed values name their key
            ({"threshold": "3"}, "threshold"),
            ({"threshold": True}, "threshold"),
            ({"angle_jitter_sigma": "0.1"}, "angle_jitter_sigma"),
            ({"known_povms": [[0, 0, 1], [0, 1, 0], ["a", 0, 0]]}, "known_povms"),
            ({"known_povms": [[0, 0, 1], [0, 1, 0], ["1", 0, 0]]}, "known_povms"),
            ({"known_povms": [[0, 0, 1], [0, 1, 0], [True, 0, 0]]}, "known_povms"),
            ({"known_povms": [[0, 0, 1], [0, 1, 0], [1, 0]]}, "known_povms"),
            # angle strings that parse to a non-finite number
            ({"prep_angles": [["1e400", 0]] + [[0, 0]] * 5}, "prep_angles[0].qwp"),
            ({"meas_angles": [[0, "-inf"]] + [[0, 0]] * 5}, "meas_angles[0].hwp"),
            ({"error_injections": [{"prep": 1, "setting": 1, "hwp_offset": "nan"}]}, "error_injections[0].hwp_offset"),
            ({"error_injections": [{"prep": 1, "setting": 1, "hwp_offset": "1" + "0" * 400 + "pi"}]},
             "error_injections[0].hwp_offset"),
        ],
    )
    def test_rejects_unparseable_field(self, tmp_path, payload, field):
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, payload))
        assert excinfo.value.field == field
        assert field in str(excinfo.value)

    def test_bad_threshold(self, tmp_path):
        path = write_config(tmp_path, {"threshold": -1})
        with pytest.raises(ConfigError, match="threshold"):
            load_config(path)


class TestRunConfig:
    def test_single_repetition_allowed_without_statistics(self, tmp_path):
        one = ExperimentPlan(repetitions=1)
        assert RunConfig(mode="simulate", experiment=one).experiment.repetitions == 1
        data = str(tmp_path / "m.csv")
        assert RunConfig(mode="analyze", experiment=one, input_data_path=data).experiment.repetitions == 1

    @pytest.mark.parametrize("repetitions", [2.5, True])
    def test_rejects_non_integer_repetitions(self, repetitions):
        with pytest.raises(ConfigError) as excinfo:
            RunConfig(experiment=ExperimentPlan(repetitions=repetitions))
        assert excinfo.value.field == "repetitions"

    def test_largest_shot_budget_accepted(self):
        config = RunConfig(experiment=ExperimentPlan(noise=NoiseModel(shots_per_setting=2**63 - 1)))
        assert config.experiment.noise.shots_per_setting == 2**63 - 1

    def test_plan_round_trip(self):
        config = RunConfig(experiment=ExperimentPlan(scheme=Scheme.N_PLUS_ONE, noise=NoiseModel(seed=9)))
        plan = config.plan()
        assert plan is config.experiment
        assert plan.scheme is Scheme.N_PLUS_ONE
        assert plan.noise.seed == 9
        assert len(plan.prep_settings) == 4

    def test_echo_is_json_serializable(self):
        config = RunConfig()
        json.dumps(config.to_dict())
