import json
import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from spamtomo import (
    DEFAULT_HWP_ANGLES,
    DEFAULT_QWP_ANGLES,
    ConfigError,
    DeltaStats,
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    NonPhysicalError,
    RunConfig,
    Scheme,
    ShapeError,
    SourceKind,
    WavePlateSetting,
    config_from_dict,
    detect,
    load_config,
    parse_angle,
)
from spamtomo.config import _check_span


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

    @pytest.mark.parametrize("value", [True, None, [0.5], complex(1, 0)], ids=repr)
    def test_rejects_what_is_not_a_real_number(self, value):
        with pytest.raises(ConfigError) as excinfo:
            parse_angle(value, "qwp")
        assert str(excinfo.value) == f"qwp must be a finite number, got {value!r}"
        assert excinfo.value.field == "qwp"

    def test_accepts_numpy_floats(self):
        assert parse_angle(np.float32(0.5)) == 0.5
        assert type(parse_angle(np.float64(0.25))) is float


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
            # an index that parses but lies below 1
            ({"error_injections": [{"prep": 0, "setting": 1, "hwp_offset": 0}]}, "error_injections"),
        ],
    )
    def test_rejects_unparseable_field(self, tmp_path, payload, field):
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, payload))
        assert excinfo.value.field == field
        assert field in str(excinfo.value)

    @pytest.mark.parametrize("raw, message, field", [
        ([{"seed": 1}], "configuration must be a JSON object", None),
        ({"shots": "many"}, "shots must be an integer, null or 'inf', got 'many'", "shots"),
        ({"error_injections": [{"prep": 1, "setting": 1}]}, "error_injections[0] is missing ['hwp_offset']",
         "error_injections"),
    ], ids=["not an object", "shots word", "injection without offset"])
    def test_document_errors_named(self, raw, message, field):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(raw)
        assert str(excinfo.value) == message
        assert excinfo.value.field == field

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

    def test_known_povms_of_unequal_shapes(self):
        # arrays numpy cannot stack even as objects
        with pytest.raises(ConfigError, match=r"^known_povms must be three 3-vectors of finite numbers, got ") as excinfo:
            RunConfig(known_povms=[np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2))])
        assert excinfo.value.field == "known_povms"

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

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_default_settings_span(self, scheme):
        # a run on the defaults skips the check, so they must pass it
        _check_span(ExperimentPlan(scheme=scheme))

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("key", ["prep_angles", "meas_angles"])
    def test_settings_that_cannot_span_rejected_before_analysis(self, tmp_path, scheme, key):
        n = scheme.n_settings
        raw = {"scheme": scheme.value, key: [[0, 0]] * n}
        for extra in ({"mode": "analyze"}, {"mode": "reconstruct"}, {"mode": "full"},
                      {"mode": "analyze", "input_data": str(tmp_path / "m.csv")}):
            with pytest.raises(ConfigError, match="linearly independent") as excinfo:
                config_from_dict({**raw, **extra})
            assert excinfo.value.field == key
        assert config_from_dict({**raw, "mode": "simulate"}).mode == "simulate"
        # other settings that span still run
        reordered = [list(pair) for pair in zip(DEFAULT_QWP_ANGLES[:n], DEFAULT_HWP_ANGLES[:n])][::-1]
        assert config_from_dict({**raw, key: reordered, "mode": "analyze"}).mode == "analyze"

    def test_echo_is_json_serializable(self):
        config = RunConfig()
        json.dumps(config.to_dict())


def oracle_integer(value):
    """The ``numbers.Integral`` rule: any integral number but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def oracle_finite_real(value):
    """The ``numbers.Real`` rule: a real number, not a bool, finite as a
    float (an int beyond the float range is not)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


NUMBER_LIKE = [
    True, False, 0, 1, 3, -2, 2**63 - 1, 2**63, 2**64, 10**400,
    np.int64(3), np.uint64(3), np.int8(0), np.bool_(True),
    0.5, 2.0, -0.5, 0.0, -0.0, 1e-300, float("nan"), float("inf"), -float("inf"), 1e308,
    np.float64(0.5), np.float32(0.5), np.float32(float("inf")), np.float32(float("nan")), np.float16(2.0),
    Fraction(1, 2), Fraction(3), Decimal("0.5"), Decimal(3), Decimal("nan"),
    np.array(3.0), np.array(3), "3", "0.5", None, [3], complex(1, 0),
]


def _detect_threshold(value):
    return detect(DeltaStats(np.zeros((3, 3)), np.ones((3, 3)), np.zeros((3, 3)), 2, Scheme.TWO_N), value)


# field -> (build it from a value, the rule it must follow, the error a
# refusal raises)
VALIDATED_FIELDS = {
    "prep": (lambda v: ErrorInjection(v, 1, 0.1), lambda v: oracle_integer(v) and v >= 1, ConfigError),
    "setting": (lambda v: ErrorInjection(1, v, 0.1), lambda v: oracle_integer(v) and v >= 1, ConfigError),
    "hwp_offset": (lambda v: ErrorInjection(1, 1, v), oracle_finite_real, ConfigError),
    "shots": (lambda v: NoiseModel(shots_per_setting=v),
              lambda v: v is None or (oracle_integer(v) and 1 <= v < 2**63), ConfigError),
    "seed": (lambda v: NoiseModel(seed=v), lambda v: oracle_integer(v) and 0 <= v < 2**64, ConfigError),
    "repetitions": (lambda v: ExperimentPlan(repetitions=v), lambda v: oracle_integer(v) and v >= 1, ConfigError),
    "angle_jitter_sigma": (lambda v: NoiseModel(angle_jitter_sigma=v),
                           lambda v: oracle_finite_real(v) and v >= 0, ConfigError),
    "threshold": (lambda v: RunConfig(mode="simulate", detection_threshold=v),
                  lambda v: oracle_finite_real(v) and v > 0, ConfigError),
    "qwp": (lambda v: WavePlateSetting(v, 0.0), oracle_finite_real, NonPhysicalError),
    "hwp": (lambda v: WavePlateSetting(0.0, v), oracle_finite_real, NonPhysicalError),
    "detect_threshold": (_detect_threshold, lambda v: oracle_finite_real(v) and v > 0, ShapeError),
    # a string is parsed first, and the two strings above are finite
    "angle": (parse_angle, lambda v: oracle_finite_real(v) or v in ("3", "0.5"), ConfigError),
}


@pytest.mark.parametrize("field", list(VALIDATED_FIELDS))
def test_number_checks_follow_the_numbers_rules(field):
    # exact int and float skip the numbers ABC checks; every other type
    # must still be accepted or refused as those checks decide, and a
    # refusal is the field's own error, never another exception
    build, rule, error = VALIDATED_FIELDS[field]
    wrong = []
    for value in NUMBER_LIKE:
        try:
            build(value)
            accepted = True
        except error:
            accepted = False
        if accepted != rule(value):
            wrong.append(value)
    assert not wrong, f"{field}: {wrong!r}"
