"""Run configuration: JSON schema, angle parsing, defaults and validation.

A run is configured by a single JSON document.  All keys are optional
except where a mode demands them; omitted noise fields fall back to the
package defaults.  Recognized keys:

``mode``              "simulate" | "analyze" | "reconstruct" | "full"
``scheme``            "2n" | "n+1"
``state``             "pure_h" | "mixed"
``seed``              unsigned 64-bit integer
``shots``             photons per setting per repetition; null or "inf"
                      selects analytic mode
``angle_jitter_sigma``  wave-plate drift (radians, std per repetition)
``repetitions``       number of sequential matrix measurements
``threshold``         detection threshold in standard deviations
``prep_angles``       list of [qwp, hwp] pairs (6 for "2n", 4 for "n+1")
``meas_angles``       same shape as prep_angles
``error_injections``  list of {"prep": a, "setting": i, "hwp_offset": x}
``known_povms``       observable vectors of settings 1-3 as three [x,y,z]
                      lists (defaults to the nominal plan values)
``input_data``        path to a measurement CSV to analyze instead of
                      simulating
``output_dir``        where reports are written

Angles may be decimal radians or strings like ``"pi/16"``, ``"5pi/16"``
or ``"-3*pi/8"``, avoiding rounding ambiguity for the common fractions.

``mode``, ``threshold``, ``known_povms``, ``input_data`` and
``output_dir`` are settings of the run itself, the fields of a
:class:`RunConfig`.  Every other key describes the experiment: together
they build one :class:`~spamtomo.optics.ExperimentPlan`, validated
before the run's own settings, which the :class:`RunConfig` holds as its
``experiment``.
"""

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._linalg import guarded_inv3
from .errors import ConfigError, SingularMatrixError
from .optics import (
    DEFAULT_ANGLE_JITTER,
    DEFAULT_REPETITIONS,
    DEFAULT_SHOTS,
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    WavePlateSetting,
    _is_finite_real,
    default_settings,
    theoretical_observables,
    theoretical_states,
)

MODES = ("simulate", "analyze", "reconstruct", "full")

_PI_PATTERN = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?P<mult>\d+(?:\.\d*)?)?\s*\*?\s*pi\s*(?:/\s*(?P<div>\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(value, field_name="angle"):
    """Parse an angle given as a number or a pi-fraction string; the
    angle must be finite."""
    if isinstance(value, bool):
        raise ConfigError(f"{field_name} must be a number or pi-fraction string, got {value!r}", field=field_name)
    if isinstance(value, (int, float)):
        angle = value
    elif isinstance(value, str):
        match = _PI_PATTERN.match(value)
        if match:
            mult = float(match.group("mult")) if match.group("mult") else 1.0
            div = float(match.group("div")) if match.group("div") else 1.0
            sign = -1.0 if match.group("sign") == "-" else 1.0
            if div == 0:
                raise ConfigError(f"{field_name}: division by zero in {value!r}", field=field_name)
            angle = sign * mult * math.pi / div
        else:
            try:
                angle = float(value)
            except ValueError:
                raise ConfigError(
                    f"{field_name}: cannot parse {value!r} (use radians or forms like 'pi/16')",
                    field=field_name,
                ) from None
    else:
        raise ConfigError(f"{field_name} must be a number or string, got {type(value).__name__}", field=field_name)
    if not _is_finite_real(angle):
        raise ConfigError(f"{field_name} must be a finite number, got {value!r}", field=field_name)
    return float(angle)


def _parse_povms(raw):
    """Three observable 3-vectors of finite numbers, as a tuple of tuples."""
    try:
        povms = np.asarray(raw, dtype=object)
    except ValueError:  # nested arrays of unequal shapes
        povms = np.empty(0, dtype=object)
    if povms.shape != (3, 3) or not all(_is_finite_real(v) for v in povms.flat):
        raise ConfigError(f"known_povms must be three 3-vectors of finite numbers, got {raw!r}", field="known_povms")
    return tuple(tuple(float(v) for v in row) for row in povms)


def _check_span(plan):
    """Reject settings whose nominal vectors cannot fill a corner of the
    partial determinant: the states of each of the scheme's two
    preparation triples, and the observables of each setting triple, must
    be linearly independent, or no data measured with them can be tested
    or reconstructed.  Raises a :class:`ConfigError` naming the angle
    list."""
    triples = np.array([plan.scheme.embed_index[:3], plan.scheme.embed_index[3:]])
    for key, kind, vectors in (
        ("prep_angles", "states of preparations", theoretical_states(plan)),
        ("meas_angles", "observables of settings", theoretical_observables(plan).T),
    ):
        names = [f"{kind} {', '.join(str(k + 1) for k in triple)}" for triple in triples]
        try:
            guarded_inv3(vectors[triples], where=names)
        except SingularMatrixError as exc:
            raise ConfigError(f"{key} must give linearly independent nominal vectors: {exc}", field=key) from None


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: the experiment plan it simulates, or whose
    settings loaded data were measured with, and what the run does with
    the measurements."""

    mode: str = "full"
    experiment: ExperimentPlan = field(default_factory=ExperimentPlan)
    detection_threshold: float = 3.0
    known_povms: tuple | None = None
    input_data_path: str | None = None
    output_dir: str = "."

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}", field="mode")
        if not (_is_finite_real(self.detection_threshold) and self.detection_threshold > 0):
            raise ConfigError(f"threshold must be a finite number > 0, got {self.detection_threshold!r}", field="threshold")
        if self.input_data_path is not None and not isinstance(self.input_data_path, str):
            raise ConfigError(f"input_data must be a path string, got {self.input_data_path!r}", field="input_data")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a path string, got {self.output_dir!r}", field="output_dir")
        if self.known_povms is not None:
            object.__setattr__(self, "known_povms", _parse_povms(self.known_povms))
        plan = self.experiment
        if self.mode != "simulate" and self.input_data_path is None and plan.repetitions < 2:
            raise ConfigError(f"repetitions must be >= 2 for statistics on simulated data, got {plan.repetitions}", field="repetitions")
        # the default settings span (a test asserts it), so a run on them
        # skips the check
        if self.mode != "simulate" and not (plan.prep_settings == plan.meas_settings == default_settings(plan.scheme)):
            _check_span(plan)

    def plan(self):
        return self.experiment

    def to_dict(self):
        """Canonical JSON-ready echo of the configuration."""
        plan = self.experiment
        return {
            "mode": self.mode,
            "scheme": plan.scheme.value,
            "state": plan.source.value,
            "seed": plan.noise.seed,
            "shots": plan.noise.shots_per_setting,
            "angle_jitter_sigma": plan.noise.angle_jitter_sigma,
            "repetitions": plan.repetitions,
            "threshold": self.detection_threshold,
            "prep_angles": [[s.qwp_angle, s.hwp_angle] for s in plan.prep_settings],
            "meas_angles": [[s.qwp_angle, s.hwp_angle] for s in plan.meas_settings],
            "error_injections": [
                {"prep": e.prep_index, "setting": e.setting_index, "hwp_offset": e.hwp_offset}
                for e in plan.errors
            ],
            "known_povms": [list(row) for row in self.known_povms] if self.known_povms else None,
            "input_data": self.input_data_path,
            "output_dir": self.output_dir,
        }


def _parse_settings(raw, key):
    """The wave-plate settings of one angle list; ``ExperimentPlan``
    checks their number against the scheme."""
    if not isinstance(raw, list):
        raise ConfigError(f"{key} must be a list of [qwp, hwp] pairs", field=key)
    settings = []
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{key}[{k}] must be a [qwp, hwp] pair", field=key)
        settings.append(
            WavePlateSetting(
                parse_angle(pair[0], f"{key}[{k}].qwp"),
                parse_angle(pair[1], f"{key}[{k}].hwp"),
            )
        )
    return tuple(settings)


def _parse_index(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}", field=name)
    return value


def _parse_injections(raw):
    if not isinstance(raw, list):
        raise ConfigError("error_injections must be a list", field="error_injections")
    injections = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"error_injections[{k}] must be an object", field="error_injections")
        missing = {"prep", "setting", "hwp_offset"} - set(entry)
        if missing:
            raise ConfigError(
                f"error_injections[{k}] is missing {sorted(missing)}", field="error_injections"
            )
        injections.append(
            ErrorInjection(
                prep_index=_parse_index(entry["prep"], f"error_injections[{k}].prep"),
                setting_index=_parse_index(entry["setting"], f"error_injections[{k}].setting"),
                hwp_offset=parse_angle(entry["hwp_offset"], f"error_injections[{k}].hwp_offset"),
            )
        )
    return tuple(injections)


# Keys of the run itself, by the RunConfig field each sets; every other
# key belongs to the experiment plan.
_RUN_KEYS = {
    "mode": "mode",
    "threshold": "detection_threshold",
    "known_povms": "known_povms",
    "input_data": "input_data_path",
    "output_dir": "output_dir",
}

_KNOWN_KEYS = {
    "scheme", "state", "seed", "shots", "angle_jitter_sigma", "repetitions",
    "prep_angles", "meas_angles", "error_injections", *_RUN_KEYS,
}


def config_from_dict(raw):
    """Build a :class:`RunConfig` from a parsed JSON document: the
    experiment plan is validated first, then the run around it."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}", field=sorted(unknown)[0])

    shots = raw.get("shots", DEFAULT_SHOTS)
    if isinstance(shots, str):
        if shots.lower() in ("inf", "infinite", "analytic"):
            shots = None
        else:
            raise ConfigError(f"shots must be an integer, null or 'inf', got {shots!r}", field="shots")

    try:
        experiment = ExperimentPlan(
            source=raw.get("state", ExperimentPlan.source),
            prep_settings=_parse_settings(raw["prep_angles"], "prep_angles") if "prep_angles" in raw else None,
            meas_settings=_parse_settings(raw["meas_angles"], "meas_angles") if "meas_angles" in raw else None,
            scheme=raw.get("scheme", ExperimentPlan.scheme),
            errors=_parse_injections(raw.get("error_injections", [])),
            noise=NoiseModel(
                shots_per_setting=shots,
                angle_jitter_sigma=raw.get("angle_jitter_sigma", DEFAULT_ANGLE_JITTER),
                seed=raw.get("seed", 0),
            ),
            repetitions=raw.get("repetitions", DEFAULT_REPETITIONS),
        )
        return RunConfig(experiment=experiment, **{name: raw[key] for key, name in _RUN_KEYS.items() if key in raw})
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path, overrides=None):
    """Load and validate a JSON run configuration from ``path``.

    ``overrides`` maps configuration keys to values that replace the
    file's before the single validation, so a file is checked in the mode
    and scheme it runs in.  An override that changes the scheme drops the
    file's angle lists, which fit the other scheme; the new scheme's
    defaults apply.
    """
    try:
        # utf-8-sig drops a leading byte-order mark, which json rejects
        with open(path, "r", encoding="utf-8-sig") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration file is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError("configuration file is nested too deeply to parse") from None
    except ValueError as exc:  # e.g. an integer literal beyond int's digit limit
        raise ConfigError(f"configuration parse error: {exc}") from None
    if overrides and isinstance(raw, dict):
        merged = {**raw, **overrides}
        if merged.get("scheme", ExperimentPlan.scheme) != raw.get("scheme", ExperimentPlan.scheme):
            merged.pop("prep_angles", None)
            merged.pop("meas_angles", None)
        raw = merged
    return config_from_dict(raw)
