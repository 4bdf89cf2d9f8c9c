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
"""

import json
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .optics import (
    DEFAULT_ANGLE_JITTER,
    DEFAULT_REPETITIONS,
    DEFAULT_SHOTS,
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    Scheme,
    SourceKind,
    WavePlateSetting,
    default_settings,
)

MODES = ("simulate", "analyze", "reconstruct", "full")

_PI_PATTERN = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?P<mult>\d+(?:\.\d*)?)?\s*\*?\s*pi\s*(?:/\s*(?P<div>\d+(?:\.\d*)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(value, field_name="angle"):
    """Parse an angle given as a number or a pi-fraction string."""
    if isinstance(value, bool):
        raise ConfigError(f"{field_name} must be a number or pi-fraction string, got {value!r}", field=field_name)
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ConfigError(f"{field_name} must be finite, got {value}", field=field_name)
        return float(value)
    if isinstance(value, str):
        match = _PI_PATTERN.match(value)
        if match:
            mult = float(match.group("mult")) if match.group("mult") else 1.0
            div = float(match.group("div")) if match.group("div") else 1.0
            sign = -1.0 if match.group("sign") == "-" else 1.0
            if div == 0:
                raise ConfigError(f"{field_name}: division by zero in {value!r}", field=field_name)
            return sign * mult * math.pi / div
        try:
            return float(value)
        except ValueError:
            raise ConfigError(
                f"{field_name}: cannot parse {value!r} (use radians or forms like 'pi/16')",
                field=field_name,
            ) from None
    raise ConfigError(f"{field_name} must be a number or string, got {type(value).__name__}", field=field_name)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run configuration."""

    mode: str = "full"
    scheme: Scheme = Scheme.TWO_N
    source: SourceKind = SourceKind.PURE_H
    prep_settings: tuple | None = None
    meas_settings: tuple | None = None
    error_injections: tuple = ()
    shots_per_setting: int | None = DEFAULT_SHOTS
    angle_jitter_sigma: float = DEFAULT_ANGLE_JITTER
    seed: int = 0
    repetitions: int = DEFAULT_REPETITIONS
    detection_threshold: float = 3.0
    known_povms: tuple | None = None
    input_data_path: str | None = None
    output_dir: str = "."

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}", field="mode")
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "source", SourceKind(self.source))
        if self.detection_threshold <= 0:
            raise ConfigError(
                f"threshold must be positive, got {self.detection_threshold}", field="threshold"
            )
        prep = self.prep_settings if self.prep_settings is not None else tuple(default_settings(self.scheme))
        meas = self.meas_settings if self.meas_settings is not None else tuple(default_settings(self.scheme))
        object.__setattr__(self, "prep_settings", tuple(prep))
        object.__setattr__(self, "meas_settings", tuple(meas))
        if self.known_povms is not None:
            povms = np.asarray(self.known_povms, dtype=float)
            if povms.shape != (3, 3):
                raise ConfigError(
                    f"known_povms must be three 3-vectors, got shape {povms.shape}", field="known_povms"
                )
            object.__setattr__(self, "known_povms", tuple(map(tuple, povms)))
        # Delegates length/shots/seed checks to the plan and noise types.
        self.plan()

    def noise(self):
        return NoiseModel(
            shots_per_setting=self.shots_per_setting,
            angle_jitter_sigma=self.angle_jitter_sigma,
            seed=self.seed,
        )

    def plan(self):
        return ExperimentPlan(
            source=self.source,
            prep_settings=self.prep_settings,
            meas_settings=self.meas_settings,
            scheme=self.scheme,
            errors=self.error_injections,
            noise=self.noise(),
            repetitions=self.repetitions,
        )

    def to_dict(self):
        """Canonical JSON-ready echo of the configuration."""
        return {
            "mode": self.mode,
            "scheme": self.scheme.value,
            "state": self.source.value,
            "seed": self.seed,
            "shots": self.shots_per_setting,
            "angle_jitter_sigma": self.angle_jitter_sigma,
            "repetitions": self.repetitions,
            "threshold": self.detection_threshold,
            "prep_angles": [[s.qwp_angle, s.hwp_angle] for s in self.prep_settings],
            "meas_angles": [[s.qwp_angle, s.hwp_angle] for s in self.meas_settings],
            "error_injections": [
                {"prep": e.prep_index, "setting": e.setting_index, "hwp_offset": e.hwp_offset}
                for e in self.error_injections
            ],
            "known_povms": [list(row) for row in self.known_povms] if self.known_povms else None,
            "input_data": self.input_data_path,
            "output_dir": self.output_dir,
        }


def _parse_settings(raw, key, scheme):
    if not isinstance(raw, list):
        raise ConfigError(f"{key} must be a list of [qwp, hwp] pairs", field=key)
    n = scheme.n_settings
    if len(raw) != n:
        raise ConfigError(
            f"{key} must list {n} angle pairs for scheme {scheme.value}, got {len(raw)}", field=key
        )
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


def _parse_enum(kind, raw, key, default):
    if key not in raw:
        return default
    try:
        return kind(raw[key])
    except ValueError:
        choices = [member.value for member in kind]
        raise ConfigError(f"{key} must be one of {choices}, got {raw[key]!r}", field=key) from None


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


_KNOWN_KEYS = {
    "mode", "scheme", "state", "seed", "shots", "angle_jitter_sigma", "repetitions",
    "threshold", "prep_angles", "meas_angles", "error_injections", "known_povms",
    "input_data", "output_dir",
}


def config_from_dict(raw, base=None):
    """Build a :class:`RunConfig` from a parsed JSON document."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}", field=sorted(unknown)[0])

    base = base if base is not None else RunConfig()
    scheme = _parse_enum(Scheme, raw, "scheme", base.scheme)
    shots = raw.get("shots", base.shots_per_setting)
    if isinstance(shots, str):
        if shots.lower() in ("inf", "infinite", "analytic"):
            shots = None
        else:
            raise ConfigError(f"shots must be an integer, null or 'inf', got {shots!r}", field="shots")
    if shots is not None:
        if isinstance(shots, bool) or not isinstance(shots, int):
            raise ConfigError(f"shots must be an integer, got {shots!r}", field="shots")

    kwargs = {
        "mode": raw.get("mode", base.mode),
        "scheme": scheme,
        "source": _parse_enum(SourceKind, raw, "state", base.source),
        "shots_per_setting": shots,
        "angle_jitter_sigma": raw.get("angle_jitter_sigma", base.angle_jitter_sigma),
        "seed": raw.get("seed", base.seed),
        "repetitions": raw.get("repetitions", base.repetitions),
        "detection_threshold": raw.get("threshold", base.detection_threshold),
        "input_data_path": raw.get("input_data", base.input_data_path),
        "output_dir": raw.get("output_dir", base.output_dir),
    }
    if "prep_angles" in raw:
        kwargs["prep_settings"] = _parse_settings(raw["prep_angles"], "prep_angles", scheme)
    elif base.prep_settings is not None and len(base.prep_settings) == scheme.n_settings:
        kwargs["prep_settings"] = base.prep_settings
    if "meas_angles" in raw:
        kwargs["meas_settings"] = _parse_settings(raw["meas_angles"], "meas_angles", scheme)
    elif base.meas_settings is not None and len(base.meas_settings) == scheme.n_settings:
        kwargs["meas_settings"] = base.meas_settings
    if "error_injections" in raw:
        kwargs["error_injections"] = _parse_injections(raw["error_injections"])
    else:
        kwargs["error_injections"] = base.error_injections
    if "known_povms" in raw:
        kwargs["known_povms"] = raw["known_povms"]
    else:
        kwargs["known_povms"] = base.known_povms

    try:
        return RunConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path):
    """Load and validate a JSON run configuration from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw)
