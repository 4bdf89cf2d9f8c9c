"""Simulation of the polarization bench: source, wave plates, analyser.

The bench prepares a photon in a fixed source state (pure horizontal or a
horizontal/vertical mixture), steers it with a half-wave plate followed by
a quarter-wave plate, and analyses it with a quarter-wave plate, a
half-wave plate and a polarizing beam splitter whose transmitted port
counts as the positive outcome.

Jones matrices act on the ``(H, V)`` amplitudes.  In the conventions of
:mod:`spamtomo.qubit` this gives, for plate angles measured from the
horizontal:

* preparation unitary  ``U = qwp(theta_q) @ hwp(theta_h)``  (the photon
  meets the half-wave plate first),
* measurement observable ``U^dag sigma_3 U`` with
  ``U = hwp(theta_h) @ qwp(theta_q)``  (quarter-wave plate first, then the
  half-wave plate, then the splitter).

With these conventions the first default setting analyses H/V, the second
the circular basis, and the third the diagonal basis.

Noise has two independent, configurable knobs: binomial counting noise
from a finite photon budget per setting, and Gaussian wave-plate angle
jitter redrawn once per plate per repetition (slow drift between
sequential runs).  Every repetition derives its own random stream from
``(seed, repetition index)``, so results do not depend on evaluation
order and are reproducible bit for bit.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonPhysicalError, ShapeError
from .qubit import IDENTITY_2, PAULI, SIGMA_3

# Default wave-plate rotation angles for the six settings, chosen to
# sample the state and observable spaces (H/V, circular, diagonal, and
# three oblique directions).
DEFAULT_QWP_ANGLES = (0.0, np.pi / 4, np.pi / 4, np.pi / 16, 5 * np.pi / 16, 5 * np.pi / 16)
DEFAULT_HWP_ANGLES = (0.0, 0.0, np.pi / 8, np.pi / 16, np.pi / 16, 3 * np.pi / 16)

DEFAULT_SHOTS = 10_000

# Angle jitter (radians) calibrated by simulation so that the spread of
# the (1,1) expectation under a pi/20 detector half-wave-plate offset is
# about 0.04 at the default photon budget.
DEFAULT_ANGLE_JITTER = 0.0113

DEFAULT_REPETITIONS = 10


class Scheme(str, enum.Enum):
    """Measurement scheme: all six settings, or the compact four-setting
    variant whose matrix is later embedded by duplicating rows/columns."""

    TWO_N = "2n"
    N_PLUS_ONE = "n+1"

    @property
    def n_settings(self):
        return 6 if self is Scheme.TWO_N else 4

    @property
    def embed_index(self):
        """Preparation (and setting) index, 0-based, behind each row (and
        column) of the 6x6 matrix the partial determinant tests: the
        identity for six settings; for four, rows 5 and 6 repeat 2 and 3."""
        return (0, 1, 2, 3, 4, 5) if self is Scheme.TWO_N else (0, 1, 2, 3, 1, 2)


class SourceKind(str, enum.Enum):
    PURE_H = "pure_h"
    MIXED = "mixed"


def source_density(kind):
    """Density matrix emitted by the source before the preparation plates."""
    kind = SourceKind(kind)
    if kind is SourceKind.PURE_H:
        return np.diag([1.0, 0.0]).astype(complex)
    return np.diag([0.75, 0.25]).astype(complex)


@dataclass(frozen=True)
class WavePlateSetting:
    """Rotation angles (radians) of one quarter/half-wave-plate pair.

    Angles are stored modulo pi since a wave plate's action has period pi.
    """

    qwp_angle: float
    hwp_angle: float

    def __post_init__(self):
        for name in ("qwp_angle", "hwp_angle"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise NonPhysicalError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value) % math.pi)


def default_settings(scheme):
    """The default wave-plate settings for a scheme (six, or the first four)."""
    n = Scheme(scheme).n_settings
    return [
        WavePlateSetting(q, h)
        for q, h in zip(DEFAULT_QWP_ANGLES[:n], DEFAULT_HWP_ANGLES[:n])
    ]


def hwp_unitary(theta):
    """Jones matrix of a half-wave plate with fast axis at ``theta``.

    ``[[cos 2t, sin 2t], [sin 2t, -cos 2t]]``; Hermitian and unitary.
    Broadcasts over an array of angles to a stack of 2x2 matrices.
    """
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2).astype(complex)


def qwp_unitary(theta):
    """Jones matrix of a quarter-wave plate with fast axis at ``theta``.

    At ``theta = 0`` this is ``diag(1, i)``: the vertical component is
    retarded by a quarter wave.  Broadcasts like :func:`hwp_unitary`.
    """
    theta = np.asarray(theta, dtype=float)
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    cs = np.sin(theta) * np.cos(theta)
    top = c2 + 1j * s2
    bot = s2 + 1j * c2
    off = (1.0 - 1j) * cs
    return np.stack([np.stack([top, off], -1), np.stack([off, bot], -1)], -2)


def _prep_stokes(rho0, qwp_angles, hwp_angles):
    """Stokes rows of the source state steered by each plate pair."""
    u = qwp_unitary(qwp_angles) @ hwp_unitary(hwp_angles)
    rho = u @ rho0 @ np.conj(np.swapaxes(u, -1, -2))
    return np.real(np.einsum("...ij,mji->...m", rho, PAULI))


def _meas_vectors(qwp_angles, hwp_angles):
    """Observable vectors of the analyser at each plate pair."""
    u = hwp_unitary(hwp_angles) @ qwp_unitary(qwp_angles)
    sigma = np.conj(np.swapaxes(u, -1, -2)) @ SIGMA_3 @ u
    return np.real(np.einsum("...ij,mji->...m", sigma, PAULI)) / 2.0


def prepare_state(source, setting):
    """Density matrix after the preparation plates.

    The source state is conjugated by ``qwp @ hwp``, so its purity is
    preserved exactly.
    """
    rho0 = source_density(source)
    u = qwp_unitary(setting.qwp_angle) @ hwp_unitary(setting.hwp_angle)
    return u @ rho0 @ u.conj().T


def measurement_observable(setting):
    """Observable vector of the analyser for one setting.

    The transmitted splitter port is the positive outcome, so the
    observable is ``U^dag sigma_3 U`` pulled back through the measurement
    plates; the returned vector has unit norm (ideal projective
    measurement).
    """
    return _meas_vectors(setting.qwp_angle, setting.hwp_angle)


@dataclass(frozen=True)
class ErrorInjection:
    """A correlated SPAM error: when preparation ``prep_index`` is measured
    with setting ``setting_index`` (both 1-based), the analyser half-wave
    plate is rotated by ``hwp_offset`` from where it should be."""

    prep_index: int
    setting_index: int
    hwp_offset: float

    def __post_init__(self):
        if self.prep_index < 1 or self.setting_index < 1:
            raise ConfigError(
                f"injection indices must be >= 1, got ({self.prep_index}, {self.setting_index})"
            )
        if not math.isfinite(self.hwp_offset):
            raise ConfigError(f"hwp_offset must be finite, got {self.hwp_offset}")


@dataclass(frozen=True)
class NoiseModel:
    """Counting-noise and drift knobs for a simulated experiment.

    ``shots_per_setting`` is the photon budget for each matrix element in
    each repetition; ``None`` means an infinite budget (analytic mode, no
    sampling).  ``angle_jitter_sigma`` is the standard deviation of an
    independent Gaussian perturbation applied to every wave-plate angle,
    redrawn once per repetition.  Identical seeds give bit-identical
    results.
    """

    shots_per_setting: int | None = DEFAULT_SHOTS
    angle_jitter_sigma: float = DEFAULT_ANGLE_JITTER
    seed: int = 0

    def __post_init__(self):
        if self.shots_per_setting is not None and self.shots_per_setting < 1:
            raise ConfigError(
                f"shots_per_setting must be >= 1 (or None for analytic mode), got {self.shots_per_setting}",
                field="shots",
            )
        if not (math.isfinite(self.angle_jitter_sigma) and self.angle_jitter_sigma >= 0):
            raise ConfigError(
                f"angle_jitter_sigma must be >= 0, got {self.angle_jitter_sigma}",
                field="angle_jitter_sigma",
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}", field="seed")


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to simulate repeated measurements of the
    expectation matrix: source, plate settings, scheme, injected errors,
    noise, and the number of sequential repetitions."""

    source: SourceKind = SourceKind.PURE_H
    prep_settings: tuple = field(default_factory=lambda: tuple(default_settings(Scheme.TWO_N)))
    meas_settings: tuple = field(default_factory=lambda: tuple(default_settings(Scheme.TWO_N)))
    scheme: Scheme = Scheme.TWO_N
    errors: tuple = ()
    noise: NoiseModel = field(default_factory=NoiseModel)
    repetitions: int = DEFAULT_REPETITIONS

    def __post_init__(self):
        object.__setattr__(self, "source", SourceKind(self.source))
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "prep_settings", tuple(self.prep_settings))
        object.__setattr__(self, "meas_settings", tuple(self.meas_settings))
        object.__setattr__(self, "errors", tuple(self.errors))
        n = self.scheme.n_settings
        if len(self.prep_settings) != n:
            raise ConfigError(
                f"scheme {self.scheme.value} needs {n} preparation settings, got {len(self.prep_settings)}",
                field="prep_angles",
            )
        if len(self.meas_settings) != n:
            raise ConfigError(
                f"scheme {self.scheme.value} needs {n} measurement settings, got {len(self.meas_settings)}",
                field="meas_angles",
            )
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}", field="repetitions")
        for err in self.errors:
            if err.prep_index > n or err.setting_index > n:
                raise ConfigError(
                    f"injection at ({err.prep_index}, {err.setting_index}) is outside the {n}x{n} plan",
                    field="error_injections",
                )


def repetition_rng(seed, repetition):
    """Independent random stream for one repetition of an experiment."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(repetition,))
    return np.random.Generator(np.random.PCG64(ss))


def _injection_offset(plan, a, i):
    return sum(
        err.hwp_offset
        for err in plan.errors
        if err.prep_index == a and err.setting_index == i
    )


def _plate_angles(settings):
    return (
        np.array([s.qwp_angle for s in settings]),
        np.array([s.hwp_angle for s in settings]),
    )


def _expectation_matrix(plan, prep_q, prep_h, meas_q, meas_h):
    """Noiseless matrix at the given plate angles, with the plan's
    injected errors applied to their (preparation, setting) elements."""
    p_rows = _prep_stokes(source_density(plan.source), prep_q, prep_h)
    values = p_rows @ _meas_vectors(meas_q, meas_h).T
    for err in plan.errors:
        a, i = err.prep_index - 1, err.setting_index - 1
        w = _meas_vectors(meas_q[i], meas_h[i] + _injection_offset(plan, a + 1, i + 1))
        values[a, i] = p_rows[a] @ w
    return values


def true_expectation_matrix(plan):
    """The full noiseless expectation matrix of a plan, injections applied."""
    return _expectation_matrix(plan, *_plate_angles(plan.prep_settings), *_plate_angles(plan.meas_settings))


def theoretical_states(plan):
    """Density matrices predicted from the nominal plan angles (no noise,
    no injections); the references against which reconstructions score."""
    return [prepare_state(plan.source, s) for s in plan.prep_settings]


def theoretical_observables(plan):
    """Observable vectors predicted from the nominal plan angles, as the
    columns of a 3xN array."""
    return np.array([measurement_observable(s) for s in plan.meas_settings]).T


def _sample_matrix(true_values, noise, rng):
    if noise.shots_per_setting is None:
        return true_values.copy()
    p = np.clip((1.0 + true_values) / 2.0, 0.0, 1.0)
    counts = rng.binomial(noise.shots_per_setting, p)
    return 2.0 * counts / noise.shots_per_setting - 1.0


def run_experiment(plan):
    """Simulate the repeated measurement of the expectation matrix.

    For each repetition: perturb every plate angle by its jitter draw,
    compute the noiseless matrix (with injected errors), then sample each
    element with counting noise.  Returns one MxN array per repetition.
    Jitter draws come first in each repetition's stream (preparation
    plates in order, quarter before half, then measurement plates), then
    the counting draws in row-major element order.
    """
    m, n = len(plan.prep_settings), len(plan.meas_settings)
    prep_q, prep_h = _plate_angles(plan.prep_settings)
    meas_q, meas_h = _plate_angles(plan.meas_settings)
    samples = []
    for rep in range(plan.repetitions):
        rng = repetition_rng(plan.noise.seed, rep)
        eps = rng.standard_normal(2 * (m + n)) * plan.noise.angle_jitter_sigma
        true_values = _expectation_matrix(
            plan,
            prep_q + eps[0 : 2 * m : 2],
            prep_h + eps[1 : 2 * m : 2],
            meas_q + eps[2 * m :: 2],
            meas_h + eps[2 * m + 1 :: 2],
        )
        samples.append(_sample_matrix(true_values, plan.noise, rng))
    return samples
