"""Simulation of the polarization bench: source, wave plates, analyser.

The bench prepares a photon in a fixed source state (pure horizontal or a
horizontal/vertical mixture), steers it with a half-wave plate followed by
a quarter-wave plate, and analyses it with a quarter-wave plate, a
half-wave plate and a polarizing beam splitter whose transmitted port
counts as the positive outcome.

The plates act on Stokes vectors as rotations of the Poincare sphere.
For a plate whose fast axis sits at ``t`` from the horizontal, the axis
is ``n = (sin 2t, 0, cos 2t)`` in the Pauli basis of :mod:`spamtomo.qubit`;
a half-wave plate rotates by pi about ``n`` and a quarter-wave plate by
pi/2.  This gives:

* preparation Stokes row ``Q(theta_q) H(theta_h) s_0`` (the photon meets
  the half-wave plate first; ``s_0`` is the source's Stokes vector),
* measurement observable ``Q(theta_q)^T H(theta_h) z`` (quarter-wave plate
  first, then the half-wave plate, then the splitter, whose observable
  ``sigma_3`` is pulled back through the plates).

With these conventions the first default setting analyses H/V, the second
the circular basis, and the third the diagonal basis.  The two sides differ
only in the start vector and the quarter-wave plate's sign, so all M
preparations and N settings of a block of repetitions rotate in one pass
over ``(..., M + N)`` plate arrays.

Noise has two independent, configurable knobs: binomial counting noise
from a finite photon budget per setting, and Gaussian wave-plate angle
jitter redrawn once per plate per repetition (slow drift between
sequential runs).  A run draws them from two streams, one for jitter and
one for counts: the two children ``SeedSequence(seed).spawn(2)`` would
give, built directly.  Each is read in repetition order, so samples do
not depend on how repetitions are grouped into blocks, a run's first k
repetitions equal a k-repetition run, and every run is reproducible bit
for bit.
"""

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonPhysicalError, ShapeError

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


def _is_finite_real(value):
    """True for a real number that is not a bool and is a finite float;
    an int beyond the float range is not.  The exact types ``float`` and
    ``int`` skip the ``numbers.Real`` check."""
    if type(value) not in (float, int) and (not isinstance(value, numbers.Real) or isinstance(value, bool)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_integer(value):
    """True for an integral number that is not a bool; the exact type
    ``int`` skips the ``numbers.Integral`` check."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


class Scheme(str, enum.Enum):
    """Measurement scheme: all six settings, or the compact four-setting
    variant whose corner blocks reuse preparations and settings 2 and 3."""

    TWO_N = "2n"
    N_PLUS_ONE = "n+1"

    @property
    def n_settings(self):
        return 6 if self is Scheme.TWO_N else 4

    @classmethod
    def of_shape(cls, shape):
        """The scheme of an ``(..., n, n)`` matrix or stack from its size:
        6x6 is 2n and 4x4 is n+1; any other raises :class:`ShapeError`."""
        scheme = _SCHEME_OF_SIZE.get(tuple(shape[-2:]))
        if scheme is None:
            raise ShapeError(f"expectation matrix must be 6x6 or 4x4, got shape {tuple(shape)}")
        return scheme

    @property
    def embed_index(self):
        """Preparation (and setting) index, 0-based, behind each row (and
        column) of the corners ``[[A, B], [C, D]]``: A's triple, then D's.
        The identity for six settings; for four, D's is 4, 2, 3 (1-based)."""
        return (0, 1, 2, 3, 4, 5) if self is Scheme.TWO_N else (0, 1, 2, 3, 1, 2)


_SCHEME_OF_SIZE = {(scheme.n_settings,) * 2: scheme for scheme in Scheme}


class SourceKind(str, enum.Enum):
    PURE_H = "pure_h"
    MIXED = "mixed"


# The z component of the Stokes vector the source emits, whose x and y
# are 0: pure horizontal, or a 3:1 H/V mixture.
_SOURCE_Z = {SourceKind.PURE_H: 1.0, SourceKind.MIXED: 0.5}

# The splitter's observable: its transmitted (horizontal) port is +1.
_Z = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class WavePlateSetting:
    """Rotation angles (radians) of one quarter/half-wave-plate pair.

    Each angle must be a finite real number (not a bool; see
    ``_is_finite_real``), or :class:`NonPhysicalError` is raised.  Angles
    are stored modulo pi since a wave plate's action has period pi.
    """

    qwp_angle: float
    hwp_angle: float

    def __post_init__(self):
        for name in ("qwp_angle", "hwp_angle"):
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise NonPhysicalError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value) % math.pi)


_DEFAULT_SETTINGS = {
    scheme: tuple(
        WavePlateSetting(q, h)
        for q, h in zip(DEFAULT_QWP_ANGLES[: scheme.n_settings], DEFAULT_HWP_ANGLES[: scheme.n_settings])
    )
    for scheme in Scheme
}


def default_settings(scheme):
    """The default wave-plate settings for a scheme (six, or the first
    four), built once per scheme."""
    return _DEFAULT_SETTINGS[scheme if type(scheme) is Scheme else Scheme(scheme)]


# Stokes vectors travel through the plates as their three components
# ``(x, y, z)``, each a scalar or an array of any shape (one entry per
# plate setting, per repetition, ...), so every step is a few elementwise
# operations on whole arrays.  A plate with its fast axis at ``t`` rotates
# them about ``n = (a, 0, b) = (sin 2t, 0, cos 2t)``.


def _dot(u, v):
    """Inner product of two Stokes vectors given as components, summed in
    a fixed order so that a batched evaluation is bit-identical to a
    one-by-one evaluation."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _half_wave(theta, v):
    """Stokes vector ``v`` after a half-wave plate at ``theta``: a rotation
    by pi about ``n``, ``v -> 2(n.v)n - v``."""
    t = 2 * theta
    a, b = np.sin(t), np.cos(t)
    x, y, z = v
    d = 2.0 * (a * x + b * z)
    return d * a - x, -y, d * b - z


def _quarter_wave(theta, v, sign):
    """Stokes vector ``v`` after a quarter-wave plate at ``theta``: a
    rotation by pi/2 about ``n``, ``v -> (n.v)n + sign n x v``.  ``sign`` is
    +1 for a state passing the plate and -1 for an observable pulled back
    through it (``U^dag sigma U`` undoes the state's rotation)."""
    t = 2 * theta
    a, b = np.sin(t), np.cos(t)
    x, y, z = v
    d = a * x + b * z
    return d * a - sign * b * y, sign * (b * x - a * z), d * b + sign * a * y


# (source, scheme) -> the start ``z`` and the quarter-wave sign of each of
# the M + N columns that ``_rotate`` takes (M = N, the scheme's settings).
_SIDES = {
    (source, scheme): (
        np.array([_SOURCE_Z[source]] * scheme.n_settings + [_Z[2]] * scheme.n_settings),
        np.array([1.0] * scheme.n_settings + [-1.0] * scheme.n_settings),
    )
    for source in SourceKind
    for scheme in Scheme
}


def _rotate(plan, qwp, hwp):
    """Stokes components of all M preparations and N settings at once:
    ``qwp`` and ``hwp`` hold the plate angles of the M preparations, then
    of the N settings, on their last axis.  A preparation steers the
    source's state through the half-wave plate and then the quarter-wave
    plate; a setting pulls the splitter's ``z`` back through the same two
    plates.  Only the start ``z`` and the quarter-wave plate's sign differ
    between the two sides, so they are per-column constants."""
    z, sign = _SIDES[plan.source, plan.scheme]
    return _quarter_wave(qwp, _half_wave(hwp, (0.0, 0.0, z)), sign)


@dataclass(frozen=True)
class ErrorInjection:
    """A correlated SPAM error: when preparation ``prep_index`` is measured
    with setting ``setting_index`` (both 1-based), the analyser half-wave
    plate is rotated by ``hwp_offset`` from where it should be."""

    prep_index: int
    setting_index: int
    hwp_offset: float

    def __post_init__(self):
        for index in (self.prep_index, self.setting_index):
            if not _is_integer(index) or index < 1:
                raise ConfigError(
                    f"error_injections: prep and setting must be integers >= 1, got ({self.prep_index!r}, {self.setting_index!r})",
                    field="error_injections",
                )
        if not _is_finite_real(self.hwp_offset):
            raise ConfigError(
                f"error_injections: hwp_offset must be a finite number, got {self.hwp_offset!r}",
                field="error_injections",
            )


@dataclass(frozen=True)
class NoiseModel:
    """Counting-noise and drift knobs for a simulated experiment.

    ``shots_per_setting`` is the photon budget for each matrix element in
    each repetition; ``None`` means an infinite budget (analytic mode, no
    sampling).  ``angle_jitter_sigma`` is the standard deviation of an
    independent Gaussian perturbation applied to every wave-plate angle,
    redrawn once per repetition.  ``seed`` is any integer (a numpy
    integer included, not a bool) in [0, 2**64).  Identical seeds give
    bit-identical results.
    """

    shots_per_setting: int | None = DEFAULT_SHOTS
    angle_jitter_sigma: float = DEFAULT_ANGLE_JITTER
    seed: int = 0

    def __post_init__(self):
        shots = self.shots_per_setting
        if shots is not None:
            if not _is_integer(shots):
                raise ConfigError(f"shots must be an integer, got {shots!r}", field="shots")
            # the binomial sampler takes at most 2**63 - 1 trials
            if not 1 <= shots < 2**63:
                raise ConfigError(
                    f"shots_per_setting must be in [1, 2**63 - 1] (or None for analytic mode), got {shots}",
                    field="shots",
                )
        if not (_is_finite_real(self.angle_jitter_sigma) and self.angle_jitter_sigma >= 0):
            raise ConfigError(
                f"angle_jitter_sigma must be a finite number >= 0, got {self.angle_jitter_sigma!r}",
                field="angle_jitter_sigma",
            )
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}", field="seed")


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to simulate repeated measurements of the
    expectation matrix: source, plate settings, scheme, injected errors,
    noise, and the number of sequential repetitions.  Settings left
    ``None`` are the scheme's :func:`default_settings`."""

    source: SourceKind = SourceKind.PURE_H
    prep_settings: tuple | None = None
    meas_settings: tuple | None = None
    scheme: Scheme = Scheme.TWO_N
    errors: tuple = ()
    noise: NoiseModel = field(default_factory=NoiseModel)
    repetitions: int = DEFAULT_REPETITIONS

    def __post_init__(self):
        for name, kind, key in (("source", SourceKind, "state"), ("scheme", Scheme, "scheme")):
            value = getattr(self, name)
            if type(value) is kind:
                continue
            try:
                object.__setattr__(self, name, kind(value))
            except ValueError:
                choices = [member.value for member in kind]
                raise ConfigError(f"{key} must be one of {choices}, got {value!r}", field=key) from None
        object.__setattr__(self, "errors", tuple(self.errors))
        n = self.scheme.n_settings
        for name, key in (("prep_settings", "prep_angles"), ("meas_settings", "meas_angles")):
            settings = getattr(self, name)
            settings = default_settings(self.scheme) if settings is None else tuple(settings)
            if len(settings) != n:
                raise ConfigError(
                    f"{key} must list {n} angle pairs for scheme {self.scheme.value}, got {len(settings)}",
                    field=key,
                )
            object.__setattr__(self, name, settings)
        if not _is_integer(self.repetitions):
            raise ConfigError(f"repetitions must be an integer, got {self.repetitions!r}", field="repetitions")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}", field="repetitions")
        for err in self.errors:
            if err.prep_index > n or err.setting_index > n:
                raise ConfigError(
                    f"injection at ({err.prep_index}, {err.setting_index}) is outside the {n}x{n} plan",
                    field="error_injections",
                )


def _plate_angles(settings):
    return (
        np.array([s.qwp_angle for s in settings]),
        np.array([s.hwp_angle for s in settings]),
    )


def _expectation_matrix(plan, qwp, hwp):
    """Noiseless matrix at the given plate angles, with the plan's
    injected errors applied to their (preparation, setting) elements;
    several at one element act as one error of their summed offset.
    ``qwp`` and ``hwp`` hold the angles of the M preparations, then of the
    N settings, on their last axis; leading axes (one per repetition)
    broadcast, so ``(..., M + N)`` angles give an ``(..., M, N)`` array."""
    m = len(plan.prep_settings)
    v = _rotate(plan, qwp, hwp)
    values = _dot([c[..., :m, None] for c in v], [c[..., None, m:] for c in v])
    # the offsets at each element, summed in injection order
    offsets = {}
    for err in plan.errors:
        key = (err.prep_index - 1, m + err.setting_index - 1)
        offsets[key] = offsets.get(key, 0) + err.hwp_offset
    for (a, i), offset in offsets.items():
        w = _quarter_wave(qwp[..., i], _half_wave(hwp[..., i] + offset, _Z), -1.0)
        values[..., a, i - m] = _dot([c[..., a] for c in v], w)
    return values


def _nominal_angles(plan):
    """Quarter- and half-wave angles of the plan's preparations, then its
    settings."""
    return _plate_angles(plan.prep_settings + plan.meas_settings)


def true_expectation_matrix(plan):
    """The full noiseless expectation matrix of a plan, injections applied."""
    return _expectation_matrix(plan, *_nominal_angles(plan))


def theoretical_states(plan):
    """Stokes vectors predicted from the nominal plan angles (no noise, no
    injections), as the rows of an Mx3 array; the references against which
    reconstructions score."""
    m = len(plan.prep_settings)
    return np.array([c[:m] for c in _rotate(plan, *_nominal_angles(plan))]).T


def theoretical_observables(plan):
    """Observable vectors predicted from the nominal plan angles, as the
    columns of a 3xN array."""
    m = len(plan.prep_settings)
    return np.array([c[m:] for c in _rotate(plan, *_nominal_angles(plan))])


# Repetitions simulated together.  A block's jitter draws and intermediate
# arrays are alive at once, so this bounds the memory a long record needs
# beyond its output; the samples do not depend on it.
BLOCK_REPETITIONS = 256


def run_experiment(plan):
    """Simulate the repeated measurement of the expectation matrix.

    Each repetition perturbs every plate angle by its jitter draw; the
    noiseless matrices (with injected errors) of a block of repetitions
    are then evaluated as one ``(block, M, N)`` array, and each element is
    sampled with counting noise.  Returns the ``(R, M, N)`` array, one MxN
    matrix per repetition.

    With ``N`` shots per setting, an element whose transmitted port counts
    ``k`` photons becomes the sample ``(N+ - N-)/N = (2k - N)/N``: the
    double nearest that fraction, since ``2k - N`` is an exact integer
    (for ``N`` up to 2**53) divided once.  At the default budget of
    10 000 shots, ``repr`` thus writes every sample with at most four
    decimals.  Analytic runs (``N`` is None) keep the noiseless values.

    The jitter and counts streams are the two children
    ``SeedSequence(seed).spawn(2)`` would give, built directly as
    ``SeedSequence(seed, spawn_key=(k,))`` for k = 0, 1.  Repetition k
    takes draws ``k*2(M+N)`` onwards of the jitter stream: preparation
    plates in order, quarter before half, then measurement plates.  Its
    even draws thus perturb the M + N quarter-wave plates and its odd
    draws the half-wave plates, and both sides rotate in one pass.  Its
    counts follow all earlier repetitions' counts on the counts stream, in
    row-major element order.  At zero jitter there is no jitter stream:
    the nominal matrix, evaluated once, fills every repetition (nominal
    angles are stored modulo pi, never -0.0, so draws times 0 add nothing).
    """
    m, n = len(plan.prep_settings), len(plan.meas_settings)
    qwp, hwp = _nominal_angles(plan)
    shots = plan.noise.shots_per_setting
    try:
        samples = np.empty((plan.repetitions, m, n))
    except (MemoryError, ValueError):  # ValueError: beyond numpy's largest dimension
        raise ConfigError(f"repetitions={plan.repetitions} is too large to hold in memory", field="repetitions") from None
    sigma = plan.noise.angle_jitter_sigma
    jitter, counts = (
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(plan.noise.seed, spawn_key=(k,))))
        if k or sigma else None
        for k in range(2)
    )
    if not sigma:
        samples[...] = _expectation_matrix(plan, qwp, hwp)
    for start in range(0, plan.repetitions, BLOCK_REPETITIONS):
        block = samples[start : start + BLOCK_REPETITIONS]
        if sigma:
            eps = jitter.standard_normal((len(block), 2 * (m + n))) * sigma
            block[...] = _expectation_matrix(plan, qwp + eps[:, 0::2], hwp + eps[:, 1::2])
        if shots is not None:
            # probabilities clipped to [0, 1], then counts, in the block's
            # own buffer (two ufuncs skip np.clip's Python wrapper)
            block += 1.0
            block /= 2.0
            np.maximum(block, 0.0, out=block)
            np.minimum(block, 1.0, out=block)
            block[...] = counts.binomial(shots, block)
    if shots is not None:
        # an exact integer numerator, then one correctly rounded division
        samples *= 2.0
        samples -= shots
        samples /= shots
    return samples
