"""Correlated-error detection on measured expectation matrices.

A 6x6 expectation matrix (rows: preparations, columns: settings) that
factorizes as states-times-observables has a partial determinant equal to
the identity: with the matrix partitioned into 3x3 corners

    S = [[A, B],
         [C, D]]

the partial determinant is ``A^-1 B D^-1 C``, and it deviates from the
identity exactly when no uncorrelated factorization exists.  Statistics
of the deviation over repeated measurements turn this into a significance
test, and the deviation pattern localizes which preparation/setting pair
carries the error.

A matrix says its own scheme by its size: 6x6 is the six-setting scheme
and 4x4 the compact four-setting one, so callers pass either as
measured.  The corners are gathered by the scheme's row and column
triples (see :attr:`Scheme.embed_index`): the 3x3 quadrants for six
settings, and for four a second triple that reuses preparations and
settings 2 and 3.  The corner gather, the partial determinant and its
statistics all work on a whole ``(repetitions, n, n)`` stack at once.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import guarded_inv3
from .errors import ShapeError
from .optics import Scheme, _is_finite_real
from .qubit import ATOL_INPUT

_CORNERS = ("upper-left corner", "lower-right corner")
_EYE3 = np.eye(3)


def _first_out_of_range(values):
    """The index of the first entry of a float array outside [-1, 1] up to
    ``ATOL_INPUT``, in C order, or ``None`` when there is none.  Two
    reductions, with no temporary array, decide; NaN fails both, and
    +-inf one.  A mask is built only to locate the entry."""
    if not (values.min(initial=0.0) >= -(1.0 + ATOL_INPUT) and values.max(initial=0.0) <= 1.0 + ATOL_INPUT):
        return tuple(np.argwhere(~(np.abs(values) <= 1.0 + ATOL_INPUT))[0])


def validate_expectation_matrix(values):
    """Check shape (6x6 or 4x4, or a stack of either) and that every entry
    is an expectation value in [-1, 1] up to ``ATOL_INPUT``; NaN fails the
    range test.  In a stack the error names the sample (``sample k:``,
    1-based)."""
    values = np.asarray(values, dtype=float)
    Scheme.of_shape(values.shape)
    index = _first_out_of_range(values)
    if index is not None:
        *samples, r, c = index
        prefix = "".join(f"sample {k + 1}: " for k in samples)
        raise ShapeError(
            f"{prefix}entry ({r + 1}, {c + 1}) = {values[index]} outside [-1, 1]"
        )
    return values


def _require_finite(result, values, what):
    """End a kernel that computed ``result`` from the expectation
    matrices ``values``: return ``result`` when every element is finite,
    and otherwise raise a :class:`ShapeError`.  It names the first entry
    of ``values`` outside [-1, 1], with the message of
    :func:`validate_expectation_matrix`, and when every entry is in range
    the first element of ``result`` that is not finite: ``what``, then
    its 1-based row and column, prefixed by ``sample k:`` for each
    leading axis."""
    if np.isfinite(result).all():
        return result
    validate_expectation_matrix(values)
    index = tuple(np.argwhere(~np.isfinite(result))[0])
    prefix = "".join(f"sample {k + 1}: " for k in index[:-2])
    position = f" ({index[-2] + 1}, {index[-1] + 1})" if index else ""  # none for a scalar
    raise ShapeError(f"{prefix}{what}{position} is {result[index]}, not finite")


def embed_n_plus_1(compact):
    """Inflate a compact 4x4 matrix, or a ``(..., 4, 4)`` stack, to 6x6
    by copying rows and columns.

    Rows 5 and 6 duplicate rows 2 and 3, and likewise for columns, so for
    example entry (5, 6) of the result equals entry (2, 3) of the input.
    The result analyses as a 2n record, with 2n localization, so pass
    compact records to :func:`delta_statistics` and ``loop_bootstrap`` as
    measured.  Nothing in the package calls this; it stays as an export
    and a boundary the benchmark's layer tracer names.
    """
    compact = np.asarray(compact, dtype=float)
    if compact.shape[-2:] != (4, 4):
        raise ShapeError(f"embedding expects 4x4 matrices, got shape {compact.shape}")
    idx = np.array(Scheme.N_PLUS_ONE.embed_index)
    # C order, as when stacking a list of embedded matrices: a reduction
    # over the repetition axis then sums in the same order, bit for bit.
    return np.ascontiguousarray(compact[..., idx[:, None], idx])


def _corner_index(scheme):
    """Row and column indices that gather the corners A, D, B, C of a
    matrix measured in ``scheme`` as ``(..., 4, 3, 3)``, in that order."""
    first, second = np.array(scheme.embed_index).reshape(2, 3)
    rows = np.array([first, second, first, second])
    cols = np.array([first, second, second, first])
    return rows[:, :, None], cols[:, None, :]


_CORNER_INDEX = {scheme: _corner_index(scheme) for scheme in Scheme}


def _corners(values, scheme):
    """The corners of ``(..., n, n)`` float matrices measured in
    ``scheme``, as ``(..., 4, 3, 3)`` in the order A, D, B, C."""
    rows, cols = _CORNER_INDEX[scheme]
    return values[..., rows, cols]


def corner_blocks(values):
    """The corners ``A, B, C, D`` of ``S = [[A, B], [C, D]]`` for a 6x6
    or compact 4x4 matrix, or a ``(..., n, n)`` stack, as ``(..., 3, 3)``
    views of one copy: A and D take the first and second triple of
    :attr:`Scheme.embed_index` as rows and columns, B and C mix them."""
    values = np.asarray(values, dtype=float)
    corners = _corners(values, Scheme.of_shape(values.shape))
    return corners[..., 0, :, :], corners[..., 2, :, :], corners[..., 3, :, :], corners[..., 1, :, :]


def partial_determinant(values):
    """Partial determinant ``A^-1 B D^-1 C`` of a 6x6 or compact 4x4
    expectation matrix, or of every matrix in a ``(..., n, n)`` stack,
    on the corners :func:`corner_blocks` gathers.

    Raises :class:`SingularMatrixError` naming the corner when the
    upper-left or lower-right block cannot be inverted reliably (an entry
    that is NaN, inf or beyond about 1e102 included).  A singular corner
    may come from the choice of settings or from a correlated error:
    pi/8 at (1, 1) on the default plans sets that entry, and det A, to 0.
    For a stack the error names the lowest failing sample (1-based), and
    within it the upper-left corner before the lower-right.

    Any finite matrices are taken as given; only
    :func:`validate_expectation_matrix` and the loader enforce [-1, 1].
    A result that is not finite (a NaN or inf in B or C, or a product
    past the float range) is a :class:`ShapeError` naming the first entry
    outside [-1, 1], or, with every entry in range, the Delta element.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = _partial_determinant(values, Scheme.of_shape(values.shape))
    return _require_finite(delta, values, "Delta element")


def _partial_determinant(values, scheme):
    """:func:`partial_determinant` of float matrices measured in ``scheme``."""
    corners = _corners(values, scheme)
    inverses = guarded_inv3(corners[..., :2, :, :], where=_CORNERS)
    return inverses[..., 0, :, :] @ corners[..., 2, :, :] @ inverses[..., 1, :, :] @ corners[..., 3, :, :]


@dataclass(frozen=True)
class DeltaStats:
    """Element-wise statistics of the partial-determinant deviation over
    repetitions: mean and sample standard deviation of ``Delta - 1``, and
    the significance ``|mean| / std`` (``inf`` when std is zero but the
    mean is not; 0 when both vanish), and the scheme the matrices were
    measured in."""

    mean: np.ndarray
    std: np.ndarray
    significance: np.ndarray
    repetitions: int
    scheme: Scheme


def delta_statistics(samples):
    """Statistics of ``Delta - 1`` over a stack (or list) of 6x6 matrices,
    or of compact 4x4 ones; the matrix size sets the statistics' scheme.

    Uses the unbiased (N-1) standard deviation.  When the spread of an
    element is exactly zero its significance is the infinity sentinel if
    the mean deviation is real (beyond the 1e-12 exact-algebra floor) and
    zero otherwise.  A singular corner in any sample aborts the analysis
    with the sample index attached.

    Any finite matrices are taken as given; only
    :func:`validate_expectation_matrix` and the loader enforce [-1, 1],
    so a finite entry outside that range that overflows nothing is
    analysed as it stands.  Statistics that are not finite (from a NaN or
    inf in B or C, or a product or square past the float range) are a
    :class:`ShapeError` naming the sample and the first entry outside
    [-1, 1], or, with every entry in range, the Delta element whose
    standard deviation is not finite.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3:
        raise ShapeError(f"statistics need a stack of 6x6 or 4x4 matrices, got shape {samples.shape}")
    if len(samples) < 2:
        raise ShapeError(f"need at least 2 repetitions for statistics, got {len(samples)}")
    scheme = Scheme.of_shape(samples.shape)
    n = len(samples)
    # a NaN or inf in B or C passes the guard on A and D, and so does a
    # product or square past the float range; any of them leaves the std
    # not finite, and is named there rather than sought in every sample
    with np.errstate(over="ignore", invalid="ignore"):
        stack = _partial_determinant(samples, scheme) - _EYE3
        # numpy's own two-pass mean and (N-1) standard deviation, bit for bit
        mean = stack.sum(axis=0) / n
        dev = stack - mean
        std = np.sqrt((dev * dev).sum(axis=0) / (n - 1))
    _require_finite(std, samples, "standard deviation of Delta element")
    # "zero" spread/mean below the exact-algebra floor, so roundoff dust
    # from identical samples cannot masquerade as significance; the
    # division runs only where the spread is not zero
    abs_mean = np.abs(mean)
    significance = np.divide(abs_mean, std, out=np.where(abs_mean > 1e-12, np.inf, 0.0), where=~(std <= 1e-12))
    return DeltaStats(mean=mean, std=std, significance=significance, repetitions=n, scheme=scheme)


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of the significance test.

    ``flagged_elements`` lists ``(row, col, significance)`` of the
    partial-determinant deviation, 1-based, most significant first.
    ``candidate_locations`` lists candidate ``(preparation, setting)``
    pairs once :func:`localize` has run; ``note`` qualifies their
    ambiguity.
    """

    detected: bool
    threshold: float
    flagged_elements: tuple
    scheme: Scheme
    candidate_locations: tuple = ()
    note: str = ""


def detect(stats, threshold=3.0):
    """Flag every element whose significance exceeds ``threshold`` (in
    units of the repetition standard deviation).  The threshold must be a
    finite real number > 0 (not a bool or an array; see
    ``optics._is_finite_real``), or :class:`ShapeError` is raised.  The
    report carries the scheme of ``stats``, which :func:`localize` reads."""
    if not (_is_finite_real(threshold) and threshold > 0):
        raise ShapeError(f"threshold must be finite and positive, got {threshold!r}")
    flagged = [
        (r + 1, c + 1, value)
        for r, row in enumerate(stats.significance.tolist())
        for c, value in enumerate(row)
        if value > threshold
    ]
    flagged.sort(key=lambda item: -item[2])
    return DetectionReport(
        detected=bool(flagged),
        threshold=float(threshold),
        flagged_elements=tuple(flagged),
        scheme=stats.scheme,
    )


def localize(report):
    """Attach candidate error locations to a detection report.

    For the six-setting scheme each flagged row ``r`` implicates
    preparations ``r`` and ``r + 3`` and each flagged column ``c``
    implicates settings ``c`` and ``c + 3``; the partial determinant
    cannot tell those corners apart, so the Cartesian product of both is
    reported.  For the four-setting scheme every matrix whose corners
    invert has ``Delta - 1 = -(det S / det D) A^-1 e1 e1^T``: only column 1
    can deviate, all of it by one scalar, at the rows where ``A^-1 e1`` is
    not zero, which the plan's settings fix, not the error.  A detection
    then says an error is present but not where.

    The localization is heuristic thresholding of the deviation pattern;
    candidates are suggestions for the operator, not proofs.
    """
    if not report.detected:
        candidates, note = (), "no flags to localize"
    elif report.scheme is Scheme.TWO_N:
        rows = sorted({r for r, _, _ in report.flagged_elements})
        cols = sorted({c for _, c, _ in report.flagged_elements})
        preps = sorted({p for r in rows for p in (r, r + 3)})
        settings = sorted({s for c in cols for s in (c, c + 3)})
        candidates = tuple((a, i) for a in preps for i in settings)
        note = (
            "candidates pair flagged rows with flagged columns; each row r maps to "
            "preparations {r, r+3} and each column c to settings {c, c+3} because the "
            "partial determinant cannot distinguish those corners"
        )
    else:
        candidates = ()
        note = (
            "correlated error present, location indeterminate: with four settings the "
            "duplicated rows/columns alias distinct errors onto row 1/column 1"
        )
    return DetectionReport(
        detected=report.detected,
        threshold=report.threshold,
        flagged_elements=report.flagged_elements,
        scheme=report.scheme,
        candidate_locations=candidates,
        note=note,
    )
