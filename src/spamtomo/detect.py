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

Compact 4x4 matrices from the four-setting scheme are first embedded into
6x6 form by duplicating rows and columns 2 and 3 (see
:attr:`Scheme.embed_index`).  Embedding, the partial determinant and its
statistics all work on a whole ``(repetitions, 6, 6)`` stack at once.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import DET_RTOL, guarded_inv3
from .errors import ShapeError
from .optics import Scheme

_CORNERS = ("upper-left corner", "lower-right corner")


def validate_expectation_matrix(values, atol=1e-9):
    """Check shape (6x6 or 4x4) and that every entry is an expectation
    value in [-1, 1] up to ``atol``; NaN fails the range test."""
    values = np.asarray(values, dtype=float)
    if values.shape not in ((6, 6), (4, 4)):
        raise ShapeError(f"expectation matrix must be 6x6 or 4x4, got shape {values.shape}")
    bad = ~(np.abs(values) <= 1.0 + atol)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ShapeError(
            f"entry ({r + 1}, {c + 1}) = {values[r, c]} outside [-1, 1]"
        )
    return values


def embed_n_plus_1(compact):
    """Inflate a compact 4x4 matrix, or a ``(..., 4, 4)`` stack, to 6x6
    by copying rows and columns.

    Rows 5 and 6 duplicate rows 2 and 3, and likewise for columns, so for
    example entry (5, 6) of the result equals entry (2, 3) of the input.
    """
    compact = np.asarray(compact, dtype=float)
    if compact.shape[-2:] != (4, 4):
        raise ShapeError(f"embedding expects 4x4 matrices, got shape {compact.shape}")
    idx = np.array(Scheme.N_PLUS_ONE.embed_index)
    # C order, as when stacking a list of embedded matrices: a reduction
    # over the repetition axis then sums in the same order, bit for bit.
    return np.ascontiguousarray(compact[..., idx[:, None], idx])


def partial_determinant(values, det_rtol=DET_RTOL):
    """Partial determinant ``A^-1 B D^-1 C`` of a 6x6 expectation matrix,
    or of every matrix in a ``(..., 6, 6)`` stack.

    Raises :class:`SingularMatrixError` naming the corner when the
    upper-left or lower-right block cannot be inverted reliably; that
    indicates a degenerate choice of settings rather than a correlated
    error.  For a stack the error names the lowest failing sample
    (1-based), and within it the upper-left corner before the lower-right.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-2:] != (6, 6):
        raise ShapeError(f"partial determinant expects 6x6 matrices, got shape {values.shape}")
    corners = np.stack([values[..., :3, :3], values[..., 3:, 3:]], axis=-3)
    inverses = guarded_inv3(corners, det_rtol, where=_CORNERS)
    return inverses[..., 0, :, :] @ values[..., :3, 3:] @ inverses[..., 1, :, :] @ values[..., 3:, :3]


@dataclass(frozen=True)
class DeltaStats:
    """Element-wise statistics of the partial-determinant deviation over
    repetitions: mean and sample standard deviation of ``Delta - 1``, and
    the significance ``|mean| / std`` (``inf`` when std is zero but the
    mean is not; 0 when both vanish)."""

    mean: np.ndarray
    std: np.ndarray
    significance: np.ndarray
    repetitions: int


def delta_statistics(samples, det_rtol=DET_RTOL):
    """Statistics of ``Delta - 1`` over a stack (or list) of 6x6 matrices.

    Uses the unbiased (N-1) standard deviation.  When the spread of an
    element is exactly zero its significance is the infinity sentinel if
    the mean deviation is real (beyond the 1e-12 exact-algebra floor) and
    zero otherwise.  A singular corner in any sample aborts the analysis
    with the sample index attached.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3:
        raise ShapeError(f"statistics need a stack of 6x6 matrices, got shape {samples.shape}")
    if len(samples) < 2:
        raise ShapeError(f"need at least 2 repetitions for statistics, got {len(samples)}")
    stack = partial_determinant(samples, det_rtol) - np.eye(3)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1)
    # "zero" spread/mean below the exact-algebra floor, so roundoff dust
    # from identical samples cannot masquerade as significance
    with np.errstate(divide="ignore", invalid="ignore"):
        zero_std = std <= 1e-12
        significance = np.where(
            zero_std,
            np.where(np.abs(mean) > 1e-12, np.inf, 0.0),
            np.abs(mean) / np.where(zero_std, 1.0, std),
        )
    return DeltaStats(mean=mean, std=std, significance=significance, repetitions=len(samples))


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
    candidate_locations: tuple = ()
    scheme: Scheme = Scheme.TWO_N
    note: str = ""


def detect(stats, threshold=3.0, scheme=Scheme.TWO_N):
    """Flag every element whose significance exceeds ``threshold`` (in
    units of the repetition standard deviation)."""
    if threshold <= 0:
        raise ShapeError(f"threshold must be positive, got {threshold}")
    flagged = [
        (r + 1, c + 1, float(stats.significance[r, c]))
        for r in range(3)
        for c in range(3)
        if stats.significance[r, c] > threshold
    ]
    flagged.sort(key=lambda item: -item[2])
    return DetectionReport(
        detected=bool(flagged),
        threshold=float(threshold),
        flagged_elements=tuple(flagged),
        scheme=Scheme(scheme),
    )


def localize(report, scheme=None):
    """Attach candidate error locations to a detection report.

    For the six-setting scheme each flagged row ``r`` implicates
    preparations ``r`` and ``r + 3`` and each flagged column ``c``
    implicates settings ``c`` and ``c + 3``; the partial determinant
    cannot tell those corners apart, so the Cartesian product of both is
    reported.  For the four-setting scheme the duplicated rows/columns
    alias every error onto row 1/column 1: flags confined there mean an
    error is present but its location is indeterminate, and flags beyond
    row 1/column 1 name compact locations directly (row 1/column 1 flags
    then come along as duplication artifacts).

    The localization is heuristic thresholding of the deviation pattern;
    candidates are suggestions for the operator, not proofs.
    """
    scheme = Scheme(scheme) if scheme is not None else report.scheme
    if not report.detected:
        return replace(report, scheme=scheme, candidate_locations=(), note="no flags to localize")
    rows = sorted({r for r, _, _ in report.flagged_elements})
    cols = sorted({c for _, c, _ in report.flagged_elements})
    if scheme is Scheme.TWO_N:
        preps = sorted({p for r in rows for p in (r, r + 3)})
        settings = sorted({s for c in cols for s in (c, c + 3)})
        candidates = tuple((a, i) for a in preps for i in settings)
        note = (
            "candidates pair flagged rows with flagged columns; each row r maps to "
            "preparations {r, r+3} and each column c to settings {c, c+3} because the "
            "partial determinant cannot distinguish those corners"
        )
    else:
        confined = all(r == 1 or c == 1 for r, c, _ in report.flagged_elements)
        if confined:
            candidates = ()
            note = (
                "correlated error present, location indeterminate: with four settings the "
                "duplicated rows/columns alias distinct errors onto row 1/column 1"
            )
        else:
            candidates = tuple((r, c) for r in rows for c in cols)
            note = (
                "row 1/column 1 flags are expected duplication artifacts; remaining flags "
                "name compact (preparation, setting) locations"
            )
    return replace(report, scheme=scheme, candidate_locations=candidates, note=note)
