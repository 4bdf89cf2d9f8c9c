"""The loop test: states and observables from the corner blocks by
inversion, and scores against nominal vectors.

Once an expectation matrix is found free of correlated errors it
factorizes as ``S = P W`` with Stokes rows ``P`` and observable columns
``W``.  Knowing one factor on a 3x3 corner block recovers the other by
exact inversion (no least squares, no likelihood fitting).  Going around
the corners ``[[A, B], [C, D]]`` - states from A, new observables from
B, more states from D - closes in one formula: the loop predicts the
unused corner as ``D B^-1 A``, and C must equal it.  The corners are the
ones the partial determinant reads, for either scheme.

Inverted vectors can land slightly outside the physical unit ball.  The
loop rescales those outside onto the sphere and flags them (the
rescaled vector is pure) only once every vector is recovered, so
projection bias does not compound.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import guarded_inv3
from .detect import corner_blocks, validate_expectation_matrix
from .errors import ShapeError
from .qubit import PURITY_ATOL, fidelity, relative_error
# Not called here; perfbench/layertrace.py still traces this name.
from .qubit import povm_element_fidelity  # noqa: F401

_BLOCKS = ("known observables", "upper-left corner", "upper-right corner")


def _clip_to_ball(vectors):
    """Rescale the rows outside the unit ball onto the sphere; flag them.
    A row within roundoff of the sphere counts as on it, as in
    :func:`fidelity`."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    flags = norms > 1.0 + PURITY_ATOL
    scaled = np.where(flags, vectors / np.where(flags, norms, 1.0), vectors)
    return scaled, flags.reshape(-1)


@dataclass(frozen=True)
class LoopResult:
    """Everything the loop determines for an n x n matrix: n Stokes rows
    (preparations 1..n), n observable columns (settings 1..n; the first
    three echo the known inputs), rescaling flags, and the
    self-consistency residual from the unused lower-left corner."""

    prep_stokes: np.ndarray
    obs_vectors: np.ndarray
    prep_renormalized: np.ndarray
    obs_renormalized: np.ndarray
    consistency_residual: float


def loop_bootstrap(values, known_w):
    """Run the tomography loop on a 6x6 or compact 4x4 expectation matrix,
    on the corners ``[[A, B], [C, D]]`` that :func:`corner_blocks` gathers.

    ``known_w`` holds the observable columns ``W1`` of settings 1-3.  One
    guarded 3x3 inversion of ``W1``, A and B, checked in that order,
    gives the loop in closed form: the states ``P = [A; D B^-1 A] W1^-1``
    and the observables ``[W1, W1 A^-1 B]``.  A's triple is (1, 2, 3) and
    D's starts with 4, so the first n rows and columns of these are
    preparations and settings 1..n, in order; the loop returns those.
    The residual is the largest element-wise mismatch between C and the
    loop's ``D B^-1 A``, so it does not depend on ``W1``.  Rescaling onto
    the unit sphere happens once, over every recovered vector.  A NaN or
    inf entry, which the guard sees only in W1, A and B, is a ShapeError.
    """
    if np.ndim(values) != 2:
        raise ShapeError(f"loop expects one 6x6 or 4x4 matrix, got shape {np.shape(values)}")
    a, b, c, d = corner_blocks(values)
    known_w = np.asarray(known_w, dtype=float)
    if known_w.shape != (3, 3):
        raise ShapeError(f"known observables must form a 3x3 block, got shape {known_w.shape}")

    w1_inv, a_inv, b_inv = guarded_inv3(np.stack([known_w, a, b]), where=_BLOCKS)
    if not np.isfinite(values).all():  # past the guard, a NaN or inf sits in C or D
        validate_expectation_matrix(values)
    c_loop = d @ b_inv @ a
    n = len(values)
    prep = (np.vstack([a, c_loop]) @ w1_inv)[:n]
    vectors, flags = _clip_to_ball(np.vstack([prep, np.hstack([known_w, known_w @ a_inv @ b])[:, :n].T]))
    return LoopResult(
        prep_stokes=vectors[:n],
        obs_vectors=vectors[n:].T,
        prep_renormalized=flags[:n],
        obs_renormalized=flags[n:],
        consistency_residual=float(np.abs(c - c_loop).max()),
    )


@dataclass(frozen=True)
class ReconstructionScore:
    """Per-operator fidelities (states first, then trace-normalized POVM
    elements), per-element Frobenius relative errors for the POVMs, and
    the rescaling flags carried through from reconstruction."""

    fidelities: tuple
    relative_errors: tuple
    renormalized_flags: tuple


def score_reconstruction(rec_states, true_states, rec_povms, true_povms, renormalized_flags):
    """Score reconstructed vectors against their references.

    All four inputs are ``(k, 3)`` arrays: Stokes vectors of states and
    observable vectors of POVM elements, one per row.  One fidelity call
    scores the states, then the POVM elements after trace normalization
    (as :func:`povm_element_fidelity`); one more gives the POVM elements'
    Frobenius relative errors.  Scores follow the row order, so permuting
    the inputs permutes the scores identically.  ``renormalized_flags``
    holds one rescaling flag per fidelity, states first, and is carried
    through as booleans.
    """
    if any(np.shape(v)[1:] != (3,) for v in (rec_states, true_states, rec_povms, true_povms)):
        raise ShapeError("scores need (k, 3) arrays of vectors, one per row")
    fids = fidelity(np.concatenate([rec_states, rec_povms]), np.concatenate([true_states, true_povms]))
    return ReconstructionScore(
        fidelities=tuple(fids.tolist()),
        relative_errors=tuple(relative_error(rec_povms, true_povms).tolist()),
        renormalized_flags=tuple(bool(f) for f in renormalized_flags),
    )
