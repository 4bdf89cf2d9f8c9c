"""The loop test: states and observables from the corner blocks by
inversion, and scores against nominal vectors.

Once an expectation matrix is found free of correlated errors it
factorizes as ``S = P W`` with Stokes rows ``P`` and observable columns
``W``.  Knowing one factor on a 3x3 corner block recovers the other by
exact inversion (no least squares, no likelihood fitting).  Chaining the
inversions around the corners ``[[A, B], [C, D]]`` - states from A, new
observables from B, more states from D - and then checking C against
the recovered pieces is the loop self-consistency test.  The corners are
the ones the partial determinant reads, for either scheme.

Inverted vectors can land slightly outside the physical unit ball.  The
loop carries the raw inverted values between legs and only at the end
rescales those outside onto the sphere and flags them (the rescaled
vector is pure), so projection bias does not compound.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import guarded_inv3
from .detect import corner_blocks
from .errors import ShapeError, SingularMatrixError
from .qubit import fidelity, povm_element_fidelity, relative_error


def _clip_to_ball(vectors):
    """Rescale the rows with norm > 1 onto the unit sphere; flag them."""
    vectors = np.array(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    flags = norms > 1.0
    scaled = np.where(flags, vectors / np.where(flags, norms, 1.0), vectors)
    return scaled, flags.reshape(-1)


@dataclass(frozen=True)
class LoopResult:
    """Everything the loop recovers: six Stokes rows, six observable
    columns (the first three echo the known inputs), rescaling flags, and
    the self-consistency residual from the unused lower-left corner."""

    prep_stokes: np.ndarray
    obs_vectors: np.ndarray
    prep_renormalized: np.ndarray
    obs_renormalized: np.ndarray
    consistency_residual: float


def loop_bootstrap(values, known_w):
    """Run the tomography loop on a 6x6 or compact 4x4 expectation matrix,
    on the corners ``[[A, B], [C, D]]`` that :func:`corner_blocks` gathers.

    ``known_w`` holds the observable columns of settings 1-3.  The legs
    run in order, each one guarded 3x3 inversion: states 1-3
    ``P1 = A W1^-1`` from the upper-left block, observables 4-6
    ``W2 = P1^-1 B`` from the upper-right, states 4-6 ``P2 = D W2^-1``
    from the lower-right.  The residual is the largest element-wise
    mismatch between C and ``P2 W1``.  Rescaling onto the unit sphere
    happens only after all legs.  For four settings, rows 5-6 of the
    states and columns 5-6 of the observables recover preparations and
    settings 2-3 a second time.
    """
    if np.ndim(values) != 2:
        raise ShapeError(f"loop expects one 6x6 or 4x4 matrix, got shape {np.shape(values)}")
    a, b, c, d = corner_blocks(values)
    known_w = np.asarray(known_w, dtype=float)
    if known_w.shape != (3, 3):
        raise ShapeError(f"known observables must form a 3x3 block, got shape {known_w.shape}")

    try:
        leg = "state-tomography leg on the upper-left block"
        p_first = a @ guarded_inv3(known_w, where="measurement block")
        leg = "detector-tomography leg on the upper-right block"
        w_rest = guarded_inv3(p_first, where="preparation block") @ b
        leg = "state-tomography leg on the lower-right block"
        p_rest = d @ guarded_inv3(w_rest, where="measurement block")
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"{leg}: {exc}", where=exc.where) from exc

    residual = float(np.abs(c - p_rest @ known_w).max())

    prep, prep_flags = _clip_to_ball(np.vstack([p_first, p_rest]))
    obs_t, obs_flags = _clip_to_ball(np.hstack([known_w, w_rest]).T)
    return LoopResult(
        prep_stokes=prep,
        obs_vectors=obs_t.T,
        prep_renormalized=prep_flags,
        obs_renormalized=obs_flags,
        consistency_residual=residual,
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
    observable vectors of POVM elements, one per row.  States are compared
    by fidelity; POVM elements both by fidelity (after trace
    normalization) and by Frobenius relative error on the raw elements.
    Scores follow the row order, so permuting the inputs permutes the
    scores identically.  ``renormalized_flags`` holds one rescaling flag
    per fidelity, states first, and is carried through as booleans.
    """
    if any(np.ndim(v) != 2 for v in (rec_states, true_states, rec_povms, true_povms)):
        raise ShapeError("scores need (k, 3) arrays of vectors, one per row")
    fids = np.concatenate([fidelity(rec_states, true_states), povm_element_fidelity(rec_povms, true_povms)])
    errors = relative_error(rec_povms, true_povms)
    return ReconstructionScore(
        fidelities=tuple(fids.tolist()),
        relative_errors=tuple(errors.tolist()),
        renormalized_flags=tuple(bool(f) for f in renormalized_flags),
    )
