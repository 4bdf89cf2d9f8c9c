"""State and detector tomography by matrix inversion, and the loop test.

Once an expectation matrix is found free of correlated errors it
factorizes as ``S = P W`` with Stokes rows ``P`` and observable columns
``W``.  Knowing one factor on a 3x3 block recovers the other by exact
inversion (no least squares, no likelihood fitting).  Chaining the
inversions around the corner blocks - states from the upper-left block,
new observables from the upper-right, more states from the lower-right -
and then checking the lower-left block against the recovered pieces is
the loop self-consistency test.

Inverted vectors can land slightly outside the physical unit ball.  The
loop carries the raw inverted values between legs and only at the end
rescales those outside onto the sphere and flags them (the rescaled
vector is pure), so projection bias does not compound.
"""

from dataclasses import dataclass

import numpy as np

from ._linalg import guarded_inv3
from .errors import ShapeError, SingularMatrixError
from .qubit import fidelity, povm_element_fidelity, relative_error


def _clip_to_ball(vectors, axis):
    """Rescale vectors with norm > 1 onto the unit sphere; flag them."""
    vectors = np.array(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=axis, keepdims=True)
    flags = norms > 1.0
    scaled = np.where(flags, vectors / np.where(flags, norms, 1.0), vectors)
    return scaled, flags.reshape(-1)


def qst_invert(s_block, w_block):
    """State tomography: recover Stokes rows from ``P = S W^-1``.

    ``s_block`` is Mx3 (one row per preparation, restricted to the three
    settings whose observables are known) and ``w_block`` holds those
    three observable columns.  Returns the raw Mx3 rows, which may leave
    the unit ball.
    """
    s_block = np.asarray(s_block, dtype=float)
    if s_block.ndim != 2 or s_block.shape[1] != 3:
        raise ShapeError(f"state tomography needs an Mx3 block, got shape {s_block.shape}")
    w_inv = guarded_inv3(np.asarray(w_block, dtype=float), where="measurement block")
    return s_block @ w_inv


def qdt_invert(s_block, p_block):
    """Detector tomography: recover observable columns from ``W = P^-1 S``.

    ``s_block`` is 3xN (one column per setting, restricted to the three
    preparations whose states are known) and ``p_block`` holds those
    three Stokes rows.  Returns the raw 3xN columns, which may leave the
    unit ball.
    """
    s_block = np.asarray(s_block, dtype=float)
    if s_block.ndim != 2 or s_block.shape[0] != 3:
        raise ShapeError(f"detector tomography needs a 3xN block, got shape {s_block.shape}")
    p_inv = guarded_inv3(np.asarray(p_block, dtype=float), where="preparation block")
    return p_inv @ s_block


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


def loop_bootstrap(values, known_w, renormalize=True):
    """Run the tomography loop on a 6x6 expectation matrix.

    ``known_w`` holds the observable columns of settings 1-3.  The legs
    run in order: states 1-3 from the upper-left block, observables 4-6
    from the upper-right, states 4-6 from the lower-right.  The residual
    is the largest element-wise mismatch between the lower-left block and
    the product of the recovered states 4-6 with the known observables.
    Rescaling onto the unit sphere happens only after all legs.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (6, 6):
        raise ShapeError(f"loop expects a 6x6 matrix, got shape {values.shape}")
    known_w = np.asarray(known_w, dtype=float)
    if known_w.shape != (3, 3):
        raise ShapeError(f"known observables must form a 3x3 block, got shape {known_w.shape}")

    a, b, c, d = values[:3, :3], values[:3, 3:], values[3:, :3], values[3:, 3:]
    try:
        p_first = qst_invert(a, known_w)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"state-tomography leg on the upper-left block: {exc}", where=exc.where) from exc
    try:
        w_rest = qdt_invert(b, p_first)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"detector-tomography leg on the upper-right block: {exc}", where=exc.where) from exc
    try:
        p_rest = qst_invert(d, w_rest)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"state-tomography leg on the lower-right block: {exc}", where=exc.where) from exc

    residual = float(np.abs(c - p_rest @ known_w).max())

    prep = np.vstack([p_first, p_rest])
    obs = np.hstack([known_w, w_rest])
    if renormalize:
        prep, prep_flags = _clip_to_ball(prep, axis=1)
        obs_t, obs_flags = _clip_to_ball(obs.T, axis=1)
        obs = obs_t.T
    else:
        prep_flags = np.zeros(6, dtype=bool)
        obs_flags = np.zeros(6, dtype=bool)
    return LoopResult(
        prep_stokes=prep,
        obs_vectors=obs,
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


def score_reconstruction(rec_states, true_states, rec_povms, true_povms, renormalized_flags=None):
    """Score reconstructed vectors against their references.

    All four inputs are ``(k, 3)`` arrays: Stokes vectors of states and
    observable vectors of POVM elements, one per row.  States are compared
    by fidelity; POVM elements both by fidelity (after trace
    normalization) and by Frobenius relative error on the raw elements.
    Scores follow the row order, so permuting the inputs permutes the
    scores identically.
    """
    if any(np.ndim(v) != 2 for v in (rec_states, true_states, rec_povms, true_povms)):
        raise ShapeError("scores need (k, 3) arrays of vectors, one per row")
    fids = np.concatenate([fidelity(rec_states, true_states), povm_element_fidelity(rec_povms, true_povms)])
    errors = relative_error(rec_povms, true_povms)
    if renormalized_flags is None:
        flags = (False,) * len(fids)
    else:
        flags = tuple(bool(f) for f in renormalized_flags)
    return ReconstructionScore(
        fidelities=tuple(fids.tolist()),
        relative_errors=tuple(errors.tolist()),
        renormalized_flags=flags,
    )
