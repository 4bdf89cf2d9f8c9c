"""Exact single-qubit linear algebra: states, observables, POVMs and metrics.

Conventions used throughout the package:

* ``|H> = (1, 0)`` and ``|V> = (0, 1)``.  The third Pauli matrix is the
  horizontal/vertical analyser, so a horizontally polarized photon has
  Stokes vector ``(0, 0, 1)``.
* A state is parametrized by its normalized Stokes vector ``s``
  (``s0 = 1`` implicit) via ``rho = (s . sigma + 1) / 2``.  Physical
  states satisfy ``|s| <= 1``; pure states sit on the Poincare sphere.
* A two-outcome detector setting is parametrized by an observable vector
  ``w`` with ``|w| <= 1``.  The element for the positive port is
  ``E = (w . sigma + 1) / 2`` and its complement is ``1 - E``; the
  direction of ``w`` sets the measurement basis and ``|w|`` the
  discrimination power.  Only unbiased pairs (``tr E = 1``) are handled.
* The expectation value of the setting's observable ``E - (1 - E)`` on a
  state is then simply the dot product ``s . w``.
* Reconstructions are scored on these vectors: fidelity and relative
  error have closed forms on Stokes and observable vectors, so no
  matrix is built to score them.

All functions are pure and operate on plain numpy arrays, so they are safe
for concurrent use.
"""

import numpy as np

from .errors import NonPhysicalError, ShapeError, SingularMatrixError

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Stacked Pauli basis; axis 0 indexes the Stokes/observable components.
PAULI = np.stack([SIGMA_1, SIGMA_2, SIGMA_3])

ATOL_ALGEBRA = 1e-12  # exact linear algebra
ATOL_INPUT = 1e-9     # validated user input
# |s|^2 of a unit vector lands this close to 1 after rounding.
PURITY_ATOL = 8 * np.finfo(float).eps


def is_hermitian(matrix, atol=ATOL_ALGEBRA):
    matrix = np.asarray(matrix)
    return bool(np.all(np.abs(matrix - matrix.conj().T) <= atol))


def check_density(rho, atol=ATOL_INPUT):
    """Validate a 2x2 density matrix (Hermitian, unit trace, PSD).

    Raises :class:`NonPhysicalError` with the violated property named.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise NonPhysicalError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not is_hermitian(rho, atol):
        raise NonPhysicalError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        raise NonPhysicalError(f"density matrix trace is {np.trace(rho)}, expected 1")
    if np.linalg.eigvalsh(rho).min() < -atol:
        raise NonPhysicalError("density matrix has a negative eigenvalue")
    return rho


def density_from_stokes(s, atol=ATOL_INPUT):
    """Build the density matrix ``(s . sigma + 1) / 2`` from a Stokes vector."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise NonPhysicalError(f"Stokes vector must have 3 components, got shape {s.shape}")
    norm = np.linalg.norm(s)
    if norm > 1.0 + atol:
        raise NonPhysicalError(f"non-physical state: |s| = {norm} exceeds the unit ball")
    return 0.5 * (np.tensordot(s, PAULI, axes=1) + IDENTITY_2)


def stokes_from_density(rho, atol=ATOL_INPUT):
    """Recover the Stokes vector of a density matrix, ``s_mu = tr(rho sigma_mu)``."""
    rho = check_density(rho, atol)
    return np.real(np.einsum("ij,mji->m", rho, PAULI))


class PovmPair:
    """The two elements ``{E, 1 - E}`` of an unbiased two-outcome POVM."""

    __slots__ = ("e", "not_e")

    def __init__(self, e, not_e):
        self.e = np.asarray(e, dtype=complex)
        self.not_e = np.asarray(not_e, dtype=complex)

    def __repr__(self):
        return f"PovmPair(e={self.e!r}, not_e={self.not_e!r})"


def povm_from_observable(w, atol=ATOL_INPUT):
    """Build the POVM pair for an observable vector ``w``.

    ``E = (w . sigma + 1) / 2`` and ``not E = (-w . sigma + 1) / 2``;
    positivity of both elements is equivalent to ``|w| <= 1``.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise NonPhysicalError(f"observable vector must have 3 components, got shape {w.shape}")
    norm = np.linalg.norm(w)
    if norm > 1.0 + atol:
        raise NonPhysicalError(f"non-positive POVM: |w| = {norm} exceeds 1")
    sigma_w = np.tensordot(w, PAULI, axes=1)
    return PovmPair(0.5 * (sigma_w + IDENTITY_2), 0.5 * (-sigma_w + IDENTITY_2))


def observable_from_povm(pair, atol=ATOL_INPUT):
    """Recover the observable vector from an unbiased POVM pair.

    The observable is ``E - (1 - E) = w . sigma``.  Biased pairs
    (``tr E != 1``) are rejected since they cannot be written this way.
    """
    e = np.asarray(pair.e, dtype=complex)
    not_e = np.asarray(pair.not_e, dtype=complex)
    if np.abs(e + not_e - IDENTITY_2).max() > atol:
        raise NonPhysicalError("POVM elements do not sum to the identity")
    for name, el in (("E", e), ("not E", not_e)):
        if not is_hermitian(el, atol):
            raise NonPhysicalError(f"POVM element {name} is not Hermitian")
        if np.linalg.eigvalsh(el).min() < -atol:
            raise NonPhysicalError(f"POVM element {name} is not positive semidefinite")
    if abs(np.trace(e).real - 1.0) > atol:
        raise NonPhysicalError(
            f"unsupported POVM: tr E = {np.trace(e).real}, only unbiased pairs are handled"
        )
    sigma_w = e - not_e
    return np.real(np.einsum("ij,mji->m", sigma_w, PAULI)) / 2.0


def expectation(s, w):
    """Expectation value of the setting observable on the state: ``s . w``."""
    s = np.asarray(s, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(s @ w)


def born_probability(rho, element, atol=ATOL_INPUT):
    """Detection probability ``tr(rho element)`` for a POVM element.

    The element must be PSD with eigenvalues at most 1; the result is
    clipped to [0, 1] against roundoff.
    """
    rho = check_density(rho, atol)
    element = np.asarray(element, dtype=complex)
    if not is_hermitian(element, atol):
        raise NonPhysicalError("invalid element: not Hermitian")
    eigs = np.linalg.eigvalsh(element)
    if eigs.min() < -atol or eigs.max() > 1.0 + atol:
        raise NonPhysicalError(f"invalid element: eigenvalues {eigs} outside [0, 1]")
    p = np.trace(rho @ element).real
    return float(min(max(p, 0.0), 1.0))


def _norms_squared(v):
    return np.einsum("...i,...i->...", v, v)


def _score_pair(s, t, atol, what):
    """Two equally shaped ``(..., 3)`` float arrays of vectors inside the
    unit ball (up to ``atol``), and their squared norms."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if s.shape != t.shape or s.shape[-1:] != (3,):
        raise ShapeError(f"{what} needs two equally shaped (..., 3) arrays, got shapes {s.shape} and {t.shape}")
    squares = []
    for name, v in (("first", s), ("second", t)):
        sq = _norms_squared(v)
        bad = ~(sq <= (1.0 + atol) ** 2)  # NaN fails too
        if bad.any():
            raise NonPhysicalError(f"non-physical {name} vector: |v| = {np.sqrt(sq[bad][0])} exceeds the unit ball")
        squares.append(sq)
    return s, t, squares[0], squares[1]


def _purity_deficit(sq):
    """``1 - |s|^2``, with deficits within roundoff of the sphere (and
    negative ones) set to 0: the state is then pure."""
    deficit = 1.0 - sq
    return np.where(deficit > PURITY_ATOL, deficit, 0.0)


def fidelity(s, t, atol=ATOL_INPUT):
    """Fidelity of the qubit states with Stokes vectors ``s`` and ``t``.

    ``s`` and ``t`` are ``(..., 3)`` arrays scored pairwise along the last
    axis.  For qubits ``(tr sqrt(sqrt(a) b sqrt(a)))^2`` has the closed form
    ``(1 + s.t + sqrt((1 - |s|^2)(1 - |t|^2))) / 2``, clipped to [0, 1].  A
    state within roundoff of the sphere counts as pure, so the square root
    does not turn roundoff into errors near 1e-8.
    """
    s, t, sq_s, sq_t = _score_pair(s, t, atol, "fidelity")
    overlap = np.einsum("...i,...i->...", s, t)
    f = 0.5 * (1.0 + overlap + np.sqrt(_purity_deficit(sq_s) * _purity_deficit(sq_t)))
    return np.clip(f, 0.0, 1.0)


def povm_element_fidelity(w, v, atol=ATOL_INPUT):
    """Fidelity of the trace-normalized positive elements of the unbiased
    POVMs with observable vectors ``w`` and ``v``.

    ``E = (w . sigma + 1) / 2`` has unit trace, so the normalized element
    is the state with Stokes vector ``w`` and the score is
    ``fidelity(w, v)``.
    """
    return fidelity(w, v, atol)


def relative_error(w, v, atol=ATOL_INPUT):
    """Frobenius-norm relative error ``|E_w - E_v| / |E_v|`` of the positive
    elements of the unbiased POVMs with observable vectors ``w`` and ``v``
    (``(..., 3)`` arrays, scored pairwise).

    ``(u . sigma)^2 = |u|^2 1``, so this is ``|w - v| / sqrt(1 + |v|^2)``;
    the reference element never has zero norm.
    """
    w, v, _, sq_v = _score_pair(w, v, atol, "relative error")
    return np.sqrt(_norms_squared(w - v) / (1.0 + sq_v))


def apply_gauge(p_rows, w_cols, g, atol=ATOL_ALGEBRA):
    """Apply a gauge transform: rows ``p -> p g^-1``, columns ``w -> g w``.

    Every pairwise expectation ``p . w`` is left unchanged.  The outputs
    are raw 3-vectors; a gauge may move them outside the physical ball,
    so no physicality validation is applied.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise SingularMatrixError(f"gauge must be 3x3, got shape {g.shape}", where="gauge")
    if abs(np.linalg.det(g)) <= atol:
        raise SingularMatrixError("singular gauge transform", where="gauge")
    g_inv = np.linalg.inv(g)
    p_rows = np.atleast_2d(np.asarray(p_rows, dtype=float))
    w_cols = np.asarray(w_cols, dtype=float)
    if w_cols.ndim == 1:
        w_cols = w_cols[:, None]
    return p_rows @ g_inv, g @ w_cols
