"""Single-qubit states, observables and the scores of reconstructions.

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
  matrix is built to score them.  :func:`density_from_stokes` and
  :func:`povm_from_observable` give the matrix forms of the two
  parametrizations.

All functions are pure and operate on plain numpy arrays, so they are safe
for concurrent use.
"""

import math

import numpy as np

from .errors import NonPhysicalError, ShapeError

IDENTITY_2 = np.eye(2, dtype=complex)

# Pauli basis sigma_1, sigma_2, sigma_3; axis 0 indexes the
# Stokes/observable components.
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

ATOL_INPUT = 1e-9  # validated user input
# |s|^2 of a unit vector lands this close to 1 after rounding.
PURITY_ATOL = 8 * np.finfo(float).eps


def density_from_stokes(s):
    """Build the density matrix ``(s . sigma + 1) / 2`` from a Stokes vector."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise NonPhysicalError(f"Stokes vector must have 3 components, got shape {s.shape}")
    norm = np.linalg.norm(s)
    if norm > 1.0 + ATOL_INPUT:
        raise NonPhysicalError(f"non-physical state: |s| = {norm} exceeds the unit ball")
    return 0.5 * (np.tensordot(s, PAULI, axes=1) + IDENTITY_2)


class PovmPair:
    """The two elements ``{E, 1 - E}`` of an unbiased two-outcome POVM."""

    __slots__ = ("e", "not_e")

    def __init__(self, e, not_e):
        self.e = np.asarray(e, dtype=complex)
        self.not_e = np.asarray(not_e, dtype=complex)

    def __repr__(self):
        return f"PovmPair(e={self.e!r}, not_e={self.not_e!r})"


def povm_from_observable(w):
    """Build the POVM pair for an observable vector ``w``.

    ``E = (w . sigma + 1) / 2`` and ``not E = (-w . sigma + 1) / 2``;
    positivity of both elements is equivalent to ``|w| <= 1``.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise NonPhysicalError(f"observable vector must have 3 components, got shape {w.shape}")
    norm = np.linalg.norm(w)
    if norm > 1.0 + ATOL_INPUT:
        raise NonPhysicalError(f"non-positive POVM: |w| = {norm} exceeds 1")
    sigma_w = np.tensordot(w, PAULI, axes=1)
    return PovmPair(0.5 * (sigma_w + IDENTITY_2), 0.5 * (-sigma_w + IDENTITY_2))


def _norms_squared(v):
    return np.einsum("...i,...i->...", v, v)


def _score_pair(s, t, what):
    """Two equally shaped ``(..., 3)`` float arrays of vectors inside the
    unit ball (up to ``ATOL_INPUT``), and their squared norms.  Both are
    C-ordered copies when needed, so that ``einsum`` sums in one order and
    a score does not depend on its inputs' memory layout."""
    s = np.ascontiguousarray(s, dtype=float)
    t = np.ascontiguousarray(t, dtype=float)
    if s.shape != t.shape or s.shape[-1:] != (3,):
        raise ShapeError(f"{what} needs two equally shaped (..., 3) arrays, got shapes {s.shape} and {t.shape}")
    squares = []
    for name, v in (("first", s), ("second", t)):
        sq = _norms_squared(v)
        bad = ~(sq <= (1.0 + ATOL_INPUT) ** 2)  # NaN fails too
        if bad.any():
            # the norm of the vector itself: its squared norm may overflow
            norm = math.hypot(*v[bad][0].tolist())
            raise NonPhysicalError(f"non-physical {name} vector: |v| = {norm} exceeds the unit ball")
        squares.append(sq)
    return s, t, squares[0], squares[1]


def _purity_deficit(sq):
    """``1 - |s|^2``, with deficits within roundoff of the sphere (and
    negative ones) set to 0: the state is then pure."""
    deficit = 1.0 - sq
    return np.where(deficit > PURITY_ATOL, deficit, 0.0)


def fidelity(s, t):
    """Fidelity of the qubit states with Stokes vectors ``s`` and ``t``.

    ``s`` and ``t`` are ``(..., 3)`` arrays scored pairwise along the last
    axis.  For qubits ``(tr sqrt(sqrt(a) b sqrt(a)))^2`` has the closed form
    ``(1 + s.t + sqrt((1 - |s|^2)(1 - |t|^2))) / 2``, clipped to [0, 1].  A
    state within roundoff of the sphere counts as pure, so the square root
    does not turn roundoff into errors near 1e-8.
    """
    s, t, sq_s, sq_t = _score_pair(s, t, "fidelity")
    overlap = np.einsum("...i,...i->...", s, t)
    f = 0.5 * (1.0 + overlap + np.sqrt(_purity_deficit(sq_s) * _purity_deficit(sq_t)))
    return np.clip(f, 0.0, 1.0)


def povm_element_fidelity(w, v):
    """Fidelity of the trace-normalized positive elements of the unbiased
    POVMs with observable vectors ``w`` and ``v``.

    ``E = (w . sigma + 1) / 2`` has unit trace, so the normalized element
    is the state with Stokes vector ``w`` and the score is
    ``fidelity(w, v)``.
    """
    return fidelity(w, v)


def relative_error(w, v):
    """Frobenius-norm relative error ``|E_w - E_v| / |E_v|`` of the positive
    elements of the unbiased POVMs with observable vectors ``w`` and ``v``
    (``(..., 3)`` arrays, scored pairwise).

    ``(u . sigma)^2 = |u|^2 1``, so this is ``|w - v| / sqrt(1 + |v|^2)``;
    the reference element never has zero norm.
    """
    w, v, _, sq_v = _score_pair(w, v, "relative error")
    return np.sqrt(_norms_squared(w - v) / (1.0 + sq_v))
