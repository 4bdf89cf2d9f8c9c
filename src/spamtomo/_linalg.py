"""Closed-form 3x3 adjugate and guarded inverse over stacks.

The corner blocks of every repetition's expectation matrix, and the
loop's three blocks, are each inverted in one pass, so the inverse is
computed branch-free from the adjugate on ``(..., 3, 3)`` stacks rather
than through a factorization per matrix.
The singularity guard compares each determinant against the Frobenius
scale of its matrix, which separates a degenerate choice of settings
from an actual correlated error; a non-finite determinant counts as
singular.
"""

import math

import numpy as np

from .errors import SingularMatrixError

DET_RTOL = 1e-10

_SQRT3 = math.sqrt(3.0)

# Cofactor table: ``adj[i, j] = m[p] * m[q] - m[r] * m[s]`` on the
# row-major flat index of a 3x3 matrix, one ``(p, q, r, s)`` per element
# in row-major order; stored transposed, as the rows p, q, r and s.
_COFACTORS = np.array(
    [(4, 8, 5, 7), (2, 7, 1, 8), (1, 5, 2, 4), (5, 6, 3, 8), (0, 8, 2, 6), (2, 3, 0, 5), (3, 7, 4, 6), (1, 6, 0, 7), (0, 4, 1, 3)]
).T

# Matrices whose cofactor factors are gathered at once.  The gathered
# factors are four times their matrices' size, so this bounds the memory a
# long stack needs beyond its input and adjugate; the result does not
# depend on it.
BLOCK_MATRICES = 512


def adjugate3(m):
    """Adjugate of a 3x3 matrix or of every matrix of a ``(..., 3, 3)``
    stack: each element the difference of two products of the cofactor
    table, gathered for :data:`BLOCK_MATRICES` matrices at a time."""
    flat = m.reshape(-1, 9)
    adj = np.empty(flat.shape, dtype=m.dtype)
    for start in range(0, len(flat), BLOCK_MATRICES):
        # entries as rows, so the gather copies whole rows
        p, q, r, s = np.ascontiguousarray(flat[start : start + BLOCK_MATRICES].T)[_COFACTORS]
        cofactors = p * q
        cofactors -= r * s
        adj[start : start + BLOCK_MATRICES] = cofactors.T
    return adj.reshape(m.shape)


def guarded_inv3(m, where):
    """Invert a 3x3 matrix, or every matrix of a ``(..., 3, 3)`` stack,
    raising :class:`SingularMatrixError` when a determinant is not finite
    or is small relative to the matrix scale.

    The scale is ``(|m|_F / sqrt(3))**3``, the determinant magnitude of a
    well-conditioned matrix with the same Frobenius norm.  ``where`` names
    the matrix; it may instead be a sequence naming the positions along
    the last leading axis.  The error reports the first singular matrix
    in C order of the leading axes, prefixed by ``sample k:`` (1-based)
    for each leading axis that ``where`` does not name.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise SingularMatrixError(f"{where} must be 3x3, got shape {m.shape}", where=where)
    adj = adjugate3(m)
    # cofactor expansion along the first row: the adjugate's first column
    det = m[..., 0, 0] * adj[..., 0, 0] + m[..., 0, 1] * adj[..., 1, 0] + m[..., 0, 2] * adj[..., 2, 0]
    # the Frobenius norm, summed as np.linalg.norm(m, 'fro') sums it
    scale = (np.sqrt(np.add.reduce(m * m, axis=(-2, -1))) / _SQRT3) ** 3
    singular = ~np.isfinite(det) | (np.abs(det) <= DET_RTOL * scale)
    if singular.any():
        index = tuple(np.argwhere(singular)[0])
        name, samples = (where, index) if isinstance(where, str) else (where[index[-1]], index[:-1])
        prefix = "".join(f"sample {k + 1}: " for k in samples)
        raise SingularMatrixError(
            f"{prefix}near-singular {name}: |det| = {abs(det[index]):.3e} at scale {scale[index]:.3e}",
            where=name,
        )
    return adj / det[..., None, None]
