"""Closed-form 3x3 determinant, adjugate and guarded inverse over stacks.

The corner blocks of every repetition's expectation matrix are inverted
in one pass, so the inverse is computed branch-free from the adjugate on
``(..., 3, 3)`` stacks rather than through a factorization per matrix.
The singularity guard compares each determinant against the Frobenius
scale of its matrix, which separates a degenerate choice of settings
from an actual correlated error; a non-finite determinant counts as
singular.
"""

import numpy as np

from .errors import SingularMatrixError

DET_RTOL = 1e-10


def det3(m):
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def adjugate3(m):
    adj = np.empty(m.shape, dtype=m.dtype)
    adj[..., 0, 0] = m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1]
    adj[..., 0, 1] = m[..., 0, 2] * m[..., 2, 1] - m[..., 0, 1] * m[..., 2, 2]
    adj[..., 0, 2] = m[..., 0, 1] * m[..., 1, 2] - m[..., 0, 2] * m[..., 1, 1]
    adj[..., 1, 0] = m[..., 1, 2] * m[..., 2, 0] - m[..., 1, 0] * m[..., 2, 2]
    adj[..., 1, 1] = m[..., 0, 0] * m[..., 2, 2] - m[..., 0, 2] * m[..., 2, 0]
    adj[..., 1, 2] = m[..., 0, 2] * m[..., 1, 0] - m[..., 0, 0] * m[..., 1, 2]
    adj[..., 2, 0] = m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]
    adj[..., 2, 1] = m[..., 0, 1] * m[..., 2, 0] - m[..., 0, 0] * m[..., 2, 1]
    adj[..., 2, 2] = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return adj


def guarded_inv3(m, rtol=DET_RTOL, where="matrix"):
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
    det = det3(m)
    scale = (np.linalg.norm(m, axis=(-2, -1)) / np.sqrt(3.0)) ** 3
    singular = ~np.isfinite(det) | (np.abs(det) <= rtol * scale)
    if singular.any():
        index = tuple(np.argwhere(singular)[0])
        name, samples = (where, index) if isinstance(where, str) else (where[index[-1]], index[:-1])
        prefix = "".join(f"sample {k + 1}: " for k in samples)
        raise SingularMatrixError(
            f"{prefix}near-singular {name}: |det| = {abs(det[index]):.3e} at scale {scale[index]:.3e}",
            where=name,
        )
    return adjugate3(m) / det[..., None, None]
