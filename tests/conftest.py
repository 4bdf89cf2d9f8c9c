import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20_2608)


def sample_stokes_ball(rng, n=1):
    """Uniform draws from the closed unit ball (valid Stokes vectors)."""
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / 3.0)
    return v * r[:, None]


def sample_invertible(rng, max_tries=100):
    """A comfortably invertible random 3x3 matrix."""
    for _ in range(max_tries):
        g = rng.standard_normal((3, 3))
        if abs(np.linalg.det(g)) > 0.05:
            return g
    raise RuntimeError("no invertible draw found")


def tiny_corner_stack(rng, repetitions=10):
    """A 2n stack with every entry in [-1, 1] whose 3x3 corners A and D
    are near 1e-100: they invert, but put Delta near 1e200, whose squared
    deviation is past the float range."""
    stack = rng.uniform(-1.0, 1.0, (repetitions, 6, 6))
    for corner in (slice(0, 3), slice(3, 6)):
        stack[:, corner, corner] = 1e-100 * (np.eye(3) + 0.1 * rng.uniform(-1.0, 1.0, (repetitions, 3, 3)))
    return stack


def matrix_fidelity(a, b):
    """Test oracle: the matrix closed form ``tr(ab) + 2 sqrt(det a det b)``
    of two qubit density matrices.  A determinant within roundoff of 0 (a
    pure state) counts as 0; elsewhere the square root would turn that
    roundoff into errors near 1e-8."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    # the closed-form 2x2 determinant: np.linalg.det warns on some singular ones
    dets = [(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real for m in (a, b)]
    dets = [d if d > 1e-15 else 0.0 for d in dets]
    f = np.trace(a @ b).real + 2.0 * np.sqrt(dets[0] * dets[1])
    return float(min(max(f, 0.0), 1.0))


def matrix_relative_error(rec, ref):
    """Test oracle: Frobenius-norm relative error ``|rec - ref| / |ref|``
    of two operators."""
    return float(np.linalg.norm(np.asarray(rec) - np.asarray(ref)) / np.linalg.norm(ref))
