"""The closed-form 3x3 adjugate against its written-out cofactors, and the
guarded inverse's singularity errors."""

import tracemalloc

import numpy as np
import pytest

from spamtomo import SingularMatrixError
from spamtomo import _linalg
from spamtomo._linalg import adjugate3, guarded_inv3


def oracle_adjugate(m):
    """The nine cofactors written out, one product pair per element."""
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


def special_stack(rng, shape):
    """Random entries with a twentieth (at least one) each of inf, nan,
    -0.0 and the smallest subnormal mixed in."""
    m = rng.standard_normal(shape)
    flat = m.reshape(-1)
    count = max(1, flat.size // 20)
    picks = rng.choice(flat.size, size=4 * count, replace=False).reshape(4, count)
    for where, value in zip(picks, (np.inf, np.nan, -0.0, 5e-324)):
        flat[where] = value
    return m


class TestAdjugate:
    @pytest.mark.parametrize("shape", [(3, 3), (7, 3, 3), (5, 10, 3, 3), (1100, 3, 3)])
    def test_bytes_equal_written_out_cofactors(self, rng, shape):
        assert _linalg.BLOCK_MATRICES < 1100  # the last shape spans blocks
        for m in (rng.standard_normal(shape), special_stack(rng, shape)):
            with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf
                expected = oracle_adjugate(m)
                got = adjugate3(m)
            assert got.shape == shape
            assert got.tobytes() == expected.tobytes()

    def test_strided_input(self, rng):
        # corners gathered as (..., 4, 3, 3) and read as their first two
        stack = rng.standard_normal((600, 4, 3, 3))[:, :2]
        assert adjugate3(stack).tobytes() == oracle_adjugate(stack).tobytes()

    def test_adjugate_times_matrix_is_determinant(self, rng):
        m = rng.standard_normal((20, 3, 3))
        np.testing.assert_allclose(adjugate3(m) @ m, np.linalg.det(m)[:, None, None] * np.eye(3), atol=1e-12)

    def test_memory_does_not_grow_with_the_stack(self, rng):
        # beyond its input and output the adjugate holds one block's
        # gathered factors, whatever the stack's length
        def overhead(repetitions):
            m = rng.standard_normal((repetitions, 3, 3))
            tracemalloc.start()
            try:
                adj = adjugate3(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - adj.nbytes

        overhead(2000)  # first-use allocations stay out of the comparison
        assert overhead(8000) <= overhead(2000) + 10_000


class TestGuardedInverse:
    def test_inverse(self, rng):
        m = rng.standard_normal((4, 3, 3)) + 3 * np.eye(3)
        np.testing.assert_allclose(guarded_inv3(m, where="x") @ m, np.broadcast_to(np.eye(3), m.shape), atol=1e-12)

    def test_where_string_named(self):
        with pytest.raises(SingularMatrixError, match=r"^near-singular the block: \|det\| = 0\.000e\+00") as info:
            guarded_inv3(np.ones((3, 3)), where="the block")
        assert info.value.where == "the block"

    def test_where_sequence_named(self):
        m = np.array([np.eye(3), np.eye(3), np.ones((3, 3))])
        with pytest.raises(SingularMatrixError, match=r"^near-singular third: ") as info:
            guarded_inv3(m, where=("first", "second", "third"))
        assert info.value.where == "third"

    def test_samples_prefixed_on_a_two_axis_stack(self):
        m = np.broadcast_to(np.eye(3), (4, 2, 3, 3)).copy()
        m[2, 1] = 0.0
        m[3, 0] = 0.0
        with pytest.raises(SingularMatrixError, match=r"^sample 3: near-singular lower: ") as info:
            guarded_inv3(m, where=("upper", "lower"))
        assert info.value.where == "lower"
        # a string names every matrix; each leading axis becomes a prefix
        with pytest.raises(SingularMatrixError, match=r"^sample 3: sample 2: near-singular block: "):
            guarded_inv3(m, where="block")

    def test_non_finite_determinant_is_singular(self):
        m = np.eye(3)
        m[1, 2] = np.inf
        with pytest.raises(SingularMatrixError, match=r"near-singular x: \|det\| = nan"):
            with np.errstate(invalid="ignore"):
                guarded_inv3(m, where="x")
        m = np.eye(3) * 1e300
        with pytest.raises(SingularMatrixError, match=r"near-singular x: \|det\| = inf"):
            with np.errstate(over="ignore"):
                guarded_inv3(m, where="x")

    def test_wrong_shape(self):
        with pytest.raises(SingularMatrixError, match="x must be 3x3"):
            guarded_inv3(np.eye(4), where="x")
