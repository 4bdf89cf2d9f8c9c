"""Property tests of the consistency identity on random stacks."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spamtomo import apply_gauge, partial_determinant  # noqa: E402
from conftest import sample_invertible, sample_stokes_ball  # noqa: E402


def full_rank_factors(rng, count):
    """``count`` pairs of 6x3 Stokes rows and 3x6 observable columns drawn
    from the unit ball, each with full-rank corner blocks."""
    pairs = []
    while len(pairs) < count:
        p = sample_stokes_ball(rng, 6)
        w = sample_stokes_ball(rng, 6).T
        if min(abs(np.linalg.det(p[:3] @ w[:, :3])), abs(np.linalg.det(p[3:] @ w[:, 3:]))) > 1e-3:
            pairs.append((p, w))
    return pairs


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 20))
    def test_factorized_stacks_have_unit_partial_determinant(self, seed, count):
        stack = np.array([p @ w for p, w in full_rank_factors(np.random.default_rng(seed), count)])
        delta = partial_determinant(stack)
        assert delta.shape == (count, 3, 3)
        assert np.abs(delta - np.eye(3)).max() < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_partial_determinant_is_gauge_invariant(self, seed):
        rng = np.random.default_rng(seed)
        stack, gauged = [], []
        for p, w in full_rank_factors(rng, 5):
            noise = 0.05 * rng.standard_normal((6, 6))
            p_g, w_g = apply_gauge(p, w, sample_invertible(rng))
            stack.append(p @ w + noise)
            gauged.append(p_g @ w_g + noise)
        delta = partial_determinant(np.array(stack))
        # roundoff grows with |Delta| when noise leaves a corner ill-conditioned
        scale = np.maximum(np.abs(delta).max(axis=(1, 2), keepdims=True), 1.0)
        assert np.all(np.abs(partial_determinant(np.array(gauged)) - delta) <= 1e-7 * scale)
