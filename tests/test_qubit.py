import numpy as np
import pytest
from scipy.linalg import sqrtm

from spamtomo import (
    IDENTITY_2,
    PAULI,
    NonPhysicalError,
    PovmPair,
    ShapeError,
    SingularMatrixError,
    apply_gauge,
    born_probability,
    density_from_stokes,
    expectation,
    fidelity,
    observable_from_povm,
    povm_element_fidelity,
    povm_from_observable,
    relative_error,
    stokes_from_density,
)
from conftest import matrix_fidelity, matrix_relative_error, sample_invertible, sample_stokes_ball

RHO_H = np.diag([1.0, 0.0]).astype(complex)
RHO_V = np.diag([0.0, 1.0]).astype(complex)
RHO_M = np.diag([0.75, 0.25]).astype(complex)


def test_pauli_orthonormality():
    for mu in range(3):
        for nu in range(3):
            overlap = np.trace(PAULI[mu] @ PAULI[nu])
            assert overlap == pytest.approx(2.0 if mu == nu else 0.0, abs=1e-12)


class TestDensityStokes:
    def test_h_state(self):
        np.testing.assert_allclose(density_from_stokes([0, 0, 1]), RHO_H, atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(density_from_stokes([0, 0, 0]), IDENTITY_2 / 2, atol=1e-12)

    def test_partially_mixed(self):
        # (3/4)|H><H| + (1/4)|V><V| has Stokes (0, 0, 1/2) by direct trace
        # arithmetic: tr(rho sigma_3) = 3/4 - 1/4.
        np.testing.assert_allclose(density_from_stokes([0, 0, 0.5]), RHO_M, atol=1e-12)
        np.testing.assert_allclose(stokes_from_density(RHO_M), [0, 0, 0.5], atol=1e-12)

    def test_diagonal_polarization(self):
        np.testing.assert_allclose(
            stokes_from_density(0.5 * np.array([[1, 1], [1, 1]], dtype=complex)),
            [1, 0, 0],
            atol=1e-12,
        )

    def test_h_state_inverse(self):
        np.testing.assert_allclose(stokes_from_density(RHO_H), [0, 0, 1], atol=1e-12)

    def test_round_trip_on_ball(self, rng):
        for s in sample_stokes_ball(rng, 1000):
            np.testing.assert_allclose(stokes_from_density(density_from_stokes(s)), s, atol=1e-12)

    def test_rejects_outside_ball(self):
        with pytest.raises(NonPhysicalError):
            density_from_stokes([0.8, 0.8, 0.8])

    def test_rejects_unnormalized_density(self):
        with pytest.raises(NonPhysicalError):
            stokes_from_density(2 * RHO_H)


class TestPovm:
    def test_projective_pair(self):
        pair = povm_from_observable([0, 0, 1])
        np.testing.assert_allclose(pair.e, RHO_H, atol=1e-12)
        np.testing.assert_allclose(pair.not_e, RHO_V, atol=1e-12)

    def test_zero_discrimination(self):
        pair = povm_from_observable([0, 0, 0])
        np.testing.assert_allclose(pair.e, IDENTITY_2 / 2, atol=1e-12)
        np.testing.assert_allclose(pair.not_e, IDENTITY_2 / 2, atol=1e-12)

    def test_partial_discrimination(self):
        # direct evaluation of (w . sigma + 1)/2 at w = (0, 0, 1/2)
        pair = povm_from_observable([0, 0, 0.5])
        np.testing.assert_allclose(pair.e, RHO_M, atol=1e-12)

    def test_elements_sum_to_identity(self, rng):
        for w in sample_stokes_ball(rng, 200):
            pair = povm_from_observable(w)
            np.testing.assert_allclose(pair.e + pair.not_e, IDENTITY_2, atol=1e-12)

    def test_observable_round_trip(self, rng):
        for w in sample_stokes_ball(rng, 200):
            np.testing.assert_allclose(observable_from_povm(povm_from_observable(w)), w, atol=1e-12)

    def test_inverse_examples(self):
        np.testing.assert_allclose(
            observable_from_povm(PovmPair(RHO_H, RHO_V)), [0, 0, 1], atol=1e-12
        )
        np.testing.assert_allclose(
            observable_from_povm(PovmPair(IDENTITY_2 / 2, IDENTITY_2 / 2)), [0, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            observable_from_povm(PovmPair(np.diag([0.75, 0.25]), np.diag([0.25, 0.75]))),
            [0, 0, 0.5],
            atol=1e-12,
        )

    def test_rejects_long_observable(self):
        with pytest.raises(NonPhysicalError):
            povm_from_observable([1, 1, 0])

    def test_rejects_biased_pair(self):
        # elements sum to identity but tr E != 1
        biased = PovmPair(np.diag([0.9, 0.3]), np.diag([0.1, 0.7]))
        with pytest.raises(NonPhysicalError):
            observable_from_povm(biased)


class TestExpectation:
    def test_aligned(self):
        assert expectation([0, 0, 1], [0, 0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_axes(self):
        assert expectation([0, 0, 1], [1, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_partial(self):
        # cross-check via the full trace tr(rho (w . sigma))
        rho = density_from_stokes([0, 0, 0.5])
        sigma_w = np.tensordot([0, 0, 1], PAULI, axes=1)
        assert expectation([0, 0, 0.5], [0, 0, 1]) == pytest.approx(
            np.trace(rho @ sigma_w).real, abs=1e-12
        )
        assert expectation([0, 0, 0.5], [0, 0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_born_rule_consistency(self, rng):
        # s . w equals p(E) - p(not E) for the pair built from w
        for s, w in zip(sample_stokes_ball(rng, 300), sample_stokes_ball(rng, 300)):
            rho = density_from_stokes(s)
            pair = povm_from_observable(w)
            diff = born_probability(rho, pair.e) - born_probability(rho, pair.not_e)
            assert expectation(s, w) == pytest.approx(diff, abs=1e-12)


class TestBornProbability:
    def test_certain_detection(self):
        assert born_probability(RHO_H, RHO_H) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_on_projector(self, rng):
        for w in sample_stokes_ball(rng, 50):
            w = w / np.linalg.norm(w)  # random projective element
            element = povm_from_observable(w).e
            assert born_probability(IDENTITY_2 / 2, element) == pytest.approx(0.5, abs=1e-12)

    def test_partial_overlap(self):
        assert born_probability(RHO_M, RHO_H) == pytest.approx(0.75, abs=1e-12)

    def test_pair_sums_to_one(self, rng):
        for s, w in zip(sample_stokes_ball(rng, 100), sample_stokes_ball(rng, 100)):
            rho = density_from_stokes(s)
            pair = povm_from_observable(w)
            total = born_probability(rho, pair.e) + born_probability(rho, pair.not_e)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_eigenvalue_above_one(self):
        with pytest.raises(NonPhysicalError):
            born_probability(RHO_H, np.diag([1.5, 0.0]))


def _fidelity_oracle(a, b):
    """Eigendecomposition evaluation: (tr sqrt(sqrt(a) b sqrt(a)))**2."""
    root = sqrtm(np.asarray(a))
    inner = sqrtm(root @ np.asarray(b) @ root)
    return float(np.real(np.trace(inner)) ** 2)


S_H = np.array([0.0, 0.0, 1.0])
S_V = np.array([0.0, 0.0, -1.0])
S_M = np.array([0.0, 0.0, 0.5])


class TestFidelity:
    def test_self_fidelity(self, rng):
        s = sample_stokes_ball(rng, 1000)
        np.testing.assert_allclose(fidelity(s, s), 1.0, atol=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(S_H, S_V) == pytest.approx(0.0, abs=1e-12)

    def test_pure_versus_mixed(self):
        # for pure a the fidelity reduces to <psi| b |psi> = 3/4
        assert fidelity(S_H, S_M) == pytest.approx(0.75, abs=1e-12)
        assert _fidelity_oracle(RHO_H, RHO_M) == pytest.approx(0.75, abs=1e-9)

    def test_matches_matrix_square_root_oracle(self, rng):
        s, t = sample_stokes_ball(rng, 300), sample_stokes_ball(rng, 300)
        f = fidelity(s, t)
        for k in range(300):
            oracle = _fidelity_oracle(density_from_stokes(s[k]), density_from_stokes(t[k]))
            assert f[k] == pytest.approx(oracle, abs=1e-8)
            assert f[k] == pytest.approx(
                matrix_fidelity(density_from_stokes(s[k]), density_from_stokes(t[k])), abs=1e-12
            )

    def test_bounds_and_symmetry(self, rng):
        s, t = sample_stokes_ball(rng, 1000), sample_stokes_ball(rng, 1000)
        f = fidelity(s, t)
        assert np.all((0.0 <= f) & (f <= 1.0))
        np.testing.assert_allclose(f, fidelity(t, s), atol=1e-12)

    def test_rejects_non_psd(self):
        # the non-PSD "state" diag(1.5, -0.5) has Stokes vector (0, 0, 2)
        with pytest.raises(NonPhysicalError):
            fidelity([0.0, 0.0, 2.0], S_H)
        with pytest.raises(NonPhysicalError):
            fidelity(S_H, [0.8, 0.8, 0.8])
        with pytest.raises(NonPhysicalError):
            fidelity([np.nan, 0.0, 0.0], S_H)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            fidelity(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            fidelity(np.zeros(2), np.zeros(2))

    def test_pure_state_is_stable(self, rng):
        # a pure state's fidelity is 1 with its own vector and with a copy
        # moved by one ulp, and (1 + s.t)/2 against a mixed t for both; the
        # determinant form was off by up to 1e-8 against mixed states
        mixed = sample_stokes_ball(rng, 203) * 0.9
        for s, t in zip(np.vstack([np.eye(3), sample_stokes_ball(rng, 200)]), mixed):
            s = s / np.linalg.norm(s)
            moved = s.copy()
            k = np.argmax(np.abs(s))
            moved[k] = np.nextafter(moved[k], 0.0)
            assert abs(fidelity(s, s) - 1.0) <= 1e-15
            assert abs(fidelity(s, moved) - 1.0) <= 1e-15
            assert abs(fidelity(moved, s) - 1.0) <= 1e-15
            for pure in (s, moved):
                assert abs(fidelity(pure, t) - (1.0 + pure @ t) / 2.0) <= 1e-15

    def test_povm_element_fidelity_normalizes(self, rng):
        # the trace-normalized element of w is the state with Stokes vector
        # w, so any rescaled element compares like the state
        w, v = sample_stokes_ball(rng, 50), sample_stokes_ball(rng, 50)
        f = povm_element_fidelity(w, v)
        for k in range(50):
            e_w = 0.5 * povm_from_observable(w[k]).e
            e_v = povm_from_observable(v[k]).e
            np.testing.assert_allclose(e_w / np.trace(e_w).real, density_from_stokes(w[k]), atol=1e-15)
            assert f[k] == pytest.approx(
                matrix_fidelity(e_w / np.trace(e_w).real, e_v / np.trace(e_v).real), abs=1e-12
            )
        assert povm_element_fidelity([0, 0.6, 0], [0, 0.6, 0]) == pytest.approx(1.0, abs=1e-12)


class TestRelativeError:
    def test_zero_for_equal(self):
        assert relative_error(S_M, S_M) == pytest.approx(0.0, abs=1e-12)

    def test_doubling(self):
        # |E_H - 1/2| / |1/2| = 1 for the H projector against the blind
        # detector w = 0; 2|H><H| against |H><H| (a biased element) gives
        # 1 on the matrix oracle
        assert relative_error(S_H, [0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert matrix_relative_error(povm_from_observable(S_H).e, IDENTITY_2 / 2) == pytest.approx(1.0, abs=1e-12)
        assert matrix_relative_error(2 * RHO_H, RHO_H) == pytest.approx(1.0, abs=1e-12)

    def test_swapped_projectors(self):
        # ||diag(1,-1)|| / ||diag(0,1)|| = sqrt(2)
        assert relative_error(S_H, S_V) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_matches_matrix_oracle(self, rng):
        w, v = sample_stokes_ball(rng, 300), sample_stokes_ball(rng, 300)
        err = relative_error(w, v)
        for k in range(300):
            oracle = matrix_relative_error(povm_from_observable(w[k]).e, povm_from_observable(v[k]).e)
            assert err[k] == pytest.approx(oracle, abs=1e-12)

    def test_rejects_zero_reference(self):
        # no unbiased element has zero norm (the blind detector is 1/2),
        # so the vector form only rejects vectors outside the ball
        assert relative_error([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 0.0
        with pytest.raises(NonPhysicalError):
            relative_error(S_H, [0.0, 0.0, 1.5])
        with pytest.raises(NonPhysicalError):
            relative_error([1.0, 1.0, 0.0], S_H)


class TestGauge:
    def test_identity_gauge(self, rng):
        p = sample_stokes_ball(rng, 4)
        w = sample_stokes_ball(rng, 4).T
        p2, w2 = apply_gauge(p, w, np.eye(3))
        np.testing.assert_allclose(p2, p, atol=1e-12)
        np.testing.assert_allclose(w2, w, atol=1e-12)

    def test_rotation_preserves_aligned_pair(self):
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta), 0], [np.sin(theta), np.cos(theta), 0], [0, 0, 1]]
        )
        p2, w2 = apply_gauge([[0, 0, 1]], np.array([[0.0], [0.0], [1.0]]), rot)
        assert p2 @ w2 == pytest.approx(1.0, abs=1e-12)

    def test_expectations_invariant(self, rng):
        for _ in range(1000):
            p = sample_stokes_ball(rng, 1)
            w = sample_stokes_ball(rng, 1).T
            g = sample_invertible(rng)
            p2, w2 = apply_gauge(p, w, g)
            assert (p2 @ w2)[0, 0] == pytest.approx((p @ w)[0, 0], abs=1e-10)

    def test_rejects_singular_gauge(self):
        with pytest.raises(SingularMatrixError):
            apply_gauge([[0, 0, 1]], np.array([[0.0], [0.0], [1.0]]), np.zeros((3, 3)))
