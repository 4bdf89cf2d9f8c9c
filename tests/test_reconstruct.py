import numpy as np
import pytest

from spamtomo import (
    ExperimentPlan,
    NoiseModel,
    Scheme,
    ShapeError,
    SingularMatrixError,
    loop_bootstrap,
    run_experiment,
    score_reconstruction,
    theoretical_observables,
    theoretical_states,
    true_expectation_matrix,
)
from spamtomo.qubit import density_from_stokes, povm_from_observable
from conftest import matrix_fidelity, matrix_relative_error, sample_invertible, sample_stokes_ball


def noiseless_plan(seed=0):
    return ExperimentPlan(
        noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=seed)
    )


def truth(plan):
    return theoretical_states(plan), theoretical_observables(plan)


class TestLoopBootstrap:
    def test_noiseless_recovery(self):
        plan = noiseless_plan()
        rows_true, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        result = loop_bootstrap(s, cols_true[:, :3])
        assert result.consistency_residual < 1e-9
        np.testing.assert_allclose(result.prep_stokes, rows_true, atol=1e-9)
        np.testing.assert_allclose(result.obs_vectors, cols_true, atol=1e-9)

    def test_axis_observables_read_states_off_the_block(self):
        # observables along the three axes for settings 1-3 make the
        # upper-left block the state rows themselves
        rows_true, cols_true = truth(noiseless_plan())
        rows = np.vstack([np.eye(3), 0.9 * rows_true[3:]])
        cols = np.hstack([np.eye(3), 0.9 * cols_true[:, 3:]])
        s = rows @ cols
        result = loop_bootstrap(s, np.eye(3))
        np.testing.assert_allclose(result.prep_stokes[:3], s[:3, :3], atol=1e-12)
        np.testing.assert_allclose(result.prep_stokes[3:], rows[3:], atol=1e-12)
        assert result.consistency_residual < 1e-12

    def test_axis_states_read_observables_off_the_block(self):
        # axis states for preparations 1-3 make the upper-right block the
        # observable columns of settings 4-6 themselves
        rows_true, cols_true = truth(noiseless_plan())
        rows = np.vstack([np.eye(3), 0.9 * rows_true[3:]])
        cols = np.hstack([cols_true[:, :3], np.diag([1.0, -1.0, 1.0])])
        s = rows @ cols
        result = loop_bootstrap(s, cols[:, :3])
        np.testing.assert_allclose(result.obs_vectors[:, 3:], np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(result.obs_vectors[:, 3:], s[:3, 3:], atol=1e-12)
        np.testing.assert_allclose(result.prep_stokes[3:], rows[3:], atol=1e-12)
        assert result.consistency_residual < 1e-12

    def test_raw_rows_carried_between_legs(self):
        # preparation 2 at |s| = 1.2 puts a row of A W1^-1 outside the ball;
        # the observables W1 A^-1 B use the raw corner, so they come back
        # exact and only that row is rescaled, once every vector is found
        rows_true, cols_true = truth(noiseless_plan())
        rows, cols = rows_true.copy(), 0.9 * cols_true
        rows[1] = 1.2 * rows_true[1]
        result = loop_bootstrap(rows @ cols, cols[:, :3])
        assert result.prep_renormalized.tolist() == [False, True, False, False, False, False]
        assert not result.obs_renormalized.any()
        np.testing.assert_allclose(result.obs_vectors, cols, atol=1e-9)
        np.testing.assert_allclose(result.prep_stokes, rows_true, atol=1e-9)
        assert result.consistency_residual < 1e-9

    def test_perturbed_lower_left_raises_residual(self):
        plan = noiseless_plan()
        _, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        s[4, 1] += 0.1  # inside the lower-left corner
        result = loop_bootstrap(s, cols_true[:, :3])
        assert result.consistency_residual > 1e-3

    def test_noisy_residual_within_shot_noise(self):
        plan = ExperimentPlan(
            noise=NoiseModel(shots_per_setting=10_000, angle_jitter_sigma=0.0, seed=8)
        )
        _, cols_true = truth(plan)
        mean = np.mean(run_experiment(plan), axis=0)
        result = loop_bootstrap(mean, cols_true[:, :3])
        assert result.consistency_residual < 10.0 / np.sqrt(10_000)

    def test_singular_leg_named(self):
        plan = noiseless_plan()
        _, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        s[:3, 3:] = 0.0  # B, inverted for the closure D B^-1 A
        with pytest.raises(SingularMatrixError, match="upper-right corner"):
            loop_bootstrap(s, cols_true[:, :3])

    @pytest.mark.parametrize(
        "zeroed,block",
        [("known", "known observables"), ("upper-left", "upper-left corner"), ("upper-right", "upper-right corner")],
        ids=["known", "upper-left", "upper-right"],
    )
    def test_singular_leg_error_text(self, zeroed, block):
        # the one inversion takes the known observables, A and B; zeroing
        # one of them names that block
        plan = noiseless_plan()
        _, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        known = cols_true[:, :3]
        if zeroed == "known":
            known = np.zeros((3, 3))
        elif zeroed == "upper-left":
            s[:3, :3] = 0.0
        else:
            s[:3, 3:] = 0.0
        with pytest.raises(SingularMatrixError) as excinfo:
            loop_bootstrap(s, known)
        assert str(excinfo.value) == f"near-singular {block}: |det| = 0.000e+00 at scale 0.000e+00"
        assert excinfo.value.where == block

    def test_singular_blocks_checked_in_order(self):
        # with every block zero, the known observables are named first,
        # then A, then B
        s = np.zeros((6, 6))
        with pytest.raises(SingularMatrixError, match="known observables"):
            loop_bootstrap(s, np.zeros((3, 3)))
        with pytest.raises(SingularMatrixError, match="upper-left corner"):
            loop_bootstrap(s, np.eye(3))
        s[:3, :3] = np.eye(3)
        with pytest.raises(SingularMatrixError, match="upper-right corner"):
            loop_bootstrap(s, np.eye(3))

    def test_gauge_covariance(self, rng):
        # known observables g W give states P g^-1 and observables g W, so
        # every reproduced expectation is unchanged.  Factors scaled by c
        # keep both loops' vectors inside the unit ball, so none is rescaled.
        rows_true, cols_true = truth(noiseless_plan())
        for _ in range(10):
            g = sample_invertible(rng)
            c = 0.99 / max(np.linalg.norm(g, 2), np.linalg.norm(np.linalg.inv(g), 2))
            rows, cols = c * rows_true, c * cols_true
            base = loop_bootstrap(rows @ cols, cols[:, :3])
            gauged = loop_bootstrap(rows @ cols, g @ cols[:, :3])
            for result in (base, gauged):
                assert not result.prep_renormalized.any()
                assert not result.obs_renormalized.any()
            np.testing.assert_allclose(
                gauged.prep_stokes @ gauged.obs_vectors,
                base.prep_stokes @ base.obs_vectors,
                atol=1e-9,
            )
            np.testing.assert_allclose(gauged.obs_vectors, g @ base.obs_vectors, atol=1e-9)
            np.testing.assert_allclose(gauged.prep_stokes, base.prep_stokes @ np.linalg.inv(g), atol=1e-9)

    def test_rescales_rows_outside_ball(self):
        # factors inside the ball, except preparation 5 at |s| = 1.2: the
        # loop recovers that row raw and then rescales and flags it alone
        rows_true, cols_true = truth(noiseless_plan())
        rows, cols = 0.9 * rows_true, 0.9 * cols_true
        rows[4] = 1.2 * rows_true[4]
        result = loop_bootstrap(rows @ cols, cols[:, :3])
        assert result.prep_renormalized.tolist() == [False, False, False, False, True, False]
        assert not result.obs_renormalized.any()
        assert np.linalg.norm(result.prep_stokes[4]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(result.prep_stokes[4], rows_true[4], atol=1e-9)
        np.testing.assert_allclose(np.delete(result.prep_stokes, 4, axis=0), np.delete(rows, 4, axis=0), atol=1e-9)
        np.testing.assert_allclose(result.obs_vectors, cols, atol=1e-9)

    def test_shape_checks(self):
        # a compact 4x4 matrix is read through its corner triples; every
        # other shape, and a stack of matrices, is refused
        plan = ExperimentPlan(scheme=Scheme.N_PLUS_ONE, noise=noiseless_plan().noise)
        result = loop_bootstrap(true_expectation_matrix(plan), theoretical_observables(plan)[:, :3])
        assert result.consistency_residual < 1e-9
        with pytest.raises(ShapeError):
            loop_bootstrap(np.zeros((5, 5)), np.eye(3))
        with pytest.raises(ShapeError):
            loop_bootstrap(np.zeros((2, 6, 6)), np.eye(3))
        with pytest.raises(ShapeError):
            loop_bootstrap(np.zeros((6, 6)), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("corner", ["C", "D"])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_non_finite_entry_outside_the_inverted_blocks_is_named(self, scheme, corner, bad):
        # the guard inverts W1, A and B; a NaN or inf in C or D would come
        # back as a NaN residual or state row, so it is named instead
        plan = ExperimentPlan(scheme=scheme, noise=NoiseModel(seed=3))
        mean = np.mean(run_experiment(plan), axis=0)
        second = scheme.embed_index[3]  # D's first row and column, in both schemes
        entry = (second, 0) if corner == "C" else (second, second)
        mean[entry] = bad
        with pytest.raises(ShapeError, match=rf"^entry \({entry[0] + 1}, {entry[1] + 1}\) = {bad} outside"):
            loop_bootstrap(mean, theoretical_observables(plan)[:, :3])

    def test_rescales_only_beyond_roundoff(self):
        # a row 2 ulp past the sphere is a unit vector up to rounding and
        # is left as it is; a row at 1 + 1e-9 is rescaled and flagged
        near = np.array([1.0 + 2 * np.finfo(float).eps, 0.0, 0.0])
        beyond = np.array([0.0, 0.6, 0.8]) * (1.0 + 1e-9)
        rows = np.vstack([0.5 * np.eye(3), near, beyond, [0.0, 0.0, 0.5]])
        result = loop_bootstrap(rows @ np.hstack([np.eye(3), np.eye(3)]), np.eye(3))
        assert result.prep_renormalized.tolist() == [False, False, False, False, True, False]
        assert np.array_equal(result.prep_stokes[3], near)
        np.testing.assert_allclose(result.prep_stokes[4], [0.0, 0.6, 0.8], rtol=0, atol=1e-15)
        assert np.linalg.norm(result.prep_stokes[4]) <= 1.0 + 2 * np.finfo(float).eps


class TestScore:
    def test_perfect_reconstruction(self):
        states = sample_stokes_ball(np.random.default_rng(3), 4)
        povms = sample_stokes_ball(np.random.default_rng(4), 3)
        score = score_reconstruction(states, states, povms, povms, np.zeros(7, bool))
        assert all(f == pytest.approx(1.0, abs=1e-12) for f in score.fidelities)
        assert all(e == pytest.approx(0.0, abs=1e-12) for e in score.relative_errors)
        assert score.renormalized_flags == (False,) * 7

    def test_matches_matrix_oracle(self, rng):
        rec_states, ref_states = sample_stokes_ball(rng, 4), sample_stokes_ball(rng, 4)
        rec_povms, ref_povms = sample_stokes_ball(rng, 3), sample_stokes_ball(rng, 3)
        score = score_reconstruction(rec_states, ref_states, rec_povms, ref_povms, np.zeros(7, bool))
        expected = [matrix_fidelity(density_from_stokes(a), density_from_stokes(b))
                    for a, b in zip(rec_states, ref_states)]
        elements = [(povm_from_observable(a).e, povm_from_observable(b).e) for a, b in zip(rec_povms, ref_povms)]
        expected += [matrix_fidelity(a / np.trace(a).real, b / np.trace(b).real) for a, b in elements]
        np.testing.assert_allclose(score.fidelities, expected, atol=1e-12)
        np.testing.assert_allclose(score.relative_errors, [matrix_relative_error(a, b) for a, b in elements], atol=1e-12)
        assert all(isinstance(f, float) for f in score.fidelities + score.relative_errors)

    def test_permutation_equivariance(self, rng):
        states = sample_stokes_ball(rng, 3)
        refs = sample_stokes_ball(rng, 3)
        none = np.empty((0, 3))
        forward = score_reconstruction(states, refs, none, none, np.zeros(3, bool))
        backward = score_reconstruction(states[::-1], refs[::-1], none, none, np.zeros(3, bool))
        assert forward.fidelities == backward.fidelities[::-1]

    def test_length_mismatch(self):
        flags = np.zeros(3, bool)
        with pytest.raises(ShapeError):
            score_reconstruction(np.zeros((1, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), flags[:1])
        with pytest.raises(ShapeError):
            score_reconstruction(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((2, 3)), np.zeros((1, 3)), flags)
        with pytest.raises(ShapeError):
            score_reconstruction(np.zeros(3), np.zeros(3), np.empty((0, 3)), np.empty((0, 3)), flags[:1])

    def test_flags_carried_through(self):
        s = np.zeros((1, 3))
        score = score_reconstruction(s, s, np.empty((0, 3)), np.empty((0, 3)), renormalized_flags=[True])
        assert score.renormalized_flags == (True,)
