import numpy as np
import pytest

from spamtomo import (
    ExperimentPlan,
    NoiseModel,
    ShapeError,
    SingularMatrixError,
    loop_bootstrap,
    qdt_invert,
    qst_invert,
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


class TestQstInvert:
    def test_orthonormal_design(self):
        # observables along the three axes make the expectation matrix the
        # state rows themselves
        w = np.eye(3)
        s = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        np.testing.assert_allclose(qst_invert(s, w), np.eye(3), atol=1e-12)

    def test_round_trip_against_bench_truth(self):
        plan = noiseless_plan()
        rows_true, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        np.testing.assert_allclose(qst_invert(s[:, :3], cols_true[:, :3]), rows_true, atol=1e-10)

    def test_returns_raw_rows(self):
        # a row outside the unit ball is returned as inverted
        s = np.array([[1.2, 0, 0], [0, 0.5, 0]])
        np.testing.assert_allclose(qst_invert(s, np.eye(3)), s, atol=1e-12)

    def test_singular_measurement_block(self):
        w = np.zeros((3, 3))
        with pytest.raises(SingularMatrixError, match="measurement"):
            qst_invert(np.eye(3), w)


class TestQdtInvert:
    def test_axis_states_recover_axis_observables(self):
        p = np.eye(3)
        s = np.diag([1.0, -1.0, 1.0])
        np.testing.assert_allclose(qdt_invert(s, p), np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_round_trip_against_bench_truth(self):
        plan = noiseless_plan()
        rows_true, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        np.testing.assert_allclose(qdt_invert(s[:3, :], rows_true[:3]), cols_true, atol=1e-10)

    def test_inversion_round_trip(self):
        plan = noiseless_plan()
        rows_true, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        cols = qdt_invert(s[:3, :3], rows_true[:3])
        np.testing.assert_allclose(qst_invert(s[:, :3], cols), rows_true, atol=1e-10)

    def test_singular_preparation_block(self):
        with pytest.raises(SingularMatrixError, match="preparation"):
            qdt_invert(np.eye(3), np.zeros((3, 3)))


class TestLoopBootstrap:
    def test_noiseless_recovery(self):
        plan = noiseless_plan()
        rows_true, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        result = loop_bootstrap(s, cols_true[:, :3])
        assert result.consistency_residual < 1e-9
        np.testing.assert_allclose(result.prep_stokes, rows_true, atol=1e-9)
        np.testing.assert_allclose(result.obs_vectors, cols_true, atol=1e-9)

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
        s[:3, 3:] = 0.0  # kills the detector-tomography leg output
        with pytest.raises(SingularMatrixError, match="lower-right"):
            loop_bootstrap(s, cols_true[:, :3])

    def test_gauge_covariance(self, rng):
        # transforming the known observables transforms the recovered
        # factors while leaving every reproduced expectation unchanged
        plan = noiseless_plan()
        _, cols_true = truth(plan)
        s = true_expectation_matrix(plan)
        for _ in range(10):
            g = sample_invertible(rng)
            known_gauged = g @ cols_true[:, :3]
            base = loop_bootstrap(s, cols_true[:, :3], renormalize=False)
            gauged = loop_bootstrap(s, known_gauged, renormalize=False)
            np.testing.assert_allclose(
                gauged.prep_stokes @ gauged.obs_vectors,
                base.prep_stokes @ base.obs_vectors,
                atol=1e-9,
            )
            np.testing.assert_allclose(gauged.obs_vectors[:, :3], g @ cols_true[:, :3], atol=1e-9)

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
        with pytest.raises(ShapeError):
            loop_bootstrap(np.zeros((4, 4)), np.eye(3))
        with pytest.raises(ShapeError):
            loop_bootstrap(np.zeros((6, 6)), np.eye(2))


class TestScore:
    def test_perfect_reconstruction(self):
        states = sample_stokes_ball(np.random.default_rng(3), 4)
        povms = sample_stokes_ball(np.random.default_rng(4), 3)
        score = score_reconstruction(states, states, povms, povms)
        assert all(f == pytest.approx(1.0, abs=1e-12) for f in score.fidelities)
        assert all(e == pytest.approx(0.0, abs=1e-12) for e in score.relative_errors)
        assert score.renormalized_flags == (False,) * 7

    def test_matches_matrix_oracle(self, rng):
        rec_states, ref_states = sample_stokes_ball(rng, 4), sample_stokes_ball(rng, 4)
        rec_povms, ref_povms = sample_stokes_ball(rng, 3), sample_stokes_ball(rng, 3)
        score = score_reconstruction(rec_states, ref_states, rec_povms, ref_povms)
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
        forward = score_reconstruction(states, refs, none, none)
        backward = score_reconstruction(states[::-1], refs[::-1], none, none)
        assert forward.fidelities == backward.fidelities[::-1]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            score_reconstruction(np.zeros((1, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)))
        with pytest.raises(ShapeError):
            score_reconstruction(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((2, 3)), np.zeros((1, 3)))
        with pytest.raises(ShapeError):
            score_reconstruction(np.zeros(3), np.zeros(3), np.empty((0, 3)), np.empty((0, 3)))

    def test_flags_carried_through(self):
        s = np.zeros((1, 3))
        score = score_reconstruction(s, s, np.empty((0, 3)), np.empty((0, 3)), renormalized_flags=[True])
        assert score.renormalized_flags == (True,)
