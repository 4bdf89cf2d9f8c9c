import numpy as np
import pytest

from spamtomo import (
    ConfigError,
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    NonPhysicalError,
    Scheme,
    SourceKind,
    WavePlateSetting,
    default_settings,
    hwp_unitary,
    measurement_observable,
    prepare_state,
    qwp_unitary,
    run_experiment,
    source_density,
    stokes_from_density,
    theoretical_observables,
    true_expectation_matrix,
)

RHO_H = np.diag([1.0, 0.0]).astype(complex)


def conjugate_stokes(u, rho):
    """Oracle: Stokes vector of u rho u^dag via explicit traces."""
    out = u @ rho @ u.conj().T
    from spamtomo import PAULI

    return np.real(np.einsum("ij,mji->m", out, PAULI))


class TestPlateUnitaries:
    def test_hwp_at_zero(self):
        np.testing.assert_allclose(hwp_unitary(0.0), np.diag([1, -1]), atol=1e-12)

    def test_hwp_swaps_h_and_v(self):
        np.testing.assert_allclose(hwp_unitary(np.pi / 4), [[0, 1], [1, 0]], atol=1e-12)

    def test_hwp_at_pi_over_8(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(hwp_unitary(np.pi / 8), expected, atol=1e-12)

    def test_qwp_at_zero(self):
        np.testing.assert_allclose(qwp_unitary(0.0), np.diag([1, 1j]), atol=1e-12)

    def test_qwp_axes_swapped(self):
        np.testing.assert_allclose(qwp_unitary(np.pi / 2), np.diag([1j, 1]), atol=1e-12)

    def test_qwp_makes_circular_light(self):
        # conjugation oracle: H through a quarter-wave plate at pi/4 is
        # circular; the sign is pinned by the convention that preparation 2
        # against setting 2 gives expectation -1 (see below).
        s = conjugate_stokes(qwp_unitary(np.pi / 4), RHO_H)
        np.testing.assert_allclose(s, [0, -1, 0], atol=1e-12)

    def test_unitarity_random_angles(self, rng):
        for theta in rng.uniform(-np.pi, np.pi, 100):
            for u in (hwp_unitary(theta), qwp_unitary(theta)):
                np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_pi_periodic_action(self, rng):
        from spamtomo import PAULI

        for theta in rng.uniform(-np.pi, np.pi, 20):
            for make in (hwp_unitary, qwp_unitary):
                u1, u2 = make(theta), make(theta + np.pi)
                for sigma in PAULI:
                    rho = (sigma @ sigma + sigma) / 2  # projector onto +1 eigenspace
                    np.testing.assert_allclose(
                        u1 @ rho @ u1.conj().T, u2 @ rho @ u2.conj().T, atol=1e-12
                    )


class TestPrepareState:
    def test_pure_h_untouched_at_zero(self):
        rho = prepare_state(SourceKind.PURE_H, WavePlateSetting(0.0, 0.0))
        np.testing.assert_allclose(rho, RHO_H, atol=1e-12)

    def test_mixed_untouched_at_zero(self):
        rho = prepare_state(SourceKind.MIXED, WavePlateSetting(0.0, 0.0))
        np.testing.assert_allclose(rho, np.diag([0.75, 0.25]), atol=1e-12)

    def test_circular_preparation(self):
        rho = prepare_state(SourceKind.PURE_H, WavePlateSetting(np.pi / 4, 0.0))
        s = stokes_from_density(rho)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
        assert s[2] == pytest.approx(0.0, abs=1e-12)

    def test_purity_preserved(self, rng):
        for q, h in rng.uniform(0, np.pi, (100, 2)):
            for kind in SourceKind:
                rho0 = source_density(kind)
                rho = prepare_state(kind, WavePlateSetting(q, h))
                assert np.trace(rho @ rho).real == pytest.approx(
                    np.trace(rho0 @ rho0).real, abs=1e-12
                )


class TestMeasurementObservable:
    def test_bare_splitter(self):
        np.testing.assert_allclose(
            measurement_observable(WavePlateSetting(0.0, 0.0)), [0, 0, 1], atol=1e-12
        )

    def test_diagonal_basis(self):
        # quarter plate at pi/4 with half plate at pi/8 analyses the
        # diagonal basis (cross-checked by conjugating sigma_3 directly)
        w = measurement_observable(WavePlateSetting(np.pi / 4, np.pi / 8))
        np.testing.assert_allclose(w, [1, 0, 0], atol=1e-12)

    def test_circular_basis_sign(self):
        w = measurement_observable(WavePlateSetting(np.pi / 4, 0.0))
        np.testing.assert_allclose(w, [0, 1, 0], atol=1e-12)
        # sign convention check: preparation 2 x setting 2 gives -1
        s2 = stokes_from_density(prepare_state(SourceKind.PURE_H, WavePlateSetting(np.pi / 4, 0.0)))
        assert s2 @ w == pytest.approx(-1.0, abs=1e-12)

    def test_projective_norm(self, rng):
        for q, h in rng.uniform(0, np.pi, (100, 2)):
            w = measurement_observable(WavePlateSetting(q, h))
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


class TestTrueExpectation:
    """Single expectation values, read off ``true_expectation_matrix``."""

    def test_aligned_first_setting(self):
        assert true_expectation_matrix(ExperimentPlan())[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_injection_flips_sign(self):
        plan = ExperimentPlan(errors=(ErrorInjection(1, 1, np.pi / 4),))
        assert true_expectation_matrix(plan)[0, 0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("offset", [np.pi / 20, np.pi / 40, 0.1234])
    def test_injection_follows_cosine_law(self, offset):
        # at setting 1 a detector half-wave-plate offset d takes the
        # expectation from 1 to cos(4 d)
        plan = ExperimentPlan(errors=(ErrorInjection(1, 1, offset),))
        assert true_expectation_matrix(plan)[0, 0] == pytest.approx(np.cos(4 * offset), abs=1e-12)

    def test_medium_and_small_offsets(self):
        plan20 = ExperimentPlan(errors=(ErrorInjection(1, 1, np.pi / 20),))
        plan40 = ExperimentPlan(errors=(ErrorInjection(1, 1, np.pi / 40),))
        assert true_expectation_matrix(plan20)[0, 0] == pytest.approx(0.8090169943749475, abs=1e-12)
        assert true_expectation_matrix(plan40)[0, 0] == pytest.approx(0.9510565162951535, abs=1e-12)

    def test_injection_only_hits_matching_pair(self):
        injected = true_expectation_matrix(ExperimentPlan(errors=(ErrorInjection(1, 1, np.pi / 4),)))
        clean = true_expectation_matrix(ExperimentPlan())
        untouched = np.ones((6, 6), dtype=bool)
        untouched[0, 0] = False
        np.testing.assert_allclose(injected[untouched], clean[untouched], atol=1e-12)


class TestSampleExpectation:
    """Counting-noise sampling of expectation values, seen through
    ``run_experiment`` with the angle jitter off."""

    def test_certain_outcomes_exact(self):
        plan = ExperimentPlan(
            noise=NoiseModel(shots_per_setting=17, angle_jitter_sigma=0.0, seed=1), repetitions=5
        )
        truth = true_expectation_matrix(plan)
        certain = np.abs(truth) == 1.0
        assert truth[0, 0] == 1.0 and truth[1, 1] == -1.0
        for matrix in run_experiment(plan):
            np.testing.assert_array_equal(matrix[certain], truth[certain])

    def test_binomial_statistics(self):
        plan = ExperimentPlan(
            noise=NoiseModel(shots_per_setting=10_000, angle_jitter_sigma=0.0, seed=5), repetitions=250
        )
        zero = np.abs(true_expectation_matrix(plan)) < 1e-12
        draws = np.array(run_experiment(plan))[:, zero].ravel()
        assert draws.size >= 1000
        assert abs(draws.mean()) < 3.0 / np.sqrt(10_000)
        assert draws.std() == pytest.approx(0.01, rel=0.10)

    def test_analytic_mode_passthrough(self):
        plan = ExperimentPlan(
            errors=(ErrorInjection(1, 1, 0.4321),),
            noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=0),
            repetitions=2,
        )
        truth = true_expectation_matrix(plan)
        for matrix in run_experiment(plan):
            np.testing.assert_array_equal(matrix, truth)


class TestRunExperiment:
    def test_noiseless_matrix_matches_factorization(self):
        plan = ExperimentPlan(
            noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=3),
            repetitions=2,
        )
        samples = run_experiment(plan)
        rows = np.array(
            [stokes_from_density(prepare_state(plan.source, s)) for s in plan.prep_settings]
        )
        cols = theoretical_observables(plan)
        for matrix in samples:
            np.testing.assert_allclose(matrix, rows @ cols, atol=1e-12)
        assert samples[0][0, 0] == pytest.approx(1.0, abs=1e-12)
        assert samples[0][1, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_seed_determinism(self):
        plan = ExperimentPlan(noise=NoiseModel(seed=11), repetitions=10)
        first = run_experiment(plan)
        second = run_experiment(plan)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_repetition_streams_independent_of_count(self):
        short = run_experiment(ExperimentPlan(noise=NoiseModel(seed=11), repetitions=3))
        long = run_experiment(ExperimentPlan(noise=NoiseModel(seed=11), repetitions=5))
        for a, b in zip(short, long):
            assert np.array_equal(a, b)

    def test_counting_noise_spread(self):
        plan = ExperimentPlan(
            noise=NoiseModel(shots_per_setting=10_000, angle_jitter_sigma=0.0, seed=2),
            repetitions=10,
        )
        stack = np.array(run_experiment(plan))
        # binomial bound: per-element std is at most 1/sqrt(shots)
        assert stack.std(axis=0, ddof=1).max() <= 0.02

    def test_compact_scheme_shape(self):
        plan = ExperimentPlan(
            scheme=Scheme.N_PLUS_ONE,
            prep_settings=default_settings(Scheme.N_PLUS_ONE),
            meas_settings=default_settings(Scheme.N_PLUS_ONE),
            repetitions=2,
        )
        assert all(m.shape == (4, 4) for m in run_experiment(plan))

    def test_injected_matrix_element(self):
        plan = ExperimentPlan(
            errors=(ErrorInjection(1, 1, np.pi / 4),),
            noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=0),
            repetitions=2,
        )
        matrix = run_experiment(plan)[0]
        assert matrix[0, 0] == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(matrix, true_expectation_matrix(plan), atol=1e-12)


class TestValidation:
    def test_scheme_length_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(
                scheme=Scheme.TWO_N, prep_settings=default_settings(Scheme.N_PLUS_ONE)
            )

    def test_rejects_zero_shots(self):
        with pytest.raises(ConfigError):
            NoiseModel(shots_per_setting=0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ConfigError):
            NoiseModel(angle_jitter_sigma=-0.1)

    def test_rejects_out_of_range_injection(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(
                scheme=Scheme.N_PLUS_ONE,
                prep_settings=default_settings(Scheme.N_PLUS_ONE),
                meas_settings=default_settings(Scheme.N_PLUS_ONE),
                errors=(ErrorInjection(5, 1, 0.1),),
            )

    def test_rejects_non_finite_angle(self):
        with pytest.raises(NonPhysicalError):
            WavePlateSetting(np.nan, 0.0)

    def test_angles_stored_modulo_pi(self):
        setting = WavePlateSetting(np.pi + 0.25, -0.25)
        assert setting.qwp_angle == pytest.approx(0.25, abs=1e-12)
        assert setting.hwp_angle == pytest.approx(np.pi - 0.25, abs=1e-12)
