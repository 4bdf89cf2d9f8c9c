import dataclasses
import tracemalloc

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
    run_experiment,
    theoretical_observables,
    theoretical_states,
    true_expectation_matrix,
)
from spamtomo import optics
from spamtomo.optics import _expectation_matrix, _half_wave, _plate_angles, _quarter_wave
from spamtomo.qubit import PAULI

RHO_H = np.diag([1.0, 0.0]).astype(complex)
H_STOKES = np.array([0.0, 0.0, 1.0])
# The source's density matrix: pure horizontal, or a 3:1 H/V mixture.
SOURCE_RHO = {SourceKind.PURE_H: RHO_H, SourceKind.MIXED: np.diag([0.75, 0.25]).astype(complex)}


def state_at(source, setting):
    """Stokes vector the simulator prepares at one plate setting."""
    return theoretical_states(ExperimentPlan(source=source, prep_settings=(setting,) * 6))[0]


def observable_at(setting):
    """Observable vector the simulator analyses at one plate setting."""
    return theoretical_observables(ExperimentPlan(meas_settings=(setting,) * 6))[:, 0]


# Jones-matrix oracle: the plates as 2x2 unitaries on the (H, V)
# amplitudes, against which the Stokes rotations are checked.


def hwp_jones(theta):
    """Half-wave plate at ``theta``: ``[[cos 2t, sin 2t], [sin 2t, -cos 2t]]``."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_jones(theta):
    """Quarter-wave plate at ``theta``; ``diag(1, i)`` at ``theta = 0``."""
    c, s = np.cos(theta), np.sin(theta)
    off = (1.0 - 1j) * c * s
    return np.array([[c * c + 1j * s * s, off], [off, s * s + 1j * c * c]])


def conjugate_stokes(u, rho):
    """Oracle: Stokes vector of u rho u^dag via explicit traces."""
    out = u @ rho @ u.conj().T
    return np.real(np.einsum("ij,mji->m", out, PAULI))


def jones_state(source, setting):
    """Oracle preparation: the Stokes vector of the source conjugated by
    ``qwp @ hwp``."""
    return conjugate_stokes(qwp_jones(setting.qwp_angle) @ hwp_jones(setting.hwp_angle), SOURCE_RHO[source])


def jones_observable(setting):
    """Oracle analyser: the vector of ``U^dag sigma_3 U``, ``U = hwp @ qwp``."""
    u = hwp_jones(setting.hwp_angle) @ qwp_jones(setting.qwp_angle)
    return np.real(np.einsum("ij,mji->m", u.conj().T @ PAULI[2] @ u, PAULI)) / 2.0


def plate_matrices(theta):
    """The 3x3 matrices of the half-wave plate and of the quarter-wave
    plate acting on a state, built column by column from the basis."""
    basis = np.eye(3)
    return np.array(_half_wave(theta, basis)), np.array(_quarter_wave(theta, basis, 1.0))


class TestPlateUnitaries:
    """The plates' actions on Stokes vectors: the rotations that the
    Jones unitaries induce by conjugation."""

    def test_hwp_at_zero(self):
        # diag(1, -1) reflects the diagonal and circular components
        np.testing.assert_allclose(plate_matrices(0.0)[0], np.diag([-1, -1, 1]), atol=1e-12)

    def test_hwp_swaps_h_and_v(self):
        half = plate_matrices(np.pi / 4)[0]
        np.testing.assert_allclose(half @ H_STOKES, [0, 0, -1], atol=1e-12)
        np.testing.assert_allclose(half, np.diag([1, -1, -1]), atol=1e-12)

    def test_hwp_at_pi_over_8(self):
        # the Hadamard-like plate exchanges H/V and diagonal
        expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
        np.testing.assert_allclose(plate_matrices(np.pi / 8)[0], expected, atol=1e-12)

    def test_qwp_at_zero(self):
        # diag(1, i) turns diagonal light circular: x -> y -> -x about z
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        np.testing.assert_allclose(plate_matrices(0.0)[1], expected, atol=1e-12)

    def test_qwp_axes_swapped(self):
        # diag(i, 1) equals diag(1, -i) up to phase: the opposite turn
        expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
        np.testing.assert_allclose(plate_matrices(np.pi / 2)[1], expected, atol=1e-12)

    def test_qwp_makes_circular_light(self):
        # H through a quarter-wave plate at pi/4 is circular; the sign is
        # pinned by the convention that preparation 2 against setting 2
        # gives expectation -1 (see test_circular_basis_sign)
        s = np.array(_quarter_wave(np.pi / 4, H_STOKES, 1.0))
        np.testing.assert_allclose(s, [0, -1, 0], atol=1e-12)
        np.testing.assert_allclose(s, conjugate_stokes(qwp_jones(np.pi / 4), RHO_H), atol=1e-12)

    def test_unitarity_random_angles(self, rng):
        # a unitary's conjugation is a proper rotation, and each plate's
        # matrix is the one its Jones unitary induces
        for theta in rng.uniform(-np.pi, np.pi, 100):
            for r, jones in zip(plate_matrices(theta), (hwp_jones(theta), qwp_jones(theta))):
                np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
                assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
                for k, sigma in enumerate(PAULI):
                    rho = (np.eye(2) + sigma) / 2  # projector onto +1 eigenspace
                    np.testing.assert_allclose(r[:, k], conjugate_stokes(jones, rho), atol=1e-12)
            observable = np.array(_quarter_wave(theta, np.eye(3), -1.0))
            np.testing.assert_allclose(observable, plate_matrices(theta)[1].T, atol=1e-12)

    def test_pi_periodic_action(self, rng):
        for theta in rng.uniform(-np.pi, np.pi, 20):
            for r1, r2 in zip(plate_matrices(theta), plate_matrices(theta + np.pi)):
                np.testing.assert_allclose(r1, r2, atol=1e-12)


class TestPrepareState:
    def test_pure_h_untouched_at_zero(self):
        np.testing.assert_allclose(state_at(SourceKind.PURE_H, WavePlateSetting(0.0, 0.0)), H_STOKES, atol=1e-12)

    def test_mixed_untouched_at_zero(self):
        np.testing.assert_allclose(state_at(SourceKind.MIXED, WavePlateSetting(0.0, 0.0)), [0, 0, 0.5], atol=1e-12)

    def test_circular_preparation(self):
        s = state_at(SourceKind.PURE_H, WavePlateSetting(np.pi / 4, 0.0))
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
        assert s[2] == pytest.approx(0.0, abs=1e-12)

    def test_purity_preserved(self, rng):
        # the plates rotate the source's Stokes vector, so its length (the
        # purity (1 + |s|^2) / 2) is kept
        for q, h in rng.uniform(0, np.pi, (100, 2)):
            for kind, radius in ((SourceKind.PURE_H, 1.0), (SourceKind.MIXED, 0.5)):
                s = state_at(kind, WavePlateSetting(q, h))
                assert np.linalg.norm(s) == pytest.approx(radius, abs=1e-12)


class TestMeasurementObservable:
    def test_bare_splitter(self):
        np.testing.assert_allclose(observable_at(WavePlateSetting(0.0, 0.0)), [0, 0, 1], atol=1e-12)

    def test_diagonal_basis(self):
        # quarter plate at pi/4 with half plate at pi/8 analyses the
        # diagonal basis (cross-checked by conjugating sigma_3 directly)
        w = observable_at(WavePlateSetting(np.pi / 4, np.pi / 8))
        np.testing.assert_allclose(w, [1, 0, 0], atol=1e-12)

    def test_circular_basis_sign(self):
        w = observable_at(WavePlateSetting(np.pi / 4, 0.0))
        np.testing.assert_allclose(w, [0, 1, 0], atol=1e-12)
        # sign convention check: preparation 2 x setting 2 gives -1
        s2 = state_at(SourceKind.PURE_H, WavePlateSetting(np.pi / 4, 0.0))
        assert s2 @ w == pytest.approx(-1.0, abs=1e-12)

    def test_projective_norm(self, rng):
        for q, h in rng.uniform(0, np.pi, (100, 2)):
            w = observable_at(WavePlateSetting(q, h))
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

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_injections_at_one_element_add(self, scheme):
        # two offsets at (2, 3), with another error between them, act as
        # one error of their sum, bit for bit, and leave every other entry
        first, second = 0.1, np.pi / 20
        other = ErrorInjection(1, 1, np.pi / 4)
        errors = {
            "two": (ErrorInjection(2, 3, first), other, ErrorInjection(2, 3, second)),
            "summed": (ErrorInjection(2, 3, first + second), other),
            "other": (other,),
        }
        for noise in (NoiseModel(seed=5), NoiseModel(shots_per_setting=None, seed=5)):
            plans = {k: ExperimentPlan(scheme=scheme, errors=e, noise=noise) for k, e in errors.items()}
            for simulate in (true_expectation_matrix, run_experiment):
                two, summed, without = (simulate(plans[k]) for k in ("two", "summed", "other"))
                np.testing.assert_array_equal(two, summed)
                assert not np.array_equal(two[..., 1, 2], without[..., 1, 2])
                if noise.shots_per_setting is None:
                    untouched = np.ones(two.shape[-2:], dtype=bool)
                    untouched[1, 2] = False
                    np.testing.assert_array_equal(two[..., untouched], without[..., untouched])


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


def reference_repetition(plan, rep):
    """Repetition ``rep`` of ``run_experiment`` rebuilt one draw at a time
    from the run's two streams, ``SeedSequence(seed).spawn(2)``.  Each
    repetition up to ``rep`` takes its next jitter draws from the first
    stream (each preparation plate pair, quarter before half, then each
    measurement pair), and its binomial counts, one per element in
    row-major order, from the second, after all earlier repetitions'.
    A count ``k`` of ``N`` shots gives the sample ``(2k - N)/N``."""
    jitter, counts = (np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(plan.noise.seed).spawn(2))
    sigma = plan.noise.angle_jitter_sigma
    shots = plan.noise.shots_per_setting
    for _ in range(rep + 1):
        angles = [*_plate_angles(plan.prep_settings), *_plate_angles(plan.meas_settings)]
        for quarter, half in (angles[:2], angles[2:]):
            for k in range(len(quarter)):
                quarter[k] += jitter.standard_normal() * sigma
                half[k] += jitter.standard_normal() * sigma
        values = _expectation_matrix(plan, np.concatenate(angles[0::2]), np.concatenate(angles[1::2]))
        if shots is not None:
            p = np.clip((1.0 + values) / 2.0, 0.0, 1.0)
            counted = np.array([[counts.binomial(shots, p_ai) for p_ai in row] for row in p], dtype=float)
            values = (2.0 * counted - shots) / shots
    return values


class TestRunExperiment:
    def test_noiseless_matrix_matches_factorization(self):
        plan = ExperimentPlan(
            noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=3),
            repetitions=2,
        )
        samples = run_experiment(plan)
        rows = theoretical_states(plan)
        cols = theoretical_observables(plan)
        for matrix in samples:
            np.testing.assert_allclose(matrix, rows @ cols, atol=1e-12)
        assert samples[0][0, 0] == pytest.approx(1.0, abs=1e-12)
        assert samples[0][1, 1] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("source", list(SourceKind))
    @pytest.mark.parametrize(
        "errors,shots,jitter",
        [
            ((), 10_000, 0.0113),
            ((ErrorInjection(2, 3, np.pi / 20), ErrorInjection(1, 1, np.pi / 4)), 500, 0.02),
            ((), 10_000, 0.0),
            ((ErrorInjection(1, 1, np.pi / 4),), None, 0.0113),
        ],
        ids=["jitter", "injected", "zero-jitter", "analytic"],
    )
    def test_stream_order_pinned(self, scheme, source, errors, shots, jitter):
        plan = ExperimentPlan(
            source=source,
            scheme=scheme,
            prep_settings=default_settings(scheme),
            meas_settings=default_settings(scheme),
            errors=errors,
            noise=NoiseModel(shots_per_setting=shots, angle_jitter_sigma=jitter, seed=29),
            repetitions=4,
        )
        expected = np.array([reference_repetition(plan, rep) for rep in range(plan.repetitions)])
        assert np.array_equal(run_experiment(plan), expected)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("errors", [(), (ErrorInjection(2, 3, np.pi / 20), ErrorInjection(1, 1, np.pi / 4))],
                             ids=["plain", "injected"])
    @pytest.mark.parametrize("custom", [False, True], ids=["default-angles", "custom-angles"])
    def test_zero_jitter_repeats_the_nominal_matrix(self, monkeypatch, scheme, errors, custom):
        # at zero jitter no draw perturbs a plate: every analytic repetition,
        # across a block boundary, is the nominal matrix bit for bit, and
        # counted samples follow the one-draw-at-a-time oracle
        n = scheme.n_settings
        settings = tuple(WavePlateSetting(0.3 * k + 0.1, 0.7 * k + 0.2) for k in range(n)) if custom else None
        plan = ExperimentPlan(
            scheme=scheme,
            prep_settings=settings,
            meas_settings=settings[::-1] if custom else None,
            errors=errors,
            noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=5),
            repetitions=optics.BLOCK_REPETITIONS + 1,
        )
        nominal = np.tile(true_expectation_matrix(plan), (plan.repetitions, 1, 1))
        assert run_experiment(plan).tobytes() == nominal.tobytes()
        counted = dataclasses.replace(plan, noise=NoiseModel(shots_per_setting=500, angle_jitter_sigma=0.0, seed=5),
                                      repetitions=3)
        monkeypatch.setattr(optics, "BLOCK_REPETITIONS", 2)
        expected = np.array([reference_repetition(counted, rep) for rep in range(counted.repetitions)])
        assert run_experiment(counted).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize(
        "errors,shots", [((), 10_000), ((ErrorInjection(2, 3, np.pi / 20),), 500), ((), None)],
        ids=["jitter", "injected", "analytic"],
    )
    def test_blocks_leave_samples_unchanged(self, monkeypatch, block, errors, shots):
        plan = ExperimentPlan(errors=errors, noise=NoiseModel(shots_per_setting=shots, seed=31), repetitions=7)
        whole = run_experiment(plan)
        monkeypatch.setattr(optics, "BLOCK_REPETITIONS", block)
        assert np.array_equal(run_experiment(plan), whole)

    def test_generators_do_not_accumulate(self):
        # beyond the output array, a long record's peak memory is one
        # block's worth (jitter, intermediates), whatever R is; holding a
        # generator per repetition (about 1.3 KB each) grew it by about
        # 1.8 MB per 1000 repetitions
        def overhead(repetitions):
            plan = ExperimentPlan(noise=NoiseModel(seed=3), repetitions=repetitions)
            tracemalloc.start()
            try:
                samples = run_experiment(plan)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - samples.nbytes

        overhead(1000)  # first-use allocations stay out of the comparison
        short = overhead(1000)
        assert overhead(2000) - short < 100_000

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

    def test_default_settings_follow_the_scheme(self):
        plan = ExperimentPlan(scheme=Scheme.N_PLUS_ONE)
        assert plan.prep_settings == plan.meas_settings == default_settings("n+1")
        assert len(plan.prep_settings) == 4
        assert ExperimentPlan().prep_settings is default_settings(Scheme.TWO_N)

    def test_rejects_zero_shots(self):
        with pytest.raises(ConfigError):
            NoiseModel(shots_per_setting=0)

    @pytest.mark.parametrize("shots", [2.5, True, "100"])
    def test_rejects_non_integer_shots(self, shots):
        with pytest.raises(ConfigError) as excinfo:
            NoiseModel(shots_per_setting=shots)
        assert excinfo.value.field == "shots"

    @pytest.mark.parametrize("name,value,field", [("scheme", "3n", "scheme"), ("source", "circ", "state")])
    def test_rejects_unknown_scheme_or_state(self, name, value, field):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentPlan(**{name: value})
        assert excinfo.value.field == field
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize("prep,setting,offset", [(1.5, 1, 0.1), ("1", 1, 0.1), (1, True, 0.1), (0, 1, 0.1), (1, 1, "0.1")])
    def test_rejects_malformed_injection(self, prep, setting, offset):
        with pytest.raises(ConfigError) as excinfo:
            ErrorInjection(prep, setting, offset)
        assert excinfo.value.field == "error_injections"
        assert "error_injections" in str(excinfo.value)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ConfigError):
            NoiseModel(angle_jitter_sigma=-0.1)

    @pytest.mark.parametrize("repetitions", [2.5, True, "3"])
    def test_rejects_non_integer_repetitions(self, repetitions):
        with pytest.raises(ConfigError) as excinfo:
            ExperimentPlan(repetitions=repetitions)
        assert excinfo.value.field == "repetitions"

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
