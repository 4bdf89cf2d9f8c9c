import numpy as np
import pytest

from spamtomo import (
    DeltaStats,
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    Scheme,
    ShapeError,
    SingularMatrixError,
    default_settings,
    delta_statistics,
    detect,
    embed_n_plus_1,
    localize,
    partial_determinant,
    run_experiment,
    true_expectation_matrix,
    validate_expectation_matrix,
)
from spamtomo.detect import corner_blocks
from conftest import sample_invertible, sample_stokes_ball, tiny_corner_stack


def consistent_matrix(rng, rows=6, cols=6):
    """A factorizable expectation matrix from random states/observables."""
    p = sample_stokes_ball(rng, rows)
    w = sample_stokes_ball(rng, cols).T
    return p @ w


def paper_angle_matrix(scheme=Scheme.TWO_N):
    plan = ExperimentPlan(
        scheme=scheme,
        prep_settings=default_settings(scheme),
        meas_settings=default_settings(scheme),
        noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=0),
    )
    return true_expectation_matrix(plan)


class TestValidation:
    def test_accepts_both_shapes(self, rng):
        validate_expectation_matrix(np.zeros((6, 6)))
        validate_expectation_matrix(np.zeros((4, 4)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            validate_expectation_matrix(np.zeros((5, 5)))

    def test_rejects_out_of_range_entry(self):
        bad = np.zeros((6, 6))
        bad[2, 4] = 1.5
        with pytest.raises(ShapeError, match=r"\(3, 5\)"):
            validate_expectation_matrix(bad)

    def test_accepts_stacks(self):
        for shape in ((3, 6, 6), (2, 4, 4), (0, 6, 6), (2, 3, 4, 4)):
            assert validate_expectation_matrix(np.zeros(shape)).shape == shape

    def test_rejects_wrong_stack_shape(self):
        for shape in ((3, 5, 5), (3, 6, 4), (6,)):
            with pytest.raises(ShapeError):
                validate_expectation_matrix(np.zeros(shape))

    def test_stack_error_names_sample(self):
        bad = np.zeros((4, 4, 4))
        bad[2, 1, 3] = np.nan
        bad[3, 0, 0] = 2.0
        with pytest.raises(ShapeError, match=r"^sample 3: entry \(2, 4\) = nan outside"):
            validate_expectation_matrix(bad)


class TestEmbedding:
    def test_all_ones(self):
        np.testing.assert_array_equal(embed_n_plus_1(np.ones((4, 4))), np.ones((6, 6)))

    def test_distinct_entries_map(self):
        compact = np.arange(16, dtype=float).reshape(4, 4) / 16.0
        full = embed_n_plus_1(compact)
        np.testing.assert_array_equal(full[:4, :4], compact)
        np.testing.assert_array_equal(full[4], full[1])
        np.testing.assert_array_equal(full[5], full[2])
        np.testing.assert_array_equal(full[:, 4], full[:, 1])
        assert full[4, 5] == compact[1, 2]
        assert full[5, 4] == compact[2, 1]

    def test_embedded_consistent_matrix_is_consistent(self, rng):
        # duplicated rows/columns reuse the same state/observable vectors,
        # so the embedded matrix factorizes whenever the compact one does
        for _ in range(20):
            compact = consistent_matrix(rng, 4, 4)
            delta = partial_determinant(embed_n_plus_1(compact))
            assert np.abs(delta - np.eye(3)).max() < 1e-9

    def test_extraction_round_trip(self, rng):
        # the compact block of every embedded matrix is its input
        stack = np.array([consistent_matrix(rng, 4, 4) for _ in range(5)])
        full = embed_n_plus_1(stack)
        assert full.shape == (5, 6, 6)
        np.testing.assert_array_equal(full[:, :4, :4], stack)
        for k in range(5):
            np.testing.assert_array_equal(full[k], embed_n_plus_1(stack[k]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            embed_n_plus_1(np.ones((6, 6)))
        with pytest.raises(ShapeError):
            embed_n_plus_1(np.ones((3, 4, 5)))


class TestPartialDeterminant:
    def test_identity_corners(self):
        s = np.block([[np.eye(3), np.eye(3)], [np.eye(3), np.eye(3)]])
        np.testing.assert_allclose(partial_determinant(s), np.eye(3), atol=1e-12)

    def test_factorized_matrices_consistent(self, rng):
        for _ in range(500):
            delta = partial_determinant(consistent_matrix(rng))
            assert np.abs(delta - np.eye(3)).max() < 1e-9

    def test_perturbation_breaks_consistency(self):
        s = paper_angle_matrix()
        s[0, 0] += 0.1
        deviation = partial_determinant(s) - np.eye(3)
        assert np.abs(deviation).max() > 1e-4
        # the deviation concentrates in column 1 for an upper-left error
        col_mags = np.abs(deviation).max(axis=0)
        assert col_mags[0] == np.abs(deviation).max()

    @pytest.mark.parametrize("bad", [1e160, -1e160, 1e300])
    @pytest.mark.parametrize("entry, corner", [((0, 0), "upper-left corner"), ((3, 3), "lower-right corner")])
    def test_entry_too_large_to_square_makes_its_corner_singular(self, entry, corner, bad):
        # the guard's scale sums the squared entries; past the float range
        # it is inf, and the corner is singular rather than an overflow
        mean = run_experiment(ExperimentPlan(noise=NoiseModel(seed=3))).mean(axis=0)
        mean[entry] = bad
        with pytest.raises(SingularMatrixError, match=rf"^near-singular {corner}: .* at scale inf$") as info:
            partial_determinant(mean)
        assert info.value.where == corner

    def test_corner_blocks_layout(self, rng):
        # S = [[A, B], [C, D]] with distinct blocks gives A^-1 B D^-1 C,
        # for one matrix and for each matrix of a stack
        blocks = [sample_invertible(rng) for _ in range(8)]
        stack = np.array([np.block([[a, b], [c, d]]) for a, b, c, d in (blocks[:4], blocks[4:])])
        delta = partial_determinant(stack)
        for k, (a, b, c, d) in enumerate((blocks[:4], blocks[4:])):
            expected = np.linalg.inv(a) @ b @ np.linalg.inv(d) @ c
            np.testing.assert_allclose(delta[k], expected, atol=1e-9)
            np.testing.assert_allclose(partial_determinant(stack[k]), expected, atol=1e-9)

    def test_compact_corner_triples(self):
        # four settings: the corners are the quadrants of the embedded
        # matrix, so the second triple is preparations/settings 4, 2, 3
        compact = np.arange(32, dtype=float).reshape(2, 4, 4) / 32.0
        full = embed_n_plus_1(compact)
        quadrants = (full[..., :3, :3], full[..., :3, 3:], full[..., 3:, :3], full[..., 3:, 3:])
        for block, quadrant in zip(corner_blocks(compact), quadrants):
            np.testing.assert_array_equal(block, quadrant)
        np.testing.assert_array_equal(corner_blocks(compact[0])[3], compact[0][np.ix_([3, 1, 2], [3, 1, 2])])

    def test_stack_equals_per_matrix(self, rng):
        stack = np.array([consistent_matrix(rng) + 0.01 * rng.standard_normal((6, 6)) for _ in range(50)])
        delta = partial_determinant(stack)
        assert delta.shape == (50, 3, 3)
        for k in range(50):
            np.testing.assert_array_equal(delta[k], partial_determinant(stack[k]))
        np.testing.assert_array_equal(partial_determinant(stack.reshape(5, 10, 6, 6)), delta.reshape(5, 10, 3, 3))

    def test_rejects_wrong_shape(self):
        # a compact 4x4 matrix is read through its corner triples; every
        # other shape is refused
        partial_determinant(paper_angle_matrix(Scheme.N_PLUS_ONE))
        with pytest.raises(ShapeError):
            partial_determinant(np.ones((5, 5)))
        with pytest.raises(ShapeError):
            partial_determinant(np.ones((3, 6, 4)))

    def test_non_finite_corner_is_singular(self):
        s = paper_angle_matrix()
        s[4, 4] = np.nan
        with pytest.raises(SingularMatrixError, match="lower-right"):
            partial_determinant(s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_result_that_is_not_finite_names_the_entry(self, bad):
        # the guard inverts A and D; a NaN or inf in B or C would come
        # back as Delta
        s = paper_angle_matrix()
        s[0, 4] = bad
        with pytest.raises(ShapeError, match=rf"^entry \(1, 5\) = {bad} outside"):
            partial_determinant(s)
        stack = np.array([paper_angle_matrix()] * 3)
        stack[2, 4, 0] = bad
        with pytest.raises(ShapeError, match=rf"^sample 3: entry \(5, 1\) = {bad} outside"):
            partial_determinant(stack)

    def test_singular_corner_named(self):
        s = paper_angle_matrix()
        s[:3, :3] = 0.0
        with pytest.raises(SingularMatrixError, match="upper-left"):
            partial_determinant(s)
        s = paper_angle_matrix()
        s[3:, 3:] = 0.0
        with pytest.raises(SingularMatrixError, match="lower-right"):
            partial_determinant(s)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_singular_corner_named_beyond_the_first_block(self, scheme):
        # the adjugate gathers its matrices in blocks; the first failing
        # sample is still named across them
        stack = np.array([paper_angle_matrix(scheme)] * 2000)
        upper = scheme.embed_index[:3]
        zeroed = stack.copy()
        zeroed[1499][np.ix_(upper, upper)] = 0.0
        with pytest.raises(SingularMatrixError, match=r"^sample 1500: near-singular upper-left corner: \|det\| = ") as info:
            partial_determinant(zeroed)
        assert info.value.where == "upper-left corner"
        poisoned = stack.copy()
        poisoned[1998, 3, 3] = np.nan  # in the lower-right corner only, in both schemes
        with pytest.raises(SingularMatrixError, match=r"^sample 1999: near-singular lower-right corner: ") as info:
            delta_statistics(poisoned)
        assert info.value.where == "lower-right corner"

    def test_sensitivity_everywhere(self):
        # a 0.05 shift of any single element shows up above 1e-4
        base = paper_angle_matrix()
        for a in range(6):
            for i in range(6):
                s = base.copy()
                s[a, i] += 0.05
                deviation = partial_determinant(s) - np.eye(3)
                assert np.abs(deviation).max() > 1e-4, (a, i)


class TestDeltaStatistics:
    def test_identical_consistent_samples(self, rng):
        matrix = consistent_matrix(rng)
        stats = delta_statistics([matrix] * 5)
        np.testing.assert_allclose(stats.mean, 0.0, atol=1e-9)
        np.testing.assert_allclose(stats.std, 0.0, atol=1e-12)
        np.testing.assert_allclose(stats.significance, 0.0, atol=1e-9)
        assert stats.repetitions == 5

    def test_identical_inconsistent_samples_hit_sentinel(self):
        s = paper_angle_matrix()
        s[0, 0] += 0.3
        stats = delta_statistics([s] * 4)
        deviation = partial_determinant(s) - np.eye(3)
        np.testing.assert_allclose(stats.mean, deviation, atol=1e-12)
        np.testing.assert_allclose(stats.std, 0.0, atol=1e-12)
        support = np.abs(deviation) > 1e-12
        assert np.all(np.isinf(stats.significance[support]))
        assert np.all(stats.significance[~support] == 0.0)

    def test_needs_two_samples(self, rng):
        with pytest.raises(ShapeError):
            delta_statistics([consistent_matrix(rng)])

    def test_singular_sample_reported_with_index(self, rng):
        good = consistent_matrix(rng)
        bad = good.copy()
        bad[:3, :3] = 0.0
        with pytest.raises(SingularMatrixError, match="sample 2"):
            delta_statistics([good, bad, good])

    def test_lowest_failing_sample_and_corner_named(self, rng):
        good = consistent_matrix(rng)
        upper, lower, both = good.copy(), good.copy(), good.copy()
        upper[:3, :3] = 0.0
        lower[3:, 3:] = 0.0
        both[:3, :3] = both[3:, 3:] = 0.0
        cases = [
            ([good, lower, upper], "sample 2: near-singular lower-right corner", "lower-right corner"),
            ([good, good, upper, lower], "sample 3: near-singular upper-left corner", "upper-left corner"),
            ([good, both, lower], "sample 2: near-singular upper-left corner", "upper-left corner"),
        ]
        for samples, message, where in cases:
            with pytest.raises(SingularMatrixError) as excinfo:
                delta_statistics(samples)
            assert str(excinfo.value).startswith(message + ": |det| = ")
            assert excinfo.value.where == where

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "scheme, corner, entry",
        [
            (Scheme.TWO_N, "B", (0, 4)),
            (Scheme.TWO_N, "C", (4, 0)),
            (Scheme.N_PLUS_ONE, "B", (0, 3)),
            (Scheme.N_PLUS_ONE, "C", (3, 0)),
        ],
    )
    def test_non_finite_entry_outside_the_inverted_corners_is_named(self, scheme, corner, entry, bad):
        # A and D are guarded by their inversion; a NaN or inf in B or C
        # would turn every significance into NaN, which no threshold flags
        samples = run_experiment(
            ExperimentPlan(scheme=scheme, errors=(ErrorInjection(1, 1, np.pi / 4),), noise=NoiseModel(seed=3))
        )
        assert detect(delta_statistics(samples)).detected
        first, second = scheme.embed_index[:3], scheme.embed_index[3:]
        rows, cols = (first, second) if corner == "B" else (second, first)
        assert entry[0] in rows and entry[1] in cols
        samples[4][entry] = bad
        with pytest.raises(ShapeError, match=rf"^sample 5: entry \({entry[0] + 1}, {entry[1] + 1}\) = {bad}"):
            delta_statistics(samples)

    @pytest.mark.parametrize("entry", [(0, 4), (4, 0)])
    def test_entry_whose_square_overflows_is_named(self, entry):
        # 1e160 in B or C of sample 1 is finite, but its deviation squared
        # is not: the std is inf, which would read as no significance
        samples = run_experiment(ExperimentPlan(errors=(ErrorInjection(1, 1, np.pi / 4),), noise=NoiseModel(seed=3)))
        samples[0][entry] = 1e160
        with pytest.raises(ShapeError, match=rf"^sample 1: entry \({entry[0] + 1}, {entry[1] + 1}\) = 1e\+160 outside"):
            delta_statistics(samples)

    def test_finite_entry_out_of_range_is_analysed_as_given(self):
        # only the loader and validate_expectation_matrix enforce [-1, 1];
        # an entry that overflows nothing gives finite statistics
        samples = run_experiment(ExperimentPlan(errors=(ErrorInjection(1, 1, np.pi / 4),), noise=NoiseModel(seed=3)))
        samples[0][0, 4] = 1e150
        stats = delta_statistics(samples)
        assert np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()

    def test_overflow_of_in_range_entries_names_the_delta_element(self, rng):
        # each sample's Delta is finite; its statistics are not
        samples = tiny_corner_stack(rng)
        assert np.isfinite(partial_determinant(samples)).all()
        with pytest.raises(ShapeError, match=r"^standard deviation of Delta element \(\d, \d\) is inf, not finite$"):
            delta_statistics(samples)

    def test_rejects_a_single_matrix(self, rng):
        with pytest.raises(ShapeError):
            delta_statistics(consistent_matrix(rng))

    def test_null_experiment_statistics(self):
        plan = ExperimentPlan(noise=NoiseModel(seed=123), repetitions=10)
        stats = delta_statistics(run_experiment(plan))
        assert stats.significance.max() < 3.0

    def test_scheme_from_matrix_size(self):
        for scheme in Scheme:
            stats = delta_statistics(run_experiment(ExperimentPlan(scheme=scheme, noise=NoiseModel(seed=3))))
            assert stats.scheme is scheme


def make_stats(significance, scheme=Scheme.TWO_N):
    significance = np.asarray(significance, dtype=float)
    return DeltaStats(
        mean=significance.copy(), std=np.ones((3, 3)), significance=significance, repetitions=10, scheme=scheme
    )


class TestDetect:
    def test_all_quiet(self):
        report = detect(make_stats(np.zeros((3, 3))), threshold=3.0)
        assert not report.detected
        assert report.flagged_elements == ()

    def test_single_strong_flag(self):
        sig = np.zeros((3, 3))
        sig[0, 0] = 48.0
        report = detect(make_stats(sig), threshold=3.0)
        assert report.detected
        assert report.flagged_elements == ((1, 1, 48.0),)

    def test_below_threshold_not_flagged(self):
        report = detect(make_stats(np.full((3, 3), 0.5)), threshold=3.0)
        assert not report.detected

    def test_flags_sorted_by_significance(self):
        sig = np.zeros((3, 3))
        sig[1, 1] = 7.0
        sig[0, 0] = 12.0
        report = detect(make_stats(sig), threshold=3.0)
        assert [f[:2] for f in report.flagged_elements] == [(1, 1), (2, 2)]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ShapeError):
            detect(make_stats(np.zeros((3, 3))), threshold=0.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(ShapeError, match="threshold"):
            detect(make_stats(np.zeros((3, 3))), threshold=threshold)


class TestLocalize:
    def test_two_n_first_row_and_column(self):
        sig = np.zeros((3, 3))
        sig[0, 0] = 20.0
        report = localize(detect(make_stats(sig), 3.0))
        assert (1, 1) in report.candidate_locations
        assert (1, 4) in report.candidate_locations
        assert (4, 4) in report.candidate_locations

    def test_two_n_second_row_and_column(self):
        sig = np.zeros((3, 3))
        sig[1, 1] = 9.0
        report = localize(detect(make_stats(sig), 3.0))
        assert (2, 2) in report.candidate_locations
        assert (2, 5) in report.candidate_locations

    def test_n_plus_one_indeterminate(self):
        sig = np.zeros((3, 3))
        sig[0, 0] = 15.0
        sig[0, 1] = 0.0
        report = localize(detect(make_stats(sig, Scheme.N_PLUS_ONE), 3.0))
        assert report.detected
        assert report.candidate_locations == ()
        assert "indeterminate" in report.note

    def test_n_plus_one_run_location_indeterminate(self):
        # a quarter-turn error at (2, 2) with four settings moves only
        # column 1 of Delta: it is detected, but no location can be named
        plan = ExperimentPlan(
            scheme=Scheme.N_PLUS_ONE, errors=(ErrorInjection(2, 2, np.pi / 4),), noise=NoiseModel(seed=0)
        )
        report = localize(detect(delta_statistics(run_experiment(plan))))
        assert report.detected
        assert report.scheme is Scheme.N_PLUS_ONE
        assert report.candidate_locations == ()
        assert "location indeterminate" in report.note

    def test_no_flags_nothing_to_localize(self):
        report = localize(detect(make_stats(np.zeros((3, 3))), 3.0))
        assert report.candidate_locations == ()
