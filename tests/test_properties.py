"""Property tests: the consistency identity and its symmetries on random
stacks, the plates' Stokes rotations against their Jones matrices, the
vector scores against their matrix forms, the measurement-file loader on
random and fuzzed input, and fuzzed configs."""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from spamtomo import (  # noqa: E402
    ConfigError,
    DataFormatError,
    RunConfig,
    Scheme,
    SourceKind,
    WavePlateSetting,
    apply_gauge,
    config_from_dict,
    delta_statistics,
    density_from_stokes,
    detect,
    fidelity,
    load_measurements,
    measurement_observable,
    partial_determinant,
    povm_from_observable,
    prepare_state,
    relative_error,
    save_measurements,
    source_density,
)
from spamtomo.config import _KNOWN_KEYS  # noqa: E402
from conftest import matrix_fidelity, matrix_relative_error, sample_invertible, sample_stokes_ball  # noqa: E402
from test_optics import jones_observable, jones_state  # noqa: E402


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

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(3)), block=st.sampled_from(range(3)))
    def test_partial_determinant_ignores_order_within_corners(self, seed, perm, block):
        # reordering preparations 1-3, preparations 4-6 or settings 4-6
        # cancels inside A^-1 B, D^-1 C or B D^-1
        stack = noisy_stack(np.random.default_rng(seed), 5)
        order = list(range(6))
        offset = 0 if block == 0 else 3
        order[offset:offset + 3] = [offset + k for k in perm]
        permuted = stack[:, :, order] if block == 2 else stack[:, order, :]
        delta = partial_determinant(stack)
        scale = np.maximum(np.abs(delta).max(axis=(1, 2), keepdims=True), 1.0)
        assert np.all(np.abs(partial_determinant(permuted) - delta) <= 1e-7 * scale)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(3)))
    def test_setting_order_in_first_corner_permutes_delta(self, seed, perm):
        # S[:, perm] = S Q on columns 1-3 maps Delta to Q^T Delta Q
        stack = noisy_stack(np.random.default_rng(seed), 5)
        order = list(perm) + [3, 4, 5]
        q = np.eye(3)[:, perm]
        delta = partial_determinant(stack)
        scale = np.maximum(np.abs(delta).max(axis=(1, 2), keepdims=True), 1.0)
        expected = q.T @ delta @ q
        assert np.all(np.abs(partial_determinant(stack[:, :, order]) - expected) <= 1e-7 * scale)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(3)), row=st.integers(0, 2),
           col=st.integers(0, 2))
    def test_detection_flags_permute_with_settings(self, seed, perm, row, col):
        rng = np.random.default_rng(seed)
        stack = noisy_stack(rng, 10, noise=0.005)
        stack[:, row, col] = np.clip(stack[:, row, col] + 0.3, -1.0, 1.0)
        flags = {(r, c) for r, c, _ in detect(delta_statistics(stack)).flagged_elements}
        permuted = stack[:, :, list(perm) + [3, 4, 5]]
        moved = {
            (perm[r - 1] + 1, perm[c - 1] + 1)
            for r, c, _ in detect(delta_statistics(permuted)).flagged_elements
        }
        assert moved == flags


def noisy_stack(rng, count, noise=0.05):
    """``count`` factorized 6x6 matrices plus independent Gaussian noise."""
    return np.array([p @ w + noise * rng.standard_normal((6, 6)) for p, w in full_rank_factors(rng, count)])


ENTRY = st.sampled_from([-0.0, 0.0, -1.0, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(scheme=st.sampled_from(list(Scheme)), data=st.data())
def test_measurements_round_trip_bit_for_bit(tmp_path_factory, scheme, data):
    n = scheme.n_settings
    stack = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(0, 4)), n, n), elements=ENTRY))
    path = str(tmp_path_factory.mktemp("round_trip") / "m.csv")
    save_measurements(path, stack, scheme)
    loaded, loaded_scheme = load_measurements(path)
    assert loaded_scheme is scheme
    assert loaded.shape == stack.shape and loaded.dtype == np.float64
    assert np.array_equal(loaded.view(np.uint64), stack.view(np.uint64))


TOKENS = st.sampled_from(["nan", "1_0", "#", ",", ",,", "", " ", "x", "-inf", "1e999", "2.0", "0x1",
                          "\u0661", "1.0.0", "\n", "\r", "\n\n", "+1", "-0", ".5"]) | st.text(
    st.characters(codec="utf-8"), max_size=3)
MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("duplicate"), st.integers(0, 99)),
    st.tuples(st.just("replace"), st.integers(0, 99), st.integers(0, 9), TOKENS),
    st.tuples(st.just("insert"), st.integers(0, 99), st.integers(0, 200), TOKENS),
)


def mutate(lines, mutation):
    kind, i = mutation[0], mutation[1] % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "replace":
        fields = lines[i].split(",")
        fields[mutation[2] % len(fields)] = mutation[3]
        lines[i] = ",".join(fields)
    else:
        pos = mutation[2] % (len(lines[i]) + 1)
        lines[i] = lines[i][:pos] + mutation[3] + lines[i][pos:]


def reference_stack(text, n):
    """Per-entry ``float`` parse of an accepted file's data lines."""
    rows = [line for line in text.splitlines()[1:] if line.strip()]
    return np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(-1, n, n)


@settings(max_examples=300, deadline=None)
@given(scheme=st.sampled_from(list(Scheme)), reps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_fuzzed_measurement_text_loads_or_is_rejected(tmp_path_factory, scheme, reps, seed, mutations):
    n = scheme.n_settings
    path = tmp_path_factory.mktemp("fuzz") / "m.csv"
    save_measurements(str(path), np.random.default_rng(seed).uniform(-1, 1, (reps, n, n)), scheme)
    lines = path.read_text(encoding="utf-8").split("\n")
    for mutation in mutations:
        if lines:
            mutate(lines, mutation)
    text = "\n".join(lines)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    try:
        stack, loaded_scheme = load_measurements(str(path))
    except DataFormatError as exc:
        if "not a number" in str(exc) or "outside" in str(exc):
            assert None not in (exc.block, exc.row, exc.col)
        return
    assert stack.shape[1:] == (loaded_scheme.n_settings,) * 2
    assert np.all(np.abs(stack) <= 1.0 + 1e-9)
    np.testing.assert_array_equal(stack, reference_stack(text, loaded_scheme.n_settings))


ANGLE = st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(source=st.sampled_from(list(SourceKind)), qwp=ANGLE, hwp=ANGLE)
def test_plate_rotations_match_jones_conjugation(source, qwp, hwp):
    setting = WavePlateSetting(qwp, hwp)
    rho = prepare_state(source, setting)
    np.testing.assert_allclose(rho, jones_state(source, setting), rtol=0, atol=1e-12)
    rho0 = source_density(source)
    assert np.trace(rho @ rho).real == pytest.approx(np.trace(rho0 @ rho0).real, abs=1e-12)
    w = measurement_observable(setting)
    np.testing.assert_allclose(w, jones_observable(setting), rtol=0, atol=1e-12)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


# Values of mixed type for any config key: scalars, lists and nested
# objects, plus valid pieces so that parsing gets past the first check.
VALID_PIECES = st.sampled_from([
    "full", "simulate", "analyze", "2n", "n+1", "pure_h", "mixed", "inf", "pi/4", "5pi/16", 3, 10,
    [["0", "0"]] * 4, [["0", "pi/8"]] * 6, [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [{"prep": 1, "setting": 1, "hwp_offset": "pi/20"}],
])
SCALARS = st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8)
VALUES = st.recursive(
    SCALARS | VALID_PIECES,
    lambda children: st.lists(children, max_size=7) | st.dictionaries(
        st.sampled_from(["prep", "setting", "hwp_offset", "x"]) | st.text(max_size=3), children, max_size=4),
    max_leaves=20,
)


DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: np.linalg.norm(u) > 0.1)
# Pure states, or mixed ones at most 1 - 1e-6 from the centre: nearer the
# sphere, fidelity's square root of 1 - |s|^2 turns the roundoff of any
# float evaluation (the oracle's too) into errors above 1e-12.
RADIUS = st.one_of(st.just(1.0), st.floats(0.0, 1.0 - 1e-6))


@st.composite
def ball_vectors(draw):
    u = np.array(draw(DIRECTION))
    return u / np.linalg.norm(u) * draw(RADIUS)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(ball_vectors(), ball_vectors()), min_size=1, max_size=6))
def test_vector_scores_match_matrix_oracle(pairs):
    s = np.array([a for a, _ in pairs])
    t = np.array([b for _, b in pairs])
    fids, errors = fidelity(s, t), relative_error(s, t)
    for k in range(len(pairs)):
        assert fids[k] == pytest.approx(matrix_fidelity(density_from_stokes(s[k]), density_from_stokes(t[k])), abs=1e-12)
        oracle = matrix_relative_error(povm_from_observable(s[k]).e, povm_from_observable(t[k]).e)
        assert errors[k] == pytest.approx(oracle, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(raw=st.dictionaries(st.sampled_from(sorted(_KNOWN_KEYS)), VALUES, max_size=8))
def test_fuzzed_configs_validate_or_are_rejected(raw):
    # a rejection names the key at fault, e.g. "prep_angles[2].qwp"
    try:
        config = config_from_dict(raw)
    except ConfigError as exc:
        assert exc.field is not None, str(exc)
        assert re.split(r"[\[.]", exc.field)[0] in raw
        return
    assert isinstance(config, RunConfig)
