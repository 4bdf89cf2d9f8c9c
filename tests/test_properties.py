"""Property tests: the consistency identity and its symmetries on random
stacks, the compact scheme's one-scalar deviation, the statistics of
Delta against numpy's mean and standard deviation, the loop residual as
the closure mismatch, the loop's states and observables against the
corners they invert, the plates' Stokes rotations against their Jones
matrices, the vector scores against their matrix forms and across memory
layouts, the measurement-file loader on random and fuzzed input and
against a line scan of every file, fuzzed configs, the simulator's
samples against the run length and block size and as count fractions,
and the report writer against json.dumps."""

import json
import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from spamtomo import (  # noqa: E402
    ConfigError,
    DataFormatError,
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    RunConfig,
    Scheme,
    SingularMatrixError,
    SourceKind,
    WavePlateSetting,
    config_from_dict,
    default_settings,
    delta_statistics,
    detect,
    fidelity,
    load_measurements,
    loop_bootstrap,
    partial_determinant,
    relative_error,
    run_experiment,
    save_measurements,
    score_reconstruction,
    theoretical_observables,
    theoretical_states,
    write_report,
)
from spamtomo import optics  # noqa: E402
from spamtomo.config import _KNOWN_KEYS  # noqa: E402
from spamtomo.data_io import _first_malformed, _parse, _parse_header  # noqa: E402
from spamtomo.qubit import density_from_stokes, povm_element_fidelity, povm_from_observable  # noqa: E402
from conftest import matrix_fidelity, matrix_relative_error, sample_invertible, sample_stokes_ball  # noqa: E402
from test_data_io import oracle_jsonify  # noqa: E402
from test_optics import SOURCE_RHO, jones_observable, jones_state  # noqa: E402


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
            g = sample_invertible(rng)
            p_g, w_g = p @ np.linalg.inv(g), g @ w
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


# Rows and columns of the compact scheme's corners A and D.
COMPACT_A, COMPACT_D = [0, 1, 2], [3, 1, 2]


def compact_corner(values, triple):
    return values[..., triple, :][..., :, triple]


def compact_stack(rng, count):
    """``count`` random 4x4 matrices with entries in [-1, 1] whose corners
    A and D are comfortably invertible."""
    stack = []
    while len(stack) < count:
        s = rng.uniform(-1.0, 1.0, (4, 4))
        if min(abs(np.linalg.det(compact_corner(s, triple))) for triple in (COMPACT_A, COMPACT_D)) > 1e-3:
            stack.append(s)
    return np.array(stack)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.sampled_from([None, 1, 2, 7, 20]))
def test_n_plus_one_delta_is_one_scalar_times_a_inverse_e1(seed, count):
    # Delta - 1 = -(det S / det D) A^-1 e1 e1^T for every compact matrix:
    # C's columns 2-3 are D's and B's are A's, so only column 1 deviates
    stack = compact_stack(np.random.default_rng(seed), count or 1)
    values = stack[0] if count is None else stack
    ratio = np.linalg.det(values) / np.linalg.det(compact_corner(values, COMPACT_D))
    column = -ratio[..., None] * np.linalg.inv(compact_corner(values, COMPACT_A))[..., :, 0]
    deviation = partial_determinant(values) - np.eye(3)
    scale = np.maximum(np.abs(deviation).max(axis=(-2, -1)), 1.0)[..., None, None]
    assert np.all(np.abs(deviation[..., :, 1:]) <= 1e-9 * scale)
    assert np.all(np.abs(deviation[..., :, 0] - column) <= 1e-9 * scale[..., 0])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(list(Scheme)),
    factorized=st.booleans(),
    shift=st.sampled_from([0.0, 0.3]),
    varied=st.sets(st.integers(0, 2)),
    spread=st.sampled_from([0.0, 1e-9, 0.05]),
    reps=st.sampled_from([2, 3, 10, 37, 300]),
)
# both sentinels (inf in Delta's first column, 0 elsewhere), with and
# without real spread in one column beside them
@example(seed=1, scheme=Scheme.TWO_N, factorized=True, shift=0.3, varied={1}, spread=0.05, reps=10)
@example(seed=2, scheme=Scheme.N_PLUS_ONE, factorized=True, shift=0.3, varied=set(), spread=0.0, reps=3)
def test_delta_statistics_bytes_equal_numpy(seed, scheme, factorized, shift, varied, spread, reps):
    # mean, (N-1) std and significance byte-equal to np.mean, np.std and
    # the sentinel formula written out with np.where.  With six settings,
    # varying only some columns of the lower-left corner C leaves the other
    # columns of Delta exactly constant, and an upper-left shift of a
    # factorized matrix moves only Delta's first column (up to roundoff):
    # zero spread beside real spread, and both sentinels (inf and 0) in one
    # stack.
    rng = np.random.default_rng(seed)
    n = scheme.n_settings
    base = sample_stokes_ball(rng, n) @ sample_stokes_ball(rng, n).T if factorized else rng.uniform(-1, 1, (n, n))
    base[0, 0] += shift
    samples = np.array([base] * reps)
    for c in sorted(varied):
        samples[:, 3:, c] += spread * rng.standard_normal((reps, n - 3))
    try:
        stack = partial_determinant(samples) - np.eye(3)
    except SingularMatrixError:
        assume(False)
    mean = np.mean(stack, axis=0)
    std = np.std(stack, axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        zero_std = std <= 1e-12
        significance = np.where(
            zero_std,
            np.where(np.abs(mean) > 1e-12, np.inf, 0.0),
            np.abs(mean) / np.where(zero_std, 1.0, std),
        )
    stats = delta_statistics(samples)
    assert stats.mean.tobytes() == mean.tobytes()
    assert stats.std.tobytes() == std.tobytes()
    assert stats.significance.tobytes() == significance.tobytes()


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
    st.tuples(st.just("blank"), st.integers(0, 99), st.sampled_from(["", " ", "\t", " \t "])),
    st.tuples(st.just("widen"), st.integers(2, 6)),
    st.tuples(st.just("blocks"), st.sampled_from([-2, -1, 1, 2])),
    st.tuples(st.just("trailing"), st.integers(1, 3)),
    st.tuples(st.just("crlf")),
    st.tuples(st.just("bom")),
)


def mutate(lines, mutation):
    """Apply one mutation to a file's lines; CRLF endings and a
    byte-order mark are applied to the whole text when it is written."""
    kind = mutation[0]
    if kind == "blocks":
        lines[0] = re.sub(r"blocks=(-?\d+)", lambda m: f"blocks={int(m.group(1)) + mutation[1]}", lines[0])
        return
    if kind == "trailing":
        lines.extend([""] * mutation[1])
        return
    if kind == "widen":
        # each `width` non-blank lines in a row joined into the first,
        # leaving empty lines, so the line count stays and wide rows hold
        # the missing values
        width, first = mutation[1], None
        for j in range(1, len(lines)):
            if not lines[j].strip():
                first = None
            elif first is None or j - first == width:
                first = j
            else:
                lines[first] += "," + lines[j]
                lines[j] = ""
        return
    if kind in ("crlf", "bom"):
        return
    i = mutation[1] % len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "blank":
        lines.insert(i, mutation[2])
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


def oracle_load_measurements(path):
    """Test oracle: the measurement loader as it was when it read every
    file with a line scan."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            raw_lines = handle.read().splitlines()
    except FileNotFoundError:
        raise DataFormatError(f"measurement file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"measurement file is not UTF-8 text: {exc}") from None
    if not raw_lines:
        raise DataFormatError("empty measurement file")
    scheme, declared_blocks = _parse_header(raw_lines[0])
    size = scheme.n_settings

    blocks, current = [], []
    for line in raw_lines[1:] + [""]:
        if line.strip() == "":
            if current:
                blocks.append(current)
                current = []
            continue
        current.append(line)

    if len(blocks) != declared_blocks:
        raise DataFormatError(
            f"header declares {declared_blocks} blocks but file contains {len(blocks)}"
        )

    lines = [line for block in blocks for line in block]
    try:
        # with every block `size` rows long, the reshape fails exactly
        # when some row does not have `size` columns
        stack = _parse(lines).reshape(len(blocks), size, size) if lines else np.empty((0, size, size))
    except ValueError:
        stack = None
    if stack is None or any(len(block) != size for block in blocks):
        raise _first_malformed(blocks, size)
    bad = ~(np.abs(stack) <= 1.0 + 1e-9)
    if bad.any():
        b, r, c = np.argwhere(bad)[0]
        raise DataFormatError(
            f"block {b + 1}, row {r + 1}, column {c + 1}: value {stack[b, r, c]} outside [-1, 1]",
            block=b + 1, row=r + 1, col=c + 1,
        )
    return stack, scheme


def load_outcome(load, path):
    """What a loader makes of a file: the stack's shape and bytes, or the
    exception's type, message and position."""
    try:
        stack, scheme = load(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "block", None), getattr(exc, "row", None), getattr(exc, "col", None)
    return scheme, stack.shape, stack.dtype, stack.tobytes()


@settings(max_examples=300, deadline=None)
@given(scheme=st.sampled_from(list(Scheme)), reps=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       digits=st.sampled_from([4, None]), mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_fuzzed_measurement_text_loads_or_is_rejected(tmp_path_factory, scheme, reps, seed, digits, mutations):
    n = scheme.n_settings
    stack = np.random.default_rng(seed).uniform(-1, 1, (reps, n, n))
    path = tmp_path_factory.mktemp("fuzz") / "m.csv"
    save_measurements(str(path), stack if digits is None else np.round(stack, digits), scheme)
    lines = path.read_text(encoding="utf-8").split("\n")
    for mutation in mutations:
        if lines:
            mutate(lines, mutation)
    kinds = {mutation[0] for mutation in mutations}
    text = ("\r\n" if "crlf" in kinds else "\n").join(lines)
    path.write_bytes((b"\xef\xbb\xbf" if "bom" in kinds else b"") + text.encode("utf-8"))
    outcome = load_outcome(load_measurements, str(path))
    assert outcome == load_outcome(oracle_load_measurements, str(path))
    if not isinstance(outcome[0], Scheme):
        kind, message, *position = outcome
        assert kind is DataFormatError
        if "not a number" in message or "outside" in message:
            assert None not in position
        return
    loaded_scheme, shape, _, data = outcome
    stack = np.frombuffer(data).reshape(shape)
    assert shape[1:] == (loaded_scheme.n_settings,) * 2
    assert np.all(np.abs(stack) <= 1.0 + 1e-9)
    np.testing.assert_array_equal(stack, reference_stack(text, loaded_scheme.n_settings))


# one layout change to a saved record: line ends and a byte-order mark,
# separators, the end of the file, a control or non-ASCII character in a
# row (\u2028 and NEL end a line for splitlines; 0xff is not UTF-8), and a
# blank line moved with the line count kept
LAYOUTS = st.sampled_from(["none", "crlf", "bom", "bom_crlf", "cr", "two_blank_lines", "whitespace_separators",
                           "trailing_blank_lines", "no_final_newline", "in_row", "moved_blank_line"])
IN_ROW = st.sampled_from([b"\f", b"\v", b"\x1c", b"\t", b"\xff", "\u00e9".encode(), "\u2028".encode(),
                          "\x85".encode()])


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(list(Scheme)), reps=st.sampled_from([1, 2, 3, 257]), seed=st.integers(0, 2**32 - 1),
       digits=st.sampled_from([4, None]), layout=LAYOUTS, where=st.integers(0, 2**16), char=IN_ROW)
def test_every_layout_loads_as_the_line_scan_does(tmp_path_factory, scheme, reps, seed, digits, layout, where, char):
    n = scheme.n_settings
    stack = np.random.default_rng(seed).uniform(-1, 1, (reps, n, n))
    path = tmp_path_factory.mktemp("layout") / "m.csv"
    save_measurements(str(path), stack if digits is None else np.round(stack, digits), scheme)
    data = path.read_bytes()
    lines = data.split(b"\n")
    if layout in ("crlf", "bom_crlf"):
        data = data.replace(b"\n", b"\r\n")
    if layout in ("bom", "bom_crlf"):
        data = b"\xef\xbb\xbf" + data
    if layout == "cr":
        data = data.replace(b"\n", b"\r")
    if layout == "two_blank_lines":
        data = data.replace(b"\n\n", b"\n\n\n")
    if layout == "whitespace_separators":
        data = data.replace(b"\n\n", b"\n \t\n")
    if layout == "trailing_blank_lines":
        data += b"\n\n"
    if layout == "no_final_newline":
        data = data.rstrip(b"\n")
    if layout == "in_row":
        row = 1 + where % (len(lines) - 2)  # a data row or a separator
        at = (0, len(lines[row]), where % (len(lines[row]) + 1))[where % 3]  # often at an end of the row
        lines[row] = lines[row][:at] + char + lines[row][at:]
        data = b"\n".join(lines)
    if layout == "moved_blank_line" and reps > 1:
        blank = lines.index(b"", 1)
        del lines[blank]
        lines.insert(1 + where % (len(lines) - 2), b"")
        data = b"\n".join(lines)
    path.write_bytes(data)
    assert load_outcome(load_measurements, str(path)) == load_outcome(oracle_load_measurements, str(path))


@pytest.mark.parametrize("data", [b"", b"\n", b"\xef", b"\xef\xbb", b"\xef\xbb\xbf", b"\xef\xbb\xbf\n", b"\xef\xbbx",
                                  b"#\r", b"# scheme=2n blocks=0", b"# scheme=2n blocks=0\r\n", b"\x85# scheme=2n"])
def test_short_files_load_as_the_line_scan_does(tmp_path, data):
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    assert load_outcome(load_measurements, str(path)) == load_outcome(oracle_load_measurements, str(path))


ANGLE = st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(source=st.sampled_from(list(SourceKind)), qwp=ANGLE, hwp=ANGLE)
def test_plate_rotations_match_jones_conjugation(source, qwp, hwp):
    setting = WavePlateSetting(qwp, hwp)
    plan = ExperimentPlan(source=source, prep_settings=(setting,) * 6, meas_settings=(setting,) * 6)
    s = theoretical_states(plan)[0]
    np.testing.assert_allclose(s, jones_state(source, setting), rtol=0, atol=1e-12)
    # the plates keep the source's purity tr(rho^2) = (1 + |s|^2) / 2
    rho0 = SOURCE_RHO[source]
    assert (1.0 + s @ s) / 2.0 == pytest.approx(np.trace(rho0 @ rho0).real, abs=1e-12)
    w = theoretical_observables(plan)[:, 0]
    np.testing.assert_allclose(w, jones_observable(setting), rtol=0, atol=1e-12)
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)


# Values of mixed type for any config key: scalars, lists and nested
# objects, plus valid pieces so that parsing gets past the first check.
VALID_PIECES = st.sampled_from([
    "full", "simulate", "analyze", "2n", "n+1", "pure_h", "mixed", "inf", "pi/4", "5pi/16", 3, 10,
    [["0", "0"]] * 4, [["0", "pi/8"]] * 6, [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [{"prep": 1, "setting": 1, "hwp_offset": "pi/20"}],
])
# Integers beyond the float range, alone and in pieces of valid shape.
HUGE = 10**400
HUGE_PIECES = st.sampled_from([
    HUGE, -HUGE, [[HUGE, 0]] + [[0, 0]] * 5, [[0, 0, 1], [0, HUGE, 0], [1, 0, 0]],
    [{"prep": 1, "setting": 1, "hwp_offset": -HUGE}],
])
SCALARS = st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=8)
VALUES = st.recursive(
    SCALARS | VALID_PIECES | HUGE_PIECES,
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


def _strided(v):
    """``v`` as a view whose rows and components are both strided."""
    spread = np.zeros((2 * len(v), 6))
    spread[::2, ::2] = v
    return spread[::2, ::2]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rows=st.integers(1, 8))
def test_vector_scores_do_not_depend_on_memory_layout(seed, rows):
    # C-ordered, Fortran-ordered and strided copies of the same vectors
    # score bit for bit alike, however the caller sliced them
    rng = np.random.default_rng(seed)
    s, t = sample_stokes_ball(rng, rows), sample_stokes_ball(rng, rows)
    layouts = (np.ascontiguousarray, np.asfortranarray, _strided)
    for score in (fidelity, relative_error):
        expected = score(s, t).tobytes()
        for first in layouts:
            for second in layouts:
                assert score(first(s), second(t)).tobytes() == expected, (score.__name__, first, second)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), states=st.integers(1, 6), povms=st.sampled_from([1, 3]),
       layouts=st.lists(st.sampled_from([np.ascontiguousarray, np.asfortranarray, _strided]), min_size=4, max_size=4))
def test_scores_in_one_pass_equal_separate_calls(seed, states, povms, layouts):
    # one fidelity call over states and POVMs, then one relative error,
    # give the bits of a call per score, in any memory layout
    rng = np.random.default_rng(seed)
    vectors = [sample_stokes_ball(rng, k) for k in (states, states, povms, povms)]
    score = score_reconstruction(*(layout(v) for layout, v in zip(layouts, vectors)), np.zeros(states + povms, bool))
    rec_states, true_states, rec_povms, true_povms = vectors
    expected = np.concatenate([fidelity(rec_states, true_states), povm_element_fidelity(rec_povms, true_povms)])
    assert np.array(score.fidelities).tobytes() == expected.tobytes()
    assert np.array(score.relative_errors).tobytes() == relative_error(rec_povms, true_povms).tobytes()


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


def _angle_pairs(n):
    pair = st.lists(st.sampled_from(["0", "pi/8", "5pi/16", 0.3]), min_size=2, max_size=2)
    return st.lists(pair, min_size=n, max_size=n)


def _valid_values(n):
    """A valid value for every config key but the scheme, for a scheme of
    ``n`` settings.  ``input_data`` stays null, so a simulated analysis
    reaches the check that it has two repetitions."""
    injection = st.fixed_dictionaries(
        {"prep": st.integers(1, n), "setting": st.integers(1, n), "hwp_offset": st.sampled_from(["pi/20", 0.1])})
    return {
        "mode": st.sampled_from(["simulate", "analyze", "reconstruct", "full"]),
        "state": st.sampled_from(["pure_h", "mixed"]),
        "seed": st.integers(0, 2**64 - 1),
        "shots": st.none() | st.just("inf") | st.integers(1, 2**63 - 1),
        "angle_jitter_sigma": st.integers(0, 1) | st.floats(0.0, 0.1),
        "repetitions": st.integers(2, 20),
        "threshold": st.integers(1, 5) | st.floats(0.1, 10.0),
        "prep_angles": _angle_pairs(n),
        "meas_angles": _angle_pairs(n),
        "error_injections": st.lists(injection, max_size=2),
        "known_povms": st.none() | st.just([[0, 0, 1], [0, 1, 0], [1.0, 0, 0]]),
        "input_data": st.none(),
        "output_dir": st.just("out"),
    }


def _near_misses(n):
    """Values at or just past each check of a config key, for a scheme of
    ``n`` settings."""
    pairs = [["0", "0"]] * (n - 1)
    return {
        "mode": st.sampled_from(["fit", "", "FULL"]),
        "scheme": st.sampled_from(["2n", "n+1", "3n"]),
        "state": st.sampled_from(["circular", "PURE_H"]),
        "seed": st.sampled_from([-1, 2**64, 1.5, True, "1"]),
        "shots": st.sampled_from([0, -1, 2**63, 10**20, 1.5, True, "ten"]),
        "angle_jitter_sigma": st.sampled_from([-0.1, math.nan, math.inf, "0.1", True, None]),
        "repetitions": st.sampled_from([0, 1, 2.5]),
        "threshold": st.sampled_from([0, -1.0, math.nan, math.inf, "3", True, None]),
        "prep_angles": st.sampled_from([pairs, pairs + [["0", "0"]] * 2, pairs + [["0"]], pairs + ["0"],
                                        pairs + [["pi/0", "0"]], pairs + [["x", "0"]], pairs + [[0, "1e400"]]]),
        "meas_angles": st.sampled_from([pairs, pairs + [[True, 0]], pairs + [[0, None]], "pi/4"]),
        "error_injections": st.sampled_from([
            [{"prep": n + 1, "setting": 1, "hwp_offset": 0.1}], [{"prep": 1, "setting": 7, "hwp_offset": 0.1}],
            [{"prep": 1, "setting": 1}], [{"prep": 1.0, "setting": 1, "hwp_offset": 0.1}],
            [{"prep": 1, "setting": 1, "hwp_offset": "x"}], [3], {"prep": 1},
        ]),
        "known_povms": st.sampled_from([[[0, 0, 1]] * 2, [[0, 0, 1], [0, 1, 0], [math.nan, 0, 0]],
                                        [[0, 0, 1], [0, 1, 0], [1, 0]], "x"]),
        "input_data": st.sampled_from([5, ["m.csv"], False]),
        "output_dir": st.sampled_from([None, 5, ["out"]]),
    }


@st.composite
def one_key_fuzzed(draw, key):
    """A valid config with ``key`` set to a near miss or any value."""
    scheme = draw(st.sampled_from(["2n", "n+1"]))
    n = Scheme(scheme).n_settings
    raw = draw(st.fixed_dictionaries({}, optional=_valid_values(n)))
    raw["scheme"] = scheme
    raw[key] = draw(_near_misses(n)[key] | VALUES)
    return raw


@pytest.mark.parametrize("key", sorted(_KNOWN_KEYS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_fuzzed_key_validates_or_is_rejected(key, data):
    # every other key is valid, so the checks of the run, the plan and the
    # noise model are reached; a rejection still names the key at fault
    raw = data.draw(one_key_fuzzed(key), label="raw")
    try:
        config = config_from_dict(raw)
    except ConfigError as exc:
        assert exc.field is not None, str(exc)
        assert re.split(r"[\[.]", exc.field)[0] in raw
        return
    assert isinstance(config, RunConfig)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    scheme=st.sampled_from(list(Scheme)),
    source=st.sampled_from(list(SourceKind)),
    shots=st.none() | st.integers(1, 10**6),
    jitter=st.sampled_from([0.0, 0.0113, 0.05]),
    reps=st.integers(1, 12),
    data=st.data(),
)
def test_samples_independent_of_run_length_and_blocks(seed, scheme, source, shots, jitter, reps, data):
    # the first k repetitions of a run are a k-repetition run, and the
    # block size only groups the draws
    k = data.draw(st.integers(1, reps), label="k")
    block = data.draw(st.integers(1, reps + 1), label="block")

    def plan(repetitions):
        return ExperimentPlan(
            source=source,
            scheme=scheme,
            prep_settings=default_settings(scheme),
            meas_settings=default_settings(scheme),
            noise=NoiseModel(shots_per_setting=shots, angle_jitter_sigma=jitter, seed=seed),
            repetitions=repetitions,
        )

    whole = run_experiment(plan(reps))
    assert np.array_equal(whole[:k], run_experiment(plan(k)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optics, "BLOCK_REPETITIONS", block)
        assert np.array_equal(run_experiment(plan(reps)), whole)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    scheme=st.sampled_from(list(Scheme)),
    source=st.sampled_from(list(SourceKind)),
    shots=st.sampled_from([1, 3, 7, 500, 10_000, 2**40]),
    jitter=st.sampled_from([0.0, optics.DEFAULT_ANGLE_JITTER]),
    reps=st.integers(1, 4),
)
def test_samples_are_correctly_rounded_count_fractions(seed, scheme, source, shots, jitter, reps):
    # a count k of N shots is the sample (N+ - N-)/N = (2k - N)/N, the
    # double nearest that fraction, not 2k/N - 1 rounded twice
    plan = ExperimentPlan(
        source=source,
        scheme=scheme,
        prep_settings=default_settings(scheme),
        meas_settings=default_settings(scheme),
        noise=NoiseModel(shots_per_setting=shots, angle_jitter_sigma=jitter, seed=seed),
        repetitions=reps,
    )
    for s in run_experiment(plan).ravel().tolist():
        k = round((s + 1) * shots / 2)
        assert 0 <= k <= shots
        assert s == (2.0 * k - shots) / shots
        if shots == 10_000:
            assert re.fullmatch(r"-?[01]\.\d{1,4}", repr(s)), repr(s)


# Rows and columns (0-based) behind the corners [[A, B], [C, D]] of each
# scheme, spelled out here rather than read from Scheme.embed_index, so
# that the oracles built on them can catch a wrong index in the package.
CORNER_TRIPLES = {Scheme.TWO_N: (0, 1, 2, 3, 4, 5), Scheme.N_PLUS_ONE: (0, 1, 2, 3, 1, 2)}


def oracle_six_by_six(values, scheme):
    """Test oracle: the 6x6 form of a matrix or ``(..., n, n)`` stack of
    ``scheme``, in C order so that reductions over a stack sum alike."""
    idx = np.array(CORNER_TRIPLES[scheme])
    return np.ascontiguousarray(np.asarray(values)[..., idx[:, None], idx])


def oracle_corners(values, scheme):
    """Test oracle: the corners ``A, B, C, D`` of a matrix of ``scheme``."""
    full = oracle_six_by_six(values, scheme)
    return full[:3, :3], full[:3, 3:], full[3:, :3], full[3:, 3:]


def _arrays_or_error(f, *args):
    """The arrays of ``f(*args)`` in field order, or its singular-block
    message."""
    try:
        result = f(*args)
    except SingularMatrixError as exc:
        return str(exc)
    return [np.asarray(v).tobytes() for v in vars(result).values() if isinstance(v, np.ndarray | float)]


def _loop_arrays_or_error(mean, known, keep=None, shape=None):
    """The loop's arrays on ``mean`` cut to the first ``keep`` rows and
    columns, or its singular-block message; its states must have
    ``shape`` when given."""
    try:
        result = loop_bootstrap(mean, known)
    except SingularMatrixError as exc:
        return str(exc)
    if shape is not None:
        assert result.prep_stokes.shape == result.obs_vectors.T.shape == shape
    return [
        result.prep_stokes[:keep].tobytes(),
        result.obs_vectors[:, :keep].tobytes(),
        result.prep_renormalized[:keep].tobytes(),
        result.obs_renormalized[:keep].tobytes(),
        np.float64(result.consistency_residual).tobytes(),
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    source=st.sampled_from(list(SourceKind)),
    jitter=st.sampled_from([0.0, optics.DEFAULT_ANGLE_JITTER, 0.05]),
    injections=st.lists(
        st.builds(ErrorInjection, st.integers(1, 4), st.integers(1, 4), st.sampled_from([np.pi / 4, np.pi / 20])),
        max_size=2,
    ),
    reps=st.sampled_from([2, 10, 37, 300]),
)
def test_compact_record_analyses_as_its_embedding(seed, source, jitter, injections, reps):
    # the statistics read a 4x4 record bit for bit as its 6x6 embedding,
    # and the loop returns the first 4 rows and columns of the embedding's
    plan = ExperimentPlan(
        source=source,
        scheme=Scheme.N_PLUS_ONE,
        errors=tuple(injections),
        noise=NoiseModel(angle_jitter_sigma=jitter, seed=seed),
        repetitions=reps,
    )
    compact = run_experiment(plan)
    embedded = oracle_six_by_six(compact, Scheme.N_PLUS_ONE)
    assert _arrays_or_error(delta_statistics, compact) == _arrays_or_error(delta_statistics, embedded)
    known = theoretical_observables(plan)[:, :3]
    assert _loop_arrays_or_error(compact.mean(axis=0), known, shape=(4, 3)) == _loop_arrays_or_error(
        embedded.mean(axis=0), known, keep=4
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    scheme=st.sampled_from(list(Scheme)),
    source=st.sampled_from(list(SourceKind)),
    noise=st.sampled_from([(None, 0.0), (1000, optics.DEFAULT_ANGLE_JITTER), (10_000, 0.05)]),
    injections=st.lists(
        st.builds(ErrorInjection, st.integers(1, 4), st.integers(1, 4), st.sampled_from([np.pi / 4, np.pi / 20])),
        max_size=2,
    ),
    reps=st.sampled_from([2, 10, 37]),
)
def test_loop_residual_is_the_closure_mismatch(seed, scheme, source, noise, injections, reps):
    # the loop predicts C as D B^-1 A whatever W1 is, so the residual is
    # the paper's closure mismatch max|C - D B^-1 A| and does not move when
    # the known observables W1 change by an invertible g
    shots, jitter = noise
    plan = ExperimentPlan(
        source=source,
        scheme=scheme,
        errors=tuple(injections),
        noise=NoiseModel(shots_per_setting=shots, angle_jitter_sigma=jitter, seed=seed),
        repetitions=reps,
    )
    mean = run_experiment(plan).mean(axis=0)
    a, b, c, d = oracle_corners(mean, scheme)
    closure = np.abs(c - d @ np.linalg.solve(b, a)).max()
    tolerance = 1e-12 * np.abs(mean).max()
    known = theoretical_observables(plan)[:, :3]
    residual = loop_bootstrap(mean, known).consistency_residual
    assert abs(residual - closure) <= tolerance
    g = sample_invertible(np.random.default_rng(seed))
    assert abs(loop_bootstrap(mean, g @ known).consistency_residual - residual) <= tolerance


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), scheme=st.sampled_from(list(Scheme)), noise=st.sampled_from([0.0, 1e-5, 1e-4]))
def test_loop_reproduces_the_corners_it_inverts(seed, scheme, noise):
    # the loop's definition, in no particular order of inversion: states
    # P1 and observables W2 reproduce A and B, states P2 reproduce D, and
    # the residual is C against P2 W1; P1 and P2 (W1 and W2) are the loop's
    # rows (columns) by the corner triples, (4, 2, 3) for P2 with n+1
    rng = np.random.default_rng(seed)
    n = scheme.n_settings
    p, w = 0.9 * sample_stokes_ball(rng, n), 0.9 * sample_stokes_ball(rng, n).T
    s = p @ w + noise * rng.standard_normal((n, n))
    a, b, c, d = oracle_corners(s, scheme)
    assume(max(np.linalg.cond(m) for m in (w[:, :3], a, b)) < 20)
    result = loop_bootstrap(s, w[:, :3])
    assert not result.prep_renormalized.any()
    assert not result.obs_renormalized.any()
    first, second = list(CORNER_TRIPLES[scheme][:3]), list(CORNER_TRIPLES[scheme][3:])
    p1, p2 = result.prep_stokes[first], result.prep_stokes[second]
    w2 = result.obs_vectors[:, second]
    tolerance = 1e-10 * np.abs(s).max()
    assert np.abs(p1 @ w[:, :3] - a).max() <= tolerance
    assert np.abs(p1 @ w2 - b).max() <= tolerance
    assert np.abs(p2 @ w2 - d).max() <= tolerance
    assert abs(np.abs(c - p2 @ w[:, :3]).max() - result.consistency_residual) <= tolerance


# -0.0, the smallest subnormal, the switches to and from exponent notation
# in repr, the largest float and the non-finite values
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-7,
                               0.0001, 1.7976931348623157e308, math.inf, -math.inf, math.nan])
REPORT_FLOATS = EDGE_FLOATS | st.floats()
FINITE_FLOATS = EDGE_FLOATS.filter(math.isfinite) | st.floats(allow_nan=False, allow_infinity=False)
# non-ASCII, control, line-separator and non-BMP characters
REPORT_TEXT = st.text(st.characters() | st.sampled_from("\x00\x1f\x7f\"\\\u00e9\u2028\uffff\U0001f600"), max_size=6)
ARRAY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
REPORT_LEAVES = (
    st.none() | st.booleans() | st.integers(-2**80, 2**80) | REPORT_FLOATS | REPORT_TEXT
    | st.lists(FINITE_FLOATS, max_size=6) | st.lists(REPORT_FLOATS, max_size=6)
    | REPORT_FLOATS.map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.integers(0, 2**64 - 1).map(np.uint64)
    | hnp.arrays(np.float64, ARRAY_SHAPES, elements=FINITE_FLOATS)
    | st.sampled_from([np.empty((0, 3)), np.empty((2, 0)), np.zeros((2, 0), dtype=np.int64)])
    | hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.uint8, np.bool_]), ARRAY_SHAPES)
)
REPORT_VALUES = st.recursive(
    REPORT_LEAVES,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(REPORT_TEXT, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(payload=st.dictionaries(REPORT_TEXT, REPORT_VALUES, max_size=5))
def test_report_bytes_equal_json_dumps(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("report") / "report.json"
    write_report(str(path), payload)
    oracle = json.dumps(oracle_jsonify(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == oracle.encode("ascii")
