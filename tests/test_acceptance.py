"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line once every bound in the criterion has
been checked (run with ``pytest -s`` to see them); a failed assertion
marks the criterion FAIL.  Monte Carlo criteria use seeds 0..99.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from spamtomo import (
    ErrorInjection,
    EXIT_CLEAN,
    EXIT_DETECTED,
    ExperimentPlan,
    NoiseModel,
    RunConfig,
    Scheme,
    SourceKind,
    default_settings,
    delta_statistics,
    detect,
    localize,
    loop_bootstrap,
    partial_determinant,
    run,
    run_experiment,
    theoretical_observables,
    theoretical_states,
    true_expectation_matrix,
    write_outputs,
)

SEEDS = range(100)


def report(line):
    print(f"\n{line}")


def make_plan(scheme=Scheme.TWO_N, source=SourceKind.PURE_H, errors=(), seed=0,
              shots=10_000, jitter=None, repetitions=10):
    noise = NoiseModel(
        shots_per_setting=shots,
        angle_jitter_sigma=NoiseModel().angle_jitter_sigma if jitter is None else jitter,
        seed=seed,
    )
    return ExperimentPlan(
        source=source,
        prep_settings=default_settings(scheme),
        meas_settings=default_settings(scheme),
        scheme=scheme,
        errors=errors,
        noise=noise,
        repetitions=repetitions,
    )


def measured_samples(plan, perturb=None):
    samples = np.array(run_experiment(plan))
    if perturb is not None:
        for (r, c), value in perturb.items():
            samples[:, r - 1, c - 1] = value
    return samples


def max_significance(plan, perturb=None):
    return delta_statistics(measured_samples(plan, perturb)).significance.max()


def test_criterion_01_consistency_theorem():
    # 1e4 random full-rank factorizations give a partial determinant equal
    # to the identity within 1e-9, in under 10 seconds
    rng = np.random.default_rng(42)

    def ball(n, surface_fraction=0.5):
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = rng.random(n) ** (1.0 / 3.0)
        on_surface = rng.random(n) < surface_fraction
        return v * np.where(on_surface, 1.0, r)[:, None]

    start = time.monotonic()
    matrices = np.array(
        [ball(6, surface_fraction=0.0) @ ball(6, surface_fraction=0.5).T for _ in range(10_000)]
    )
    worst = np.abs(partial_determinant(matrices) - np.eye(3)).max()
    elapsed = time.monotonic() - start
    assert worst < 1e-9, f"max |Delta - 1| = {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"PASS criterion 1: consistency theorem, max deviation {worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_null_experiment():
    # default noise, 100 seeds: at least 95 seeds show every significance
    # entry below 3, for both schemes and both sources, within 60 seconds
    start = time.monotonic()
    rates = {}
    for scheme in Scheme:
        for source in SourceKind:
            quiet = int(
                sum(
                    max_significance(make_plan(scheme, source, seed=seed)) < 3.0
                    for seed in SEEDS
                )
            )
            rates[(scheme.value, source.value)] = quiet
            assert quiet >= 95, f"{scheme.value}/{source.value}: only {quiet}/100 quiet"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(f"PASS criterion 2: null experiment quiet rates {rates} in {elapsed:.1f}s")


def test_criterion_03_large_error_detection():
    # quarter-turn detector offset at (1,1): the true expectation flips to
    # exactly -1 and the deviation is seen at >= 10 sigma in >= 99 seeds
    errors = (ErrorInjection(1, 1, np.pi / 4),)
    plan = make_plan(Scheme.N_PLUS_ONE, errors=errors, shots=None, jitter=0.0)
    assert true_expectation_matrix(plan)[0, 0] == pytest.approx(-1.0, abs=1e-12)
    detected = sum(
        max_significance(make_plan(Scheme.N_PLUS_ONE, errors=errors, seed=seed)) >= 10.0
        for seed in SEEDS
    )
    assert detected >= 99, f"only {detected}/100 at >= 10 sigma"
    report(f"PASS criterion 3: large error at exactly -1, detected >= 10 sigma in {detected}/100 seeds")


def test_criterion_04_medium_error_significance():
    # pi/20 offset: truth cos(pi/5), spread of the injected element close
    # to 0.04 at the calibrated jitter, median significance within [2, 8]
    errors = (ErrorInjection(1, 1, np.pi / 20),)
    plan = make_plan(Scheme.N_PLUS_ONE, errors=errors, shots=None, jitter=0.0)
    assert true_expectation_matrix(plan)[0, 0] == pytest.approx(np.cos(np.pi / 5), abs=1e-12)

    injected_values, significances = [], []
    for seed in SEEDS:
        noisy = make_plan(Scheme.N_PLUS_ONE, errors=errors, seed=seed)
        samples = run_experiment(noisy)
        injected_values.extend(m[0, 0] for m in samples)
        stats = delta_statistics(samples)
        significances.append(stats.significance.max())
    spread = float(np.std(injected_values))
    median = float(np.median(significances))
    assert 0.03 <= spread <= 0.05, f"injected-element spread {spread:.4f} not ~0.04"
    assert 2.0 <= median <= 8.0, f"median significance {median:.2f} outside [2, 8]"
    report(
        f"PASS criterion 4: medium error truth {np.cos(np.pi/5):.4f}, spread {spread:.4f}, "
        f"median significance {median:.2f}"
    )


def test_criterion_05_small_error_not_detected():
    # pi/40 offset: truth cos(pi/10) ~ 0.951; at the calibrated noise the
    # deviation stays below 3 sigma in at least 90 of 100 seeds
    errors = (ErrorInjection(1, 1, np.pi / 40),)
    plan = make_plan(Scheme.N_PLUS_ONE, errors=errors, shots=None, jitter=0.0)
    assert true_expectation_matrix(plan)[0, 0] == pytest.approx(np.cos(np.pi / 10), abs=1e-12)
    quiet = sum(
        max_significance(make_plan(Scheme.N_PLUS_ONE, errors=errors, seed=seed)) < 3.0
        for seed in SEEDS
    )
    assert quiet >= 90, f"only {quiet}/100 quiet"
    report(f"PASS criterion 5: small error undetected in {quiet}/100 seeds")


def _analytic_support(scheme, errors=(), perturb=None):
    plan = make_plan(scheme, errors=errors, shots=None, jitter=0.0)
    matrix = true_expectation_matrix(plan)
    if perturb is not None:
        for (r, c), value in perturb.items():
            matrix[r - 1, c - 1] = value
    deviation = partial_determinant(matrix) - np.eye(3)
    return {(r + 1, c + 1) for r in range(3) for c in range(3) if abs(deviation[r, c]) > 1e-6}


def _flagged_set(plan, perturb=None):
    stats = delta_statistics(measured_samples(plan, perturb))
    return {(r, c) for r, c, _ in detect(stats, 3.0).flagged_elements}


def test_criterion_06_localization_patterns():
    # the noisy flagged set (threshold 3, 10 repetitions, counting noise)
    # must equal the support of the analytic deviation in >= 90 of 100
    # seeds, per case
    quarter = np.pi / 4
    cases = {
        "S11 2n": dict(scheme=Scheme.TWO_N, errors=(ErrorInjection(1, 1, quarter),), perturb=None),
        "S22 2n": dict(scheme=Scheme.TWO_N, errors=(ErrorInjection(2, 2, quarter),), perturb=None),
        "S22 n+1": dict(scheme=Scheme.N_PLUS_ONE, errors=(ErrorInjection(2, 2, quarter),), perturb=None),
        # a detector half-wave-plate offset cannot move the (1,2)/(1,3)
        # elements for the horizontal source (the analyser direction sweeps
        # a circle orthogonal to that state), so these correlated errors
        # are injected directly as the modified expectation value 0 -> 1
        "S12 n+1": dict(scheme=Scheme.N_PLUS_ONE, errors=(), perturb={(1, 2): 1.0}),
        "S13 n+1": dict(scheme=Scheme.N_PLUS_ONE, errors=(), perturb={(1, 3): 1.0}),
    }
    expected_patterns = {
        "S11 2n": {(1, 1)},
        "S22 2n": {(2, 2)},
        "S22 n+1": {(1, 1)},
    }
    rates = {}
    for name, case in cases.items():
        support = _analytic_support(case["scheme"], case["errors"], case["perturb"])
        assert support, f"{name}: analytic deviation has empty support"
        if name in expected_patterns:
            assert support == expected_patterns[name], f"{name}: analytic support {support}"
        matches = sum(
            _flagged_set(
                make_plan(case["scheme"], errors=case["errors"], seed=seed, jitter=0.0),
                case["perturb"],
            )
            == support
            for seed in SEEDS
        )
        rates[name] = matches
        assert matches >= 90, f"{name}: flagged set matched analytic support in {matches}/100"
    report(f"PASS criterion 6: localization pattern match rates {rates}")


def test_criterion_07_reconstruction_quality():
    # counting-noise runs: fidelities and POVM relative errors within the
    # required bounds in >= 90 of 100 seeds, per scheme and source
    bounds = {Scheme.N_PLUS_ONE: (0.99, 0.023), Scheme.TWO_N: (0.97, 0.060)}
    rates = {}
    for scheme, (fid_bound, re_bound) in bounds.items():
        for source in SourceKind:
            good = 0
            for seed in SEEDS:
                config = RunConfig(mode="reconstruct", experiment=make_plan(scheme, source, seed=seed, jitter=0.0))
                result = run(config)
                if result.scores is None:
                    continue
                if (
                    min(result.scores.fidelities) > fid_bound
                    and max(result.scores.relative_errors) < re_bound
                ):
                    good += 1
            rates[(scheme.value, source.value)] = good
            assert good >= 90, f"{scheme.value}/{source.value}: only {good}/100 within bounds"
    report(f"PASS criterion 7: reconstruction quality rates {rates}")


def test_criterion_08_loop_bootstrap_noiseless():
    plan = make_plan(shots=None, jitter=0.0)
    matrix = true_expectation_matrix(plan)
    known = theoretical_observables(plan)[:, :3]
    result = loop_bootstrap(matrix, known)
    rows_true = theoretical_states(plan)
    cols_true = theoretical_observables(plan)
    assert result.consistency_residual < 1e-9
    np.testing.assert_allclose(result.prep_stokes, rows_true, atol=1e-9)
    np.testing.assert_allclose(result.obs_vectors, cols_true, atol=1e-9)
    report(
        f"PASS criterion 8: noiseless loop recovers all 12 operators, "
        f"residual {result.consistency_residual:.2e}"
    )


def test_criterion_09_multi_error_candidates():
    # two simultaneous correlated errors: both true locations appear among
    # the candidates in >= 90 of 100 counting-noise seeds
    errors = (ErrorInjection(1, 1, np.pi / 4), ErrorInjection(2, 2, np.pi / 4))
    hits = 0
    for seed in SEEDS:
        plan = make_plan(Scheme.TWO_N, errors=errors, seed=seed, jitter=0.0)
        stats = delta_statistics(run_experiment(plan))
        located = localize(detect(stats, 3.0))
        if (1, 1) in located.candidate_locations and (2, 2) in located.candidate_locations:
            hits += 1
    assert hits >= 90, f"both locations reported in only {hits}/100 seeds"
    report(f"PASS criterion 9: both injected locations reported in {hits}/100 seeds")


def test_criterion_10_determinism(tmp_path):
    config = RunConfig(mode="full", experiment=make_plan(errors=(ErrorInjection(1, 1, np.pi / 20),), seed=7))
    paths_a = write_outputs(run(config), str(tmp_path / "a"))
    paths_b = write_outputs(run(config), str(tmp_path / "b"))
    compared = []
    for kind in sorted(paths_a):
        if kind == "timing":
            continue
        bytes_a = Path(paths_a[kind]).read_bytes()
        bytes_b = Path(paths_b[kind]).read_bytes()
        assert bytes_a == bytes_b, f"{kind} differs between identical runs"
        compared.append(kind)
    report(f"PASS criterion 10: byte-identical outputs for {compared}")
