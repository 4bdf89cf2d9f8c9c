"""Reconstructing states and detector POVMs once the data are clean.

Knowing only the observables W1 of settings 1-3, the loop recovers all
six preparations and the remaining three observables in closed form from
one inversion of W1 and the corners A and B, and the unused lower-left
corner C, against the loop's prediction D B^-1 A, grades the
self-consistency of the whole story.
"""

import numpy as np

from spamtomo import (
    ExperimentPlan,
    NoiseModel,
    SourceKind,
    fidelity,
    loop_bootstrap,
    relative_error,
    run_experiment,
    theoretical_observables,
    theoretical_states,
)

np.set_printoptions(precision=4, suppress=True)

plan = ExperimentPlan(noise=NoiseModel(angle_jitter_sigma=0.0, seed=11), repetitions=10)
mean_matrix = np.mean(run_experiment(plan), axis=0)
known = theoretical_observables(plan)[:, :3]

result = loop_bootstrap(mean_matrix, known)
print("consistency residual:", result.consistency_residual)
print("rescaled-to-pure flags (states):", result.prep_renormalized)

# Scores work on the vectors directly: Stokes rows for states, observable
# columns for the detector settings.
true_rows = theoretical_states(plan)
true_cols = theoretical_observables(plan)
fids = fidelity(result.prep_stokes, true_rows)
errors = relative_error(result.obs_vectors.T, true_cols.T)

print(f"\n{'state':>7} {'fidelity':>10}     {'setting':>7} {'relative error':>15}")
for k in range(6):
    line = f"{k + 1:>7} {fids[k]:>10.6f}"
    if k >= 3:
        line += f"     {k + 1:>7} {errors[k]:>15.6f}"
    print(line)

print("\nsame run with the mixed source:")
plan_m = ExperimentPlan(
    source=SourceKind.MIXED, noise=NoiseModel(angle_jitter_sigma=0.0, seed=11), repetitions=10
)
mean_m = np.mean(run_experiment(plan_m), axis=0)
result_m = loop_bootstrap(mean_m, known)
print("state fidelities:", fidelity(result_m.prep_stokes, theoretical_states(plan_m)))
print("residual:", result_m.consistency_residual)
