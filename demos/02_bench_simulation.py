"""Tour of the simulated polarization bench.

Shows which states and observables the six default wave-plate settings
produce, the noiseless expectation matrix they generate, and what the
two noise knobs (counting noise and angle jitter) do to it.
"""

import numpy as np

from spamtomo import (
    ExperimentPlan,
    NoiseModel,
    SourceKind,
    default_settings,
    run_experiment,
    theoretical_observables,
    theoretical_states,
    true_expectation_matrix,
)

np.set_printoptions(precision=4, suppress=True)

print("-- default settings (angles in units of pi) --")
nominal = ExperimentPlan(source=SourceKind.PURE_H)
states, observables = theoretical_states(nominal), theoretical_observables(nominal).T
for k, (setting, s, w) in enumerate(zip(default_settings("2n"), states, observables), start=1):
    print(
        f"setting {k}: qwp={setting.qwp_angle/np.pi:.4f}pi hwp={setting.hwp_angle/np.pi:.4f}pi"
        f"   prep s={s}   meas w={w}"
    )

print()
print("-- noiseless expectation matrix (horizontal source) --")
plan = ExperimentPlan(noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=0))
print(true_expectation_matrix(plan))

print()
print("-- one repetition with 10^4 photons per setting --")
noisy = ExperimentPlan(noise=NoiseModel(seed=7), repetitions=1)
print(run_experiment(noisy)[0])

print()
print("-- element spread across 10 repetitions (counting noise only) --")
shots_only = ExperimentPlan(
    noise=NoiseModel(angle_jitter_sigma=0.0, seed=7), repetitions=10
)
stack = run_experiment(shots_only)
print("per-element std:\n", stack.std(axis=0, ddof=1))
print("binomial bound 1/sqrt(shots) =", 1 / np.sqrt(10_000))
