"""How large must a correlated error be before the test sees it?

A detector half-wave plate rotated by an offset d whenever preparation 1
meets setting 1 moves that expectation value from 1 to cos(4d).  The
sweep below shows the detection significance collapsing as the offset
shrinks: a quarter turn screams, pi/20 sits around 4 sigma, and pi/40
hides inside the noise.
"""

import numpy as np

from spamtomo import (
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    Scheme,
    default_settings,
    delta_statistics,
    embed_n_plus_1,
    run_experiment,
    true_expectation_matrix,
)

print(f"{'offset':>10} {'true S(1,1)':>12} {'median significance over 20 seeds':>35}")
for offset in (np.pi / 4, np.pi / 8, np.pi / 20, np.pi / 40):
    injection = ErrorInjection(1, 1, offset)
    analytic = ExperimentPlan(
        scheme=Scheme.N_PLUS_ONE,
        prep_settings=default_settings("n+1"),
        meas_settings=default_settings("n+1"),
        errors=(injection,),
        noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=0),
    )
    truth = true_expectation_matrix(analytic)[0, 0]

    sigs = []
    for seed in range(20):
        plan = ExperimentPlan(
            scheme=Scheme.N_PLUS_ONE,
            prep_settings=default_settings("n+1"),
            meas_settings=default_settings("n+1"),
            errors=(injection,),
            noise=NoiseModel(seed=seed),
        )
        stack = embed_n_plus_1(run_experiment(plan))
        sigs.append(delta_statistics(stack).significance.max())
    print(f"{offset/np.pi:>9.4f}p {truth:>12.4f} {np.median(sigs):>35.2f}")

print("\n(detection threshold is 3 sigma)")
