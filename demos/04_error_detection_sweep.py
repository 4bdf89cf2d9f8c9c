"""How large must a correlated error be before the test sees it?

A detector half-wave plate rotated by an offset d whenever preparation 1
meets setting 1 moves that expectation value from 1 to cos(4d).  The
sweep below prints the median detection significance at four offsets:
a quarter turn screams, pi/20 sits around 4 sigma, and pi/40 hides
inside the noise.  The pi/8 error is missed, although it moves S(1,1)
from 1 to 0: at S(1,1) = 0 the upper-left corner A is near singular,
and with it the partial determinant, so one repetition's Delta swamps
the spread and the median significance falls to about 0.4.
"""

import numpy as np

from spamtomo import (
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    Scheme,
    default_settings,
    delta_statistics,
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
        sigs.append(delta_statistics(run_experiment(plan)).significance.max())
    print(f"{offset/np.pi:>9.4f}p {truth:>12.4f} {np.median(sigs):>35.2f}")

print("\n(detection threshold is 3 sigma)")
