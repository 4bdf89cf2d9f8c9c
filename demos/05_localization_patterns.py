"""Where a correlated error shows up in the partial determinant.

With six settings the deviation pattern names the corrupted element: an
error at (1,1) lights up element (1,1), an error at (2,2) lights up
(2,2).  With four settings every matrix has
Delta - 1 = -(det S / det D) A^-1 e1 e1^T, so only column 1 deviates, by
one scalar: the error is seen but not located.
"""

import numpy as np

from spamtomo import (
    ErrorInjection,
    ExperimentPlan,
    NoiseModel,
    Scheme,
    default_settings,
    localize,
    delta_statistics,
    detect,
    partial_determinant,
    run_experiment,
    true_expectation_matrix,
)

np.set_printoptions(precision=4, suppress=True)


def analytic_patterns(scheme, locations):
    """Noiseless partial-determinant deviation for a quarter-turn error at
    each location, evaluated as one stack."""
    matrices = np.array([
        true_expectation_matrix(
            ExperimentPlan(
                scheme=scheme,
                prep_settings=default_settings(scheme),
                meas_settings=default_settings(scheme),
                errors=(ErrorInjection(a, i, np.pi / 4),),
                noise=NoiseModel(shots_per_setting=None, angle_jitter_sigma=0.0, seed=0),
            )
        )
        for a, i in locations
    ])
    return partial_determinant(matrices) - np.eye(3)


locations = ((1, 1), (2, 2))
for scheme in (Scheme.TWO_N, Scheme.N_PLUS_ONE):
    for location, pattern in zip(locations, analytic_patterns(scheme, locations)):
        print(f"-- error at {location}, scheme {scheme.value} --")
        print(pattern)
        print()

print("-- noisy run with the (2,2) error, six settings: localization --")
plan = ExperimentPlan(errors=(ErrorInjection(2, 2, np.pi / 4),), noise=NoiseModel(seed=5))
stats = delta_statistics(run_experiment(plan))
outcome = localize(detect(stats, 3.0))
print("flagged elements:", [(r, c) for r, c, _ in outcome.flagged_elements])
print("candidate (preparation, setting) pairs:", outcome.candidate_locations)
print("note:", outcome.note)
