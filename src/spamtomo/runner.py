"""End-to-end orchestration: simulate or load data, test for correlated
errors, localize them, and reconstruct states/POVMs when the data are
clean.

Exit-status convention for pipelines: 0 means no correlation was found,
2 means a correlated error was detected, and 1 means the run itself
failed.  Reports are written as canonical JSON so that identical
configurations produce byte-identical report files; wall-clock timing
goes to a sidecar file for that reason.
"""

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .data_io import (
    REPORT_SCHEMA,
    emit_plot_data,
    load_measurements,
    save_measurements,
    write_report,
)
from .detect import delta_statistics, detect, localize
from .errors import ConfigError
from .optics import run_experiment, theoretical_observables, theoretical_states
# Not called here; perfbench/layertrace.py still traces these four names.
# load_measurements range-checks a record as validate_expectation_matrix
# would, with the same tolerance, so the runner does not repeat it.
from .detect import embed_n_plus_1, validate_expectation_matrix  # noqa: F401
from .qubit import density_from_stokes, povm_from_observable  # noqa: F401
from .reconstruct import loop_bootstrap, score_reconstruction

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_DETECTED = 2


@dataclass
class RunReport:
    """Everything a run produced, ready for serialization.  ``samples`` is
    the measured ``(R, n, n)`` stack; the report names it, not echoes it."""

    config: RunConfig
    samples: np.ndarray
    stats: object = None
    detection: object = None
    reconstruction: object = None
    scores: object = None
    exit_code: int = EXIT_CLEAN
    wall_clock_seconds: float = 0.0

    def to_dict(self):
        """Deterministic report dictionary (wall clock deliberately
        excluded; it goes to the timing sidecar).  ``samples`` is the
        record's repetition count, matrix size and the SHA-256 digest of
        its little-endian float64 bytes in C order.  The result sections
        hold the results' values as they are (tuples, numpy arrays, the
        ``Scheme`` member), which ``write_report`` writes as JSON lists
        and strings."""
        plan = self.config.experiment
        report = {
            "schema": REPORT_SCHEMA,
            "config": self.config.to_dict(),
            "scheme": plan.scheme.value,
            "threshold": self.config.detection_threshold,
            "seed": plan.noise.seed,
            "samples": {
                "repetitions": len(self.samples),
                "size": self.samples.shape[-1],
                "sha256": hashlib.sha256(np.ascontiguousarray(self.samples, dtype="<f8").tobytes()).hexdigest(),
            },
            "exit_code": self.exit_code,
        }
        # each section is its result's own fields, so a field added to a
        # result reaches the report; the statistics leave out their
        # scheme, which is the run's top-level "scheme"
        sections = (
            ("delta_stats", self.stats),
            ("detection", self.detection),
            ("reconstruction", self.reconstruction),
            ("scores", self.scores),
        )
        for key, result in sections:
            if result is not None:
                report[key] = dict(vars(result))
        if self.stats is not None:
            del report["delta_stats"]["scheme"]
        if self.reconstruction is not None:
            n = len(self.reconstruction.prep_stokes)
            report["reconstruction"]["scored_states"] = list(range(1, n + 1))
            report["reconstruction"]["scored_povms"] = list(range(4, n + 1))
        return report


def _obtain_samples(config, plan):
    """Measured ``(R, n, n)`` stack for the run: loaded from file when a
    data path is configured, simulated from the plan otherwise."""
    if config.input_data_path is not None:
        stack, scheme = load_measurements(config.input_data_path)
        if scheme != plan.scheme:
            raise ConfigError(
                f"data file uses scheme {scheme.value} but the run's scheme is {plan.scheme.value}; "
                f'set the run\'s scheme to the file\'s (config key "scheme": "{scheme.value}" '
                f"or --scheme {scheme.value})",
                field="scheme",
            )
        return stack
    return run_experiment(plan)


def _known_observables(config, true_obs):
    """Observable columns of settings 1-3 used as the known side of the
    loop: taken from the configuration when supplied, otherwise the
    nominal predictions ``true_obs``."""
    if config.known_povms is not None:
        return np.asarray(config.known_povms, dtype=float).T
    return true_obs[:, :3]


def _reconstruct_and_score(config, plan, samples):
    true_obs = theoretical_observables(plan)
    loop = loop_bootstrap(np.mean(samples, axis=0), _known_observables(config, true_obs))
    # the loop's rows are preparations 1..n; its columns 4..n are the
    # settings it reconstructs (1-3 echo the known inputs)
    scores = score_reconstruction(
        loop.prep_stokes,
        theoretical_states(plan),
        loop.obs_vectors[:, 3:].T,
        true_obs[:, 3:].T,
        np.concatenate([loop.prep_renormalized, loop.obs_renormalized[3:]]),
    )
    return loop, scores


def run(config):
    """Execute a configured run and return its :class:`RunReport`.

    ``simulate`` stops after producing samples; ``analyze`` adds the
    partial-determinant statistics, detection and localization;
    ``reconstruct`` and ``full`` additionally run the tomography loop and
    score it against the nominal predictions when no correlated error was
    detected.
    """
    start = time.monotonic()
    # The plan drives the simulation and is the scoring reference; loaded
    # data must have been measured in its scheme.
    plan = config.plan()
    samples = _obtain_samples(config, plan)
    report = RunReport(config=config, samples=samples)

    if config.mode != "simulate":
        stats = delta_statistics(samples)
        detection = localize(detect(stats, config.detection_threshold))
        report.stats = stats
        report.detection = detection
        report.exit_code = EXIT_DETECTED if detection.detected else EXIT_CLEAN

        if config.mode in ("reconstruct", "full") and not detection.detected:
            report.reconstruction, report.scores = _reconstruct_and_score(config, plan, samples)

    report.wall_clock_seconds = time.monotonic() - start
    return report


def write_outputs(report, out_dir=None):
    """Write the report, measurement dump, plot grids and timing sidecar.

    Returns the paths written, keyed by kind.  Everything except the
    timing sidecar is byte-deterministic for a fixed configuration.  An
    output file left by an earlier run is removed, not rewritten in
    place: on ext4 (``auto_da_alloc``) closing a truncated and rewritten
    file waits for its data to reach the disk, and a hard link to the old
    file keeps the old contents.
    """
    config = report.config
    out_dir = out_dir if out_dir is not None else config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def new_file(kind, name):
        path = paths[kind] = os.path.join(out_dir, name)
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        return path

    payload = report.to_dict()
    write_report(new_file("report", "report.json"), payload)
    if config.mode in ("simulate", "full"):
        save_measurements(new_file("measurements", "measurements.csv"), report.samples, config.experiment.scheme)
    if report.stats is not None:
        emit_plot_data(payload, new_file("plot_grids", "plot_grids.csv"))
    with open(new_file("timing", "timing.txt"), "w", encoding="utf-8") as handle:
        handle.write(f"wall_clock_seconds={report.wall_clock_seconds:.6f}\n")
    return paths
