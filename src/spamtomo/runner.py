"""End-to-end orchestration: simulate or load data, test for correlated
errors, localize them, and reconstruct states/POVMs when the data are
clean.

Exit-status convention for pipelines: 0 means no correlation was found,
2 means a correlated error was detected, and 1 means the run itself
failed.  Reports are written as canonical JSON so that identical
configurations produce byte-identical report files; wall-clock timing
goes to a sidecar file for that reason.
"""

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
from .detect import (
    delta_statistics,
    detect,
    embed_n_plus_1,
    localize,
    validate_expectation_matrix,
)
from .errors import ConfigError
from .optics import Scheme, run_experiment, theoretical_observables, theoretical_states
from .qubit import density_from_stokes, povm_from_observable
from .reconstruct import loop_bootstrap, score_reconstruction

EXIT_CLEAN = 0
EXIT_ERROR = 1
EXIT_DETECTED = 2


def _scored_operators(scheme):
    """Loop rows and columns scored against the plan.

    Rows: the first row of each distinct preparation in the embedded
    matrix.  Columns: the three observables the loop reconstructs (columns
    1-3 echo the known inputs).  ``scheme.embed_index`` maps both to the
    0-based preparation and setting they hold.
    """
    index = scheme.embed_index
    return tuple(r for r, p in enumerate(index) if p not in index[:r]), (3, 4, 5)


@dataclass
class RunReport:
    """Everything a run produced, ready for serialization."""

    config: RunConfig
    samples: list
    stats: object = None
    detection: object = None
    reconstruction: object = None
    scores: object = None
    exit_code: int = EXIT_CLEAN
    wall_clock_seconds: float = 0.0

    def to_dict(self):
        """Deterministic report dictionary (wall clock deliberately
        excluded; it goes to the timing sidecar)."""
        report = {
            "schema": REPORT_SCHEMA,
            "config": self.config.to_dict(),
            "scheme": self.config.scheme.value,
            "threshold": self.config.detection_threshold,
            "seed": self.config.seed,
            "samples": [np.asarray(m).tolist() for m in self.samples],
            "exit_code": self.exit_code,
        }
        if self.stats is not None:
            report["delta_stats"] = {
                "mean": self.stats.mean,
                "std": self.stats.std,
                "significance": self.stats.significance,
                "repetitions": self.stats.repetitions,
            }
        if self.detection is not None:
            report["detection"] = {
                "detected": self.detection.detected,
                "threshold": self.detection.threshold,
                "flagged_elements": list(self.detection.flagged_elements),
                "candidate_locations": list(self.detection.candidate_locations),
                "scheme": self.detection.scheme.value,
                "note": self.detection.note,
            }
        if self.reconstruction is not None:
            index = self.config.scheme.embed_index
            rows, cols = _scored_operators(self.config.scheme)
            report["reconstruction"] = {
                "prep_stokes": self.reconstruction.prep_stokes,
                "obs_vectors": self.reconstruction.obs_vectors,
                "prep_renormalized": self.reconstruction.prep_renormalized.tolist(),
                "obs_renormalized": self.reconstruction.obs_renormalized.tolist(),
                "consistency_residual": self.reconstruction.consistency_residual,
                "scored_states": [index[r] + 1 for r in rows],
                "scored_povms": [index[c] + 1 for c in cols],
            }
        if self.scores is not None:
            report["scores"] = {
                "fidelities": list(self.scores.fidelities),
                "relative_errors": list(self.scores.relative_errors),
                "renormalized_flags": list(self.scores.renormalized_flags),
            }
        return report


def _obtain_samples(config, plan):
    """Measured matrices for the run: loaded from file when a data path is
    configured, simulated from the plan otherwise."""
    if config.input_data_path is not None:
        matrices, scheme = load_measurements(config.input_data_path)
        if scheme != config.scheme:
            raise ConfigError(
                f"data file uses scheme {scheme.value} but the configuration says "
                f"{config.scheme.value}",
                field="scheme",
            )
        return [validate_expectation_matrix(m) for m in matrices]
    return run_experiment(plan)


def _known_observables(config, true_obs):
    """Observable columns of settings 1-3 used as the known side of the
    loop: taken from the configuration when supplied, otherwise the
    nominal predictions ``true_obs``."""
    if config.known_povms is not None:
        return np.asarray(config.known_povms, dtype=float).T
    return true_obs[:, :3]


def _reconstruct_and_score(config, plan, embedded):
    true_obs = theoretical_observables(plan)
    loop = loop_bootstrap(np.mean(embedded, axis=0), _known_observables(config, true_obs))
    true_states = theoretical_states(plan)
    index = config.scheme.embed_index
    rows, cols = _scored_operators(config.scheme)

    rec_states = [density_from_stokes(loop.prep_stokes[r]) for r in rows]
    ref_states = [true_states[index[r]] for r in rows]
    rec_povms = [povm_from_observable(loop.obs_vectors[:, c]).e for c in cols]
    ref_povms = [povm_from_observable(true_obs[:, index[c]]).e for c in cols]

    flags = [bool(loop.prep_renormalized[r]) for r in rows]
    flags += [bool(loop.obs_renormalized[c]) for c in cols]
    scores = score_reconstruction(rec_states, ref_states, rec_povms, ref_povms, flags)
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
    # One plan drives the simulation and is the scoring reference; loaded
    # data needs it only for scoring.
    plan = config.plan() if config.input_data_path is None else None
    samples = _obtain_samples(config, plan)
    report = RunReport(config=config, samples=samples)

    if config.mode != "simulate":
        embedded = np.array(samples)
        if config.scheme is Scheme.N_PLUS_ONE:
            embedded = embed_n_plus_1(embedded)
        stats = delta_statistics(embedded)
        detection = localize(
            detect(stats, config.detection_threshold, config.scheme)
        )
        report.stats = stats
        report.detection = detection
        report.exit_code = EXIT_DETECTED if detection.detected else EXIT_CLEAN

        if config.mode in ("reconstruct", "full") and not detection.detected:
            report.reconstruction, report.scores = _reconstruct_and_score(
                config, plan or config.plan(), embedded
            )

    report.wall_clock_seconds = time.monotonic() - start
    return report


def write_outputs(report, out_dir=None):
    """Write the report, measurement dump, plot grids and timing sidecar.

    Returns the paths written, keyed by kind.  Everything except the
    timing sidecar is byte-deterministic for a fixed configuration.
    """
    config = report.config
    out_dir = out_dir if out_dir is not None else config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    payload = report.to_dict()
    report_path = os.path.join(out_dir, "report.json")
    write_report(report_path, payload)
    paths["report"] = report_path

    if config.mode in ("simulate", "full"):
        data_path = os.path.join(out_dir, "measurements.csv")
        save_measurements(data_path, report.samples, config.scheme)
        paths["measurements"] = data_path

    if report.stats is not None:
        grid_path = os.path.join(out_dir, "plot_grids.csv")
        emit_plot_data(payload, grid_path)
        paths["plot_grids"] = grid_path

    timing_path = os.path.join(out_dir, "timing.txt")
    with open(timing_path, "w", encoding="utf-8") as handle:
        handle.write(f"wall_clock_seconds={report.wall_clock_seconds:.6f}\n")
    paths["timing"] = timing_path
    return paths
