"""spamtomo benchmark: three closed-loop workloads, one process, one client thread.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from its
``src/`` directory, not from an installed copy.  The seed generates every
input; the package sees only the generated configs and files.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` times it untraced for the first half of the
window, then installs the boundary wrappers of ``layertrace`` for the
second half and reports the per-layer metrics (per operation) and the
tracing overhead.  Every run checks the workload's correctness gates;
the last line of standard output is a JSON result, and the exit status
is 1 when any gate failed.

Workloads (one operation is one ``spamtomo.run`` or CLI call):

* ``mc_sweep`` - ``config_from_dict`` + ``run`` in mode analyze over 100
  seeds x both schemes x both sources x {no injection, pi/20 at (1,1),
  pi/4 at (1,1)}, default noise, 10 repetitions: the acceptance suite's
  shape.  Simulation (optics) dominates.
* ``long_record`` - ``run`` in mode analyze on measurement CSVs of 2000
  repetitions written at set-up, schemes alternating 2n, n+1, 2n.  CSV
  parsing and the per-matrix partial determinant do all the work; no
  simulation runs.
* ``full_report`` - in-process ``spamtomo.cli.main(["full", ...])`` on
  clean configs (no angle jitter) over 50 seeds x both schemes x both
  sources: the latency a CLI user sees, including reconstruction,
  scoring and every output file.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 15
CLIENT_THREADS = 1

# Input sizes; "tiny" exists for the smoke test only.
SIZES = {
    "full": {"mc_seeds": 100, "record_reps": 2000, "report_seeds": 50},
    "tiny": {"mc_seeds": 2, "record_reps": 40, "report_seeds": 2},
}

SCHEMES = ("2n", "n+1")
SOURCES = ("pure_h", "mixed")
MC_INJECTIONS = (None, "pi/20", "pi/4")
# Acceptance criterion 7: (min fidelity above, max relative error below).
QUALITY_BOUNDS = {"n+1": (0.99, 0.023), "2n": (0.97, 0.060)}
# Long records, schemes alternating: (scheme, source, injection or None).
RECORDS = (
    ("2n", "pure_h", None),
    ("n+1", "mixed", {"prep": 1, "setting": 1, "hwp_offset": "pi/20"}),
    ("2n", "mixed", {"prep": 2, "setting": 2, "hwp_offset": "pi/4"}),
)


def _seeds(rng, n):
    return [rng.randrange(2**32) for _ in range(n)]


def _verdict(report):
    return (report.detection.detected, report.detection.flagged_elements)


def _analyze(spamtomo, raw):
    report = spamtomo.run(spamtomo.config_from_dict(raw))
    return report.exit_code, _verdict(report)


class McSweep:
    """Acceptance-shaped Monte Carlo sweep through ``spamtomo.run``."""

    def __init__(self, spamtomo, rng, size, work):
        self.spamtomo = spamtomo
        self.keys, self.raws = [], []
        for seed in _seeds(rng, size["mc_seeds"]):
            for scheme in SCHEMES:
                for source in SOURCES:
                    for injection in MC_INJECTIONS:
                        raw = {"mode": "analyze", "scheme": scheme, "state": source, "seed": seed}
                        if injection is not None:
                            raw["error_injections"] = [{"prep": 1, "setting": 1, "hwp_offset": injection}]
                        self.keys.append((scheme, source, injection))
                        self.raws.append(raw)
        self.n_inputs = len(self.raws)
        self.cycle = len(SCHEMES) * len(SOURCES) * len(MC_INJECTIONS)

    def op(self, i):
        return _analyze(self.spamtomo, self.raws[i])

    def gates(self, outcomes):
        tally = {}
        for i, (detected, _) in outcomes.items():
            hits = tally.setdefault(self.keys[i], [0, 0])
            hits[0] += detected
            hits[1] += 1
        gates = []
        for scheme in SCHEMES:
            for source in SOURCES:
                detected, total = tally.get((scheme, source, None), (0, 0))
                quiet = (total - detected) / total if total else 0.0
                gates.append((f"null quiet rate {scheme}/{source} >= 0.95", quiet >= 0.95, f"{total - detected}/{total}"))
                detected, total = tally.get((scheme, source, "pi/4"), (0, 0))
                rate = detected / total if total else 0.0
                gates.append((f"pi/4 detection rate {scheme}/{source} >= 0.99", rate >= 0.99, f"{detected}/{total}"))
        return gates


class LongRecord:
    """Analysis of long measured records loaded from CSV."""

    def __init__(self, spamtomo, rng, size, work):
        self.spamtomo = spamtomo
        self.raws, self.expected = [], []
        for k, (scheme, source, injection) in enumerate(RECORDS):
            raw = {"mode": "analyze", "scheme": scheme, "state": source,
                   "seed": rng.randrange(2**32), "repetitions": size["record_reps"]}
            if injection is not None:
                raw["error_injections"] = [injection]
            simulated = spamtomo.run(spamtomo.config_from_dict(raw))
            path = work / f"record_{k}_{scheme.replace('+', 'p')}.csv"
            spamtomo.save_measurements(str(path), simulated.samples, scheme)
            self.expected.append(_verdict(simulated))
            self.raws.append(dict(raw, input_data=str(path)))
        self.n_inputs = self.cycle = len(RECORDS)

    def op(self, i):
        return _analyze(self.spamtomo, self.raws[i])

    def gates(self, outcomes):
        gates = []
        for i, expected in enumerate(self.expected):
            got = outcomes.get(i)
            gates.append((f"record {i + 1} verdict equals the simulated data's", got == expected,
                          f"detected={expected[0]} flagged={len(expected[1])}"))
        return gates


class FullReport:
    """In-process CLI ``full`` runs writing every output file."""

    def __init__(self, spamtomo, rng, size, work):
        self.cli = spamtomo.cli
        self.out = str(work / "out")
        os.mkdir(self.out)
        self.keys, self.argvs = [], []
        configs = work / "configs"
        configs.mkdir()
        for seed in _seeds(rng, size["report_seeds"]):
            for scheme in SCHEMES:
                for source in SOURCES:
                    path = configs / f"{len(self.argvs)}.json"
                    path.write_text(json.dumps(
                        {"mode": "full", "scheme": scheme, "state": source, "seed": seed, "angle_jitter_sigma": 0}
                    ))
                    self.keys.append((scheme, source))
                    self.argvs.append(["full", "--config", str(path), "--out", self.out])
        self.n_inputs = len(self.argvs)
        self.cycle = len(SCHEMES) * len(SOURCES)
        self.report_path = Path(self.out) / "report.json"

    def op(self, i):
        # Each run writes into an emptied directory, as into a fresh results
        # directory.  Rewriting the files in place would make ext4 flush them
        # on close (auto_da_alloc), which times the disk instead of the CLI.
        for entry in os.scandir(self.out):
            os.unlink(entry.path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(self.argvs[i])
        return code, self.report_path.read_bytes()

    def gates(self, outcomes):
        tally = {}
        for i, data in outcomes.items():
            scheme, source = self.keys[i]
            scores = json.loads(data).get("scores")
            fid_bound, err_bound = QUALITY_BOUNDS[scheme]
            good = (scores is not None and min(scores["fidelities"]) > fid_bound
                    and max(scores["relative_errors"]) < err_bound)
            hits = tally.setdefault((scheme, source), [0, 0])
            hits[0] += good
            hits[1] += 1
        gates = []
        for (scheme, source), (good, total) in sorted(tally.items()):
            gates.append((f"reconstruction quality rate {scheme}/{source} >= 0.90", good / total >= 0.90, f"{good}/{total}"))
        return gates


WORKLOAD_TYPES = {"mc_sweep": McSweep, "long_record": LongRecord, "full_report": FullReport}
WORKLOADS = tuple(WORKLOAD_TYPES)


class Outcomes:
    """First outcome of each distinct input, and whether repeats agree
    with it exactly (verdicts, or report bytes for ``full_report``)."""

    def __init__(self):
        self.first = {}
        self.repeats = 0
        self.mismatches = 0

    def record(self, i, outcome):
        if i in self.first:
            self.repeats += 1
            self.mismatches += outcome != self.first[i]
        else:
            self.first[i] = outcome


def measure(workload, outcomes, seconds, boundary, op=None):
    """Closed loop over the workload's inputs for ``seconds``, continued to
    the next multiple of ``boundary`` operations.  Returns per-operation
    latencies, the failure count and the window's elapsed time."""
    op = op or workload.op
    latencies, failed = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    while n == 0 or n % boundary or time.perf_counter() < deadline:
        i = n % workload.n_inputs
        t0 = time.perf_counter()
        try:
            code, result = op(i)
        except Exception:
            t1 = time.perf_counter()
            if not failed:
                traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            t1 = time.perf_counter()
            if code == 1:
                failed += 1
            outcomes.record(i, result)
        latencies.append(t1 - t0)
        n += 1
    return latencies, failed, time.perf_counter() - start


def set_up(spamtomo, name, seed, size, repeats, min_seconds):
    """Build the workload from the seed at least ``repeats`` times and, up
    to ``SETUP_MAX_REPEATS`` times, until ``min_seconds`` were spent;
    returns the last build and the median set-up time.  Each build ends
    with one warm-up cycle of operations."""
    times = []
    while len(times) < repeats or (sum(times) < min_seconds and len(times) < SETUP_MAX_REPEATS):
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        workload = WORKLOAD_TYPES[name](spamtomo, random.Random(seed), size, work)
        for i in range(workload.cycle):
            workload.op(i)
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def per_layer_metrics(tracer, n_ops, overhead_ratio):
    busy = {layer: seconds * 1e3 / n_ops for layer, seconds in tracer.busy.items()}
    counts = tracer.counts

    def per_op(key):
        return counts[key] / n_ops

    def per_matrix_us(layer, key):
        return tracer.busy[layer] * 1e6 / counts[key] if counts[key] else 0.0

    scored = counts["reconstruct.vectors_scored"]
    return {
        "optics.busy_ms": (busy["optics"], "ms"),
        "optics.matrices": (per_op("optics.matrices"), "count"),
        "optics.us_per_matrix": (per_matrix_us("optics", "optics.matrices"), "us"),
        "optics.theory_calls": (per_op("optics.theory_calls"), "count"),
        "detect.busy_ms": (busy["detect"], "ms"),
        "detect.matrices": (per_op("detect.matrices"), "count"),
        "detect.us_per_matrix": (per_matrix_us("detect", "detect.matrices"), "us"),
        "detect.singular_rejects": (per_op("detect.singular_rejects"), "count"),
        "runner.self_ms": (busy["runner"], "ms"),
        "config.plan_calls": (per_op("config.plan_calls"), "count"),
        "config.busy_ms": (busy["config"], "ms"),
        "data_io.read_ms": (busy["data_io.read"], "ms"),
        "data_io.bytes_read": (per_op("data_io.bytes_read"), "bytes"),
        "data_io.matrices_parsed": (per_op("data_io.matrices_parsed"), "count"),
        "data_io.write_ms": (busy["data_io.write"], "ms"),
        "data_io.bytes_written": (per_op("data_io.bytes_written"), "bytes"),
        "reconstruct.busy_ms": (busy["reconstruct"], "ms"),
        "reconstruct.loops": (per_op("reconstruct.loops"), "count"),
        "reconstruct.renormalized_ratio": (counts["reconstruct.vectors_renormalized"] / scored if scored else 0.0, "ratio"),
        "qubit.busy_ms": (busy["qubit"], "ms"),
        "qubit.calls": (per_op("qubit.calls"), "count"),
        "cli.self_ms": (busy["cli"], "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


LAYER_BUSY = ("optics.busy_ms", "detect.busy_ms", "config.busy_ms", "runner.self_ms", "data_io.read_ms",
              "data_io.write_ms", "reconstruct.busy_ms", "qubit.busy_ms", "cli.self_ms")
FULL_REPORT_ONLY = ("reconstruct.busy_ms", "qubit.busy_ms", "data_io.write_ms")


def _share(metrics, names):
    total = sum(metrics[m][0] for m in LAYER_BUSY)
    return sum(metrics[m][0] for m in names) / total if total else 0.0


def _all_zero(metrics, names):
    return all(metrics[m][0] == 0.0 for m in names)


def _all_positive(metrics, names):
    return all(metrics[m][0] > 0.0 for m in names)


# Layer predictions each traced run reports on (see perfbench/README.md).
PREDICTIONS = {
    "mc_sweep": (
        ("optics does most of the layer work", lambda m: _share(m, ("optics.busy_ms",)) > 0.5),
        ("no reconstruct, qubit or data_io work", lambda m: _all_zero(m, FULL_REPORT_ONLY + ("data_io.read_ms",))),
    ),
    "long_record": (
        ("optics does no work", lambda m: _all_zero(m, ("optics.busy_ms",))),
        ("data_io reads and detect do most of the layer work",
         lambda m: _share(m, ("data_io.read_ms", "detect.busy_ms")) > 0.5),
        ("no reconstruct, qubit or data_io write work", lambda m: _all_zero(m, FULL_REPORT_ONLY)),
    ),
    "full_report": (
        ("reconstruct, qubit and data_io writes do work", lambda m: _all_positive(m, FULL_REPORT_ONLY + ("cli.self_ms",))),
        ("no data_io reads", lambda m: _all_zero(m, ("data_io.read_ms",))),
    ),
}


def _machine_facts():
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return (
        f"machine nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} client_threads={CLIENT_THREADS} process_threads={threads} "
        f"OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS', 'unset')} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}"
    )


def run_workload(spamtomo, name, seed, seconds, trace, size):
    if trace:
        workload, setup_s = set_up(spamtomo, name, seed, size, 1, 0.0)
    else:
        workload, setup_s = set_up(spamtomo, name, seed, size, SETUP_REPEATS, SETUP_MIN_SECONDS)
    outcomes = Outcomes()
    n_inputs = workload.n_inputs
    lines = []

    if not trace:
        latencies, failed, elapsed = measure(workload, outcomes, seconds, workload.cycle)
        attempted = len(latencies)
        metrics = {
            "runs_per_s": ((attempted - failed) / elapsed, "1/s"),
            "run_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "run_p90_ms": (_p90(latencies) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        import layertrace

        plain, failed, plain_elapsed = measure(workload, outcomes, seconds / 2, workload.cycle)
        tracer = layertrace.Tracer()
        with tracer:
            traced_op = tracer.wrap(workload.op, "bench", "bench:op")
            traced, traced_failed, traced_elapsed = measure(workload, outcomes, seconds / 2, n_inputs, traced_op)
        overhead = (len(traced) / traced_elapsed) / (len(plain) / plain_elapsed)
        attempted, failed = len(plain) + len(traced), failed + traced_failed
        metrics = per_layer_metrics(tracer, len(traced), overhead)
        spans_path = WORK / name / "spans.csv"
        tracer.write_spans(spans_path)
        lines.append(f"trace {len(tracer.spans)} spans over {len(traced)} operations written to {spans_path}")
        for text, holds in PREDICTIONS[name]:
            lines.append(f"prediction {text}: {'confirmed' if holds(metrics) else 'NOT confirmed'}")

    lines.append(f"operations {attempted}, fail_ratio {failed / attempted} ratio")
    gates = workload.gates(outcomes.first)
    gates.append(("every input was run", len(outcomes.first) == n_inputs, f"{len(outcomes.first)}/{n_inputs}"))
    gates.append(("repeated inputs give identical outputs", outcomes.repeats > 0 and outcomes.mismatches == 0,
                  f"{outcomes.mismatches} mismatches in {outcomes.repeats} repeats"))
    gates.append(("no operation failed", failed == 0, f"{failed}/{attempted}"))
    correct = all(passed for _, passed, _ in gates)
    return correct, attempted, failed, metrics, gates, lines


def run_all(args):
    """Run every workload untraced and traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", trace, "--size", args.size]
            status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "spamtomo" / "__init__.py").is_file():
        print(f"error: no spamtomo sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spamtomo
    import spamtomo.cli

    if Path(spamtomo.__file__).resolve().parent != SRC / "spamtomo":
        print(f"error: imported spamtomo from {spamtomo.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(_machine_facts())
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    correct, attempted, failed, metrics, gates, lines = run_workload(
        spamtomo, args.workload, args.seed, args.seconds, args.trace, SIZES[args.size]
    )
    for line in lines:
        print(line)
    for text, passed, detail in gates:
        print(f"gate {text}: {'pass' if passed else 'FAIL'} ({detail})")
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} = {value} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
