"""Per-layer tracing of spamtomo from outside the package.

While a :class:`Tracer` is installed it replaces, in the namespace of the
caller, every function a layer exposes at the boundaries the runner, the
CLI and the benchmark call through.  Each wrapper records a span (root op,
span id, parent id, name, start, end), the calling layer's self time and
the layer's counters, all in memory.  Uninstalling restores the original
functions, so an untraced run executes the package unchanged.

A layer's busy time is the sum of its spans' self time: a span's duration
minus the part covered by its child spans.  ``data_io`` is split into
``data_io.read`` and ``data_io.write``.
"""

import functools
import importlib
import os
import time

from spamtomo.errors import SingularMatrixError


def _count_load(counts, args, result):
    counts["data_io.bytes_read"] += os.path.getsize(args[0])
    counts["data_io.matrices_parsed"] += len(result[0])


def _count_written(path_arg):
    def count(counts, args, result):
        counts["data_io.bytes_written"] += os.path.getsize(args[path_arg])

    return count


def _count_score(counts, args, result):
    counts["reconstruct.vectors_scored"] += len(result.renormalized_flags)
    counts["reconstruct.vectors_renormalized"] += sum(result.renormalized_flags)


def _count_calls(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


def _count_len(key, of_result):
    def count(counts, args, result):
        counts[key] += len(result if of_result else args[0])

    return count


# (module looked up by the caller, attribute, layer, counter hook).  The
# package imports functions by name, so each boundary is patched in the
# namespace of the module that calls through it.
BOUNDARIES = (
    # entry points the benchmark calls
    ("spamtomo", "config_from_dict", "config", None),
    ("spamtomo", "run", "runner", None),
    ("spamtomo.cli", "main", "cli", None),
    # what the CLI calls
    ("spamtomo.cli", "load_config", "config", None),
    ("spamtomo.cli", "run", "runner", None),
    ("spamtomo.cli", "write_outputs", "runner", None),
    # inside config
    ("spamtomo.config", "config_from_dict", "config", None),
    ("spamtomo.config", "RunConfig.plan", "config", _count_calls("config.plan_calls")),
    # what the runner calls
    ("spamtomo.runner", "run_experiment", "optics", _count_len("optics.matrices", of_result=True)),
    ("spamtomo.runner", "theoretical_states", "optics", _count_calls("optics.theory_calls")),
    ("spamtomo.runner", "theoretical_observables", "optics", _count_calls("optics.theory_calls")),
    ("spamtomo.runner", "validate_expectation_matrix", "detect", None),
    ("spamtomo.runner", "embed_n_plus_1", "detect", None),
    ("spamtomo.runner", "delta_statistics", "detect", _count_len("detect.matrices", of_result=False)),
    ("spamtomo.runner", "detect", "detect", None),
    ("spamtomo.runner", "localize", "detect", None),
    ("spamtomo.runner", "loop_bootstrap", "reconstruct", _count_calls("reconstruct.loops")),
    ("spamtomo.runner", "score_reconstruction", "reconstruct", _count_score),
    ("spamtomo.runner", "density_from_stokes", "qubit", _count_calls("qubit.calls")),
    ("spamtomo.runner", "povm_from_observable", "qubit", _count_calls("qubit.calls")),
    ("spamtomo.runner", "load_measurements", "data_io.read", _count_load),
    ("spamtomo.runner", "save_measurements", "data_io.write", _count_written(0)),
    ("spamtomo.runner", "write_report", "data_io.write", _count_written(0)),
    ("spamtomo.runner", "emit_plot_data", "data_io.write", _count_written(1)),
    # what reconstruction scoring calls
    ("spamtomo.reconstruct", "fidelity", "qubit", _count_calls("qubit.calls")),
    ("spamtomo.reconstruct", "povm_element_fidelity", "qubit", _count_calls("qubit.calls")),
    ("spamtomo.reconstruct", "relative_error", "qubit", _count_calls("qubit.calls")),
)

LAYERS = ("cli", "config", "runner", "optics", "detect", "reconstruct", "qubit", "data_io.read", "data_io.write")

COUNTERS = (
    "config.plan_calls",
    "optics.matrices",
    "optics.theory_calls",
    "detect.matrices",
    "detect.singular_rejects",
    "reconstruct.loops",
    "reconstruct.vectors_scored",
    "reconstruct.vectors_renormalized",
    "qubit.calls",
    "data_io.bytes_read",
    "data_io.matrices_parsed",
    "data_io.bytes_written",
)


class Tracer:
    """Spans and counters of one traced window; use as a context manager
    to install the boundary wrappers and remove them afterwards."""

    def __init__(self):
        self.spans = []
        self.busy = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._next_id = 0
        self._patched = []

    def wrap(self, fn, layer, name, count=None):
        """``fn`` recording a span of ``layer`` and, on success, counters."""
        stack, spans, busy, counts = self._stack, self.spans, self.busy, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            root = stack[0][0] if stack else span_id
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SingularMatrixError:
                if layer == "detect":
                    counts["detect.singular_rejects"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                busy[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((root, span_id, parent, name, start, end))
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def __enter__(self):
        for module_name, attribute, layer, count in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, layer, f"{module_name}:{attribute}", count))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)
        return False

    def write_spans(self, path):
        """Write every span as CSV, times in nanoseconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("root,span,parent,name,start_ns,end_ns\n")
            for root, span_id, parent, name, start, end in self.spans:
                handle.write(
                    f"{root},{span_id},{parent},{name},"
                    f"{round((start - origin) * 1e9)},{round((end - origin) * 1e9)}\n"
                )
