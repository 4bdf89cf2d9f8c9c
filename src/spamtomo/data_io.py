"""Measurement-file and report I/O.

Measurement files carry repeated expectation matrices as CSV blocks:

    # spamtomo-measurements v1 scheme=2n blocks=10
    1.0,0.0, ...        (one row per preparation, full precision)
    ...                 (6 rows for "2n", 4 for "n+1")
                        (blank line between repetition blocks)

Values are written with ``repr`` precision so a save/load round trip is
exact.  Reports are a single JSON document with a ``schema`` field; the
numeric content of the statistics figures (mean, standard deviation and
significance grids) is additionally emitted as labelled CSV for external
plotting.
"""

import json

import numpy as np

from .detect import validate_expectation_matrix
from .errors import DataFormatError, SpamTomoError
from .optics import Scheme

MEASUREMENTS_SCHEMA = "spamtomo-measurements v1"
REPORT_SCHEMA = "spamtomo-report v1"
PLOTGRID_SCHEMA = "spamtomo-plotgrid v1"


def save_measurements(path, matrices, scheme):
    """Write expectation matrices as CSV blocks, one per repetition."""
    scheme = Scheme(scheme)
    matrices = [np.asarray(m, dtype=float) for m in matrices]
    lines = [f"# {MEASUREMENTS_SCHEMA} scheme={scheme.value} blocks={len(matrices)}"]
    for matrix in matrices:
        for row in matrix:
            lines.append(",".join(repr(float(v)) for v in row))
        lines.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def _parse_header(line):
    if not line.startswith("#"):
        raise DataFormatError("missing header line (expected '# spamtomo-measurements v1 ...')")
    fields = dict(
        part.split("=", 1) for part in line.lstrip("#").split() if "=" in part
    )
    if "scheme" not in fields or "blocks" not in fields:
        raise DataFormatError(f"header must declare scheme and blocks, got: {line!r}")
    try:
        scheme = Scheme(fields["scheme"])
    except ValueError:
        raise DataFormatError(f"unknown scheme {fields['scheme']!r} in header") from None
    try:
        blocks = int(fields["blocks"])
    except ValueError:
        raise DataFormatError(f"block count {fields['blocks']!r} is not an integer") from None
    return scheme, blocks


def load_measurements(path):
    """Read a measurement file; returns ``(matrices, scheme)``.

    Entries are validated to lie within [-1, 1] (tolerance 1e-9; NaN and
    infinities fail); any malformed row or out-of-range value is reported
    with its block, row and column (all 1-based).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
    except FileNotFoundError:
        raise DataFormatError(f"measurement file not found: {path}") from None
    if not raw_lines:
        raise DataFormatError("empty measurement file")
    scheme, declared_blocks = _parse_header(raw_lines[0])
    size = scheme.n_settings

    blocks, current = [], []
    for line in raw_lines[1:] + [""]:
        if line.strip() == "":
            if current:
                blocks.append(current)
                current = []
            continue
        current.append(line)

    if len(blocks) != declared_blocks:
        raise DataFormatError(
            f"header declares {declared_blocks} blocks but file contains {len(blocks)}"
        )

    matrices = []
    for b, block in enumerate(blocks, start=1):
        if len(block) != size:
            raise DataFormatError(
                f"block {b} has {len(block)} rows, expected {size}", block=b
            )
        rows = []
        for r, line in enumerate(block, start=1):
            parts = line.split(",")
            if len(parts) != size:
                raise DataFormatError(
                    f"block {b}, row {r} has {len(parts)} columns, expected {size}",
                    block=b, row=r,
                )
            values = []
            for c, part in enumerate(parts, start=1):
                try:
                    value = float(part)
                except ValueError:
                    raise DataFormatError(
                        f"block {b}, row {r}, column {c}: {part!r} is not a number",
                        block=b, row=r, col=c,
                    ) from None
                if not abs(value) <= 1.0 + 1e-9:
                    raise DataFormatError(
                        f"block {b}, row {r}, column {c}: value {value} outside [-1, 1]",
                        block=b, row=r, col=c,
                    )
                values.append(value)
            rows.append(values)
        matrices.append(validate_expectation_matrix(np.array(rows)))
    return matrices, scheme


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def write_report(path, report_dict):
    """Serialize a report dictionary as canonical JSON (sorted keys)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonify(report_dict), handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def emit_plot_data(report, path):
    """Write the statistics grids (mean, std, significance) as CSV.

    ``report`` is a report dictionary (see :func:`spamtomo.runner.run`);
    it must contain delta statistics.  The output carries a metadata
    header followed by three labelled 3x3 grids.
    """
    stats = report.get("delta_stats") if isinstance(report, dict) else None
    if not stats:
        raise SpamTomoError("report carries no delta statistics to plot")
    lines = [
        f"# {PLOTGRID_SCHEMA} scheme={report.get('scheme', '?')} "
        f"repetitions={stats.get('repetitions', '?')} threshold={report.get('threshold', '?')}"
    ]
    for name in ("mean", "std", "significance"):
        grid = np.asarray(stats[name], dtype=float)
        lines.append(f"# grid={name}")
        for row in grid:
            lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
