"""Measurement-file and report I/O.

Measurement files carry repeated expectation matrices as CSV blocks:

    # spamtomo-measurements v1 scheme=2n blocks=10
    1.0,0.0, ...        (one row per preparation, full precision)
    ...                 (6 rows for "2n", 4 for "n+1")
                        (blank line between repetition blocks)

Values are written with ``repr`` precision so a save/load round trip is
exact.  The loader reads this layout, with LF or CRLF line endings, by
slicing the separators out of the line list; every other valid layout
(several blank or whitespace-only lines between blocks, trailing blank
lines) still loads, through a line scan, to the same stack.

Reports are a single standard JSON document with a ``schema`` field
(non-finite numbers as the strings "inf", "-inf" and "nan"), laid out
canonically: sorted keys, two-space indent and one value per line, the
same bytes as ``json.dumps(..., indent=2, sort_keys=True)``.  The numeric
content of the statistics figures (mean, standard deviation and
significance grids) is additionally emitted as labelled CSV for external
plotting.
"""

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DataFormatError, ShapeError, SpamTomoError
from .optics import Scheme

MEASUREMENTS_SCHEMA = "spamtomo-measurements v1"
REPORT_SCHEMA = "spamtomo-report v7"
PLOTGRID_SCHEMA = "spamtomo-plotgrid v1"


def save_measurements(path, stack, scheme):
    """Write a ``(repetitions, n, n)`` stack of expectation matrices as CSV
    blocks, one per repetition; ``n`` must be the scheme's number of
    settings, so that :func:`load_measurements` reads the file back."""
    scheme = Scheme(scheme)
    stack = np.asarray(stack, dtype=float)
    n = scheme.n_settings
    if stack.ndim != 3 or stack.shape[1:] != (n, n):
        raise ShapeError(f"a scheme {scheme.value} record holds (repetitions, {n}, {n}) stacks, got shape {stack.shape}")
    lines = [f"# {MEASUREMENTS_SCHEMA} scheme={scheme.value} blocks={len(stack)}"]
    for matrix in stack:
        lines.extend(",".join(map(repr, row)) for row in matrix.tolist())
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


def _parse(lines, usecols=None):
    """The loader's one number parser: bulk conversion and error location."""
    return np.loadtxt(lines, dtype=float, delimiter=",", comments=None, usecols=usecols)


def _first_malformed(blocks, size):
    """The first wrong row count, column count or number, in file order."""
    for b, block in enumerate(blocks, start=1):
        if len(block) != size:
            return DataFormatError(
                f"block {b} has {len(block)} rows, expected {size}", block=b
            )
        for r, line in enumerate(block, start=1):
            parts = line.split(",")
            if len(parts) != size:
                return DataFormatError(
                    f"block {b}, row {r} has {len(parts)} columns, expected {size}",
                    block=b, row=r,
                )
            for c, part in enumerate(parts, start=1):
                try:
                    _parse([line], usecols=c - 1)
                except ValueError:
                    return DataFormatError(
                        f"block {b}, row {r}, column {c}: {part!r} is not a number",
                        block=b, row=r, col=c,
                    )
    return DataFormatError("measurement data could not be parsed")


def _scanned_stack(rows, declared_blocks, size):
    """The stack of any layout the format allows, found by a line scan:
    a block is a run of non-blank lines.  Raises the first wrong block
    count, row count, column count or number, in file order."""
    blocks, current = [], []
    for line in rows + [""]:
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

    lines = [line for block in blocks for line in block]
    try:
        # with every block `size` rows long, the reshape fails exactly
        # when some row does not have `size` columns
        stack = _parse(lines).reshape(len(blocks), size, size) if lines else np.empty((0, size, size))
    except ValueError:
        stack = None
    if stack is None or any(len(block) != size for block in blocks):
        raise _first_malformed(blocks, size)
    return stack


def load_measurements(path):
    """Read a measurement file; returns ``(stack, scheme)`` with ``stack``
    a ``(repetitions, n, n)`` float array.

    The layout :func:`save_measurements` writes (one empty line between
    blocks, LF or CRLF line endings) is read by slicing the separators out
    of the line list; every other valid layout (runs of blank or
    whitespace-only lines between blocks, trailing blank lines) is read by
    a line scan, to the same stack.  Entries are validated to lie within
    [-1, 1] (tolerance 1e-9; NaN and infinities fail); any malformed row
    or out-of-range value is reported with its block, row and column (all
    1-based).  Structure and parse errors are reported in file order,
    before any range error.  A leading UTF-8 byte-order mark is ignored.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            raw_lines = handle.read().splitlines()
    except FileNotFoundError:
        raise DataFormatError(f"measurement file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"measurement file is not UTF-8 text: {exc}") from None
    if not raw_lines:
        raise DataFormatError("empty measurement file")
    scheme, declared_blocks = _parse_header(raw_lines[0])
    size = scheme.n_settings

    # The simulator's own layout: `declared_blocks` groups of `size` rows
    # with one empty line between groups.  The parser skips empty lines,
    # so a file with an empty row goes to the line scan unparsed; with
    # none, a whitespace-only or wrong-width row makes the parse or the
    # reshape fail, and every file that fails goes to the line scan,
    # which finds its first error.
    stack = None
    rows = raw_lines[1:]
    if len(rows) == declared_blocks * (size + 1) - 1 and not any(rows[size :: size + 1]):
        del rows[size :: size + 1]
        try:
            stack = _parse(rows).reshape(declared_blocks, size, size) if all(rows) else None
        except ValueError:
            pass
    if stack is None:
        stack = _scanned_stack(raw_lines[1:], declared_blocks, size)
    bad = ~(np.abs(stack) <= 1.0 + 1e-9)
    if bad.any():
        b, r, c = np.argwhere(bad)[0]
        raise DataFormatError(
            f"block {b + 1}, row {r + 1}, column {c + 1}: value {stack[b, r, c]} outside [-1, 1]",
            block=b + 1, row=r + 1, col=c + 1,
        )
    return stack, scheme


def _json_text(obj, indent):
    """The JSON text of ``obj`` as it appears in a line that starts with
    ``indent`` (a line break and that line's indentation)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return text if math.isfinite(obj) else f'"{text}"'  # "inf", "-inf" or "nan"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        # A row of finite floats, such as each innermost row of a finite
        # float array, is written in one join; a sum that is not finite
        # means some item is not.
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            items = map(float.__repr__, obj)
        else:
            items = [_json_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        # encode_basestring_ascii raises TypeError for a key that is not a string
        items = [encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), indent)
    if isinstance(obj, (np.integer, np.floating)):
        return _json_text(obj.item(), indent)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_report(path, report_dict):
    """Serialize a report dictionary as canonical standard JSON: sorted
    keys, two-space indent, one value per line and ASCII only, the bytes
    ``json.dumps(..., sort_keys=True, indent=2)`` writes for the same
    values.  Numpy arrays and scalars are written as lists and numbers,
    and non-finite numbers as the strings "inf", "-inf" and "nan".  A key
    that is not a string, or a value JSON cannot represent, raises
    ``TypeError``."""
    text = _json_text(report_dict, "\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


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
