"""Measurement-file and report I/O.

Measurement files carry repeated expectation matrices as CSV blocks:

    # spamtomo-measurements v1 scheme=2n blocks=10
    1.0,0.0, ...        (one row per preparation, full precision)
    ...                 (6 rows for "2n", 4 for "n+1")
                        (blank line between repetition blocks)

Values are written with ``repr`` precision so a save/load round trip is
exact.  The loader recognises this layout on the file's bytes (ASCII
after an optional UTF-8 byte-order mark, every line ending in LF or
every one in CRLF) and has numpy parse the file in chunks, with no
Python string per line; every other file (several blank or
whitespace-only lines between blocks, trailing blank lines, other
control characters or line ends, non-ASCII text) is decoded and read
by a line scan, to the same stack.

Reports are a single standard JSON document with a ``schema`` field
(non-finite numbers as the strings "inf", "-inf" and "nan"), laid out
canonically: sorted keys, two-space indent and one value per line, the
same bytes as ``json.dumps(..., indent=2, sort_keys=True)``.  The numeric
content of the statistics figures (mean, standard deviation and
significance grids) is additionally emitted as labelled CSV for external
plotting.
"""

import codecs
import math
import os
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from .detect import _first_out_of_range
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
    # one matrix's floats at a time, so a long record's extra memory is its text
    rows = [",".join(map(repr, row)) for matrix in stack for row in matrix.tolist()]
    rows[n - 1 :: n] = [row + "\n" for row in rows[n - 1 :: n]]  # a blank line ends each block
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([f"# {MEASUREMENTS_SCHEMA} scheme={scheme.value} blocks={len(stack)}", *rows]))


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


def _parse(source, usecols=None, skiprows=0):
    """The loader's one number parser: bulk conversion and error location,
    of a list of lines or, in numpy's chunked reader, of a file."""
    return np.loadtxt(
        source, dtype=float, delimiter=",", comments=None, usecols=usecols, skiprows=skiprows, encoding="utf-8-sig"
    )


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
            try:
                _parse([line])
            except ValueError:
                # only the row that fails is parsed cell by cell
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


def _text_lines(data):
    """The lines of a measurement file's bytes, as ``str.splitlines`` of
    its UTF-8 text gives them (a leading byte-order mark dropped).  The
    incremental decoder is the one a text-mode read uses, which also
    reads a file of the first one or two bytes of a byte-order mark as
    empty."""
    try:
        return codecs.getincrementaldecoder("utf-8-sig")().decode(data, final=True).splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"measurement file is not UTF-8 text: {exc}") from None


def _line_widths(body):
    """The width of each line of ``body``, a non-empty file's bytes after
    any byte-order mark, if every byte is printable ASCII or a line end
    and the lines all end in LF or all in CRLF (the last one may end the
    file instead); ``None`` for any other file.  Such a file splits into
    lines only at its LFs, for ``splitlines`` and numpy's reader alike."""
    if body.max() > 126:
        return None
    control = np.flatnonzero(body < 32)
    kinds = body[control]
    lf, cr = control[kinds == 10], control[kinds == 13]
    if lf.size + cr.size != control.size or (cr.size and not np.array_equal(cr + 1, lf)):
        return None
    ends = lf if body[-1] == 10 else np.append(lf, body.size)
    widths = np.diff(ends, prepend=-1) - 1
    widths[: lf.size] -= cr.size > 0
    return widths


def _chunked_stack(path, blocks, size):
    """The stack of a file whose bytes were checked to be in the saver's
    layout, parsed by numpy's chunked file reader with no Python string
    per line; ``None`` if that parse fails or finds other than
    ``blocks * size`` rows.  The reader opens the file again, so a file
    that lost or gained rows since the check, or is gone, is left to the
    caller's line scan of the checked bytes.  So is any other failure of
    the parse (a number numpy cannot read, or a name numpy's data source
    opens as a compressed file); the scan reports the file's first
    error."""
    try:
        # a warning fails the parse too: numpy warns of a file left with
        # no rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # an absolute path, which numpy's data source never takes for a URL
            rows = _parse(os.path.abspath(path), skiprows=1)
    except Exception:
        return None
    return rows.reshape(blocks, size, size) if rows.shape == (blocks * size, size) else None


def load_measurements(path):
    """Read a measurement file; returns ``(stack, scheme)`` with ``stack``
    a ``(repetitions, n, n)`` float array.

    The layout :func:`save_measurements` writes (the header, then blocks
    of non-empty rows with exactly one empty line between blocks; ASCII
    after an optional UTF-8 byte-order mark; every line ending in LF, or
    every one in CRLF) is recognised on the file's bytes and parsed by
    numpy's chunked file reader, with no Python string per line.  Every
    other file (runs of blank or whitespace-only lines between blocks,
    trailing blank lines, tabs, other control characters, mixed or bare
    CR line ends, non-ASCII text) is decoded and read by a line scan, to
    the same stack.  Entries are validated to lie within [-1, 1] up to
    ``ATOL_INPUT`` by the range test of ``validate_expectation_matrix``
    (NaN and infinities fail); any malformed row or out-of-range value is
    reported with its block, row and column (all 1-based).  Errors come
    in this order: a missing file, text that is not UTF-8, an empty file,
    the header, then structure and parse errors in file order, then range
    errors.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise DataFormatError(f"measurement file not found: {path}") from None
    body = np.frombuffer(data, np.uint8)[3 if data.startswith(codecs.BOM_UTF8) else 0 :]
    widths = _line_widths(body) if body.size else None
    if widths is None:
        lines = _text_lines(data)
        if not lines:
            raise DataFormatError("empty measurement file")
        header = lines[0]
    else:
        lines = None
        header = body[: widths[0]].tobytes().decode("ascii")
    scheme, declared_blocks = _parse_header(header)
    size = scheme.n_settings

    # The saver's layout: `declared_blocks` groups of `size` rows with an
    # empty line between groups.  An empty line in place of a row leaves
    # the parse a row short, and the line scan reads the file.
    stack = None
    if widths is not None:
        empty = widths[1:] == 0
        if empty.size == declared_blocks * (size + 1) - 1 and empty[size :: size + 1].all():
            stack = _chunked_stack(path, declared_blocks, size)
    if stack is None:
        stack = _scanned_stack((lines or _text_lines(data))[1:], declared_blocks, size)
    index = _first_out_of_range(stack)
    if index is not None:
        b, r, c = index
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
        lines.extend(",".join(map(repr, row)) for row in grid.tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
