"""Deterministic CSV export and minimal SVG line charts.

CSV files carry `#`-prefixed metadata lines (parameters, code version, grid
settings, an overridable run id; never a timestamp), then a header row, then
data rows.  Two runs with the same configuration produce byte-identical
files.  The SVG plots the values a CSV holds, read from the file or taken
from the columns just written, which its shortest round-trip cells keep.

Numbers become text a whole column at once: each value is a row of ASCII
bytes in a uint8 matrix, whose 0 bytes are dropped (no text byte is 0),
and the nonzero bytes of the columns side by side, row by row, are the
text (`_joined`).

The polyline coordinates are Python's `'%.2f'` text, made by `_fixed2`:
k = rint(fl(100 v)) is the correctly rounded hundredths count except where
fl(100 v) is exactly a half-integer, since rounding is monotone and every
half-integer below 2**52 is a float.  There the exact sign of 100 v -
fl(100 v) (Dekker's product error) picks the side, and an exact tie keeps
rint's half to even, as `'%.2f'` does.

CSV cells are `repr(float(v))`, the shortest decimal that reads back as v
(Steele & White, PLDI 1990).  For 1e-6 < v < 1e16, `_shortest` finds its
digits by exact float arithmetic:

* P = v 10**s lies in [1e16, 1e17), with 10**s exact (s <= 22).  P is
  taken exactly, as fl(P) plus Dekker's product error, and s is checked
  on that exact P: for v = nextafter(1e-4, 0), fl(v 10**20) is 1e16.
* v's rounding interval, scaled, reaches half the gap to each float
  neighbour: a power of two times 10**s, so exact.
* At most one multiple of 100 (15 significant digits) fits in it, so the
  one nearest P is the answer if it lies within.  Otherwise it is the
  nearer multiple of 10 within (an exact tie to the even one), otherwise
  P rounded half to even, which always lies within.
* Each comparison is exact: P = n + frac with n an int64 and 0 <= frac <
  1, and frac and the fractional parts of the gaps are multiples of
  2**-51, so their sums are floats.
* Whether an interval end counts as inside never matters in this range:
  an end has more binary places than v, hence more decimal places, so
  when an end is a candidate v itself is one as short, at distance 0.
  (From 2**53 on, the ends are odd integers and v is an even one.)

v >= 1e-4 is written in fixed notation and smaller v in exponent form,
both from these digits.  0.0, negatives, v <= 1e-6 (where no exact 10**s
reaches 1e16), v >= 1e16, nan and inf take repr itself, as does every cell
of a table under _KERNEL_ROWS rows, where the numpy calls' fixed cost is
the larger.  The rows go to the file in blocks of _BLOCK_ROWS, which bounds
the memory of the byte matrices.
"""

from __future__ import annotations

import csv
import html
import io
import math
import warnings
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError

# fixed palette, one entry per fidelity column in schema order
_COLORS = {
    "F_free": "#888888",
    "F_zeno": "#d62728",
    "F_dd": "#1f77b4",
    "F_ddN10": "#2ca02c",
    "F_ddN20": "#9467bd",
}
# unlisted series take these in series order, cycling
_SPARE_COLORS = ("#ff7f0e", "#8c564b", "#e377c2", "#bcbd22", "#17becf")

_CANVAS_W = 800
_CANVAS_H = 500
_MARGIN_L = 70
_MARGIN_R = 160
_MARGIN_T = 30
_MARGIN_B = 50


# rows per block of CSV text: bounds the memory of its byte matrices
_BLOCK_ROWS = 8192
# below this many rows, repr per cell beats the numpy kernel's fixed cost
_KERNEL_ROWS = 1000

# 10**s is exact as a float up to s = 22
_POW10 = np.array([float(10 ** s) for s in range(23)])
# "00" to "99" as two-byte codes, stored in the byte order of the text
_PAIRS = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(),
                       np.uint16)
# _SPANS[a, b] keeps bytes a to b - 1 of a 38-byte row of _float_text
_SPANS = ((np.arange(38) >= np.arange(38)[:, None, None])
          & (np.arange(38) < np.arange(39)[:, None]))


def write_csv(path: str | Path, metadata: dict[str, str], header: list[str],
              columns: list) -> None:
    """Write metadata comments, a header row, and one data row per index
    of the columns (one list or array per header name, in header order).

    A column whose first value is a string holds tags, written as they
    are; every other column is written with repr(float(v)), the shortest
    round-trip form, so output is reproducible byte for byte.  Neither
    needs CSV quoting, so only the header goes through csv.writer.  The
    file is UTF-8 whatever the locale, and text decoded with surrogate
    escapes (as argv is) gets its original bytes back.  A
    metadata key or value holding a line break raises ConfigError before
    the file is written: the break would end the comment line.  So do a
    header whose length is not the number of columns and columns of
    unequal length, which would write a misaligned or cut-off table, and
    text that UTF-8 cannot hold, such as a lone surrogate.  The
    rows go to the file in blocks of _BLOCK_ROWS (see the module
    docstring); if a block fails, as on a cell that float() refuses, the
    file is removed.
    """
    for key, value in metadata.items():
        if {"\n", "\r"} & set(f"{key}{value}"):
            raise ConfigError(f"metadata {key!r} holds a line break")
    if len(header) != len(columns):
        raise ConfigError(f"{len(header)} header names for "
                          f"{len(columns)} columns")
    lengths = sorted(set(map(len, columns)))
    if len(lengths) > 1:
        raise ConfigError(f"columns of unequal lengths {lengths}")
    rows = lengths[0] if lengths else 0
    tags = [bool(rows) and isinstance(column[0], str) for column in columns]
    head = io.StringIO()
    head.writelines(f"# {key}={value}\n" for key, value in metadata.items())
    csv.writer(head, lineterminator="\n").writerow(header)
    try:
        with open(path, "wb") as fh:
            fh.write(_utf8(head.getvalue()))
            for start in range(0, rows, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, rows)
                block = [column[start:stop] for column in columns]
                fh.write(_rows_bytes(block, tags, rows >= _KERNEL_ROWS))
    except BaseException:
        # a cell that float() refuses shows only in its block: leave no
        # file cut off after the blocks before it
        Path(path).unlink(missing_ok=True)
        raise


def _rows_bytes(block: list, tags: list[bool], kernel: bool) -> bytes:
    """The CSV rows of a block of columns as UTF-8: from byte matrices if
    kernel, else joined from repr per cell."""
    if not kernel:
        cells = [c if tag else _repr_text(c) for c, tag in zip(block, tags)]
        rows = map(",".join, zip(*cells))
        return _utf8("".join(f"{row}\n" for row in rows))
    tails = [","] * (len(block) - 1) + ["\n"]
    return _joined([(_tag_text if tag else _float_text)(cells, tail)
                    for cells, tag, tail in zip(block, tags, tails)])


def _utf8(text: str) -> bytes:
    """text as UTF-8, argv's surrogate escapes as their bytes; ConfigError
    for any other text that UTF-8 cannot hold."""
    try:
        return text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"text {exc.object[exc.start:exc.end]!r} cannot be "
                          "written as UTF-8") from None


def _repr_text(cells):
    """repr(float(v)) of each cell: the per-cell rule."""
    return map(repr, map(float, cells))


def _tag_text(cells, tail: str) -> np.ndarray:
    """Each tag + tail as a row of UTF-8 bytes, 0-padded: a str array's
    UCS-4 code units are its bytes when all are ASCII, and any other tag
    is encoded one by one."""
    text = np.ascontiguousarray(cells, str)
    units = text.view(np.uint32).reshape(len(text), -1)
    if units.max() >= 128:
        units = np.array([_utf8(cell) for cell in text.tolist()])
        units = units.view(np.uint8).reshape(len(text), -1)
    chars = np.empty((len(text), units.shape[1] + 1), np.uint8)
    chars[:, :-1] = units
    chars[:, -1] = ord(tail)
    return chars


def _float_text(cells, tail: str) -> np.ndarray:
    """repr(float(v)) + tail for each cell, as 0-padded ASCII rows.

    A row is a frame of 16 integer and 20 fraction places around a point
    at byte 16.  One sliding window places a cell's 17 digits from
    _shortest in the frame, and a span mask keeps them from the first
    integer digit (the units digit at least) to the last significant one
    (one fraction digit at least) and zeroes the rest.  Exponent form puts
    the first digit in the units place and writes e-0X over bytes 33 to
    36.  Any other cell is repr's text, left-aligned.  The rows are cut to
    the bytes that some row keeps, and the tail follows.
    """
    values = np.asarray(cells, float)
    n = len(values)
    # float(1e-6) lies below 10**-6, where no exact 10**s reaches 1e16
    kernel = (values > 1e-6) & (values < 1e16)
    sig, exp10 = _shortest(np.where(kernel, values, 1.0))
    digits = _digits(sig, 17)
    sci = exp10 < -4
    lead = np.where(sci, 0, exp10)          # exponent of the first place
    # the window at lead + 4 puts the first digit, byte 19 of pad, at
    # frame place 15 - lead
    pad = np.full((n, 55), ord("0"), np.uint8)
    pad[:, 19:36] = digits
    frame = sliding_window_view(pad, 36, axis=1)[np.arange(n), lead + 4]
    chars = np.empty((n, 38), np.uint8)
    chars[:, :16] = frame[:, :16]
    chars[:, 16] = ord(".")
    chars[:, 17:37] = frame[:, 16:]
    # frame place past the last significant digit, and its byte
    past = 32 - lead - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    start = 15 - np.maximum(lead, 0)
    stop = np.maximum(past + (past > 16), np.where(sci, 16, 18))
    chars *= _SPANS[start, stop]
    lo, hi = start.min(), stop.max()
    if sci_rows := np.flatnonzero(sci).tolist():
        chars[sci_rows, 33:36] = np.frombuffer(b"e-0", np.uint8)
        chars[sci_rows, 36] = ord("0") - exp10[sci_rows]
        hi = 37
    if rest := np.flatnonzero(~kernel).tolist():
        text = np.array(list(_repr_text(cells[i] for i in rest)), "S24")
        chars[rest] = 0
        chars[rest, :24] = text.view(np.uint8).reshape(-1, 24)
        lo, hi = 0, max(hi, 24)
    chars[:, hi] = ord(tail)
    return chars[:, lo:hi + 1]


def _shortest(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """repr's digits of each 1e-6 < v < 1e16, as the int64 of its first 17
    significant digits (zero-padded) and the decimal exponent of the first.

    See the module docstring for the method and why each step is exact.
    """
    s = np.clip(16 - np.floor(np.log10(v)).astype(np.intp), 1, 22)
    p, err = _two_product(v, _POW10[s])
    # log10, and fl(v 10**s) too, can round across a power of ten
    step = (((p < 1e16) | ((p == 1e16) & (err < 0))).view(np.int8)
            - ((p > 1e17) | ((p == 1e17) & (err >= 0))).view(np.int8))
    fix = np.flatnonzero(step)
    if fix.size:
        s[fix] += step[fix]
        p[fix], err[fix] = _two_product(v[fix], _POW10[s[fix]])
    # P = v 10**s = n + frac exactly, with n an int64 and 0 <= frac < 1
    whole = np.floor(err)
    n = p.astype(np.int64) + whole.astype(np.int64)
    frac = err - whole
    # half the gap to each float neighbour, scaled: a power of two times
    # 10**s, so exact; below a power of two the gap is half as wide
    above = 0.5 * np.spacing(v) * _POW10[s]
    below = np.where(v.view(np.int64) & (2 ** 52 - 1) == 0, 0.5 * above, above)

    def within(gap, sign):
        # the candidate n + d (up, sign 1) or n - d (down, sign -1), d an
        # integer, lies within gap of P when d - floor(gap) <= gap -
        # floor(gap) + sign frac: both sides exact
        whole = np.floor(gap)
        bound = gap - whole + sign * frac
        whole = whole.astype(np.int64)
        return lambda d: d - whole <= bound
    down, up = within(below, -1.0), within(above, 1.0)

    r100 = n % 100
    r10 = r100 % 10
    # 15 digits: only the multiple of 100 nearest P can lie within
    up15 = r100 >= 50
    in15 = np.where(up15, up(100 - r100), down(r100))
    # 16 digits: the nearer multiple of 10 that lies within, a tie to even
    lo16, hi16 = down(r10), up(10 - r10)
    nearer_lo = (r10 < 5) | ((r10 == 5) & (frac == 0) & (r100 // 10 % 2 == 0))
    up16 = hi16 & ~(lo16 & nearer_lo)
    # 17 digits: P rounded half to even, always within
    up17 = (frac > 0.5) | ((frac == 0.5) & (r10 % 2 == 1))
    sig = np.where(in15, n - r100 + 100 * up15,
                   np.where(lo16 | hi16, n - r10 + 10 * up16, n + up17))
    # rounding up to 10**17 starts the next decade
    top = sig == 10 ** 17
    sig[top] = 10 ** 16
    return sig, 16 - s + top


def _two_product(a, b):
    """(fl(a b), a b - fl(a b)): Dekker's product with Veltkamp's split
    (2**27 + 1) of each factor, exact while nothing overflows."""
    def split(x):
        c = x * 134217729.0
        hi = c - (c - x)
        return hi, x - hi
    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digits(k: np.ndarray, count: int) -> np.ndarray:
    """The last `count` decimal digits of each integer k >= 0, as rows of
    ASCII, two digits per division."""
    pairs = np.empty((len(k), (count + 1) // 2), np.uint16)
    for col in range(pairs.shape[1] - 1, -1, -1):
        # a floor division and a product: twice as fast as np.divmod
        q = k // 100
        pairs[:, col] = _PAIRS[k - 100 * q]
        k = q
    return pairs.view(np.uint8)[:, count % 2:]


def _joined(pieces: list) -> bytes:
    """The nonzero bytes of the pieces side by side, row by row."""
    chars = np.hstack(pieces)
    return chars[chars != 0].tobytes()


def _table(fh, path, metadata: dict[str, str]):
    """Header and an iterator over the data rows of an open CSV file.

    One csv.reader reads every line but the comments; their `key=value`
    bodies go into metadata as the rows are read, each key stripped and
    each value kept as written.  Empty rows are skipped.
    """
    def lines():
        for line in fh:
            if not line.startswith("#"):
                yield line
                continue
            body = line[1:].rstrip("\r\n")
            if "=" in body:
                key, _, value = body.partition("=")
                metadata[key.strip()] = value
    rows = (cells for cells in csv.reader(lines()) if cells)
    header = next(rows, None)
    if header is None:
        raise ConfigError(f"no header row found in {path}")
    return header, rows


def read_csv(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Inverse of write_csv; values come back as strings."""
    metadata: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        header, rows = _table(fh, path, metadata)
        rows = list(rows)
    return metadata, header, rows


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _fixed2(values: np.ndarray, tail: str) -> np.ndarray:
    """`'%.2f' % v + tail` for each v >= 0 of a column, as ASCII rows.

    Returns a uint8 matrix with one right-aligned row per value, its
    leading zeros set to 0 bytes, so that `_joined([chars])` is the
    concatenated text.  See the module docstring for why the digits equal
    Python's.
    """
    f = 100.0 * values
    k = np.rint(f)
    tie = np.flatnonzero(np.abs(f - k) == 0.5)
    if tie.size:
        err = _two_product(values[tie], 100.0)[1]
        k[tie] = np.rint(f[tie] + 0.25 * np.sign(err))
    k = k.astype(np.int32)
    width = len(str(int(k.max()) // 100))
    digits = _digits(k, width + 2)
    chars = np.empty((len(k), width + 4), np.uint8)
    chars[:, :width] = digits[:, :width]
    chars[:, width] = ord(".")
    chars[:, width + 1:-1] = digits[:, width:]
    chars[:, -1] = ord(tail)
    # the leading zeros of the integer digits, the units digit kept
    zeros = sum((k < 10 ** place for place in range(3, width + 2)),
                np.zeros(len(k), np.uint8))
    chars *= np.arange(width + 4) >= zeros[:, None]
    return chars


def render_svg(source, svg_path: str | Path) -> None:
    """Render the fidelity columns of a table as an 800x500 line chart.

    source is a CSV file, or has the header, columns and metadata that
    write_csv was given (as an EvolutionTrace has), plotted as the file
    write_csv makes of them.  Every column but `segment` is plotted against
    `t`.  A file's metadata and header are read as read_csv reads them; its
    data rows go to one np.loadtxt call.  A duplicate column name, a missing
    or non-finite cell, fewer than two rows, a zero time span or a time or
    padded value span that overflows raise ConfigError, so every coordinate
    lies on the canvas, where _fixed2 writes its text; so does text that
    UTF-8 cannot hold, before the SVG file is opened.
    """
    if hasattr(source, "columns"):
        return _plot("the table", source.metadata, source.header, svg_path,
                     lambda usecols: np.column_stack([np.asarray(
                         source.columns[i], float) for i in usecols]))
    metadata: dict[str, str] = {}
    with open(source, newline="", encoding="utf-8",
              errors="surrogateescape") as fh, warnings.catch_warnings():
        # an empty remainder is refused in _plot, not warned about
        warnings.simplefilter("ignore", UserWarning)
        # the row iterator is lazy, so fh now stands just past the header
        header, _ = _table(fh, source, metadata)
        _plot(source, metadata, header, svg_path, lambda usecols: np.loadtxt(
            fh, delimiter=",", quotechar='"', ndmin=2, usecols=usecols))


def _plot(label, metadata, header, svg_path, load) -> None:
    """render_svg's chart of the rows that load(column indices) gives."""
    names = [name for name in header if name != "segment"]
    # series are keyed by name: of two same-named columns one would go unplotted
    if len(set(header)) < len(header):
        raise ConfigError(f"{label} has a duplicate column name")
    if "t" not in names or len(names) < 2:
        raise ConfigError(f"{label} has no plottable time/fidelity columns")
    try:
        data = load([header.index(name) for name in names])
    except ValueError as exc:
        raise ConfigError(
            f"{label} has a missing or non-numeric cell") from exc
    if len(data) < 2:
        raise ConfigError(f"{label} needs at least two data rows to plot")
    if not np.isfinite(data).all():
        raise ConfigError(f"{label} has a cell that is not a finite number")
    series = dict(zip(names, data.T))
    t = series.pop("t")

    x_lo, x_hi = float(t.min()), float(t.max())
    if x_hi == x_lo:
        raise ConfigError(f"{label} spans no time: every t is {x_lo}")
    if not math.isfinite(x_hi - x_lo):
        raise ConfigError(
            f"{label} spans too long a time to plot: t from {x_lo} "
            f"to {x_hi}")
    y_lo = float(min(values.min() for values in series.values()))
    y_hi = float(max(values.max() for values in series.values()))
    pad = 0.02 * (y_hi - y_lo) if y_hi > y_lo else 0.05
    y_lo -= pad
    y_hi += pad
    if not math.isfinite(y_hi - y_lo):
        raise ConfigError(
            f"{label} spans too wide a value range to plot: padded, "
            f"{y_lo} to {y_hi}")

    plot_w = _CANVAS_W - _MARGIN_L - _MARGIN_R
    plot_h = _CANVAS_H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W}" '
        f'height="{_CANVAS_H}" viewBox="0 0 {_CANVAS_W} {_CANVAS_H}">',
        f'<rect width="{_CANVAS_W}" height="{_CANVAS_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    title = metadata.get("run_id", "")
    if title:
        parts.append(
            f'<text x="{_MARGIN_L}" y="20" font-family="sans-serif" '
            f'font-size="14">{html.escape(title, quote=False)}</text>')

    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 20}" '
            f'font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{xv:g}</text>')
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" '
            f'y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" '
            f'font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>')

    legend_y = _MARGIN_T + 10
    # sx and sy take whole columns: the same operations in the same order
    x_text = _fixed2(sx(t), ",")
    spare = iter(_SPARE_COLORS * len(series))
    for name, values in series.items():
        color = _COLORS.get(name) or next(spare)
        # no space after the last point
        pts = _joined([x_text, _fixed2(sy(values), " ")])[:-1].decode()
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>')
        lx = _CANVAS_W - _MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" '
            f'font-family="sans-serif" font-size="12">{name}</text>')
        legend_y += 18

    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_CANVAS_H - 12}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">'
        't</text>')
    parts.append("</svg>")
    Path(svg_path).write_bytes(_utf8("\n".join(parts) + "\n"))
