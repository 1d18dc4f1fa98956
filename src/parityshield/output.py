"""Deterministic CSV export and minimal SVG line charts.

CSV files carry `#`-prefixed metadata lines (parameters, code version, grid
settings, an overridable run id; never a timestamp), then a header row, then
data rows.  Two runs with the same configuration produce byte-identical
files.  The SVG renderer consumes only a CSV file, so plots can never
disagree with the exported data.
"""

from __future__ import annotations

import csv
import io
import operator
from pathlib import Path

import numpy as np

from .errors import ConfigError

# fixed palette, one entry per fidelity column in schema order
_COLORS = {
    "F_free": "#888888",
    "F_zeno": "#d62728",
    "F_dd": "#1f77b4",
    "F_ddN10": "#2ca02c",
    "F_ddN20": "#9467bd",
}

_CANVAS_W = 800
_CANVAS_H = 500
_MARGIN_L = 70
_MARGIN_R = 160
_MARGIN_T = 30
_MARGIN_B = 50


def write_csv(path: str | Path, metadata: dict[str, str], header: list[str],
              columns: list[list]) -> None:
    """Write metadata comments, a header row, and one data row per index
    of the columns (one list per header name, in header order).

    A column whose first value is a string holds tags, written as they
    are; every other column is written with repr(float(v)), the shortest
    round-trip form, so output is reproducible byte for byte.  Neither
    needs CSV quoting, so only the header goes through csv.writer.
    """
    buf = io.StringIO()
    for key, value in metadata.items():
        buf.write(f"# {key}={value}\n")
    csv.writer(buf, lineterminator="\n").writerow(header)
    cells = [column if column and isinstance(column[0], str)
             else map(repr, map(float, column)) for column in columns]
    buf.writelines(f"{row}\n" for row in map(",".join, zip(*cells)))
    Path(path).write_text(buf.getvalue())


def _table(fh, path, metadata: dict[str, str]):
    """Header and an iterator over the data rows of an open CSV file.

    One csv.reader reads every line but the comments; their `key=value`
    bodies go into metadata as the rows are read.  Empty rows are skipped.
    """
    def lines():
        for line in fh:
            if not line.startswith("#"):
                yield line
                continue
            body = line[1:].strip()
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
    with open(path, newline="") as fh:
        header, rows = _table(fh, path, metadata)
        rows = list(rows)
    return metadata, header, rows


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_svg(csv_path: str | Path, svg_path: str | Path) -> None:
    """Render the fidelity columns of a CSV file as an 800x500 line chart.

    Every column but `segment` is plotted against `t`, so every cell of
    those columns must be a number.
    """
    metadata: dict[str, str] = {}
    with open(csv_path, newline="") as fh:
        header, rows = _table(fh, csv_path, metadata)
        names = [name for name in header if name != "segment"]
        if "t" not in names or len(names) < 2:
            raise ConfigError(
                f"{csv_path} has no plottable time/fidelity columns")
        pick = operator.itemgetter(*map(header.index, names))
        columns: list[list[float]] = [[] for _ in names]
        try:
            for row in rows:
                for column, cell in zip(columns, pick(row)):
                    column.append(float(cell))
        except (ValueError, IndexError) as exc:
            raise ConfigError(
                f"{csv_path} has a missing or non-numeric cell") from exc
    series = {name: np.array(column) for name, column in zip(names, columns)}
    t = series.pop("t")

    x_lo, x_hi = float(t.min()), float(t.max())
    y_lo = float(min(values.min() for values in series.values()))
    y_hi = float(max(values.max() for values in series.values()))
    pad = 0.02 * (y_hi - y_lo) if y_hi > y_lo else 0.05
    y_lo -= pad
    y_hi += pad

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
            f'font-size="14">{title}</text>')

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
    xs = [f"{px:.2f}," for px in sx(t).tolist()]
    for name, values in series.items():
        color = _COLORS.get(name, "#333333")
        pts = " ".join([f"{px}{py:.2f}"
                        for px, py in zip(xs, sy(values).tolist())])
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
    Path(svg_path).write_text("\n".join(parts) + "\n")
