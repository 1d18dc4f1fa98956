from __future__ import annotations

import csv
import io

import pytest

import parityshield as ps
from parityshield.output import read_csv, render_svg, write_csv


@pytest.fixture()
def small_table():
    metadata = {"tool": "parityshield", "run_id": "probe", "lam": "2.0"}
    header = ["t", "F_free", "F_dd", "segment"]
    columns = [
        [0.0, 0.5, 1.0],
        [1.0, 0.9, 0.7982309094947353],
        [1.0, 0.99, 0.9971493266340058],
        ["free", "free", "in_pulse"],
    ]
    return metadata, header, columns


def test_csv_round_trip(tmp_path, small_table):
    metadata, header, columns = small_table
    path = tmp_path / "probe.csv"
    write_csv(path, metadata, header, columns)
    meta2, header2, rows2 = read_csv(path)
    assert meta2 == metadata
    assert header2 == header
    rows = list(zip(*columns))
    assert len(rows2) == len(rows)
    for row, row2 in zip(rows, rows2):
        for v, s in zip(row, row2):
            if isinstance(v, str):
                assert s == v
            else:
                assert float(s) == v        # repr round-trips exactly


def test_csv_writes_are_deterministic(tmp_path, small_table):
    metadata, header, columns = small_table
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, metadata, header, columns)
    write_csv(b, metadata, header, columns)
    assert a.read_bytes() == b.read_bytes()


def test_csv_layout(tmp_path, small_table):
    metadata, header, columns = small_table
    path = tmp_path / "probe.csv"
    write_csv(path, metadata, header, columns)
    lines = path.read_text().splitlines()
    comment = [ln for ln in lines if ln.startswith("#")]
    assert comment == [f"# {k}={v}" for k, v in metadata.items()]
    assert lines[len(comment)] == "t,F_free,F_dd,segment"


def test_svg_renders_from_csv_alone(tmp_path, small_table):
    metadata, header, columns = small_table
    csv_path = tmp_path / "probe.csv"
    svg_path = tmp_path / "probe.svg"
    write_csv(csv_path, metadata, header, columns)
    render_svg(csv_path, svg_path)
    text = svg_path.read_text()
    assert text.lstrip().startswith("<svg")
    assert 'width="800"' in text and 'height="500"' in text
    # one polyline per fidelity column, none for t or the segment tags
    assert text.count("<polyline") == 2
    assert "F_free" in text and "F_dd" in text
    assert "probe" in text                      # run id shown as title


def test_svg_deterministic(tmp_path, small_table):
    metadata, header, columns = small_table
    csv_path = tmp_path / "probe.csv"
    write_csv(csv_path, metadata, header, columns)
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    render_svg(csv_path, a)
    render_svg(csv_path, b)
    assert a.read_bytes() == b.read_bytes()


def test_full_trace_round_trip(tmp_path):
    trace = ps.compute_trace(ps.build_scenario("fig2"))
    ps.check_fig2_ordering(trace)
    path = tmp_path / "fig2.csv"
    write_csv(path, trace.metadata, trace.header, trace.columns)
    meta2, header2, rows2 = read_csv(path)
    assert meta2 == trace.metadata
    assert header2 == trace.header
    assert float(rows2[-1][3]) == trace.column("F_dd")[-1]
    render_svg(path, tmp_path / "fig2.svg")
    assert (tmp_path / "fig2.svg").stat().st_size > 1000


# the per-row writer that write_csv replaced, kept as the reference
def _reference_csv(metadata, header, rows) -> str:
    def fmt(v):
        return v if isinstance(v, str) else repr(float(v))

    buf = io.StringIO()
    for key, value in metadata.items():
        buf.write(f"# {key}={value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("make", [
    lambda: ps.compute_trace(ps.build_scenario("fig3")),
    lambda: ps.run_sweep({"tau": "0.1,0.2", "n_duty": "20,10"}),
    lambda: ps.run_sweep({}),
], ids=["fig3", "sweep-int-axis", "empty-sweep"])
def test_csv_matches_per_row_writer(tmp_path, make):
    trace = make()
    path = tmp_path / "t.csv"
    write_csv(path, trace.metadata, trace.header, trace.columns)
    assert path.read_text() == _reference_csv(trace.metadata, trace.header,
                                              trace.rows)


# the per-point renderer that render_svg replaced, kept as the reference
def _reference_svg(csv_path) -> str:
    from parityshield.output import (_CANVAS_H, _CANVAS_W, _COLORS,
                                     _MARGIN_B, _MARGIN_L, _MARGIN_R,
                                     _MARGIN_T, _ticks)
    metadata, header, rows = {}, [], []
    with open(csv_path, newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value
                continue
            cells = next(csv.reader([line]))
            if header:
                rows.append(cells)
            else:
                header = cells
    cols = {name: [float(r[i]) for r in rows]
            for i, name in enumerate(header) if name != "segment"}
    t = cols.pop("t")
    x_lo, x_hi = min(t), max(t)
    y_vals = [v for vs in cols.values() for v in vs]
    y_lo, y_hi = min(y_vals), max(y_vals)
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
    for name, values in cols.items():
        color = _COLORS.get(name, "#333333")
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(t, values))
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
    return "\n".join(parts) + "\n"


def test_svg_matches_per_point_renderer(tmp_path):
    trace = ps.compute_trace(ps.build_scenario("fig3"))
    assert len(trace.column("t")) > 2000 and "segment" in trace.header
    csv_path = tmp_path / "fig3.csv"
    write_csv(csv_path, trace.metadata, trace.header, trace.columns)
    render_svg(csv_path, tmp_path / "fig3.svg")
    assert (tmp_path / "fig3.svg").read_text() == _reference_svg(csv_path)


def test_svg_rejects_non_numeric_cell(tmp_path):
    csv_path = tmp_path / "probe.csv"
    csv_path.write_text("# run_id=probe\nt,F_free,F_dd,segment\n"
                        "0.0,1.0,1.0,free\n0.5,x,0.9,free\n")
    with pytest.raises(ps.ConfigError):
        render_svg(csv_path, tmp_path / "probe.svg")
