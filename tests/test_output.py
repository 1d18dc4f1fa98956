from __future__ import annotations

import csv
import io
import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import parityshield as ps
from parityshield.cli import main
from parityshield.output import (_KERNEL_ROWS, _fixed2, _float_text, _joined,
                                 _tag_text, read_csv, render_svg, write_csv)


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


@pytest.mark.parametrize("key, value", [
    ("run_id", "a\nb"), ("run_id", "a\rb"), ("note\nx", "1"),
], ids=["value-lf", "value-cr", "key-lf"])
def test_csv_refuses_line_break_in_metadata(tmp_path, small_table, key,
                                            value):
    metadata, header, columns = small_table
    path = tmp_path / "probe.csv"
    with pytest.raises(ps.ConfigError) as err:
        write_csv(path, {**metadata, key: value}, header, columns)
    assert repr(key) in str(err.value)
    assert not path.exists()


@pytest.mark.parametrize("bad", [None, "x"], ids=["none", "text"])
def test_csv_leaves_no_partial_file(tmp_path, bad):
    # the bad cell sits in the second block of rows, after the first is
    # written
    column = [0.5] * 20000
    column[15000] = bad
    path = tmp_path / "probe.csv"
    with pytest.raises((TypeError, ValueError)):
        write_csv(path, {"run_id": "probe"}, ["t"], [column])
    assert not path.exists()


@pytest.mark.parametrize("where", ["metadata", "header", "tag", "tag-long"])
def test_csv_refuses_text_utf8_cannot_hold(tmp_path, where):
    # a lone surrogate that no byte of argv decodes to raised a raw
    # UnicodeEncodeError
    rows = _KERNEL_ROWS if where == "tag-long" else 2
    metadata, header = {"run_id": "probe"}, ["t", "segment"]
    columns = [[0.5] * rows, ["free"] * rows]
    if where == "metadata":
        metadata["run_id"] = "\ud800"
    elif where == "header":
        header[1] = "\ud800"
    else:
        columns[1][-1] = "\ud800"
    path = tmp_path / "probe.csv"
    with pytest.raises(ps.ConfigError,
                       match=r"text '\\ud800' cannot be written as UTF-8"):
        write_csv(path, metadata, header, columns)
    assert not path.exists()


def test_surrogate_escapes_keep_their_bytes(tmp_path, small_table):
    # argv decodes a byte that is not UTF-8 to U+DC80..U+DCFF: the files get
    # the byte back
    metadata, header, columns = small_table
    escaped = b"run-\xff".decode("utf-8", "surrogateescape")
    csv_path, svg_path = tmp_path / "probe.csv", tmp_path / "probe.svg"
    write_csv(csv_path, {**metadata, "run_id": escaped}, header,
              [*columns[:-1], ["free", escaped, "in_pulse"]])
    assert b"# run_id=run-\xff\n" in csv_path.read_bytes()
    assert b"\n0.5,0.9,0.99,run-\xff\n" in csv_path.read_bytes()
    render_svg(csv_path, svg_path)
    assert b">run-\xff</text>" in svg_path.read_bytes()


def test_svg_refuses_text_utf8_cannot_hold(tmp_path, small_table):
    # the refused title once left a 0-byte SVG behind
    metadata, header, columns = small_table
    svg_path = tmp_path / "probe.svg"
    trace = ps.EvolutionTrace(header, columns, {**metadata, "run_id": "\ud800"})
    with pytest.raises(ps.ConfigError, match="cannot be written as UTF-8"):
        render_svg(trace, svg_path)
    assert not svg_path.exists()


def test_svg_gives_each_unlisted_series_its_own_colour(tmp_path):
    csv_path, svg_path = tmp_path / "many.csv", tmp_path / "many.svg"
    # F_ddN5 and F_ddN40 were drawn in one grey
    assert main(["custom", "--schedules", "none|zeno(0.1)|dd(0.1)|"
                 "dd-finite(0.2,5)|dd-finite(0.2,10)|dd-finite(0.2,40)",
                 "--out", str(csv_path)]) == 0
    root = ElementTree.parse(svg_path).getroot()
    strokes = [node.get("stroke") for node in root
               if node.tag.endswith("polyline")]
    # the listed series keep their colours; the others take the spares in
    # series order
    assert read_csv(csv_path)[1][1:-1] == [
        "F_free", "F_zeno", "F_dd", "F_ddN5", "F_ddN10", "F_ddN40"]
    assert strokes == ["#888888", "#d62728", "#1f77b4", "#ff7f0e", "#2ca02c",
                       "#8c564b"]
    assert svg_path.read_text() == _reference_svg(csv_path)


@pytest.mark.parametrize("header, columns, message", [
    (["t", "F_free"], [[0.0, 0.5, 1.0], [1.0, 0.9]],
     r"columns of unequal lengths \[2, 3\]"),
    (["t", "F_free"], [[0.0, 0.5, 1.0]], "2 header names for 1 columns"),
    (["t"], [[0.0, 0.5], [1.0, 0.9]], "1 header names for 2 columns"),
], ids=["unequal-columns", "header-longer", "header-shorter"])
def test_csv_refuses_misshapen_table(tmp_path, header, columns, message):
    # a table cut to its shortest column, or cells under the wrong name,
    # would read back as a different table
    path = tmp_path / "probe.csv"
    with pytest.raises(ps.ConfigError, match=message):
        write_csv(path, {"run_id": "probe"}, header, columns)
    assert not path.exists()


@pytest.mark.parametrize("run_id", ["x  ", "  x", " x y\t"],
                         ids=["trailing", "leading", "both"])
def test_metadata_value_whitespace_kept(tmp_path, small_table, run_id):
    metadata, header, columns = small_table
    csv_path = tmp_path / "probe.csv"
    svg_path = tmp_path / "probe.svg"
    write_csv(csv_path, {**metadata, "run_id": run_id}, header, columns)
    assert read_csv(csv_path)[0]["run_id"] == run_id
    render_svg(csv_path, svg_path)
    root = ElementTree.parse(svg_path).getroot()
    assert run_id in [node.text for node in root]


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
    # tags that are not ASCII, in a table long enough for the byte matrices
    lambda: ps.EvolutionTrace(["t", "segment"], [
        [0.5] * _KERNEL_ROWS, ["naïve", "free"] * (_KERNEL_ROWS // 2)], {}),
], ids=["fig3", "sweep-int-axis", "empty-sweep", "non-ascii-tags"])
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
                                     _MARGIN_T, _SPARE_COLORS, _ticks)
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
    spare = list(_SPARE_COLORS)
    for name, values in cols.items():
        color = _COLORS[name] if name in _COLORS else spare.pop(0)
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


def test_svg_of_the_cli_matches_per_point_renderer(tmp_path):
    # the benchmark's long-trace schedules, on a shorter horizon
    csv_path = tmp_path / "trace.csv"
    assert main(["custom", "--schedules",
                 "none|zeno(0.1)|dd(0.1)|dd-finite(0.2,10)|dd-finite(0.2,20)",
                 "--t-max", "2", "--lambda", "3.077", "--omega", "1.939",
                 "--out", str(csv_path)]) == 0
    svg = (tmp_path / "trace.svg").read_text()
    assert svg.count("<polyline") == 5
    assert svg == _reference_svg(csv_path)


@pytest.mark.parametrize("argv, code", [
    (["fig1"], 0), (["fig2"], 0), (["fig3"], 2),
    (["custom", "--schedules", "none|zeno(0.1)|dd-finite(0.2,20)",
      "--t-max", "0.4", "--run-id", "a <b> & c"], 0),
], ids=["fig1", "fig2", "fig3", "custom"])
def test_cli_svg_is_the_csv_replotted(tmp_path, argv, code):
    # the CLI plots the columns it has just written; the file replots the
    # same, byte for byte (fig3 fails its ordering check after writing)
    csv_path = tmp_path / "run.csv"
    assert main([*argv, "--out", str(csv_path)]) == code
    render_svg(csv_path, tmp_path / "replot.svg")
    assert ((tmp_path / "run.svg").read_bytes()
            == (tmp_path / "replot.svg").read_bytes())


@pytest.mark.parametrize("options", [
    {"scenario": "fig3"},
    # under _KERNEL_ROWS rows, so repr per cell
    {"scenario": "custom", "schedules": "none|dd-finite(0.2,10)",
     "t_max": "0.3"},
], ids=["fig3", "short-custom"])
def test_csv_of_array_columns_matches_lists(tmp_path, options):
    options = dict(options)
    trace = ps.compute_trace(ps.build_scenario(options.pop("scenario"),
                                               options))
    assert all(isinstance(c, np.ndarray) for c in trace.columns)
    arrays, lists = tmp_path / "arrays.csv", tmp_path / "lists.csv"
    write_csv(arrays, trace.metadata, trace.header, trace.columns)
    write_csv(lists, trace.metadata, trace.header,
              [column.tolist() for column in trace.columns])
    assert arrays.read_bytes() == lists.read_bytes()


def _fixed2_text(values) -> list[str]:
    return _joined([_fixed2(np.asarray(values, dtype=float), " ")]
                   ).decode().split()


@given(st.lists(st.one_of(
    st.floats(0, 1000, exclude_max=True),
    st.integers(0, 10**5 - 1).map(lambda j: (j + 0.5) / 100)), min_size=1))
def test_fixed2_is_percent_two_f(values):
    assert _fixed2_text(values) == ["%.2f" % v for v in values]


def test_fixed2_on_ties_and_near_ties():
    # every exact tie, rounded half to even, and every hundredths midpoint
    # with both of its float neighbours; fl(100 v) is a half-integer at
    # many of the midpoints, where rint of it alone rounds the wrong way
    eighths = np.arange(8000) / 8
    mids = (np.arange(10**5) + 0.5) / 100
    values = np.concatenate([eighths, mids, np.nextafter(mids, 0),
                             np.nextafter(mids, 2000)])
    assert _fixed2_text(values) == ["%.2f" % v for v in values.tolist()]
    assert _fixed2_text([30.045, 0.015, 0.125]) == ["30.05", "0.01", "0.12"]


def _float_text_cells(values) -> list[str]:
    return _joined([_float_text(list(values), "\n")]).decode().split("\n")[:-1]


@given(st.lists(st.one_of(
    st.floats(),
    st.floats(1e-6, 1e16),
    st.floats(1e-6, 1e-4),
    # 17 significant digits whose last is 5: next to a 16-digit tie
    st.builds(lambda n, e: (10 * n + 5) * 10.0 ** e,
              st.integers(10 ** 15, 10 ** 16 - 1), st.integers(-22, -1))),
    min_size=1))
def test_float_text_is_repr(values):
    assert _float_text_cells(values) == [repr(v) for v in values]


def _near_ties() -> np.ndarray:
    # every power of two and of ten around the kernel's range with both
    # float neighbours; exact decimal ties n + i / 2**j, whose j decimals
    # end in 5, with 17 significant digits (a 16-digit tie, inside the
    # rounding interval where the float gap is wide enough) or 18 (a
    # 17-digit tie); and the named cases: 99152220474451.375 is a 16-digit
    # tie that goes to the even ...38, and fl(v 10**20) rounds onto 1e16
    # for v just below 1e-4, whose exact P needs 10**21
    rng = np.random.default_rng(15)
    powers = np.concatenate([2.0 ** np.arange(-22, 56),
                             [float(f"1e{e}") for e in range(-7, 18)]])
    ties = []
    for j in range(1, 8):
        for digits in (17 - j, 18 - j):
            lo, hi = 10 ** (digits - 1), min(10 ** digits, 2 ** (53 - j))
            n = rng.integers(lo, hi, 2000) if lo < hi else []
            i = rng.integers(0, 2 ** (j - 1), len(n))
            ties.append(n + (2 * i + 1) / 2 ** j)
    return np.concatenate([powers, np.nextafter(powers, 0),
                           np.nextafter(powers, np.inf), *ties,
                           [99152220474451.375, np.nextafter(1e-4, 0)]])


def test_float_text_on_ties_and_near_ties():
    values = _near_ties().tolist()
    assert _float_text_cells(values) == [repr(v) for v in values]
    assert _float_text_cells([99152220474451.375, np.nextafter(1e-4, 0)]) == [
        "99152220474451.38", "9.999999999999999e-05"]


@pytest.mark.parametrize("cells", [
    np.array(["free", "in_pulse", "free"]),
    ["in_pulse", "free"],
    ["a", "", "abcdefghij", "\x7f"],
    np.array(["free", "skip", "in_pulse", "skip"])[::2],
    ["\u03bb-run", "free", "\x80"],
    np.array(["caf\u00e9", "free"]),
], ids=["str-array", "list", "unequal-widths", "strided", "non-ascii",
        "non-ascii-array"])
def test_tag_text_is_each_tag_encoded(cells):
    # ASCII tags take their bytes from the UCS-4 code units, any other tag
    # is encoded: both give each tag's UTF-8 bytes
    text = _joined([_tag_text(cells, "\n")])
    assert text == b"".join(f"{cell}\n".encode() for cell in list(cells))


@pytest.fixture(scope="module")
def long_trace(tmp_path_factory):
    """The CLI's CSV of the benchmark's long trace, and its trace."""
    schedules = "none|zeno(0.1)|dd(0.1)|dd-finite(0.2,10)|dd-finite(0.2,20)"
    path = tmp_path_factory.mktemp("long") / "trace.csv"
    assert main(["custom", "--schedules", schedules, "--t-max", "20",
                 "--lambda", "2.546", "--omega", "1.444",
                 "--out", str(path)]) == 0
    return path, ps.compute_trace(ps.build_scenario("custom", {
        "schedules": schedules, "t_max": "20", "lam": "2.546",
        "omega": "1.444"}))


def test_long_cli_csv_matches_per_row_writer(long_trace):
    path, trace = long_trace
    free = np.array(trace.column("F_free"))
    # the kernel's exponent form, repr's zeros and the block seams
    assert len(free) == 40001 and free.min() < 1e-4 and 0.0 in trace.column(
        "t")
    assert path.read_text() == _reference_csv(trace.metadata, trace.header,
                                              trace.rows)


@pytest.mark.parametrize("rows", [_KERNEL_ROWS - 1, _KERNEL_ROWS],
                         ids=["repr-per-cell", "kernel"])
def test_csv_either_side_of_kernel_cutoff(tmp_path, long_trace, rows):
    _, trace = long_trace
    columns = [column[-rows:] for column in trace.columns]
    path = tmp_path / "t.csv"
    write_csv(path, trace.metadata, trace.header, columns)
    assert path.read_text() == _reference_csv(trace.metadata, trace.header,
                                              list(zip(*columns)))


def test_csv_memory_stays_below_twice_the_file(tmp_path, long_trace):
    # the rows go out in blocks; holding the whole text at once took 2.5
    # times the file (10.5 MiB for 4.2 MiB)
    _, trace = long_trace
    path = tmp_path / "t.csv"
    write_csv(path, trace.metadata, trace.header, trace.columns)
    tracemalloc.start()
    try:
        write_csv(path, trace.metadata, trace.header, trace.columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


def test_svg_rejects_non_numeric_cell(tmp_path):
    csv_path = tmp_path / "probe.csv"
    csv_path.write_text("# run_id=probe\nt,F_free,F_dd,segment\n"
                        "0.0,1.0,1.0,free\n0.5,x,0.9,free\n")
    with pytest.raises(ps.ConfigError):
        render_svg(csv_path, tmp_path / "probe.svg")


def test_svg_rejects_missing_cell(tmp_path):
    csv_path = tmp_path / "probe.csv"
    csv_path.write_text("# run_id=probe\nt,F_free,F_dd,segment\n"
                        "0.0,1.0,1.0,free\n0.5,0.9\n")
    with pytest.raises(ps.ConfigError):
        render_svg(csv_path, tmp_path / "probe.svg")


def test_svg_parse_accepts_what_csv_reader_accepted(tmp_path, small_table):
    # a blank line, a quoted numeric cell and a segment column that is not
    # last plot exactly as the clean file does
    metadata, header, columns = small_table
    clean = tmp_path / "clean.csv"
    write_csv(clean, metadata, header, columns)
    messy = tmp_path / "messy.csv"
    messy.write_text("# tool=parityshield\n# run_id=probe\n# lam=2.0\n"
                     "t,segment,F_free,F_dd\n"
                     "0.0,free,1.0,1.0\n\n"
                     '0.5,free,"0.9",0.99\n'
                     "1.0,in_pulse,0.7982309094947353,0.9971493266340058\n")
    render_svg(clean, tmp_path / "clean.svg")
    render_svg(messy, tmp_path / "messy.svg")
    assert ((tmp_path / "messy.svg").read_bytes()
            == (tmp_path / "clean.svg").read_bytes())


_HEADER = "t,F_free,F_dd,segment\n"


@pytest.mark.parametrize("table, reason", [
    (_HEADER, "at least two data rows"),
    (_HEADER + "0.0,1.0,1.0,free\n", "at least two data rows"),
    (_HEADER + "0.5,1.0,1.0,free\n0.5,0.9,0.99,free\n", "spans no time"),
    (_HEADER + "0.0,1.0,1.0,free\n0.5,nan,0.99,free\n", "not a finite number"),
    (_HEADER + "0.0,1.0,1.0,free\n0.5,0.9,-inf,free\n", "not a finite number"),
    (_HEADER + "-1e308,1.0,1.0,free\n1e308,0.9,0.99,free\n",
     "too long a time"),
    (_HEADER + "0.0,1e308,1.0,free\n0.5,-1e308,0.99,free\n",
     "too wide a value range"),
    ("t,F_free,F_free\n0.0,1.0,0.5\n1.0,0.9,0.4\n", "duplicate column name"),
], ids=["header-only", "one-row", "zero-time-span", "nan", "-inf",
        "time-span-overflow", "value-span-overflow", "duplicate-name"])
def test_svg_refuses_unplottable_table(tmp_path, table, reason):
    csv_path = tmp_path / "probe.csv"
    csv_path.write_text("# run_id=probe\n" + table)
    with pytest.raises(ps.ConfigError, match=reason):
        render_svg(csv_path, tmp_path / "probe.svg")
    # the same table in memory, numbers as floats, is refused alike
    metadata, header, rows = read_csv(csv_path)
    columns = [[row[i] if name == "segment" else float(row[i]) for row in rows]
               for i, name in enumerate(header)]
    with pytest.raises(ps.ConfigError, match=reason):
        render_svg(ps.EvolutionTrace(header, columns, metadata),
                   tmp_path / "probe.svg")
    assert not (tmp_path / "probe.svg").exists()
