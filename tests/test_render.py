import csv
import hashlib
import os
import re
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from qcap import render
from qcap.render import ChartSpec, _parse_cell, Series, preset_spec, read_columns, render_chart, render_svg


def _write_csv(path, text):
    path.write_text(text)
    return str(path)


BASIC = "x,a,b\n0,0.1,0.9\n1,0.2,0.8\n2,0.3,0.7\n3,0.4,0.6\n"


def _spec(csv_path, out="out.svg", series=None):
    series = series or (Series("a", "solid", "series a"),
                        Series("b", "dotted", "series b"))
    return ChartSpec(csv_path, "x", tuple(series), "x", "y", (0.0, 1.0), out)


def test_svg_deterministic(tmp_path):
    path = _write_csv(tmp_path / "d.csv", BASIC)
    spec = _spec(path, out=str(tmp_path / "d.svg"))
    first = render_svg(spec)
    second = render_svg(spec)
    assert first == second
    render_chart(spec)
    render_chart(ChartSpec(path, "x", spec.series, "x", "y", (0.0, 1.0),
                           str(tmp_path / "d2.svg")))
    assert (tmp_path / "d.svg").read_bytes() == (tmp_path / "d2.svg").read_bytes()


def test_polyline_point_counts(tmp_path):
    path = _write_csv(tmp_path / "c.csv", BASIC)
    svg = render_svg(_spec(path))
    polylines = re.findall(r'<polyline points="([^"]+)"', svg)
    assert len(polylines) == 2
    for pts in polylines:
        assert len(pts.split()) == 4  # one vertex per non-empty row


def test_gap_breaks_polyline(tmp_path):
    text = "x,a\n0,0.1\n1,\n2,0.3\n3,0.4\n4,nan\n5,0.6\n6,0.7\n"
    path = _write_csv(tmp_path / "g.csv", text)
    svg = render_svg(_spec(path, series=(Series("a", "dashed", "a"),)))
    polylines = re.findall(r'<polyline points="([^"]+)"', svg)
    circles = re.findall(r"<circle ", svg)
    # runs: [0], [0.3, 0.4], [0.6, 0.7] -> one marker and two 2-point lines
    assert len(polylines) == 2
    assert all(len(p.split()) == 2 for p in polylines)
    assert len(circles) == 1


def test_single_row_renders_markers_only(tmp_path):
    path = _write_csv(tmp_path / "s.csv", "x,a,b\n1.5,0.25,0.5\n")
    svg = render_svg(_spec(path))
    assert "<polyline" not in svg
    assert svg.count("<circle") == 2
    assert svg.startswith("<?xml")


def test_missing_column_error_names_column(tmp_path):
    path = _write_csv(tmp_path / "m.csv", "x,a\n0,1\n")
    with pytest.raises(ValueError, match="'b'"):
        render_svg(_spec(path))


def test_non_numeric_cell_error_reports_line(tmp_path):
    path = _write_csv(tmp_path / "n.csv", "x,a,b\n0,0.1,0.9\n1,oops,0.8\n")
    with pytest.raises(ValueError, match="line 3"):
        render_svg(_spec(path))


def test_styles_validated():
    with pytest.raises(ValueError, match="style"):
        Series("a", "wavy", "a")


def test_y_range_validated(tmp_path):
    path = _write_csv(tmp_path / "y.csv", BASIC)
    with pytest.raises(ValueError):
        ChartSpec(path, "x", (Series("a", "solid", "a"),), "x", "y",
                  (1.0, 1.0), "out.svg")
    with pytest.raises(ValueError):
        ChartSpec(path, "x", (Series("a", "solid", "a"),), "x", "y",
                  (0.0, float("inf")), "out.svg")


def test_dash_patterns_in_output(tmp_path):
    path = _write_csv(tmp_path / "p.csv", BASIC)
    svg = render_svg(_spec(path, series=(Series("a", "dotted", "a"),
                                         Series("b", "dashed", "b"))))
    assert 'stroke-dasharray="2,5"' in svg
    assert 'stroke-dasharray="9,6"' in svg


def test_read_columns_gap_semantics(tmp_path):
    path = _write_csv(tmp_path / "r.csv", "x,a\n0,1\n1,\n2,nan\n3,4\n")
    data = read_columns(path, ["x", "a"])
    assert data["a"] == [1.0, None, None, 4.0]


def test_presets(tmp_path):
    rows = ["x,lambda_t1,lambda_t2,lambda_t3,norm_AB,norm_AinvBinv,c_unital,"
            "c_lower_raw,c_upper_raw,c_lower,c_upper,c_chi"]
    rows += [f"{x},0,0,0,1,1,0.5,0.2,0.8,0.2,0.8,0.5" for x in (0.1, 0.2, 0.3)]
    path = _write_csv(tmp_path / "sweep.csv", "\n".join(rows) + "\n")
    for name, xlabel in (("fig1", "gamma t"), ("fig2", "p")):
        spec = preset_spec(name, path, str(tmp_path / f"{name}.svg"))
        svg = render_svg(spec)
        assert xlabel in svg
        assert svg.count("<polyline") == 3
    with pytest.raises(ValueError):
        preset_spec("fig3", path, "x.svg")


def test_labels_with_markup_characters_give_well_formed_svg(tmp_path):
    # &, < and > in axis and series labels are escaped, not written raw
    path = _write_csv(tmp_path / "m.csv", BASIC)
    spec = ChartSpec(path, "x", (Series("a", "dotted", "a & b <c>"),), "p<0.5",
                     "y > 0 & y < 1", (0.0, 1.0), str(tmp_path / "m.svg"))
    render_chart(spec)
    root = ET.parse(tmp_path / "m.svg").getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert {"p<0.5", "y > 0 & y < 1", "a & b <c>"} <= set(texts)


def _read_columns_by_dict_reader(csv_path, columns):
    # the csv.DictReader version read_columns replaced, verbatim
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in columns:
            if col not in header:
                raise ValueError(f"column {col!r} not found in {csv_path} "
                                 f"(header: {', '.join(header)})")
        data = {col: [] for col in columns}
        for line_no, row in enumerate(reader, start=2):
            for col in columns:
                data[col].append(_parse_cell(row[col] or "", col, line_no))
    return data


def _read_or_error(read, path, columns):
    try:
        return read(path, columns)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("text", [
    "x,a,b\n0,0.1,0.9\n\n1,0.2,0.8\n\n\n2,0.3,0.7\n",    # blank lines
    "x,a,b\n0,0.1\n1\n2,0.3,0.7\n",                        # short rows
    "x,a,b\n0,0.1,0.9,7,8\n1,0.2,0.8,\n",                   # extra cells
    'x,"a",b\n"0","0.1",0.9\n1," 0.2 ","0.8"\n',             # quoted cells
    'x,a,b\n"0","0.1",0.9\n1,0.2,"0,8"\n',                   # a quoted comma
    "x,a,b\r\n0,0.1,0.9\r\n\r\n1,0.2,0.8\r\n",               # CRLF line ends
    "x,b\n0,0.9\n",                                         # missing column
    "x,a,b\n0,0.1,0.9\n\n1,oops,0.8\n",                      # non-numeric after a blank
    "x,a,b\n0,0.1,0.9\n1,0.2,x7\n",                          # non-numeric, later column
    "x,a,b\n0,0.1,bad\n1,oops,0.8\n",                        # the first bad cell in row order
    "x,a,b\n0,\x1c0.1\x1c,0.9\n1,0.2,\n",                  # str.strip takes \x1c, float does not
    "x,a,b,a\n0,0.1,0.9,0.5\n1,0.2,0.8\n",                   # repeated header name
    "\nx,a,b\n0,0.1,0.9\n",                                 # blank first line
    "",                                                     # empty file
    "x,a,b\n",                                              # header only
    "x,a,b\n0,nan,\n1,inf,-inf\n2, ,0.5",                     # gaps, no final newline
])
@pytest.mark.parametrize("columns", [["x", "a", "b"], ["b", "x"], ["x", "a", "a"]])
def test_read_columns_matches_the_dict_reader(text, columns, tmp_path):
    # the same data, or the same error message, as the DictReader version
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    expected = _read_or_error(_read_columns_by_dict_reader, str(path), columns)
    assert _read_or_error(read_columns, str(path), columns) == expected


def test_x_column_plotted_as_a_series_keeps_every_series_aligned(tmp_path):
    # the x column is read once, so plotting it does not shift the others
    path = _write_csv(tmp_path / "x.csv", "x,a\n0,0.1\n1,0.5\n2,0.9\n")
    series = (Series("x", "solid", "x"), Series("a", "dashed", "a"))
    svg = render_svg(ChartSpec(path, "x", series, "x", "y", (0.0, 1.0), "out.svg"))
    polylines = re.findall(r'<polyline points="([^"]+)"', svg)
    assert polylines == ["80.00,450.00 400.00,50.00 720.00,50.00",
                         "80.00,410.00 400.00,250.00 720.00,90.00"]
    assert len(polylines[0].split()) == 3


# an empty cell and a NaN break runs, row 0 of "a" is a single-point run
# (a circle), "b" runs above y max and below y min, and the x column is
# drawn too, above y max at its right end
MIXED = ("x,a,b\n0,0.1,0.5\n0.25,,1.7\n0.5,0.3,-0.4\n0.75,0.45,0.2\n"
         "1,nan,0.9\n1.25,0.6,\n1.5,0.7,0.3\n")


def test_mixed_chart_pinned(tmp_path):
    path = _write_csv(tmp_path / "mixed.csv", MIXED)
    series = (Series("a", "solid", "a"), Series("b", "dashed", "b"),
              Series("x", "dotted", "x"))
    svg = render_svg(ChartSpec(path, "x", series, "x", "y", (-0.2, 1.2), "out.svg"))
    assert svg.count("<circle") == 2
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "1a0b8100fbba8e7e8762f95fb52aaf6d0e135f725d5769f4cef5c4166217c10f")


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _render_in_subprocess(tmp_path, text, *args):
    # in its own process under a short timeout and a 1 GiB address space,
    # since a chart that never finishes also grows its tick list without
    # bound
    csv_path, svg_path = tmp_path / "in.csv", tmp_path / "out.svg"
    csv_path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(render.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "qcap.cli", "render", "--in", str(csv_path),
         "--out", str(svg_path), *args],
        capture_output=True, text=True, env=env, timeout=5,
        preexec_fn=_cap_address_space)
    return proc, svg_path


@pytest.mark.parametrize("text, args", [
    ("x,y\n1e20,0.5\n100000000000000016384,0.6\n", ["--x", "x", "--series", "y:solid:y"]),
    (BASIC, ["--x", "x", "--series", "a:solid:a",
             "--ymin", "1e20", "--ymax", "100000000000000016384"]),
    ("x,y\n1,0.5\n1.0000000000000002,0.6\n", ["--x", "x", "--series", "y:solid:y"]),
], ids=["x-axis", "y-axis", "x-axis-near-one"])
def test_an_axis_narrower_than_its_tick_step_finishes(tmp_path, text, args):
    # a tick step below the spacing of doubles at the axis's magnitude
    # once left the tick loop unable to advance
    proc, svg_path = _render_in_subprocess(tmp_path, text, *args)
    if proc.returncode == 0:
        ET.parse(svg_path)
    else:
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("text, args", [
    ("x,y\n-1e308,0.5\n1e308,0.6\n", ["--x", "x", "--series", "y:solid:y"]),
    (BASIC, ["--x", "x", "--series", "a:solid:a", "--ymin=-1e308", "--ymax=1e308"]),
], ids=["x-axis", "y-axis"])
def test_an_axis_whose_span_overflows_is_refused(tmp_path, text, args):
    proc, svg_path = _render_in_subprocess(tmp_path, text, *args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "overflow" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not svg_path.exists()


@pytest.mark.parametrize("text, args, message", [
    ("x,a\n1e20,0.5\n1e20,0.6\n", ["--x", "x", "--series", "a:solid:a"],
     "column 'x' runs from 1e+20 to 1e+20: the span 0 is too narrow for tick marks"),
    (BASIC, ["--x", "x", "--series", "a:solid:a", "--ymin", "0", "--ymax", "1e-323"],
     "y range runs from 0 to 9.88131e-324: the span 9.88131e-324 is too narrow for tick marks"),
    (BASIC, ["--x", "x", "--series", "a:solid:a", "--ymin", "0", "--ymax", "3e-323"],
     "y range runs from 0 to 2.96439e-323: the span 2.96439e-323 is too narrow for tick marks"),
    (BASIC, ["--x", "x", "--series", "a:solid:a", "--ymin", "0", "--ymax", "5e-321"],
     "y range runs from 0 to 4.99994e-321: the span 4.99994e-321 is too narrow for tick marks"),
], ids=["x-single-value-1e20", "y-span-underflows", "y-step-underflows", "y-step-rounded-low"])
def test_an_axis_too_narrow_for_tick_marks_is_refused_by_name(tmp_path, text, args, message):
    # a single x value that the +-0.5 widening cannot move at its
    # magnitude leaves a span of 0; a subnormal y span leaves a tick step
    # of 0, or one that the power of ten below it cannot reach
    proc, svg_path = _render_in_subprocess(tmp_path, text, *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
    assert not svg_path.exists()
