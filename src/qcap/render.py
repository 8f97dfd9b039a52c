"""Publication-style SVG line charts from sweep CSV files.

Self-contained SVG 1.1 output with a fixed 800x500 viewBox and 10%
margins so that identical inputs give byte-identical files.  Empty or
NaN cells break a polyline into separate runs instead of interpolating;
runs of a single point are drawn as markers.  Axis and series labels
are XML-escaped, so any text gives a well-formed file.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

VIEW_W, VIEW_H = 800.0, 500.0
MARGIN_X, MARGIN_Y = 0.1 * VIEW_W, 0.1 * VIEW_H

STYLES = {"solid": None, "dotted": "2,5", "dashed": "9,6"}
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


@dataclass(frozen=True)
class Series:
    column: str
    style: str
    label: str

    def __post_init__(self):
        if self.style not in STYLES:
            raise ValueError(
                f"unknown line style {self.style!r}; choose from {sorted(STYLES)}")


@dataclass(frozen=True)
class ChartSpec:
    csv_path: str
    x_column: str
    series: tuple[Series, ...]
    x_label: str
    y_label: str
    y_range: tuple[float, float]
    out_path: str

    def __post_init__(self):
        lo, hi = self.y_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"y range must be finite with min < max, got {self.y_range}")
        if not math.isfinite(hi - lo):
            raise ValueError(f"y range max - min overflows to infinity, got {self.y_range}")


def _parse_cell(text: str, column: str, line_no: int) -> Optional[float]:
    text = text.strip()
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"non-numeric value {text!r} in column {column!r} at CSV line {line_no}"
        ) from None
    return value if math.isfinite(value) else None


def _parse_column(cells: Sequence[str]) -> list[Optional[float]]:
    """``_parse_cell`` of every cell of one column, in one ``float`` pass
    when no cell is empty; ValueError, naming no cell, where ``float``
    refuses a cell that is not empty."""
    try:
        values = list(map(float, cells))
    except ValueError:  # an empty cell, or a bad one
        values = [float(c) if c.strip() else math.nan for c in cells]
    if all(map(math.isfinite, values)):
        return values
    return [v if math.isfinite(v) else None for v in values]


def read_columns(csv_path: str, columns: Sequence[str]) -> dict[str, list[Optional[float]]]:
    """Read the requested columns; empty/NaN cells become None.

    Rows are read as ``csv.DictReader`` reads them: blank lines are
    skipped, missing trailing cells read as empty, extra cells are
    ignored, and a name repeated in the header reads its last column.
    A column requested twice gets one cell per request in each row.
    Error line numbers count the header as line 1 and each row after it,
    blank lines not counted; the error is that of the first bad cell in
    row order, then in the order the columns are requested.

    The rows are transposed and each column parsed as a whole; only a
    column with a bad cell, or reaching past the shortest row, is parsed
    cell by cell, row by row.
    """
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        index = {name: i for i, name in enumerate(header)}
        for col in columns:
            if col not in index:
                raise ValueError(f"column {col!r} not found in {csv_path} "
                                 f"(header: {', '.join(header)})")
        rows = [row for row in reader if row]
    cells = list(zip(*rows))  # as many columns as the shortest row holds
    data: dict[str, list[Optional[float]]] = dict.fromkeys(columns)
    for col in data:
        i = index[col]
        if i < len(cells):
            try:
                data[col] = _parse_column(cells[i])
            except ValueError:  # reported below, in row order
                pass
    slow = [(col, index[col]) for col, values in data.items() if values is None]
    if slow:
        for col, _ in slow:
            data[col] = []
        for line_no, row in enumerate(rows, start=2):
            size = len(row)
            for col, i in slow:
                data[col].append(_parse_cell(row[i] if i < size else "", col, line_no))
    for col in data:
        count = columns.count(col)
        if count > 1:
            data[col] = [v for v in data[col] for _ in range(count)]
    return data


def _nice_ticks(lo: float, hi: float, axis: str, target: int = 6) -> list[float]:
    """Ticks from lo to hi at 1, 2, 2.5 or 5 times a power of ten; a span
    with no such step above 0 raises ValueError naming ``axis``."""
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else math.nan
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    else:  # raw is 0, or so far subnormal that mag underflows or rounds low
        raise ValueError(f"{axis} runs from {lo:g} to {hi:g}: the span {span:g} "
                         "is too narrow for tick marks")
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:  # the step is below the spacing of doubles at t
            break
        t += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _escape(text: str) -> str:
    """Label text as XML character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _runs(xs: list[Optional[float]],
          ys: list[Optional[float]]) -> list[list[tuple[float, float]]]:
    """Split the points into maximal runs of consecutive finite points:
    one run of them all when no cell is missing."""
    points = list(zip(xs, ys))
    if None not in xs and None not in ys:
        return [points] if points else []
    runs, run = [], []
    for x, y in points:
        if x is None or y is None:
            if run:
                runs.append(run)
                run = []
        else:
            run.append((x, y))
    if run:
        runs.append(run)
    return runs


def render_svg(spec: ChartSpec) -> str:
    """Build the chart as an SVG string (pure function of the CSV data)."""
    # each column once: read_columns appends a cell per request
    columns = list(dict.fromkeys([spec.x_column] + [s.column for s in spec.series]))
    data = read_columns(spec.csv_path, columns)
    xs = data[spec.x_column]
    finite_x = [x for x in xs if x is not None]
    if not finite_x:
        raise ValueError(f"column {spec.x_column!r} holds no numeric data")
    x_lo, x_hi = min(finite_x), max(finite_x)
    if not math.isfinite(x_hi - x_lo):
        raise ValueError(f"column {spec.x_column!r} runs from {x_lo:g} to {x_hi:g}: "
                         f"max - min overflows to infinity")
    if x_hi - x_lo < 1e-300:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo, y_hi = spec.y_range

    px_lo, px_hi = MARGIN_X, VIEW_W - MARGIN_X
    py_lo, py_hi = VIEW_H - MARGIN_Y, MARGIN_Y  # y axis points up
    x_span, px_span = x_hi - x_lo, px_hi - px_lo
    y_span, py_span = y_hi - y_lo, py_hi - py_lo

    def sx(x: float) -> float:
        return px_lo + (x - x_lo) / x_span * px_span

    def sy(y: float) -> float:
        return py_lo + (y - y_lo) / y_span * py_span

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {VIEW_W:g} {VIEW_H:g}">',
        f'<rect x="0" y="0" width="{VIEW_W:g}" height="{VIEW_H:g}" fill="white"/>',
        f'<rect x="{px_lo:.2f}" y="{py_hi:.2f}" width="{px_hi - px_lo:.2f}" '
        f'height="{py_lo - py_hi:.2f}" fill="none" stroke="black" stroke-width="1"/>',
    ]

    for t in _nice_ticks(x_lo, x_hi, f"column {spec.x_column!r}"):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{py_lo:.2f}" x2="{x:.2f}" '
                     f'y2="{py_lo + 6:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{py_lo + 20:.2f}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi, "y range"):
        y = sy(t)
        parts.append(f'<line x1="{px_lo - 6:.2f}" y1="{y:.2f}" x2="{px_lo:.2f}" '
                     f'y2="{y:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px_lo - 10:.2f}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end" font-family="sans-serif">{_fmt(t)}</text>')

    parts.append(f'<text x="{(px_lo + px_hi) / 2:.2f}" y="{VIEW_H - 8:.2f}" '
                 f'font-size="14" text-anchor="middle" '
                 f'font-family="sans-serif">{_escape(spec.x_label)}</text>')
    parts.append(f'<text x="16" y="{(py_lo + py_hi) / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 16 {(py_lo + py_hi) / 2:.2f})">'
                 f'{_escape(spec.y_label)}</text>')

    for idx, series in enumerate(spec.series):
        color = PALETTE[idx % len(PALETTE)]
        dash = STYLES[series.style]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        for run in _runs(xs, data[series.column]):
            # sx and sy written out with the same operations, so each
            # coordinate keeps its bits; y is clamped into the y range first
            coords = [(px_lo + (x - x_lo) / x_span * px_span,
                       py_lo + ((y_lo if y < y_lo else y_hi if y > y_hi else y) - y_lo)
                       / y_span * py_span) for x, y in run]
            if len(coords) == 1:
                cx, cy = coords[0]
                parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" '
                             f'fill="{color}"/>')
            else:
                path = " ".join(map("%.2f,%.2f".__mod__, coords))
                parts.append(f'<polyline points="{path}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')

    legend_x = px_hi - 170.0
    legend_y = py_hi + 14.0
    for idx, series in enumerate(spec.series):
        color = PALETTE[idx % len(PALETTE)]
        dash = STYLES[series.style]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        y = legend_y + 18.0 * idx
        parts.append(f'<line x1="{legend_x:.2f}" y1="{y:.2f}" '
                     f'x2="{legend_x + 30:.2f}" y2="{y:.2f}" stroke="{color}" '
                     f'stroke-width="1.5"{dash_attr}/>')
        parts.append(f'<text x="{legend_x + 36:.2f}" y="{y + 4:.2f}" font-size="12" '
                     f'font-family="sans-serif">{_escape(series.label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_chart(spec: ChartSpec) -> None:
    """Render and write the SVG file."""
    svg = render_svg(spec)
    with open(spec.out_path, "w", newline="\n") as fh:
        fh.write(svg)


def preset_spec(name: str, csv_path: str, out_path: str) -> ChartSpec:
    """Chart presets for the two standard sweep figures."""
    series = (
        Series("c_lower", "solid", "lower bound"),
        Series("c_upper", "solid", "upper bound"),
        Series("c_chi", "dotted", "chi capacity"),
    )
    if name == "fig1":
        return ChartSpec(csv_path, "x", series, "gamma t", "capacity (bits)",
                         (0.0, 1.0), out_path)
    if name == "fig2":
        return ChartSpec(csv_path, "x", series, "p", "capacity (bits)",
                         (0.0, 1.0), out_path)
    raise ValueError(f"unknown preset {name!r}; choose fig1 or fig2")
