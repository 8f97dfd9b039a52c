"""The command line's contract over a generated corpus.

A seeded grammar builds a few hundred ``analyze``, ``sweep`` and
``sinkhorn`` commands each, from edge values (NaN, +-inf, 1e308,
subnormals, -0.0, one ulp from 1 and 1/2) and random floats, and
``render`` commands on the sweeps' CSVs and on generated CSV text.  Each
runs in-process through ``cli.main``.  Every command must exit with a
code of its subcommand's documented set, raise nothing but argparse's
SystemExit(2), and warn nothing; a command that succeeds must print
output that parses and keeps the bounds' own order.  ``BAD_INPUT`` in
test_cli.py keeps the named cases.
"""

import json
import math
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter

from qcap import cli

SEED = 21

EXITS = {"analyze": {0, 2, 3}, "sweep": {0, 2, 3}, "sinkhorn": {0, 2, 3, 4},
         "render": {0, 1, 2}}

EDGES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 1e-310,
         2.2250738585072014e-308, -0.0, 0.0, 1.0, -1.0, 0.5,
         math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
         math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), -math.nextafter(1.0, 0.0)]

STEPS = [-1, 0, 1, 2, 3, 7, 8, 11, 60]

# each family's selector and its values, with the range a random value
# of each is drawn from
FAMILIES = {
    "gad": ("--gad", {"p": (0.0, 0.5), "gamma_t": (0.0, 3.0)}),
    "mix": ("--mix", {"p": (0.0, 1.0)}),
    "custom": ("--lambda", {"lambda1": (-1.0, 1.0), "lambda2": (-1.0, 1.0),
                            "lambda3": (-1.0, 1.0), "t3": (-0.6, 0.6)}),
}


def _number(rng, lo, hi):
    # a random value of the range, an edge value, or a wild float
    kind = rng.random()
    if kind < 0.6:
        return rng.uniform(lo, hi)
    if kind < 0.9:
        return rng.choice(EDGES)
    return rng.uniform(-2.0, 2.0)


def _flag(rng, flag, value):
    # "--p v" or "--p=v"; a text like "-inf" after a space reads as a flag
    text = repr(value)
    return [f"{flag}={text}"] if rng.random() < 0.5 else [flag, text]


def _channel(rng, family, swept=None):
    """A family's channel flags, the swept value left out: now and then
    one missing, one the family does not take, or a second selector."""
    selector, values = FAMILIES[family]
    args = [selector]
    for name, domain in values.items():
        if name.startswith("lambda"):  # --lambda takes all three, swept or not
            args.append(repr(_number(rng, *domain)))
        elif name != swept and rng.random() < 0.95:
            args += _flag(rng, "--" + name.replace("_", "-"), _number(rng, *domain))
    if rng.random() < 0.05:
        args += _flag(rng, rng.choice(["--p", "--gamma-t", "--t3"]), _number(rng, 0.0, 1.0))
    if rng.random() < 0.03:
        args.append(rng.choice(["--gad", "--mix"]))
    return args


def _analyze(rng):
    return ["analyze", *_channel(rng, rng.choice(list(FAMILIES))),
            *(["--chi"] if rng.random() < 0.5 else []),
            *(["--json"] if rng.random() < 0.5 else [])]


def _sweep(rng):
    family = rng.choice(list(FAMILIES))
    values = FAMILIES[family][1]
    swept = rng.choice(list(values))
    lo, hi = sorted(_number(rng, *values[swept]) for _ in range(2))
    if rng.random() < 0.1:
        lo, hi = hi, lo
    if rng.random() < 0.03:
        swept = rng.choice(["x", "q", "lambda"])
    args = [*_channel(rng, family, swept), "--x", swept, *_flag(rng, "--min", lo),
            *_flag(rng, "--max", hi), "--steps", str(rng.choice(STEPS))]
    if rng.random() < 0.5:
        args.append("--chi")
    if rng.random() < 0.4:
        args += ["--format", "json"]
    if rng.random() < 0.2:
        args += ["--seed", str(rng.choice([-1, 0, 42]))]
    if rng.random() < 0.1:
        args += ["--workers", str(rng.choice([-1, 0, 1, 2]))]
    return ["sweep", *args]


def _sinkhorn(rng):
    args = _channel(rng, rng.choice(list(FAMILIES)))
    args += ["--method", rng.choice(["closed-form", "iterate", "both"])]
    if rng.random() < 0.3:
        args += _flag(rng, "--tol", rng.choice([1e-12, 1e-6, *EDGES]))
    if rng.random() < 0.3:
        args += ["--max-iter", str(rng.choice([-1, 0, 1, 2, 3, 100]))]
    return ["sinkhorn", *args]


def _csv_text(rng):
    # a CSV of sweep-like columns with edge, empty and non-numeric cells,
    # and short, long and empty rows
    names = rng.sample(cli.CSV_COLUMNS, rng.randint(1, len(cli.CSV_COLUMNS)))
    cells = [repr(v) for v in EDGES] + ["", "abc", "1e999", " 0.25 "]
    lines = [",".join(names)]
    for _ in range(rng.randint(0, 8)):
        width = len(names) + rng.choice([-1, 0, 0, 0, 1])
        lines.append(",".join(repr(rng.uniform(-1.0, 2.0)) if rng.random() < 0.8
                              else rng.choice(cells) for _ in range(max(width, 0))))
    return "\n".join(lines) + "\n"


def _render(rng, csv_path, svg_path):
    if rng.random() < 0.5:
        args = ["--preset", rng.choice(["fig1", "fig2"])]
    else:
        args = ["--x", rng.choice(["x", "c_unital", "missing"])]
        for _ in range(rng.randint(0, 3)):
            column = rng.choice(cli.CSV_COLUMNS)
            style = rng.choice(["solid", "dotted", "dashed", "wavy"])
            args += ["--series", rng.choice([f"{column}:{style}:<a & b>", column])]
    for flag in ("--ymin", "--ymax"):
        if rng.random() < 0.2:
            args += _flag(rng, flag, _number(rng, -1.0, 1.0))
    return ["render", "--in", str(csv_path), "--out", str(svg_path), *args]


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a flag
        assert exc.code == 2, argv
        code = 2
    captured = capsys.readouterr()
    assert code in EXITS[argv[0]], (argv, code, captured.err)
    assert "Traceback" not in captured.err, argv
    return code, captured.out


def _floats(cells):
    return [None if cell in ("", None) else float(cell) for cell in cells]


def _check_bounds(row, argv):
    # lower_raw <= upper_raw, clamped bounds in [0, 1], chi <= upper_raw
    lower_raw, upper_raw, lower, upper, chi = _floats(
        [row["c_lower_raw"], row["c_upper_raw"], row["c_lower"], row["c_upper"],
         row.get("c_chi")])
    assert lower_raw <= upper_raw, argv
    assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0, argv
    assert chi is None or chi <= upper_raw, argv


_TEXT_ROW = re.compile(r"bounds raw: \[(\S+), (\S+)\]\nbounds clamped: \[(\S+), (\S+)\]\n"
                       r"(?:chi capacity: (\S+) )?")


def _check_analyze(out, argv):
    if "--json" in argv:
        payload = json.loads(out)
    else:
        match = _TEXT_ROW.search(out)
        assert match, out
        payload = dict(zip(["c_lower_raw", "c_upper_raw", "c_lower", "c_upper", "c_chi"],
                           match.groups()))
    assert ("c_chi" in payload and payload["c_chi"] is not None) == ("--chi" in argv)
    _check_bounds(payload, argv)


def _check_sweep(out, argv):
    if "--format" in argv:
        payload = json.loads(out)
        assert payload["columns"] == cli.CSV_COLUMNS
        rows = payload["rows"]
    else:
        header, *lines = out.splitlines()
        assert header.split(",") == cli.CSV_COLUMNS
        rows = [dict(zip(cli.CSV_COLUMNS, line.split(",") + [""])) for line in lines]
    for row in rows:
        assert (row["c_chi"] not in ("", None)) == ("--chi" in argv), argv
        _check_bounds(row, argv)
    return rows


def test_generated_commands_keep_the_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = {name: Counter() for name in EXITS}
    sweeps = []
    for make in [_analyze, _sweep, _sinkhorn] * 400:
        argv = make(rng)
        code, out = _run(argv, capsys)
        codes[argv[0]][code] += 1
        if code == 0 and argv[0] == "analyze":
            _check_analyze(out, argv)
        elif code == 0 and argv[0] == "sweep":
            rows = _check_sweep(out, argv)
            if "--format" not in argv:
                sweeps.append((out, bool(rows)))
    # render: each successful CSV sweep, then generated CSV text
    svg_path = tmp_path / "chart.svg"
    for i, (text, has_rows) in enumerate(sweeps + [(_csv_text(rng), None)
                                                    for _ in range(300)]):
        csv_path = tmp_path / f"{i}.csv"
        csv_path.write_text(text)
        if svg_path.exists():
            svg_path.unlink()
        argv = _render(rng, csv_path, svg_path) if has_rows is None else \
            ["render", "--preset", rng.choice(["fig1", "fig2"]), "--in", str(csv_path),
             "--out", str(svg_path)]
        code, out = _run(argv, capsys)
        codes["render"][code] += 1
        if has_rows is not None:
            # a sweep's CSV renders, unless it kept no point to draw
            assert code == (0 if has_rows else 1), argv
        if code == 0:
            assert ET.parse(svg_path).getroot().tag.endswith("svg")
    # the corpus reaches every documented exit code
    for name, expected in EXITS.items():
        assert set(codes[name]) == expected, (name, codes[name])
