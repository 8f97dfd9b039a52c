"""Command-line front end: analyze channels, sweep families, run the
scaling decomposition, verify invariants, and render charts.

Exit codes: 0 success, 1 verification failure or render error,
2 bad flag value (an --out that cannot be written included), a channel
value the family does not take or the sweep sweeps, or channel not
interior (or outside the family domain), 3 channel not completely
positive, 4 no convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict
from typing import Optional

from . import __version__
from .capacity import (
    DEFAULT_SEED,
    analyze,
    chi_capacity_numeric,
    gad_params,
    mix_params,
)
from .core import (
    NoConvergence,
    NotInterior,
    PauliChannelParams,
    PSD_TOL,
    UNITAL_TOL,
    is_completely_positive,
    is_interior,
    ptm_from_params,
)
from .sinkhorn import (
    family_scaling_pair,
    sinkhorn_iterate,
    verify_decomposition,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_INTERIOR = 2
EXIT_NOT_CP = 3
EXIT_NO_CONVERGENCE = 4

CSV_COLUMNS = [
    "x", "lambda_t1", "lambda_t2", "lambda_t3", "norm_AB", "norm_AinvBinv",
    "c_unital", "c_lower_raw", "c_upper_raw", "c_lower", "c_upper", "c_chi",
]

# each family: the values that fix one of its channels (any one can be
# swept), the label analyze and sinkhorn print for it, and its
# constructor, which takes the values by name or in that order
_FAMILIES = {
    "gad": (("gamma_t", "p"), "gad p={p:g} gamma_t={gamma_t:g}",
            lambda gamma_t, p: gad_params(p, gamma_t)),
    "mix": (("p",), "mix p={p:g}", mix_params),
    "custom": (("lambda1", "lambda2", "lambda3", "t3"),
               "custom lambda=({lambda1:g},{lambda2:g},{lambda3:g}) t3={t3:g}",
               PauliChannelParams),
}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_seed(value: Optional[int]) -> int:
    if value is None:
        env = os.environ.get("QCAP_SEED")
        if not env:
            return DEFAULT_SEED
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"QCAP_SEED must be an integer, got {env!r}") from None
    if value < 0:  # numpy's generators take only non-negative seeds
        raise ValueError(f"seed must be a non-negative integer, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # argparse's own wording for a non-number
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text!r}")
    return value


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("channel selection")
    family = group.add_mutually_exclusive_group()  # one channel per command
    family.add_argument("--gad", action="store_true",
                        help="generalized amplitude damping (needs --p, --gamma-t)")
    family.add_argument("--mix", action="store_true",
                        help="amplitude-damping/depolarizing mixture (needs --p)")
    group.add_argument("--p", type=_finite_float, help="family parameter p")
    group.add_argument("--gamma-t", type=_finite_float, dest="gamma_t",
                       help="dimensionless time for --gad")
    family.add_argument("--lambda", type=_finite_float, nargs=3, dest="lambdas",
                        metavar=("L1", "L2", "L3"),
                        help="custom channel lambda parameters")
    group.add_argument("--t3", type=_finite_float,
                       help="custom channel translation (default 0)")


def _channel_values(args, swept: Optional[str] = None) -> tuple[str, dict]:
    """The family the flags select and its values (None where not given),
    less the swept one.  A --p, --gamma-t or --t3 that the family does not
    take, or that names the swept variable, is refused."""
    if args.gad or args.mix:
        family = "gad" if args.gad else "mix"
    elif args.lambdas is not None:
        family = "custom"
    else:
        raise ValueError("select a channel with --gad, --mix, or --lambda/--t3")
    names = _FAMILIES[family][0]
    for name in ("p", "gamma_t", "t3"):
        if getattr(args, name) is not None and (name not in names or name == swept):
            flag = f"--{name.replace('_', '-')}"
            raise ValueError(f"{flag} is the swept variable" if name in names
                             else f"the {family} family does not take {flag}")
    if family == "custom":
        values = dict(zip(names, (*args.lambdas, 0.0 if args.t3 is None else args.t3)))
    else:
        values = {name: getattr(args, name) for name in names}
    values.pop(swept, None)
    return family, values


def _require_values(family: str, values: dict) -> None:
    missing = [f"--{name.replace('_', '-')}" for name, v in values.items() if v is None]
    if missing:
        raise ValueError(f"--{family} requires {' and '.join(missing)}")


def _channel_from_args(args) -> tuple[str, PauliChannelParams]:
    family, values = _channel_values(args)
    _require_values(family, values)
    _, label, make = _FAMILIES[family]
    return label.format(**values), make(**values)


def _completely_positive(params: PauliChannelParams, x_name: str = "",
                         x: float = 0.0) -> bool:
    """Whether the channel is CP; if not, prints why (at grid point x_name = x)."""
    cp = is_completely_positive(params)
    if not cp.is_cp:
        what = f"grid point {x_name} = {x:g}" if x_name else "channel"
        _fail(f"{what} is not completely positive "
              f"(min Choi eigenvalue {cp.min_eigenvalue:.3e})", EXIT_NOT_CP)
    return cp.is_cp


def _emit(text: str, out_path: Optional[str]) -> int:
    """Writes text to --out or stdout; an --out that cannot be written is
    a bad flag value."""
    if not out_path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write --out {out_path}: {exc.strerror or exc}",
                     EXIT_NOT_INTERIOR)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _analyze_payload(label: str, params: PauliChannelParams, chi: bool) -> dict:
    # the single channel's pair first, so that a boundary channel's
    # NotInterior names no stack position
    residuals = asdict(verify_decomposition(params, family_scaling_pair(params)))
    columns = _sweep_columns([None], [params], None)
    row = {name: column[0] for name, column in zip(CSV_COLUMNS, columns)}
    payload = {
        "channel": label,
        "lambda": [params.lambda1, params.lambda2, params.lambda3],
        "t3": params.t3,
        "completely_positive": True,
        "interior": True,
        "lambda_tilde": [row["lambda_t1"], row["lambda_t2"], row["lambda_t3"]],
        **{col: row[col] for col in CSV_COLUMNS[4:11]},  # norm_AB .. c_upper
        "residuals": residuals,
    }
    if chi:
        result = chi_capacity_numeric(params)
        payload["c_chi"] = result.value
        payload["chi_converged"] = result.converged
    return payload


def _analyze_text(payload: dict) -> str:
    lines = [
        f"channel: {payload['channel']}",
        "lambda: " + " ".join(_fmt(v) for v in payload["lambda"])
        + f"  t3: {_fmt(payload['t3'])}",
        "completely positive: yes",
        "interior: yes",
        "lambda_tilde: " + " ".join(_fmt(v) for v in payload["lambda_tilde"]),
        f"norm products: |A||B| = {_fmt(payload['norm_AB'])}  "
        f"|A^-1||B^-1| = {_fmt(payload['norm_AinvBinv'])}",
        f"unital capacity: {_fmt(payload['c_unital'])}",
        f"bounds raw: [{_fmt(payload['c_lower_raw'])}, {_fmt(payload['c_upper_raw'])}]",
        f"bounds clamped: [{_fmt(payload['c_lower'])}, {_fmt(payload['c_upper'])}]",
    ]
    if "c_chi" in payload:
        status = "converged" if payload["chi_converged"] else "not converged"
        lines.append(f"chi capacity: {_fmt(payload['c_chi'])} ({status})")
    res = payload["residuals"]
    lines.append(
        f"decomposition residuals: unitality {res['unitality']:.3e}  "
        f"tp {res['trace_preservation']:.3e}  "
        f"reconstruction {res['reconstruction']:.3e}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    try:
        label, params = _channel_from_args(args)
    except (NotInterior, ValueError) as exc:
        return _fail(str(exc), EXIT_NOT_INTERIOR)
    if not _completely_positive(params):
        return EXIT_NOT_CP
    try:
        payload = _analyze_payload(label, params, args.chi)
    except NotInterior as exc:
        return _fail(f"channel is not interior: {exc}", EXIT_NOT_INTERIOR)
    text = json.dumps(payload, indent=2) + "\n" if args.json else _analyze_text(payload)
    return _emit(text, args.out)


# ---------------------------------------------------------------------------
# sweep


def _sweep_columns(xs: list, channels: list[PauliChannelParams],
                   chi: Optional[list]) -> list[list]:
    """The sweep's ``CSV_COLUMNS`` as lists of Python floats, from one
    ``analyze`` call on the stack of its channels; ``chi`` is the c_chi
    column, or None for an empty one."""
    report = analyze(PauliChannelParams.stack(channels))
    form, bounds = report.form, report.bounds
    return [xs, *(column.tolist() for column in (
        form.lt1, form.lt2, form.lt3, report.norm_ab, report.norm_ab_inv,
        bounds.unital_capacity, bounds.lower_raw, bounds.upper_raw,
        bounds.lower_clamped, bounds.upper_clamped)),
        [None] * len(xs) if chi is None else chi]


# a sweep row's CSV line, each cell formatted as ``_fmt`` does it ('%.12g'
# % v and f'{v:.12g}' give the same text); without chi the c_chi cell
# stays empty
_CSV_ROW = ",".join(["%.12g"] * len(CSV_COLUMNS))
_CSV_ROW_NO_CHI = _CSV_ROW[:-len("%.12g")]


def _columns_to_csv(columns: list[list], chi: bool) -> str:
    row, cells = (_CSV_ROW, columns) if chi else (_CSV_ROW_NO_CHI, columns[:-1])
    return "\n".join([",".join(CSV_COLUMNS), *(row % values for values in zip(*cells))]) + "\n"


def _rows_to_json(rows: list[dict], family: str, x_name: str, seed: int, chi: bool) -> str:
    meta = {
        "version": __version__,
        "family": family,
        "x": x_name,
        "seed": seed,
        "chi": chi,
        "tolerances": {"psd": PSD_TOL, "unital": UNITAL_TOL},
    }
    return json.dumps({"meta": meta, "columns": CSV_COLUMNS, "rows": rows},
                      indent=2) + "\n"


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """``np.linspace(lo, hi, steps).tolist()`` for steps >= 2, on Python
    floats by numpy's own operations: with div = steps - 1 and
    delta = hi - lo, point k is k*step + lo for step = delta/div, and the
    last point is hi; where the step underflows to 0 (a subnormal range),
    point k is (k/div)*delta + lo, numpy's branch for that case."""
    div, delta = steps - 1, hi - lo
    step = delta / div
    if step == 0.0:
        return [k / div * delta + lo for k in range(div)] + [hi]
    return [k * step + lo for k in range(div)] + [hi]


def cmd_sweep(args) -> int:
    try:
        seed = _resolve_seed(args.seed)
        family, fixed = _channel_values(args, args.x)
        if args.steps < 2:
            raise ValueError("sweep needs at least 2 steps")
        if not args.min < args.max:
            raise ValueError("sweep requires min < max")
        if not math.isfinite(args.max - args.min):
            raise ValueError("sweep range max - min overflows to infinity")
        names, _, make = _FAMILIES[family]
        if args.x not in names:
            raise ValueError(
                f"family {family!r} sweeps over {', '.join(names)}; got {args.x!r}")
        _require_values(family, fixed)
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
    except (NotInterior, ValueError) as exc:
        return _fail(str(exc), EXIT_NOT_INTERIOR)

    grid = _grid(args.min, args.max, args.steps)
    point = [fixed.get(name) for name in names]  # the swept slot set per point
    slot = names.index(args.x)
    xs, channels = [], []
    for index, x in enumerate(grid):
        point[slot] = x
        try:
            params = make(*point)
            if not is_interior(params):
                raise NotInterior(f"|t3| + |lambda3| >= 1 at {args.x} = {x:g}")
            if family == "custom" and not _completely_positive(params, args.x, x):
                return EXIT_NOT_CP
        except (NotInterior, ValueError) as exc:
            if index in (0, len(grid) - 1):
                _warn(f"dropping boundary grid point {args.x} = {x:g}: {exc}")
                continue
            return _fail(f"non-interior grid point inside sweep range: {exc}",
                         EXIT_NOT_INTERIOR)
        xs.append(x)
        channels.append(params)

    chi = [chi_capacity_numeric(params).value for params in channels] if args.chi else None
    columns = _sweep_columns(xs, channels, chi)

    if args.format == "json":
        rows = [dict(zip(CSV_COLUMNS, values)) for values in zip(*columns)]
        text = _rows_to_json(rows, family, args.x, seed, args.chi)
    else:
        text = _columns_to_csv(columns, args.chi)
    return _emit(text, args.out)


# ---------------------------------------------------------------------------
# sinkhorn


def cmd_sinkhorn(args) -> int:
    try:
        label, params = _channel_from_args(args)
    except (NotInterior, ValueError) as exc:
        return _fail(str(exc), EXIT_NOT_INTERIOR)
    if not _completely_positive(params):
        return EXIT_NOT_CP
    pairs = {}
    try:
        if args.method in ("closed-form", "both"):
            pairs["closed-form"] = family_scaling_pair(params)
        if args.method in ("iterate", "both"):
            pairs["iterate"] = sinkhorn_iterate(ptm_from_params(params),
                                                tol=args.tol,
                                                max_iter=args.max_iter)
    except NotInterior as exc:
        return _fail(str(exc), EXIT_NOT_INTERIOR)
    except NoConvergence as exc:
        return _fail(str(exc), EXIT_NO_CONVERGENCE)

    form = analyze(params).form
    lines = [f"channel: {label}",
             "lambda_tilde: " + " ".join(_fmt(v) for v in
                                         (form.lt1, form.lt2, form.lt3))]
    for method, pair in pairs.items():
        res = verify_decomposition(params, pair)
        lines.append(f"[{method}]")
        lines.append(f"  A diag: {_fmt(pair.a[0, 0].real)} {_fmt(pair.a[1, 1].real)}")
        lines.append(f"  B diag: {_fmt(pair.b[0, 0].real)} {_fmt(pair.b[1, 1].real)}")
        lines.append(f"  |A||B| = {_fmt(pair.norm_ab)}  "
                     f"|A^-1||B^-1| = {_fmt(pair.norm_ab_inv)}")
        if pair.iterations is not None:
            lines.append(f"  Newton steps: {pair.iterations}")
        lines.append(f"  residuals: unitality {res.unitality:.3e}  "
                     f"tp {res.trace_preservation:.3e}  "
                     f"reconstruction {res.reconstruction:.3e}")
    if len(pairs) == 2:
        gap = abs(pairs["closed-form"].norm_ab - pairs["iterate"].norm_ab)
        lines.append(f"method agreement |A||B| gap: {gap:.3e}")
        if gap > 1e-8:
            _warn(f"methods disagree beyond 1e-8: {gap:.3e}")
    return _emit("\n".join(lines) + "\n", args.out)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify  # imported here, so that other commands start without it
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    try:
        seed = _resolve_seed(args.seed)
    except ValueError as exc:
        return _fail(str(exc), EXIT_NOT_INTERIOR)
    results = verify.run_suites(names, seed=seed, canary=args.canary)
    passed = sum(c.passed for r in results for c in r.checks)
    failed = sum(not c.passed for r in results for c in r.checks)
    payload = {
        "seed": seed,
        "suites": {
            r.suite: {
                "passed": r.passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "detail": c.detail} for c in r.checks],
            }
            for r in results
        },
        "counts": {"passed": passed, "failed": failed},
        "all_passed": failed == 0,
    }
    return _emit(json.dumps(payload, indent=2) + "\n", args.out) or (
        EXIT_OK if failed == 0 else EXIT_FAIL)


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    from . import render  # imported here, so that other commands start without it
    try:
        if args.preset:
            spec = render.preset_spec(args.preset, args.infile, args.out)
        else:
            if not args.x or not args.series:
                raise ValueError("explicit charts need --x and --series")
            series = []
            for item in args.series:
                parts = item.split(":", 2)
                if len(parts) != 3:
                    raise ValueError(
                        f"series spec {item!r} must be COLUMN:STYLE:LABEL")
                series.append(render.Series(parts[0], parts[1], parts[2]))
            spec = render.ChartSpec(args.infile, args.x, tuple(series),
                                    args.xlabel, args.ylabel,
                                    (args.ymin, args.ymax), args.out)
        render.render_chart(spec)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_FAIL)
    return EXIT_OK


# ---------------------------------------------------------------------------


# a negative number, exponent notation included (-1e-3, -1.5E+2, -.5e1),
# which the parsers read as a value, not as a flag; no qcap option starts
# with a digit or a dot
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache  # parsing never mutates a parser, so one set serves every call
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The qcap parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="qcap",
        description="capacity bounds for nonunital qubit channels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for a single channel")
    _add_channel_args(pa)
    pa.add_argument("--chi", action="store_true",
                    help="also compute the chi capacity")
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--out", help="write report to a file instead of stdout")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep", help="sweep a channel family into CSV/JSON")
    _add_channel_args(ps)
    ps.add_argument("--x", required=True,
                    help="sweep variable (gamma_t, p, lambda1..3, t3)")
    ps.add_argument("--min", type=_finite_float, required=True)
    ps.add_argument("--max", type=_finite_float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--chi", action="store_true",
                    help="include the chi capacity column")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", help="output path (default stdout)")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--workers", type=int, default=1,
                    help="accepted and ignored (at least 1); the sweep runs "
                         "in one process, and the flag is to be removed")
    ps.set_defaults(func=cmd_sweep)

    pk = sub.add_parser("sinkhorn", help="scaling decomposition of a channel")
    _add_channel_args(pk)
    pk.add_argument("--method", choices=("closed-form", "iterate", "both"),
                    default="both")
    pk.add_argument("--tol", type=_positive_float, default=1e-12)
    pk.add_argument("--max-iter", type=int, default=100, help="Newton steps allowed")
    pk.add_argument("--out")
    pk.set_defaults(func=cmd_sinkhorn)

    pv = sub.add_parser("verify", help="run module invariant suites")
    pv.add_argument("--suite", choices=("core", "sinkhorn", "protocol", "all"),
                    default="all")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--canary", action="store_true",
                    help="append a deliberately failing check (harness test)")
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("render", help="render a sweep CSV to SVG")
    pr.add_argument("--preset", choices=("fig1", "fig2"))
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--x")
    pr.add_argument("--series", action="append",
                    help="COLUMN:STYLE:LABEL (style: solid, dotted, dashed)")
    pr.add_argument("--xlabel", default="x")
    pr.add_argument("--ylabel", default="capacity (bits)")
    pr.add_argument("--ymin", type=_finite_float, default=0.0)
    pr.add_argument("--ymax", type=_finite_float, default=1.0)
    pr.set_defaults(func=cmd_render)
    for each in (parser, *sub.choices.values()):  # argparse has no public setting for it
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def main(argv: Optional[list[str]] = None) -> int:
    """Runs one qcap command.  A call that names a subcommand goes
    straight to that subcommand's parser, as the top-level parser would
    hand it on, so each argument is parsed once; what that parser leaves
    over is refused as ``parse_args`` refuses it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:  # -h, --version, no command or an unknown one
        args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
