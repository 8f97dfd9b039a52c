"""Command-line front end: analyze channels, sweep families, run the
scaling decomposition, verify invariants, and render charts.

Exit codes: 0 success, 1 verification failure or render error,
2 channel not interior (or outside the family domain), 3 channel not
completely positive, 4 iteration did not converge.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__, render, verify
from .capacity import (
    DEFAULT_SEED,
    CapacityBounds,
    ChiConfig,
    chi_capacity_numeric,
    gad_params,
    mix_params,
    unital_capacity,
)
from .core import (
    NoConvergence,
    NotInterior,
    PauliChannelParams,
    PSD_TOL,
    UNITAL_TOL,
    is_completely_positive,
    ptm_from_params,
)
from .sinkhorn import (
    family_scaling_pair,
    family_unital_params,
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

_SWEEP_VARS = {
    "gad": ("gamma_t", "p"),
    "mix": ("p",),
    "custom": ("lambda1", "lambda2", "lambda3", "t3"),
}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("QCAP_SEED")
    return int(env) if env else DEFAULT_SEED


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("channel selection")
    group.add_argument("--gad", action="store_true",
                       help="generalized amplitude damping (needs --p, --gamma-t)")
    group.add_argument("--mix", action="store_true",
                       help="amplitude-damping/depolarizing mixture (needs --p)")
    group.add_argument("--p", type=float, help="family parameter p")
    group.add_argument("--gamma-t", type=float, dest="gamma_t",
                       help="dimensionless time for --gad")
    group.add_argument("--lambda", type=float, nargs=3, dest="lambdas",
                       metavar=("L1", "L2", "L3"),
                       help="custom channel lambda parameters")
    group.add_argument("--t3", type=float, help="custom channel translation")


def _channel_from_args(args) -> tuple[str, PauliChannelParams]:
    if args.gad:
        if args.p is None or args.gamma_t is None:
            raise ValueError("--gad requires --p and --gamma-t")
        return (f"gad p={args.p:g} gamma_t={args.gamma_t:g}",
                gad_params(args.p, args.gamma_t))
    if args.mix:
        if args.p is None:
            raise ValueError("--mix requires --p")
        return f"mix p={args.p:g}", mix_params(args.p)
    if args.lambdas is not None:
        t3 = args.t3 if args.t3 is not None else 0.0
        l1, l2, l3 = args.lambdas
        return (f"custom lambda=({l1:g},{l2:g},{l3:g}) t3={t3:g}",
                PauliChannelParams(l1, l2, l3, t3))
    raise ValueError("select a channel with --gad, --mix, or --lambda/--t3")


def _chi_kwargs(args) -> dict:
    """ChiConfig overrides from the --chi-* flags that were given."""
    kwargs = {}
    if args.chi_starts is not None:
        kwargs["starts"] = args.chi_starts
    if args.chi_sizes:
        kwargs["sizes"] = tuple(int(s) for s in args.chi_sizes.split(","))
    if args.chi_max_iter is not None:
        kwargs["max_iter"] = args.chi_max_iter
    if args.chi_xatol is not None:
        kwargs["xatol"] = args.chi_xatol
    return kwargs


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# analyze


def _analyze_payload(label: str, params: PauliChannelParams, args, seed
                     ) -> dict:
    form = family_unital_params(params)
    pair = family_scaling_pair(params)
    bounds = CapacityBounds.from_parts(unital_capacity(form), pair.norm_ab,
                                       pair.norm_ab_inv)
    residuals = verify_decomposition(params, pair)
    payload = {
        "channel": label,
        "lambda": [params.lambda1, params.lambda2, params.lambda3],
        "t3": params.t3,
        "completely_positive": True,
        "interior": True,
        "lambda_tilde": [form.lt1, form.lt2, form.lt3],
        "norm_AB": pair.norm_ab,
        "norm_AinvBinv": pair.norm_ab_inv,
        "c_unital": bounds.unital_capacity,
        "c_lower_raw": bounds.lower_raw,
        "c_upper_raw": bounds.upper_raw,
        "c_lower": bounds.lower_clamped,
        "c_upper": bounds.upper_clamped,
        "residuals": {
            "unitality": residuals.unitality,
            "trace_preservation": residuals.trace_preservation,
            "reconstruction": residuals.reconstruction,
        },
    }
    if args.chi:
        result = chi_capacity_numeric(params, ChiConfig(seed=seed, **_chi_kwargs(args)))
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
    seed = _resolve_seed(args.seed)
    try:
        label, params = _channel_from_args(args)
    except (NotInterior, ValueError) as exc:
        return _fail(str(exc), EXIT_NOT_INTERIOR)
    report = is_completely_positive(params)
    if not report.is_cp:
        return _fail(
            f"channel is not completely positive "
            f"(min Choi eigenvalue {report.min_eigenvalue:.3e})", EXIT_NOT_CP)
    if params.boundary_margin <= 0.0:
        return _fail(
            f"channel is not interior: |t3| + |lambda3| = "
            f"{abs(params.t3) + abs(params.lambda3):.6g} >= 1", EXIT_NOT_INTERIOR)
    payload = _analyze_payload(label, params, args, seed)
    if args.json:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_analyze_text(payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepConfig:
    family: str                  # gad | mix | custom
    fixed: tuple[tuple[str, float], ...]
    x_name: str
    x_min: float
    x_max: float
    steps: int
    seed: int
    chi: bool
    chi_kwargs: tuple[tuple[str, object], ...]

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 steps")
        if not self.x_min < self.x_max:
            raise ValueError("sweep requires min < max")
        if self.x_name not in _SWEEP_VARS[self.family]:
            raise ValueError(
                f"family {self.family!r} sweeps over "
                f"{', '.join(_SWEEP_VARS[self.family])}; got {self.x_name!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.steps)


def _point_params(cfg: SweepConfig, x: float) -> PauliChannelParams:
    fixed = dict(cfg.fixed)
    if cfg.family == "gad":
        p = fixed["p"] if cfg.x_name == "gamma_t" else x
        gt = fixed["gamma_t"] if cfg.x_name == "p" else x
        return gad_params(p, gt)
    if cfg.family == "mix":
        return mix_params(x)
    values = dict(fixed)
    values[cfg.x_name] = x
    return PauliChannelParams(values["lambda1"], values["lambda2"],
                              values["lambda3"], values["t3"])


def _sweep_point(task: tuple[SweepConfig, int, float]) -> dict:
    cfg, index, x = task
    params = _point_params(cfg, x)
    form = family_unital_params(params)
    pair = family_scaling_pair(params)
    bounds = CapacityBounds.from_parts(unital_capacity(form), pair.norm_ab,
                                       pair.norm_ab_inv)
    row = {
        "x": x,
        "lambda_t1": form.lt1,
        "lambda_t2": form.lt2,
        "lambda_t3": form.lt3,
        "norm_AB": pair.norm_ab,
        "norm_AinvBinv": pair.norm_ab_inv,
        "c_unital": bounds.unital_capacity,
        "c_lower_raw": bounds.lower_raw,
        "c_upper_raw": bounds.upper_raw,
        "c_lower": bounds.lower_clamped,
        "c_upper": bounds.upper_clamped,
        "c_chi": None,
    }
    if cfg.chi:
        chi_cfg = ChiConfig(seed=(cfg.seed, index), **dict(cfg.chi_kwargs))
        row["c_chi"] = chi_capacity_numeric(params, chi_cfg).value
    return row


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            value = row[col]
            cells.append("" if value is None else _fmt(value))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _rows_to_json(rows: list[dict], cfg: SweepConfig) -> str:
    meta = {
        "version": __version__,
        "family": cfg.family,
        "x": cfg.x_name,
        "seed": cfg.seed,
        "chi": cfg.chi,
        "tolerances": {"psd": PSD_TOL, "unital": UNITAL_TOL},
    }
    return json.dumps({"meta": meta, "columns": CSV_COLUMNS, "rows": rows},
                      indent=2) + "\n"


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args.seed)
    try:
        if args.gad:
            if args.x == "gamma_t" and args.p is None:
                raise ValueError("--gad sweep over gamma_t requires --p")
            if args.x == "p" and args.gamma_t is None:
                raise ValueError("--gad sweep over p requires --gamma-t")
            fixed = {}
            if args.p is not None:
                fixed["p"] = args.p
            if args.gamma_t is not None:
                fixed["gamma_t"] = args.gamma_t
            family = "gad"
        elif args.mix:
            family, fixed = "mix", {}
        elif args.lambdas is not None:
            family = "custom"
            l1, l2, l3 = args.lambdas
            fixed = {"lambda1": l1, "lambda2": l2, "lambda3": l3,
                     "t3": args.t3 if args.t3 is not None else 0.0}
        else:
            raise ValueError("select a family with --gad, --mix, or --lambda")
        cfg = SweepConfig(family, tuple(sorted(fixed.items())), args.x,
                          args.min, args.max, args.steps, seed, args.chi,
                          tuple(sorted(_chi_kwargs(args).items())))
    except (NotInterior, ValueError) as exc:
        return _fail(str(exc), EXIT_NOT_INTERIOR)

    grid = cfg.grid()
    tasks = []
    for index, x in enumerate(grid):
        try:
            params = _point_params(cfg, float(x))
            if params.boundary_margin <= 0.0:
                raise NotInterior(f"|t3| + |lambda3| >= 1 at {cfg.x_name} = {x:g}")
            if cfg.family == "custom":
                report = is_completely_positive(params)
                if not report.is_cp:
                    return _fail(
                        f"grid point {cfg.x_name} = {x:g} is not completely "
                        f"positive (min Choi eigenvalue "
                        f"{report.min_eigenvalue:.3e})", EXIT_NOT_CP)
        except (NotInterior, ValueError) as exc:
            if index in (0, len(grid) - 1):
                _warn(f"dropping boundary grid point {cfg.x_name} = {x:g}: {exc}")
                continue
            return _fail(f"non-interior grid point inside sweep range: {exc}",
                         EXIT_NOT_INTERIOR)
        tasks.append((cfg, index, float(x)))

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]

    if args.format == "json":
        _emit(_rows_to_json(rows, cfg), args.out)
    else:
        _emit(_rows_to_csv(rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sinkhorn


def cmd_sinkhorn(args) -> int:
    try:
        label, params = _channel_from_args(args)
    except (NotInterior, ValueError) as exc:
        return _fail(str(exc), EXIT_NOT_INTERIOR)
    report = is_completely_positive(params)
    if not report.is_cp:
        return _fail(f"channel is not completely positive "
                     f"(min Choi eigenvalue {report.min_eigenvalue:.3e})",
                     EXIT_NOT_CP)
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

    form = family_unital_params(params)
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
            lines.append(f"  sweeps: {pair.iterations}")
            if pair.iterations > 50:
                _warn(f"iteration needed {pair.iterations} sweeps "
                      "(near-boundary channel converges slowly)")
        lines.append(f"  residuals: unitality {res.unitality:.3e}  "
                     f"tp {res.trace_preservation:.3e}  "
                     f"reconstruction {res.reconstruction:.3e}")
    if len(pairs) == 2:
        gap = abs(pairs["closed-form"].norm_ab - pairs["iterate"].norm_ab)
        lines.append(f"method agreement |A||B| gap: {gap:.3e}")
        if gap > 1e-8:
            _warn(f"methods disagree beyond 1e-8: {gap:.3e}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    seed = _resolve_seed(args.seed)
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
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if failed == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcap",
        description="capacity bounds for nonunital qubit channels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for a single channel")
    _add_channel_args(pa)
    pa.add_argument("--chi", action="store_true",
                    help="also optimize the chi capacity")
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--out", help="write report to a file instead of stdout")
    pa.add_argument("--seed", type=int)
    for flag, typ in (("--chi-starts", int), ("--chi-max-iter", int),
                      ("--chi-xatol", float)):
        pa.add_argument(flag, type=typ, help=argparse.SUPPRESS)
    pa.add_argument("--chi-sizes", help=argparse.SUPPRESS)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep", help="sweep a channel family into CSV/JSON")
    _add_channel_args(ps)
    ps.add_argument("--x", required=True,
                    help="sweep variable (gamma_t, p, lambda1..3, t3)")
    ps.add_argument("--min", type=float, required=True)
    ps.add_argument("--max", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--chi", action="store_true",
                    help="include the optimized chi capacity column")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", help="output path (default stdout)")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--workers", type=int, default=1,
                    help="evaluate grid points in a worker pool")
    ps.add_argument("--chi-starts", type=int, help="random starts per ensemble size")
    ps.add_argument("--chi-sizes", help="comma list of ensemble sizes, e.g. 2,3,4")
    ps.add_argument("--chi-max-iter", type=int,
                    help="BFGS iteration cap per ensemble size (default 200)")
    ps.add_argument("--chi-xatol", type=float,
                    help="BFGS stops a start once no step coordinate exceeds this")
    ps.set_defaults(func=cmd_sweep)

    pk = sub.add_parser("sinkhorn", help="scaling decomposition of a channel")
    _add_channel_args(pk)
    pk.add_argument("--method", choices=("closed-form", "iterate", "both"),
                    default="both")
    pk.add_argument("--tol", type=float, default=1e-12)
    pk.add_argument("--max-iter", type=int, default=10_000)
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
    pr.add_argument("--ymin", type=float, default=0.0)
    pr.add_argument("--ymax", type=float, default=1.0)
    pr.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
