"""qcap benchmark: closed-loop workloads measured from outside the library.

    python3 perfbench/run.py --workload sweep_chi --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the library under ``src/`` is measured.
A run repeats whole passes of its workload until ``--seconds`` have
elapsed, checking the outputs of each pass.  Untraced runs time each
call and scale it to nominal machine speed (``speed.py``).  It prints
the machine, a table of the metrics with their units, and as its last
line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The exit code is 1 when an output check failed.

``--tiny`` shrinks the inputs and ``--inject-fault`` corrupts one output
before the checks; both exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from library import OUT_DIR, ROOT, use_checkout_library

WORKLOAD_NAMES = ("sweep_chi", "unital_chi", "verify_all", "sweep_bounds")
SETUP_REPEATS = 7
PROBE = Path(__file__).resolve().parent / "probe.py"

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "optimize.objective.evals": "count",
    "optimize.objective.rows": "count",
    "optimize.objective.s": "s",
    "optimize.objective.ns_per_row": "ns",
    "optimize.nelder_mead_batch.calls": "count",
    "optimize.nelder_mead_batch.s": "s",
    "optimize.nelder_mead_batch.self_s": "s",
    "optimize.nelder_mead_batch.iterations_mean": "count",
    "optimize.nelder_mead_batch.cap_hit_frac": "frac",
    "optimize.nelder_mead_batch.member_converged_frac": "frac",
    "capacity.chi_capacity_numeric.calls": "count",
    "capacity.chi_capacity_numeric.s": "s",
    "capacity.chi_capacity_numeric.self_s": "s",
    "core.image_radius.s": "s",
    "core.is_interior.calls": "count",
    "core.is_interior.s": "s",
    "sinkhorn.sinkhorn_iterate.calls": "count",
    "sinkhorn.sinkhorn_iterate.self_s": "s",
    "sinkhorn.sinkhorn_iterate.sweeps_mean": "count",
    "sinkhorn.verify_decomposition.s": "s",
    "sinkhorn.unital_diagonalize.s": "s",
    "protocol.verify_rescaling_identity.s": "s",
    "protocol.success_probability.s": "s",
    "verify.core_suite.s": "s",
    "verify.sinkhorn_suite.s": "s",
    "verify.protocol_suite.s": "s",
    "core.is_completely_positive.calls": "count",
    "core.is_completely_positive.s": "s",
    "sinkhorn.family_scaling_pair.s": "s",
    "sinkhorn.family_unital_params.s": "s",
    "capacity.unital_capacity.s": "s",
    "cli.main.self_s": "s",
    "render.render_chart.s": "s",
    "py.warnings": "count",
    "trace.items": "count",
    "trace.wall_s": "s",
    "trace.self_s_frac": "frac",
    "trace.overhead_frac": "frac",
}


def timed_calls(workload, sampler=None):
    """Every call of passes 0, 1, 2, ... in order, timed: yields
    (Record, whether the call ends its pass).  With a SpeedSampler, each
    record carries the call's time without the sampling, and the
    machine-speed factor sampled while it ran."""
    from workloads import Record

    index = 0
    while True:
        calls = workload.pass_calls(index)
        for k, call in enumerate(calls):
            if sampler:
                sampler.begin()
            t0 = perf_counter()
            output, items = call.fn()
            seconds = perf_counter() - t0
            seconds, factor = sampler.end(seconds) if sampler else (seconds, 1.0)
            yield (Record(call.tag, index, seconds, output, items, factor),
                   k == len(calls) - 1)
        index += 1


def run_passes(workload, seconds: float, fault: bool = False, sampler=None):
    """Whole passes until ``seconds`` have elapsed, at least one, each
    checked when it ends; ``fault`` corrupts the first output first.
    Returns (records without their outputs, loop seconds excluding the
    checks, passes, CheckResult)."""
    from workloads import CheckResult

    records, current = [], []
    check = CheckResult()
    checking = 0.0
    start = perf_counter()
    for record, ends_pass in timed_calls(workload, sampler):
        current.append(record)
        if not ends_pass:
            continue
        t0 = perf_counter()
        if fault and record.pass_index == 0:
            workload.corrupt(current)
        check.add(workload.check_pass(current))
        for r in current:
            r.output = None
        records += current
        current = []
        checking += perf_counter() - t0
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return records, elapsed - checking, record.pass_index + 1, check


def tracing_overhead(workload, seconds: float) -> tuple[float, list]:
    """The loop's first calls again, untraced until ``seconds`` have
    elapsed (at least one call), then the same calls traced by a second
    Tracer, both sampled for machine speed.  Returns the traced time over
    the untraced one at nominal speed, minus 1, and the records of both."""
    from spans import Tracer
    from speed import SpeedSampler

    def nominal(records):
        return sum(r.seconds / r.speed_factor for r in records)

    plain = []
    with SpeedSampler() as sampler:
        start = perf_counter()
        for record, _ in timed_calls(workload, sampler):
            plain.append(record)
            if perf_counter() - start >= seconds:
                break
        with Tracer():
            traced = [record for record, _ in
                      itertools.islice(timed_calls(workload, sampler), len(plain))]
    return nominal(traced) / nominal(plain) - 1.0, plain + traced


def setup_seconds(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Set-up (import + inputs) in SETUP_REPEATS fresh processes: the
    median at nominal machine speed, and the median wall time."""
    nominal, wall = [], []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(PROBE), name, str(seed)] + (["--tiny"] if tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=True)
        seconds, factor = map(float, done.stdout.split())
        nominal.append(seconds / factor)
        wall.append(seconds)
    return statistics.median(nominal), statistics.median(wall)


def git_state() -> tuple[str, object]:
    """(commit, dirty) of the checkout, or ("unknown", None) outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                               "HEAD"], capture_output=True, text=True, env=env,
                              timeout=30)
        if head.returncode != 0:
            return "unknown", None
        top, commit = head.stdout.split()
        if Path(top).resolve() != ROOT:
            return "unknown", None
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, env=env, timeout=30)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return "unknown", None
    return commit, bool(status.stdout.strip())


def environment() -> dict:
    import numpy
    import qcap

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = git_state()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "qcap": qcap.__version__, "commit": commit, "dirty": dirty}


def pass_totals(records) -> list[tuple[int, float, float]]:
    """(items, seconds, seconds at nominal speed) of each pass, in order."""
    totals: dict[int, list] = {}
    for r in records:
        entry = totals.setdefault(r.pass_index, [0, 0.0, 0.0])
        entry[0] += r.items
        entry[1] += r.seconds
        entry[2] += r.seconds / r.speed_factor
    return [tuple(totals[k]) for k in sorted(totals)]


def latencies_ms(records, normalized: bool) -> list[float]:
    return [1000.0 * r.seconds / r.items / (r.speed_factor if normalized else 1.0)
            for r in records if r.items > 0]


def end_to_end(records, wall: float, setup: tuple[float, float],
               check) -> tuple[dict, dict]:
    """The gated metrics, and the reported-only ones for the table.

    Call times are divided by their speed factor, so the gated timings
    are in seconds at the sampler's nominal machine speed; the raw wall
    clock figures are reported beside them.  Throughput is the median
    over the run's passes, so that one disturbed pass does not move it."""
    lat = latencies_ms(records, normalized=True)
    raw = latencies_ms(records, normalized=False)
    items = sum(r.items for r in records)
    metrics = {
        "setup_s": setup[0],
        "items_per_s": statistics.median(n / s for n, _, s in pass_totals(records)),
        "item_ms_p50": statistics.median(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "item_ms_p90": (statistics.quantiles(lat, n=10)[8], "ms") if len(lat) >= 100
        else (None, "ms"),
        "wall_setup_s": (setup[1], "s"),
        "wall_items_per_s": (items / wall, "1/s"),
        "wall_item_ms_p50": (statistics.median(raw), "ms"),
        "speed_factor": (statistics.median(r.speed_factor for r in records), "1"),
        "failed_frac": (check.failed / check.attempted, "frac"),
        "chi_mean_bits": (check.chi_sum / check.chi_count, "bits")
        if check.chi_count else (None, "bits"),
    }
    return metrics, extra


def per_layer(tracer, records, wall: float, overhead: float) -> dict:
    import spans

    totals = tracer.layer_totals()
    counters = tracer.counters

    def total(name, stat):
        return totals.get(name, {}).get(stat, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    obj, opt, sk = spans.OBJECTIVE, spans.OPTIMIZER, spans.SINKHORN
    opt_calls = total(opt, "calls")
    derived = {
        obj + ".evals": total(obj, "calls"),
        obj + ".rows": counters.get(obj + ".rows", 0),
        obj + ".ns_per_row": ratio(1e9 * total(obj, "s"), counters.get(obj + ".rows", 0)),
        opt + ".iterations_mean": ratio(counters.get(opt + ".iterations", 0), opt_calls),
        opt + ".cap_hit_frac": ratio(counters.get(opt + ".cap_hits", 0), opt_calls),
        opt + ".member_converged_frac": ratio(counters.get(opt + ".members_converged", 0),
                                              counters.get(opt + ".members", 0)),
        sk + ".sweeps_mean": ratio(counters.get(sk + ".sweeps", 0), total(sk, "calls")),
        "py.warnings": tracer.warnings,
        "trace.items": sum(r.items for r in records),
        "trace.wall_s": wall,
        "trace.self_s_frac": ratio(sum(t["self_s"] for t in totals.values()), wall),
        "trace.overhead_frac": overhead,
    }
    metrics = {}
    for name in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        else:
            layer, stat = name.rsplit(".", 1)
            metrics[name] = total(layer, stat)
    return metrics


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args) -> int:
    use_checkout_library()
    import workloads
    from spans import Tracer
    from speed import SpeedSampler

    env = environment()
    work_dir = OUT_DIR / "work" / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    setup = None if args.trace else setup_seconds(args.workload, args.seed, args.tiny)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, work_dir)

    replay = tracer = overhead = None
    with workload.capture():
        if args.trace:
            with Tracer() as tracer:
                records, wall, passes, check = run_passes(workload, args.seconds,
                                                          args.inject_fault)
            overhead, replay = tracing_overhead(workload, wall / 6.0)
        else:
            with SpeedSampler() as sampler:
                records, wall, passes, check = run_passes(workload, args.seconds,
                                                          args.inject_fault, sampler)
        check.add(workload.check_repeats(replay))
    shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(tracer, records, wall, overhead)
        units, extra = PER_LAYER, {}
        tracer.write(OUT_DIR / f"trace-{args.workload}.csv")
    else:
        metrics, extra = end_to_end(records, wall, setup, check)
        units = END_TO_END

    print("env " + json.dumps(env))
    print(f"{args.workload} seed={args.seed}: {passes} pass(es), {check.attempted} items "
          f"in {wall:.2f} s, {check.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<48} {_fmt(value):>12} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<48} {_fmt(value):>12} {unit}  (not gated)")
    if tracer is not None and tracer.absent:
        print("absent: " + " ".join(tracer.absent))

    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "env": env, "passes": passes, "wall_s": wall,
                             "pass_s": [s for _, s, _ in pass_totals(records)],
                             "absent": tracer.absent if tracer else [],
                             "extra": {k: v for k, (v, _) in extra.items()},
                             **result}) + "\n")
    print(json.dumps(result))
    return 0 if check.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--tiny"] * args.tiny + ["--inject-fault"] * args.inject_fault
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        status = max(status, done.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
