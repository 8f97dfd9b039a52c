"""Self-test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

For every workload it checks that
  * an untraced and a traced run succeed, and the last line holds exactly
    the end-to-end or per-layer metrics of BENCHMARK.json, each with the
    unit listed there;
  * a run with one deliberately wrong output counts it as failed
    (``failed >= 1``, ``correct`` false) and exits non-zero;
and that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from library import OUT_DIR, ROOT
from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, *flags: str, cwd: Path = ROOT, run: Path = RUN):
    argv = [sys.executable, str(run), "--workload", workload, "--seed", "3",
            "--seconds", "1", *flags]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, done.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py's")

    for workload in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            code, result, out = _run(workload, "--trace", trace, "--tiny")
            label = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}\n{out}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {result}")
            units = {k: v.get("unit") for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics/units {units} != {expected[trace]}")
            for name, entry in result["metrics"].items():
                value = entry.get("value")
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"{label}: {name} is not a number: {value!r}")
            print(f"ok   {label}: {result['attempted']} items, "
                  f"{len(result['metrics'])} metrics")

        code, result, out = _run(workload, "--tiny", "--inject-fault")
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload} --inject-fault: wrong output not counted "
                            f"(exit {code}): {result}")
        else:
            print(f"ok   {workload} --inject-fault: failed_frac = "
                  f"{result['failed']}/{result['attempted']}, exit {code}")

    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(RUN.parent, bare / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result, out = _run("unital_chi", "--tiny", cwd=bare,
                             run=bare / RUN.parent.name / RUN.name)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append(f"without library sources: exit {code}, printed {out!r}")
    else:
        print(f"ok   without library sources: exit {code}, no result printed")

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
