"""One timed benchmark set-up: import the library and build a workload's
inputs from its seed.  Prints the seconds taken and, on the same line,
the machine-speed factor measured right after, for as long again
(see ``speed.py``).

    python3 perfbench/probe.py <workload> <seed> [--tiny]
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

from library import OUT_DIR, use_checkout_library  # noqa: E402

use_checkout_library()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), "--tiny" in sys.argv[3:], OUT_DIR)
seconds = perf_counter() - START

import speed  # noqa: E402

print(f"{seconds!r} {speed.factor_over(seconds)!r}")
