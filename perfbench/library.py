"""Locate the qcap sources of the checkout the benchmark runs in.

The benchmark measures the library in ``src/`` next to it, never an
installed copy, so a directory without those sources is an error.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

EXIT_NO_LIBRARY = 2


def use_checkout_library() -> None:
    """Put ``src/`` first on the import path and check that ``qcap``
    resolves there; exit with EXIT_NO_LIBRARY otherwise."""
    if not (SRC / "qcap" / "__init__.py").is_file():
        print(f"error: no qcap sources under {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_LIBRARY)
    sys.path.insert(0, str(SRC))
    import qcap

    if SRC not in Path(qcap.__file__).resolve().parents:
        print(f"error: qcap imported from {qcap.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(EXIT_NO_LIBRARY)
