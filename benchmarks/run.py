#!/usr/bin/env python3
"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the kernel is imported from its ``src``
directory, never from an installed copy.  See ``benchmarks/README.md``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "folkit" / "__init__.py").is_file():
        print(f"error: no folkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import folkit

    if not Path(folkit.__file__).resolve().is_relative_to(SRC):
        print(f"error: folkit was imported from {folkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from folkbench.bench import main as bench_main

    return bench_main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
