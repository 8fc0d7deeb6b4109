"""Script entry point of the benchmark, as ``BENCHMARK.json`` names it.

    python3 benchmarks/suite/run.py --workload full-batch --seed 1 --seconds 8 --trace 0

Puts the checkout's root and ``src`` on the import path, so it runs from a
plain copy of the repository with no installation and no environment.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"benchmarks/suite measures the program in {ROOT}/src/repro, which is not there")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.suite.cli import main

    sys.exit(main())
