"""``python -m benchmarks.suite`` (run from the repo root with ``src`` importable)."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
