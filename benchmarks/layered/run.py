"""Entry point by path: ``python3 benchmarks/layered/run.py ...``.

Puts the repository root on ``sys.path`` so the package imports resolve,
then hands over to :mod:`benchmarks.layered.__main__`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.layered.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
