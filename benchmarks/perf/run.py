"""Entry point that needs no PYTHONPATH: ``python3 benchmarks/perf/run.py``.

``BENCHMARK.json`` names this file as the benchmark's command.  It puts
the checkout root (for ``benchmarks.perf``) and ``src`` (for ``repro``)
on the import path and hands over to :mod:`benchmarks.perf.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
