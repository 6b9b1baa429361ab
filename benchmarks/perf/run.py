"""The benchmark's entry point: ``python3 benchmarks/perf/run.py ...``.

The driver runs this file by path from the root of a bare checkout, with
no ``PYTHONPATH``; it puts the checkout root (for ``benchmarks.perf``)
and ``src`` (for ``repro``) on the path and hands over to the CLI.
``python -m benchmarks.perf`` imports it, so both spell one command.
"""

import time

_STARTED = time.perf_counter()  # before any import: set-up includes them

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"no program to measure: {_ROOT / 'src' / 'repro'} is missing")
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(started=_STARTED))
