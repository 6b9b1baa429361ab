"""``python -m benchmarks.perf`` is an alias of ``python3 benchmarks/perf/run.py``."""

from benchmarks.perf.run import main

raise SystemExit(main())
