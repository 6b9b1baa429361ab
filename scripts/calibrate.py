"""Grid-search the trace-generator knobs against the paper's bands.

Not part of the library: a development tool used to pick the calibrated
defaults recorded in MonitorTraceConfig (see DESIGN.md §7).  Run it as
``PYTHONPATH=src python scripts/calibrate.py``.
"""

import itertools
import sys
import time

from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.trace.blocks import blocks_from_arrays
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

N_BLOCKS = 40
SEED = 7

#: MonitorTraceConfig fields and the values tried for each: the session
#: knobs set the coverage decay, the path lifetime the success knee
#: (docs/calibration.md).
GRID = {
    "n_neighbors": [80, 120],
    "activity_sigma": [1.2, 1.6],
    "median_session_blocks": [8.0, 10.0, 12.0],
    "session_sigma": [1.2, 1.5],
    "path_lifetime_blocks": [14.0, 17.0],
}


def evaluate(cfg, seed=SEED, n_blocks=N_BLOCKS):
    gen = MonitorTraceGenerator(cfg, seed=seed)
    arrays = gen.generate_pair_arrays(n_blocks * cfg.block_size)
    blocks = blocks_from_arrays(arrays.source, arrays.replier, block_size=cfg.block_size)
    out = {}
    out["sliding"] = SlidingWindow().run(blocks)
    out["lazy"] = LazySlidingWindow().run(blocks)
    out["static"] = StaticRuleset().run(blocks)
    out["adaptive"] = AdaptiveSlidingWindow().run(blocks)
    return out


def score(runs):
    sl, lz, st, ad = runs["sliding"], runs["lazy"], runs["static"], runs["adaptive"]
    st_succ16 = st.success_series[14] if len(st.success_series) > 14 else 1.0
    targets = [
        (sl.average_coverage, 0.80, 1.0),
        (sl.average_success, 0.79, 1.0),
        (lz.average_coverage, 0.59, 1.0),
        (lz.average_success, 0.59, 1.0),
        (st.average_coverage, 0.22, 0.7),  # 40-block proxy for the 365-block 0.18
        (st_succ16, 0.03, 0.7),
        (ad.average_coverage, 0.78, 0.5),
        (ad.average_success, 0.77, 0.5),
        (ad.blocks_per_generation, 1.7, 0.3),
    ]
    return sum(w * abs(v - t) for v, t, w in targets)


def describe(runs):
    sl, lz, st, ad = runs["sliding"], runs["lazy"], runs["static"], runs["adaptive"]
    st16 = st.success_series[14] if len(st.success_series) > 14 else float("nan")
    return (
        f"sl={sl.average_coverage:.2f}/{sl.average_success:.2f} "
        f"lz={lz.average_coverage:.2f}/{lz.average_success:.2f} "
        f"st={st.average_coverage:.2f}/{st.average_success:.2f}@16={st16:.2f} "
        f"ad={ad.average_coverage:.2f}/{ad.average_success:.2f} b/g={ad.blocks_per_generation:.2f}"
    )


def main():
    keys = list(GRID)
    best = None
    for values in itertools.product(*(GRID[k] for k in keys)):
        params = dict(zip(keys, values))
        cfg = MonitorTraceConfig(**params)
        t0 = time.time()
        runs = evaluate(cfg)
        s = score(runs)
        line = " ".join(f"{k}={v}" for k, v in params.items())
        print(f"[{s:6.3f}] {line}  {describe(runs)}  ({time.time()-t0:.1f}s)")
        sys.stdout.flush()
        if best is None or s < best[0]:
            best = (s, params)
    print("BEST:", best)


if __name__ == "__main__":
    main()
