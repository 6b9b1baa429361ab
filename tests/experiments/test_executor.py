"""The one executor, against the parent's numbers.

``golden_payloads.json`` holds ``repr(result.payload())`` for every
registered id at :data:`~tests.experiments.test_runners.TINY` (fig2 at its
default sweep, of which TINY's 60k pairs cut three sizes into two or more
blocks), for two seeds, recorded from the *plain serial* route of the commit before the
run context and the executor existed (19 runner functions, no ruleset
cache).  Every route through the table must reproduce them:
``run_experiment``, the in-process loop and a process pool.
"""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.config import DEFAULT_SEED
from repro.experiments.registry import EXPERIMENTS, run_experiment, run_experiments
from tests.experiments.test_runners import TINY

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_payloads.json").read_text(encoding="utf-8")
)
SEEDS = (DEFAULT_SEED, 7)
IDS = list(EXPERIMENTS)

_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def rounded(payload_repr: str) -> str:
    """Every float literal at 12 significant digits: a different SIMD
    summation order moves the last bits of a mean, not the twelfth digit."""
    return _FLOAT.sub(lambda m: f"{float(m.group()):.12g}", payload_repr)


def assert_golden(result, seed):
    want = GOLDEN[result.experiment_id][str(seed)]
    assert rounded(repr(result.payload())) == rounded(want)


def test_golden_file_covers_the_table():
    assert set(GOLDEN) == set(EXPERIMENTS)
    assert all(set(by_seed) == {str(s) for s in SEEDS} for by_seed in GOLDEN.values())


def test_rounding_keeps_twelve_digits():
    assert rounded("(0.1234567890123456, 1.0, 3, 'x0.5')") == (
        "(0.123456789012, 1, 3, 'x0.5')"
    )
    assert rounded("0.12345678901") != rounded("0.12345678902")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("experiment_id", IDS)
def test_run_experiment_reproduces_parent(experiment_id, seed):
    assert_golden(run_experiment(experiment_id, seed=seed, scale=TINY), seed)


@pytest.fixture(scope="module", params=[1, 2], ids=["loop", "pool"])
def executed(request):
    """One executor call per route for the whole table and both seeds."""
    runs = list(
        run_experiments(IDS, seeds=SEEDS, workers=request.param, scale=TINY)
    )
    assert [(r.result.experiment_id, r.seed) for r in runs] == [
        (i, s) for i in IDS for s in SEEDS
    ]
    if request.param > 1:
        assert len({r.pid for r in runs}) > 1
    return {(r.result.experiment_id, r.seed): r for r in runs}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("experiment_id", IDS)
def test_executor_reproduces_parent(executed, experiment_id, seed):
    run = executed[experiment_id, seed]
    assert run.seconds > 0
    assert_golden(run.result, seed)


class Boom(RuntimeError):
    pass


def _explode(ctx):
    raise Boom(f"seed {ctx.seed}")


@pytest.mark.parametrize("workers", [0, 2], ids=["loop", "pool"])
def test_a_failing_task_propagates(monkeypatch, workers):
    """No catch-and-continue: the runs before the failing task arrive,
    then its exception does, out of the loop and out of the pool."""
    import repro.experiments.registry as registry

    table = {"fig1": registry.EXPERIMENTS["fig1"], "boom": ("t", _explode)}
    monkeypatch.setattr(registry, "EXPERIMENTS", table)
    runs = run_experiments(["fig1", "boom", "fig1"], workers=workers, scale=TINY)
    assert next(runs).result.experiment_id == "fig1"
    with pytest.raises(Boom, match=f"seed {DEFAULT_SEED}"):
        next(runs)
    with pytest.raises(StopIteration):
        next(runs)


def test_bad_requests_are_refused_before_anything_runs():
    with pytest.raises(KeyError, match="known: "):
        run_experiments(["fig1", "fig99"], scale=TINY)
    with pytest.raises(ValueError, match="seed"):
        run_experiments(["fig1"], seeds=(), scale=TINY)
    with pytest.raises(ValueError, match="workers"):
        run_experiments(["fig1"], workers=-2, scale=TINY)
