import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsat2 import seeding
from qsat2.seeding import (
    FACTOR_STREAM,
    GRAPH_STREAM,
    MASK64,
    derive_trial_seed,
    mix64,
    randbelow,
    randbelow_batches,
    stream_seed,
    uniform01,
)

from rng_premise import KERNEL_BOUNDS

u64 = st.integers(0, MASK64)


def test_golden_vectors():
    # frozen outputs: any change here silently reshuffles every experiment
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(2**64 - 1) == 13029008266876403067
    assert derive_trial_seed(0, 0, 0) == 3746585686858627171
    assert derive_trial_seed(42, 3, 17) == 15582162091809384206
    assert stream_seed(0, GRAPH_STREAM) == 2039656155128696651
    assert stream_seed(0, FACTOR_STREAM) == 10666630031809862347


@given(u64)
def test_mix64_in_range(x):
    y = mix64(x)
    assert 0 <= y <= MASK64


@given(u64, st.integers(0, 1000), st.integers(0, 1000))
def test_derive_depends_on_all_inputs(master, gi, ti):
    base = derive_trial_seed(master, gi, ti)
    assert base != derive_trial_seed(master ^ 1, gi, ti)
    assert base != derive_trial_seed(master, gi + 1, ti)
    assert base != derive_trial_seed(master, gi, ti + 1)


def _mix64_vec(x: np.ndarray) -> np.ndarray:
    # numpy uint64 arithmetic wraps, matching the scalar masked version
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _derive_vec(master: int, gi: np.ndarray, ti: np.ndarray) -> np.ndarray:
    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        z = np.full_like(gi, mix64(master ^ int(golden)), dtype=np.uint64)
        z = _mix64_vec(z + gi.astype(np.uint64))
        z = _mix64_vec(z + ti.astype(np.uint64))
    return z


def test_vectorised_mirror_matches_scalar():
    gi = np.arange(64, dtype=np.uint64)
    ti = np.arange(64, dtype=np.uint64) * np.uint64(7)
    got = _derive_vec(99, gi, ti)
    for i in range(64):
        assert int(got[i]) == derive_trial_seed(99, int(gi[i]), int(ti[i]))


def test_million_trial_seeds_distinct():
    # a full sweep's worth of (grid, trial) cells must never collide
    grids, trials = 100, 10_000
    gi = np.repeat(np.arange(grids, dtype=np.uint64), trials)
    ti = np.tile(np.arange(trials, dtype=np.uint64), grids)
    seeds = _derive_vec(12345, gi, ti)
    assert len(np.unique(seeds)) == grids * trials


def test_stream_separation():
    seeds = [stream_seed(s, GRAPH_STREAM) for s in range(1000)]
    seeds += [stream_seed(s, FACTOR_STREAM) for s in range(1000)]
    assert len(set(seeds)) == 2000


# --- the bulk draw kernel ---------------------------------------------------


def test_rng_premise_holds_without_numpy():
    # the stdlib-only check of the word rules the kernel redoes; with numpy
    # blocked, any import of it fails the script
    script = str(Path(__file__).with_name("rng_premise.py"))
    run = "import runpy, sys; sys.modules['numpy'] = None; "
    run += f"runpy.run_path({script!r}, run_name='__main__')"
    proc = subprocess.run([sys.executable, "-c", run], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rng premise holds on Python ")


@pytest.mark.parametrize("bound", KERNEL_BOUNDS + [2**32, 2**32 + 1, 3**40])
@pytest.mark.parametrize("count", [0, 1, 7, 5000])
def test_randbelow_matches_randrange(bound, count):
    got = randbelow(random.Random(bound + count), bound, count)
    rng = random.Random(bound + count)
    assert got.tolist() == [rng.randrange(bound) for _ in range(count)]
    assert got.dtype == (np.int64 if bound < 2**32 or count == 0 else object)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, MASK64), st.integers(1, 2**32 - 1), st.integers(0, 300))
def test_randbelow_matches_randrange_any_bound(seed, bound, count):
    rng = random.Random(seed)
    assert randbelow(random.Random(seed), bound, count).tolist() == [
        rng.randrange(bound) for _ in range(count)
    ]


@pytest.mark.parametrize("bound", [1, 3, 2**31 + 1, 2**32 + 1])
def test_randbelow_batches_join_into_the_stream(bound):
    # every refill continues where the last batch stopped, with no draw lost
    batches = randbelow_batches(random.Random(5), bound, 10)
    joined = np.concatenate([next(batches) for _ in range(12)]).tolist()
    rng = random.Random(5)
    assert len(joined) >= 120
    assert joined == [rng.randrange(bound) for _ in joined]


def test_randbelow_refills_a_short_batch(monkeypatch):
    # batches sized for 1 value, asked for 400: hundreds of refills
    sized = seeding.randbelow_batches
    monkeypatch.setattr(seeding, "randbelow_batches", lambda rng, bound, _: sized(rng, bound, 1))
    got = seeding.randbelow(random.Random(9), 3, 400)
    rng = random.Random(9)
    assert got.tolist() == [rng.randrange(3) for _ in range(400)]


def test_randbelow_rejects_empty_range():
    with pytest.raises(ValueError):
        randbelow(random.Random(0), 0, 3)
    # no draw, no error: zero randrange(0) calls raise nothing either
    assert randbelow(random.Random(0), 0, 0).tolist() == []


@pytest.mark.parametrize("count", [0, 1, 2, 999])
def test_uniform01_matches_random(count):
    got = uniform01(random.Random(count), count)
    rng = random.Random(count)
    assert got.dtype == np.float64
    assert got.tolist() == [rng.random() for _ in range(count)]
