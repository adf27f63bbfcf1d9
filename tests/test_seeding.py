import numpy as np
import pytest

from superpanel import seeding

# one word, the word boundaries and the largest 64-bit key
ENTROPY = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class StubPool:
    """A ProcessPoolExecutor stand-in that records its worker count and runs in process."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


@pytest.mark.parametrize("jobs, n_args, workers", [
    (8, 5, [5]), (2, 5, [2]), (5, 5, [5]), (8, 1, []), (1, 5, []), (3, 0, []),
])
def test_map_units_starts_no_idle_worker(monkeypatch, jobs, n_args, workers):
    monkeypatch.setattr(StubPool, "started", [])
    monkeypatch.setattr(seeding, "ProcessPoolExecutor", StubPool)
    args = list(range(-n_args, 0))
    assert seeding.map_units(abs, args, jobs) == [abs(a) for a in args]
    assert StubPool.started == workers


@pytest.mark.parametrize("keys", [(v,) for v in ENTROPY] + [
    (-3,), ("profile", "12"), (("a", 1),), (2**32, -3, "x", ("a", 1)), (),
])
@pytest.mark.parametrize("master", [7, 2**100 + 5])
def test_streams_are_the_seed_sequence_of_the_key_ints(master, keys):
    """derive_rng draws what SeedSequence draws from the keys' ints, as it did
    when it handed SeedSequence the int list; a negative int, a string and a
    tuple are hashed."""
    ints = [seeding._key_to_int(k) for k in (master, *keys)]
    want = np.random.default_rng(np.random.SeedSequence(ints))
    got = seeding.derive_rng(master, *keys)
    assert np.array_equal(got.random(16), want.random(16))
    assert np.array_equal(got.standard_normal(16), want.standard_normal(16))
    assert seeding.derive_seed(master, *keys) == int(
        np.random.SeedSequence(ints).generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("args, seed", [
    ((7, "synth"), 14507659834605031059),
    ((424242, "evaluate", "train"), 14938429088844323011),
    ((0, 0), 15793235383387715774),
    ((2**64 - 1, -3, ("a", 1)), 13535195677390126445),
    ((2**100 + 5, 2**32), 5464288465547070454),
])
def test_derive_seed_values_pinned(args, seed):
    assert seeding.derive_seed(*args) == seed
