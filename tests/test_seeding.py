import pytest

from superpanel import seeding


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
