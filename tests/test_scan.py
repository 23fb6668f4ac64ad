"""The scan engine: chunk folds equal the serial scan for any split and job count."""

import functools
import random

import pytest

from massey_workbench import _parallel
from massey_workbench._parallel import Scan, pair_scan, scan


def make_tasks(n, seed):
    """(index, value, flag) with few distinct values (ties) and sparse flags."""
    rng = random.Random(seed)
    return [(i, rng.randint(-2, 3), rng.random() < 0.15) for i in range(n)]


def stats_probe(payload, task, out):
    """Scans everything: two checks, a tied statistic and one that stays zero."""
    i, value, flag = task
    out.offer("value", value, i)
    out.offer("zero", 0, i)
    if flag:
        out.fail("flag", i)
    if value == payload:
        out.fail("hit", i)


def check_probe(payload, task, out):
    """Check-only: stops its chunk at the first failure."""
    i, value, flag = task
    if flag or value == payload:
        out.fail("check", i)
        return True


def serial(tasks, target, stop):
    """The reference: one pass in task order."""
    failures, value_max, value_arg = {}, -1, None
    for i, value, flag in tasks:
        if stop:
            if flag or value == target:
                failures["check"] = i
                break
            continue
        if flag:
            failures.setdefault("flag", i)
        if value == target:
            failures.setdefault("hit", i)
        if value > value_max:
            value_max, value_arg = value, i
    return failures, (value_max, value_arg)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("probe", [stats_probe, check_probe], ids=["stats", "check"])
def test_scan_matches_every_two_way_split(seed, probe):
    tasks = make_tasks(23, seed)
    target = 3
    failures, value_best = serial(tasks, target, probe is check_probe)
    results = [scan(probe, target, tasks, jobs) for jobs in (1, 2, 3)]
    results += [
        functools.reduce(Scan.merge, [scan(probe, target, part) for part in parts])
        for k in range(len(tasks) + 1)
        for parts in [(tasks[:k], tasks[k:])]
    ]
    for result in results:
        assert result.checked == len(tasks)
        assert result.failures == failures
        if probe is stats_probe:
            assert result.best("value", -1) == value_best
            assert result.best("zero", 0) == (0, None)
            assert result.best("zero", -1) == (0, 0)
    assert results[0] == results[1] == results[2]


def test_scan_all_zero_and_empty():
    tasks = [(i, 0, False) for i in range(8)]
    for jobs in (1, 2, 3):
        result = scan(stats_probe, 9, tasks, jobs)
        assert result.best("value", 0) == (0, None)
        assert result.best("value", -1) == (0, 0)
        assert result.failures == {}
    empty = scan(stats_probe, 9, [], 2)
    assert empty == Scan()
    assert empty.best("value", -1) == (-1, None)


def pair_probe(payload, pair, out):
    g, h = pair
    out.offer("product", g * h, pair)
    if g + h == payload:
        out.fail("sum", pair)
        return True


def test_pair_scan_rows_in_order():
    left, right = list(range(-3, 6)), list(range(-2, 4))
    for jobs in (1, 2, 3):
        result = pair_scan(pair_probe, 100, left, right, jobs)
        assert result.checked == len(left) * len(right)
        assert result.best("product", 0) == (15, (5, 3))
        assert result.failures == {}
        # A failure stops its row chunk but still counts the whole domain.
        stopped = pair_scan(pair_probe, 1, left, right, jobs)
        assert stopped.checked == len(left) * len(right)
        assert stopped.failures == {"sum": (-2, 3)}


def recording_probe(seen, task, out):
    """Records every task it sees (in-process only) and fails on flagged ones."""
    seen.append(task)
    if task[-1] is True:
        out.fail("flag", task)
        return True


def test_a_true_return_ends_the_chunk():
    tasks = [(i, i in (4, 9)) for i in range(12)]
    seen = []
    result = scan(recording_probe, seen, tasks)
    assert seen == tasks[:5]
    assert result == Scan(12, {"flag": (4, True)})
    seen = []
    result = pair_scan(recording_probe, seen, [0, 1, 2], [False, True, False])
    assert seen == [(0, False), (0, True)]
    assert result == Scan(9, {"flag": (0, True)})


class RecordingContext:
    """A multiprocessing context whose pool records its size and chunk count
    and maps in-process, so no worker process starts."""

    def __init__(self):
        self.pools = []

    def Pool(self, processes):
        self.pools.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.pools.append(len(items))
        return [fn(item) for item in items]


def test_workers_and_chunks_are_capped_at_the_cpu_count(monkeypatch):
    """--jobs 5000 once forked 5000 workers for a list of 10,000 tasks."""
    ctx = RecordingContext()
    monkeypatch.setattr(_parallel.multiprocessing, "get_context", lambda method: ctx)
    tasks = make_tasks(10_000, 1)
    serial_scan = scan(stats_probe, 3, tasks)
    for cpus, jobs in ((4, 5000), (4, 3), (None, 5000)):
        monkeypatch.setattr(_parallel.os, "cpu_count", lambda: cpus)
        assert scan(stats_probe, 3, tasks, jobs) == serial_scan
    # (processes, chunks) per pool; no CPU count means one job, in-process.
    assert ctx.pools == [4, 4, 3, 3]
