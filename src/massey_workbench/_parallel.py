"""The scan engine: one deterministic chunked fold over a task list.

Tasks are materialized lists split into contiguous chunks. Each worker
returns a ``Scan`` of its chunk and the caller folds them in chunk order
with ``Scan.merge``, so results are identical for any job count. Worker
and probe functions must live at module level to survive pickling; the
payload is copied into each worker, so state kept in it (an evaluation
cache) is per chunk.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


@dataclass
class Scan:
    """Partial result of a scan over a contiguous run of tasks.

    ``checked`` counts the tasks covered, ``failures`` maps each named check
    to its first counterexample, and ``maxima`` maps each named statistic to
    its largest value and the argument that first reached it.
    """

    checked: int = 0
    failures: dict[str, Any] = field(default_factory=dict)
    maxima: dict[str, tuple[Any, Any]] = field(default_factory=dict)

    def fail(self, check: str, counterexample) -> None:
        self.failures.setdefault(check, counterexample)

    def offer(self, stat: str, value, arg=None) -> None:
        held = self.maxima.get(stat)
        if held is None or value > held[0]:
            self.maxima[stat] = (value, arg)

    def best(self, stat: str, start) -> tuple[Any, Any]:
        """(max, first argument reaching it), or (start, None) if nothing beat ``start``."""
        held = self.maxima.get(stat)
        if held is None or held[0] <= start:
            return start, None
        return held

    def merge(self, later: Scan) -> Scan:
        """Fold in the scan of the tasks that follow this one."""
        self.checked += later.checked
        for check, counterexample in later.failures.items():
            self.fail(check, counterexample)
        for stat, (value, arg) in later.maxima.items():
            self.offer(stat, value, arg)
        return self


Worker = Callable[[Any, Sequence], Scan]
# probe(payload, task, out) records into ``out``; a true return ends the chunk.
Probe = Callable[[Any, Any, Scan], Any]


def _chunks(tasks: Sequence, jobs: int) -> list[Sequence]:
    size = (len(tasks) + jobs - 1) // jobs
    return [tasks[start : start + size] for start in range(0, len(tasks), size)]


def _invoke(args) -> Scan:
    worker, payload, chunk = args
    return worker(payload, chunk)


def chunked_map(worker: Worker, payload, tasks: Sequence, jobs: int = 1) -> Scan:
    """Run ``worker(payload, chunk)`` over contiguous chunks, at most one per CPU, and fold them."""
    if not tasks:
        return Scan()
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(tasks) < 2 * jobs:
        return worker(payload, tasks)
    ctx = multiprocessing.get_context("fork")
    parts = _chunks(tasks, jobs)
    with ctx.Pool(processes=len(parts)) as pool:
        scans = pool.map(_invoke, [(worker, payload, chunk) for chunk in parts])
    return functools.reduce(Scan.merge, scans)


def _probe_chunk(payload, chunk) -> Scan:
    probe, inner = payload
    out = Scan(len(chunk))
    for task in chunk:
        if probe(inner, task, out):
            break
    return out


def scan(probe: Probe, payload, tasks: Sequence, jobs: int = 1) -> Scan:
    """``probe`` on every task in order; a probe that returns true ends its chunk."""
    return chunked_map(_probe_chunk, (probe, payload), tasks, jobs)


def _pair_chunk(payload, chunk) -> Scan:
    probe, inner, right = payload
    out = Scan(len(chunk) * len(right))
    for g in chunk:
        for h in right:
            if probe(inner, (g, h), out):
                return out
    return out


def pair_scan(probe: Probe, payload, left: Sequence, right: Sequence, jobs: int = 1) -> Scan:
    """``probe`` on every pair of ``left x right`` in row order, split by rows.

    Only the rows are chunked, so memory stays linear in the word lists.
    """
    return chunked_map(_pair_chunk, (probe, payload, right), left, jobs)
