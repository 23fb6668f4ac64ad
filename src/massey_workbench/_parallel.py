"""Deterministic worker-pool helpers.

Tasks are materialized lists split into contiguous chunks; workers return
partial aggregates that the caller merges in chunk order, so results are
identical for any job count. Worker functions must live at module level to
survive pickling.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Sequence

Worker = Callable[[Any, int, Sequence], dict]


def _chunks(tasks: Sequence, jobs: int) -> list[tuple[int, Sequence]]:
    n = len(tasks)
    size = (n + jobs - 1) // jobs
    return [(start, tasks[start : start + size]) for start in range(0, n, size)]


def _invoke(args):
    worker, payload, start, chunk = args
    return worker(payload, start, chunk)


def chunked_map(worker: Worker, payload, tasks: Sequence, jobs: int = 1) -> list[dict]:
    """Run ``worker(payload, start_index, chunk)`` over contiguous chunks."""
    if not tasks:
        return []
    if jobs <= 1 or len(tasks) < 2 * jobs:
        return [worker(payload, 0, tasks)]
    ctx = multiprocessing.get_context("fork")
    parts = _chunks(tasks, jobs)
    with ctx.Pool(processes=min(jobs, len(parts))) as pool:
        return pool.map(_invoke, [(worker, payload, start, chunk) for start, chunk in parts])


def _triangle_worker(payload, start: int, chunk) -> dict:
    from . import decomposition

    spec, ball, inner_radius = payload
    checked, counterexample, r_hat, argmax, r_hat_inner = decomposition.triangle_scan(
        spec, list(chunk), ball, inner_radius
    )
    return {
        "checked": checked,
        "counterexample": counterexample,
        "r_hat": r_hat,
        "r_hat_argmax": argmax,
        "r_hat_inner": r_hat_inner,
        "start": start,
    }


def parallel_triangle_scan(spec, ball: list, jobs: int, inner_radius: int = -1) -> dict:
    """Pairwise triangle scan with the outer loop split over workers.

    ``r_hat_inner`` is the max thick length over the pairs of words of
    length <= ``inner_radius`` (-1 if there are none).
    """
    parts = chunked_map(_triangle_worker, (spec, ball, inner_radius), ball, jobs)
    merged = {
        "checked": 0,
        "counterexample": None,
        "r_hat": -1,
        "r_hat_argmax": None,
        "r_hat_inner": -1,
    }
    for part in parts:
        merged["checked"] += part["checked"]
        if merged["counterexample"] is None and part["counterexample"] is not None:
            merged["counterexample"] = part["counterexample"]
        if part["r_hat"] > merged["r_hat"]:
            merged["r_hat"] = part["r_hat"]
            merged["r_hat_argmax"] = part["r_hat_argmax"]
        merged["r_hat_inner"] = max(merged["r_hat_inner"], part["r_hat_inner"])
    merged["r_hat"] = max(merged["r_hat"], 0)
    return merged
