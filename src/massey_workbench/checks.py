"""Stage runners: exact identity checks over seeded tuple domains."""

from __future__ import annotations

import functools
from fractions import Fraction

from ._parallel import Scan, scan
from .cochain import (
    Cochain,
    EvalContext,
    WordTuple,
    exhaustive_aligned_tuples,
    letters_of,
    random_aligned_tuples,
)
from .report import ExperimentPlan, StageResult


def describe_tuple(t: WordTuple) -> list[str]:
    return [str(w) for w in t]


def stage_tasks(plan: ExperimentPlan, arity: int, stage: str) -> list[WordTuple]:
    """Exhaustive budgeted tuples plus seeded random tuples for one stage."""
    tasks: list[WordTuple] = []
    budget = plan.budget(arity)
    if budget >= arity:
        tasks.extend(
            exhaustive_aligned_tuples(
                plan.rank,
                arity,
                budget,
                plan.exhaustive_entry_radius,
                plan.enumeration_cap,
            )
        )
    count = plan.samples(stage)
    if count > 0:
        tasks.extend(
            random_aligned_tuples(
                plan.rank, arity, count, plan.max_len, f"{plan.seed}:{stage}"
            )
        )
    return tasks


def task_lists(plan: ExperimentPlan):
    """``stage_tasks`` for one run, keeping the last list: adjacent stages on
    one (arity, sample key) share it."""
    return functools.lru_cache(maxsize=1)(functools.partial(stage_tasks, plan))


def _identity_probe(payload, t: WordTuple, out: Scan):
    name, lhs, rhs, ctx = payload
    letters = letters_of(t)
    left = lhs._eval(letters, ctx)
    right = rhs._eval(letters, ctx)
    if left * rhs.den != right * lhs.den:
        out.fail(
            name,
            {
                "tuple": describe_tuple(t),
                "lhs": str(Fraction(left, lhs.den)),
                "rhs": str(Fraction(right, rhs.den)),
            },
        )
        return True


def identity_stage(
    name: str,
    lhs: Cochain,
    rhs: Cochain,
    tasks: list[WordTuple],
    jobs: int = 1,
    stats: dict | None = None,
) -> StageResult:
    """Exact pointwise equality of two expressions over the task list."""
    result = scan(_identity_probe, (name, lhs, rhs, EvalContext()), tasks, jobs)
    return StageResult.from_scan(name, result, stats)


def _zero_probe(payload, t: WordTuple, out: Scan):
    name, expr, ctx = payload
    value = expr._eval(letters_of(t), ctx)
    if value:
        out.fail(name, {"tuple": describe_tuple(t), "value": str(Fraction(value, expr.den))})
        return True


def vanishing_stage(
    name: str, expr: Cochain, tasks: list[WordTuple], jobs: int = 1
) -> StageResult:
    return StageResult.from_scan(name, scan(_zero_probe, (name, expr, EvalContext()), tasks, jobs))


def _abs_probe(payload, t: WordTuple, out: Scan) -> None:
    expr, ctx = payload
    out.offer("abs", abs(expr._eval(letters_of(t), ctx)), t)


def sup_scan(
    expr: Cochain, tasks: list[WordTuple], jobs: int = 1
) -> tuple[Fraction, list[str] | None, int]:
    """(max |value|, the first tuple reaching it or None if all vanish, tuples
    checked), independent of job count.

    The scan maximizes numerators, which orders tuples as their values do
    because ``expr.den`` is fixed.
    """
    result = scan(_abs_probe, (expr, EvalContext()), tasks, jobs)
    best, arg = result.best("abs", 0)
    return Fraction(best, expr.den), None if arg is None else describe_tuple(arg), result.checked
