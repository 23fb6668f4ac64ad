"""Stage runners: exact identity checks over seeded tuple domains."""

from __future__ import annotations

import functools
from fractions import Fraction

from ._parallel import Scan, scan
from .cochain import (
    Cochain,
    EvalContext,
    LettersTuple,
    exhaustive_aligned_tuples,
    random_aligned_tuples,
)
from .report import ExperimentPlan, StageResult
from .words import format_letters


def describe_tuple(t: LettersTuple) -> list[str]:
    return [format_letters(x) for x in t]


def stage_tasks(
    plan: ExperimentPlan, arity: int, stage: str, exhaustive: dict | None = None
) -> list[LettersTuple]:
    """Exhaustive budgeted tuples plus seeded random tuples for one stage.
    ``exhaustive``, if given, keeps the exhaustive part of each arity across
    calls."""
    exhaustive = {} if exhaustive is None else exhaustive
    if arity not in exhaustive:
        exhaustive[arity] = list(
            exhaustive_aligned_tuples(
                plan.rank,
                arity,
                plan.budget(arity),
                plan.exhaustive_entry_radius,
                plan.enumeration_cap,
            )
        )
    seed = f"{plan.seed}:{stage}"
    return exhaustive[arity] + random_aligned_tuples(
        plan.rank, arity, plan.samples(stage), plan.max_len, seed
    )


def task_lists(plan: ExperimentPlan):
    """``stage_tasks`` for one run: the exhaustive part of each arity is
    built once, and the last list is kept, so adjacent stages on one
    (arity, sample key) share it."""
    parts = functools.partial(stage_tasks, plan, exhaustive={})
    return functools.lru_cache(maxsize=1)(parts)


def _identity_probe(payload, t: LettersTuple, out: Scan):
    name, lhs, rhs, ctx = payload
    left = lhs._eval(t, ctx)
    right = rhs._eval(t, ctx)
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
    tasks: list[LettersTuple],
    jobs: int = 1,
) -> StageResult:
    """Exact pointwise equality of two expressions over the task list."""
    result = scan(_identity_probe, (name, lhs, rhs, EvalContext()), tasks, jobs)
    return StageResult.from_scan(name, result)


def _zero_probe(payload, t: LettersTuple, out: Scan):
    name, expr, ctx = payload
    value = expr._eval(t, ctx)
    if value:
        out.fail(name, {"tuple": describe_tuple(t), "value": str(Fraction(value, expr.den))})
        return True


def vanishing_stage(
    name: str, expr: Cochain, tasks: list[LettersTuple], jobs: int = 1
) -> StageResult:
    return StageResult.from_scan(name, scan(_zero_probe, (name, expr, EvalContext()), tasks, jobs))


def _abs_probe(payload, t: LettersTuple, out: Scan) -> None:
    expr, ctx = payload
    out.offer("abs", abs(expr._eval(t, ctx)), t)


def sup_scan(
    expr: Cochain, tasks: list[LettersTuple], jobs: int = 1
) -> tuple[Fraction, list[str] | None, int]:
    """(max |value|, the first tuple reaching it or None if all vanish, tuples
    checked), independent of job count.

    The scan maximizes numerators, which orders tuples as their values do
    because ``expr.den`` is fixed.
    """
    result = scan(_abs_probe, (expr, EvalContext()), tasks, jobs)
    best, arg = result.best("abs", 0)
    return Fraction(best, expr.den), None if arg is None else describe_tuple(arg), result.checked
