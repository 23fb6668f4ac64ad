"""Compiled evaluation plans against the recursive tree evaluation.

``cochain.compile_plan`` expands a composite expression once into a
generated straight-line function; ``oracles.tree_eval`` evaluates the same
expression by recursion over its nodes, as the library did before plans.
They must agree exactly:

* on random trees of table, quasi-morphism, restricted and bare
  quasi-morphism coboundary, cup, alternation, linear combination (with
  cancelling pairs), coboundary and constant nodes of degree 0 to 4, on
  aligned tuples and on tuples with identity entries and cancelling
  neighbours;
* on the lhs and rhs of each of the seven exact massey stages, over the
  first 200 tuples of the stage's domain, for the standard config, its three
  mutations and the instances of ``instances.py``.

Two broken expansions, a coboundary with a face dropped and an alternation
whose flipped ranges are not inverted, must each fail the first test.
A plan reads the memo of each memo leaf (``Restriction``, the eta nodes)
inline, under the key the leaf's own ``_eval`` builds: on the same stages,
each memo leaf call a plan made hits again through ``_eval``, and a plan
whose cuts are one letter short fails that test and the stage comparison.
Plans are compiled lazily, once per ``EvalContext``, and never pickled:
every scan payload holds contexts without plans, and ``--jobs`` 2 and 3
runs give the serial report's bytes. Plans of equal source share one code
object and keep their own globals.
"""

import functools
import gc
import importlib.util
import itertools
import json
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from instances import PHIS, PSI1_BY_WINDOW, massey_doc
from massey_workbench import _parallel, cochain, massey
from massey_workbench.checks import task_lists
from massey_workbench.cochain import (
    Coboundary,
    EvalContext,
    Restriction,
    TableCochain,
    _MemoLeaf,
    alternate,
    coboundary,
    constant,
    count_exhaustive_aligned_tuples,
    cup,
    exhaustive_aligned_tuples,
    lincomb,
    qm_cochain,
    random_aligned_tuples,
    restrict,
)
from massey_workbench.config import massey_from_json
from massey_workbench.decomposition import DecompositionSpec
from massey_workbench.harness import run_massey
from massey_workbench.massey import MUTATIONS, _exact_stages, bounded_primitive
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.report import ExperimentPlan, render_json, strip_timing
from massey_workbench.words import invert_letters, multiply_letters, parse_word, reduce_letters
from oracles import tree_eval

ROOT = Path(__file__).resolve().parent.parent
STANDARD = ROOT / "configs" / "massey-brooks-standard.json"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
RANK = 2
W = lambda s: parse_word(s, RANK)

QMS = (
    QuasiMorphism(DecompositionSpec("brooks", RANK, W("ab")), LambdaTable({W("ab"): 1})),
    QuasiMorphism(
        DecompositionSpec("rolli", RANK),
        LambdaTable({W("a"): Fraction(1, 2), W("bb"): -1, W("b"): Fraction(1, 3)}),
    ),
    QuasiMorphism(
        DecompositionSpec("brooks", RANK, W("aab")),
        LambdaTable({W("aab"): Fraction(2, 3), W("b"): Fraction(1, 5)}),
    ),
)
VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=6)
# Entries of up to three letters, the identity among them.
ENTRIES = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3).map(reduce_letters)


@st.composite
def aligned_tuples(draw, degree):
    seed = draw(st.integers(0, 2**16))
    return random_aligned_tuples(RANK, degree, 1, 3, seed)[0]


@st.composite
def trees(draw, degree: int, depth: int):
    """A random expression of this degree, at most ``depth`` composite
    nodes deep."""
    kinds = ["table"] + ["const"] * (degree == 0) + ["qm"] * (degree == 1)
    kinds += ["delta-qm", "restrict-delta-qm"] * (degree == 2)
    if depth > 0:
        kinds += ["alt", "lincomb", "cup"] + ["coboundary"] * (degree >= 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return constant(draw(VALUES))
    if kind == "qm":
        return qm_cochain(draw(st.sampled_from(QMS)))
    if kind in ("delta-qm", "restrict-delta-qm"):
        node = coboundary(qm_cochain(draw(st.sampled_from(QMS))))
        return restrict(node) if kind == "restrict-delta-qm" else node
    if kind == "table":
        rows = draw(st.lists(st.tuples(aligned_tuples(degree), VALUES), max_size=4))
        return TableCochain(degree, dict(rows))
    if kind == "coboundary":
        return coboundary(draw(trees(degree - 1, depth - 1)))
    if kind == "cup":
        p = draw(st.integers(0, degree))
        return cup(draw(trees(p, depth - 1)), draw(trees(degree - p, depth - 1)))
    if kind == "alt":
        return alternate(draw(trees(degree, depth - 1)))
    terms = draw(st.lists(st.tuples(VALUES, trees(degree, depth - 1)), min_size=1, max_size=3))
    if draw(st.booleans()):
        c, e = terms[0]
        terms.append((-c, e))
    return lincomb(*terms) if any(c for c, _ in terms) else lincomb((1, terms[0][1]))


def check_plan(expr, tasks):
    """The plan, on one context across the tasks, equals the tree
    evaluation on another."""
    ctx, ref_ctx = EvalContext(), EvalContext()
    for t in tasks:
        assert expr._eval(t, ctx) == tree_eval(expr, t, ref_ctx), t


def plan_matches_tree(data):
    degree = data.draw(st.integers(0, 4))
    expr = data.draw(trees(degree, 3))
    aligned = data.draw(st.lists(aligned_tuples(degree), min_size=2, max_size=2))
    other = data.draw(st.lists(st.tuples(*[ENTRIES] * degree), min_size=2, max_size=2))
    check_plan(expr, aligned + other)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_plan_matches_tree(data):
    plan_matches_tree(data)


def sentinel_plan() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.SENTINEL_PLAN


def stage_cases():
    """(name, massey config): the standard config, its three mutations,
    and the instances of ``instances.py`` on the mutation-sentinel plan."""
    standard = json.loads(STANDARD.read_text(encoding="utf-8"))
    yield "standard", standard
    for mutation in MUTATIONS:
        yield f"standard {mutation}", dict(standard, mutation=mutation)
    plan = sentinel_plan()
    for phi in sorted(PHIS):
        for window in sorted(PSI1_BY_WINDOW):
            yield f"{phi} K {window}", massey_doc(plan, 1, phi, window)


def first_tasks(plan, tasks, arity: int, key: str, count: int = 200) -> list:
    """The first ``count`` tuples of a stage's ``task_lists`` domain; an
    exhaustive part that holds them is enumerated no further."""
    budget, radius = plan.budget(arity), plan.exhaustive_entry_radius
    if count_exhaustive_aligned_tuples(plan.rank, arity, budget, radius) < count:
        return tasks(arity, key)[:count]
    domain = exhaustive_aligned_tuples(plan.rank, arity, budget, radius, plan.enumeration_cap)
    return list(itertools.islice(domain, count))


CASES = dict(stage_cases())


@pytest.mark.parametrize("case", list(CASES))
def test_stage_plans_match_tree(case):
    m, plan = massey_from_json(CASES[case])
    tasks = task_lists(plan)
    for name, arity, key, lhs, rhs in _exact_stages(m):
        domain = first_tasks(plan, tasks, arity, key)
        assert domain
        for expr in (lhs, rhs) if rhs is not None else (lhs,):
            check_plan(expr, domain)


class CountingContext(EvalContext):
    __slots__ = ("stores",)

    def __init__(self):
        super().__init__()
        self.stores = 0

    def store(self, key, value):
        self.stores += 1
        return super().store(key, value)


def range_value(t, r):
    """The product of ``t[a:b]``, inverted when ``inv`` is set: the entry a
    plan builds for the range ``(a, b, inv)``."""
    a, b, inv = r
    value = functools.reduce(multiply_letters, t[a:b], b"")
    return invert_letters(value) if inv else value


def check_one_memo(expr, tasks):
    """After the plan runs on a tuple, each memo leaf call it made, read
    again through the leaf's ``_eval`` on the uncut plan arguments, hits
    the memo: no new store. A call is made when every factor before it in
    its term is nonzero."""
    root = tuple((i, i + 1, False) for i in range(expr.degree))
    terms = [factors for c, factors in expr._terms(root) if c]
    ctx, reads = CountingContext(), 0
    for t in tasks:
        expr._eval(t, ctx)
        stores = ctx.stores
        for factors in terms:
            for leaf, ranges in factors:
                reads += isinstance(leaf, _MemoLeaf)
                if not leaf._eval(tuple(range_value(t, r) for r in ranges), ctx):
                    break
        assert ctx.stores == stores, t
    return reads


@pytest.mark.parametrize("case", list(CASES))
def test_plan_and_eval_share_one_memo(case):
    m, plan = massey_from_json(CASES[case])
    tasks = task_lists(plan)
    reads = 0
    for name, arity, key, lhs, rhs in _exact_stages(m):
        domain = first_tasks(plan, tasks, arity, key)
        for expr in (lhs, rhs) if rhs is not None else (lhs,):
            reads += check_one_memo(expr, domain)
    assert reads


def short_plan(expr, exact=cochain.compile_plan):
    """``compile_plan`` on memo leaves whose cut is one letter short, 0 for
    a window of 1; the leaves' own ``_eval`` keeps the whole cut."""
    with pytest.MonkeyPatch.context() as patch:
        for cls in (Restriction, massey._EtaBase):
            whole = cls.__dict__["cut"]
            cut = lambda node, whole=whole: tuple(max(k - 1, 0) for k in whole.__get__(node))
            patch.setattr(cls, "cut", property(cut))
        return exact(expr)


def test_a_plan_cut_one_letter_short_fails(monkeypatch):
    monkeypatch.setattr(cochain, "compile_plan", short_plan)
    with pytest.raises(AssertionError):
        test_plan_and_eval_share_one_memo("standard")
    with pytest.raises(AssertionError):
        for case in CASES:
            test_stage_plans_match_tree(case)


def dropped_face(self, args, exact=Coboundary._terms):
    """``Coboundary._terms`` without its first face."""
    terms = exact(self, args)
    if self.qm is not None:
        return terms
    return terms[len(self.child._terms(args[1:])) :]


def no_inverse(letters):
    return letters


# The random-tree test on generated examples alone: the first failure ends
# it, unshrunk and unsaved.
generated_only = settings(
    max_examples=500, deadline=None, phases=[Phase.generate], database=None, derandomize=True
)


@pytest.mark.parametrize(
    "owner, name, broken",
    [(Coboundary, "_terms", dropped_face), (cochain, "invert_letters", no_inverse)],
    ids=["coboundary-face-dropped", "alternation-range-not-inverted"],
)
def test_broken_compilers_fail(monkeypatch, owner, name, broken):
    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(AssertionError):
        generated_only(given(st.data())(plan_matches_tree))()


# A plan on which every massey stage runs in well under a second.
TINY_PLAN = {
    "exhaustive_total_budget": 4,
    "deep_budget": 4,
    "pair_radius": 2,
    "sample_counts": dict.fromkeys(ExperimentPlan.DEFAULT_SAMPLES, 5),
    "max_len": 6,
    "max_len_ladder": [6],
    "ladder_samples": 5,
}


def contexts(payload):
    if isinstance(payload, EvalContext):
        yield payload
    elif isinstance(payload, tuple):
        for item in payload:
            yield from contexts(item)


def test_plans_are_lazy_and_never_pickled(monkeypatch):
    compiled = []
    compile_plan = cochain.compile_plan

    def counted(expr):
        compiled.append(expr)
        return compile_plan(expr)

    monkeypatch.setattr(cochain, "compile_plan", counted)
    doc = massey_doc(TINY_PLAN, 1, "brooks-ab", 1)
    m, plan = massey_from_json(doc)
    _exact_stages(m)
    primitive = bounded_primitive(m)
    assert compiled == []

    # The first use under a context compiles the plan, the next one reuses it.
    ctx = EvalContext()
    t = (b"\x01", b"\x02", b"\x01", b"\x02")
    value = primitive._eval(t, ctx)
    assert compiled == [primitive] and list(ctx.plans) == compiled
    assert primitive._eval(t, ctx) == value and compiled == [primitive]
    assert primitive._eval(t, EvalContext()) == value and compiled == [primitive] * 2

    # Every scan of a run gets contexts with no plan in them, so its payload
    # pickles for the ``--jobs`` workers.
    plan_counts = []
    chunked_map = _parallel.chunked_map

    def checked(worker, payload, tasks, jobs=1):
        plan_counts.extend(len(c.plans) for c in contexts(payload))
        pickle.dumps(payload)
        return chunked_map(worker, payload, tasks, jobs)

    monkeypatch.setattr(_parallel, "chunked_map", checked)
    assert run_massey(doc).passed
    assert len(plan_counts) >= 10 and not any(plan_counts)
    assert len(compiled) > 2


def test_plans_of_equal_source_share_their_code():
    """The standard instance and an ``instances.py`` one have plans of equal
    source on leaves of their own: each pair of plans shares one code object
    and no globals, and each plan equals the tree evaluation."""
    (m, _), (other, _) = (massey_from_json(CASES[c]) for c in ("standard", "rolli K 3"))
    exprs = [
        [bounded_primitive(i)] + [lhs for _, _, _, lhs, _ in _exact_stages(i)]
        for i in (m, other)
    ]
    ctx, other_ctx = EvalContext(), EvalContext()
    for expr, twin in zip(*exprs):
        plan, twin_plan = ctx.plans[expr], other_ctx.plans[twin]
        assert plan.__code__ is twin_plan.__code__
        assert plan.__globals__ is not twin_plan.__globals__
        assert plan.__globals__["L0"].__self__ is not twin_plan.__globals__["L0"].__self__
        for e in (expr, twin):
            check_plan(e, random_aligned_tuples(RANK, e.degree, 20, 6, "shared code"))


def test_plans_go_with_their_context():
    """A plan is freed with its context by reference counting: a cycle
    through the plan would keep its nodes, and their quasi-morphism value
    caches, alive until a full collection."""
    ctx = EvalContext()
    q = QMS[0]
    expr = cup(qm_cochain(q), coboundary(qm_cochain(q)))
    assert expr._eval((b"\x01", b"\x02", b"\x01"), ctx) is not None
    plan = weakref.ref(ctx.plans[expr])
    gc.disable()
    try:
        del ctx
        assert plan() is None
    finally:
        gc.enable()


def test_parallel_stages_equal_serial():
    """Each pool chunk evaluates in a fresh context, under the same keys."""
    doc = massey_doc(TINY_PLAN, 1, "brooks-ab", 1)
    reports = [render_json(strip_timing(run_massey(doc, {"jobs": j}).to_json())) for j in (1, 2, 3)]
    assert reports[1] == reports[0] and reports[2] == reports[0]
