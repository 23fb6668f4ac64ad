"""One eta node per kind per instance (README "Memo key").

A ``MasseyInstance`` builds its ``Eta1``, ``Eta2`` and ``EtaBridge`` nodes
once, and every builder returns them, so the lhs and rhs of one stage share
each eta memo entry in the stage's ``EvalContext``. The nodes hold ``phi``
and the omegas, never the instance, so a finished instance dies by
reference counting with its quasi-morphism caches.
"""

import dataclasses
import gc
import importlib.util
import json
import weakref
from pathlib import Path

import pytest

from massey_workbench import massey
from massey_workbench.cochain import EvalContext, random_aligned_tuples
from massey_workbench.config import massey_from_json
from massey_workbench.massey import (
    Eta1,
    Eta2,
    EtaBridge,
    _exact_stages,
    bounded_primitive,
    massey_representative,
    mu_simplified,
    verify_massey_triviality,
)

ROOT = Path(__file__).resolve().parent.parent
STANDARD = ROOT / "configs" / "massey-brooks-standard.json"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
KINDS = (Eta1, Eta2, EtaBridge)


def standard():
    return massey_from_json(json.loads(STANDARD.read_text(encoding="utf-8")))


def reachable(exprs) -> set:
    """Every node of the expressions (nodes hash by identity)."""
    seen, stack = set(), list(exprs)
    while stack:
        node = stack.pop()
        if node is not None and node not in seen:
            seen.add(node)
            stack += [getattr(node, name, None) for name in ("child", "left", "right")]
            stack += [e for _, e in getattr(node, "terms", ())]
    return seen


def eta_nodes(m) -> dict:
    exprs = [bounded_primitive(m)]
    for _, _, _, lhs, rhs in _exact_stages(m):
        exprs += [lhs] if rhs is None else [lhs, rhs]
    nodes = reachable(exprs)
    return {kind: [n for n in nodes if type(n) is kind] for kind in KINDS}


@pytest.mark.parametrize("mutation", [None, "flip-eta-sign"])
def test_every_builder_shares_one_node_per_kind(mutation):
    m, _ = standard()
    m = dataclasses.replace(m, mutation=mutation)
    nodes = eta_nodes(m)
    assert nodes == {Eta1: [m.eta1], Eta2: [m.eta2], EtaBridge: [m.eta_bridge]}
    assert (massey.eta1(m), massey.eta2(m), massey.eta_bridge(m)) == (
        m.eta1,
        m.eta2,
        m.eta_bridge,
    )


def test_a_replaced_instance_gets_nodes_of_its_own():
    m, _ = standard()
    mutated = dataclasses.replace(m, mutation="shift-z-boundary")
    own, other = eta_nodes(m), eta_nodes(mutated)
    for kind in KINDS:
        assert len(other[kind]) == 1 and other[kind][0] is not own[kind][0]
    assert (m.eta1.shift, mutated.eta1.shift) == (0, 1)


class CountingContext(EvalContext):
    __slots__ = ("eta_stores",)

    def __init__(self):
        super().__init__()
        self.eta_stores = 0

    def store(self, key, value):
        self.eta_stores += isinstance(key[0], massey._EtaBase)
        return super().store(key, value)


def test_mu_simplified_reads_the_representatives_eta_values():
    m, _ = standard()
    mu, simplified = massey_representative(m), mu_simplified(m)
    tuples = random_aligned_tuples(m.rank, mu.degree, 20, 6, 0)
    stored = 0
    for t in tuples:
        ctx = CountingContext()
        mu._eval(t, ctx)
        before = ctx.eta_stores
        simplified._eval(t, ctx)
        assert ctx.eta_stores == before, t
        stored += before
    assert stored


def test_a_verified_instance_dies_by_reference_counting():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    m, plan = massey_from_json(workloads.massey_doc(workloads.SENTINEL_PLAN, 1))
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(m)
        report = verify_massey_triviality(m, plan)
        assert report.stages and m.eta_bridge.mid == m.k1 - 1
        del m
        assert ref() is None
    finally:
        gc.enable()
