import functools
from fractions import Fraction

import pytest

from massey_workbench import checks, massey
from massey_workbench.cochain import (
    EvalContext,
    TableCochain,
    coboundary,
    cup,
    evaluate,
    exhaustive_aligned_tuples,
    qm_cochain,
    random_aligned_tuples,
    restrict,
)
from massey_workbench.decomposition import DecompositionSpec, measure_r_hat
from massey_workbench.errors import UsageError
from massey_workbench.massey import (
    MasseyInstance,
    beta1,
    beta2,
    bounded_primitive,
    eta1,
    eta2,
    eta_bridge,
    massey_representative,
    mu_simplified,
    three_sum_residual,
    verify_massey_triviality,
    verify_primitives,
)
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.report import ExperimentPlan, strip_timing
from massey_workbench.words import multiply_letters, parse_word
from oracles import decompose

W = lambda s: parse_word(s, 2)


def standard_instance(mutation=None):
    phi = QuasiMorphism(
        DecompositionSpec("brooks", 2, W("ab")), LambdaTable({W("ab"): 1})
    )
    psi1 = QuasiMorphism(
        DecompositionSpec("brooks", 2, W("aB")), LambdaTable({W("aB"): 1})
    )
    psi2 = QuasiMorphism(
        DecompositionSpec("rolli", 2),
        LambdaTable({W("a"): Fraction(1, 2), W("b"): Fraction(1, 3)}),
    )
    omega1 = restrict(coboundary(qm_cochain(psi1)))
    omega2 = restrict(coboundary(qm_cochain(psi2)))
    return MasseyInstance(phi, omega1, omega2, 2, 2, mutation=mutation)


def zero_instance():
    phi = QuasiMorphism(DecompositionSpec("brooks", 2, W("ab")), LambdaTable({}))
    m = standard_instance()
    return MasseyInstance(phi, m.omega1, m.omega2, 2, 2)


def small_plan(**overrides):
    base = dict(
        rank=2,
        seed=7,
        exhaustive_total_budget=5,
        deep_budget=5,
        pair_radius=3,
        sample_counts={
            "cocycle": 150,
            "primitive": 150,
            "mu_simplification": 100,
            "delta_p": 150,
            "three_sum": 200,
            "mu_cocycle": 50,
            "norms": 200,
        },
        max_len=20,
        max_len_ladder=(10,),
        ladder_samples=60,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def domain(arity, budget=6, samples=0, max_len=20, seed=0):
    tuples = list(exhaustive_aligned_tuples(2, arity, budget))
    if samples:
        tuples += random_aligned_tuples(2, arity, samples, max_len, seed)
    return tuples


# -- eta leaves --------------------------------------------------------------


def test_eta1_letter_example():
    # letter family, lambda(a) = 1, omega1 a finite degree-1 table
    phi = QuasiMorphism(DecompositionSpec("letter", 2), LambdaTable({W("a"): 1}))
    omega1 = TableCochain(1, {(W("a"),): 1, (W("b"),): 1, (W("ab"),): 1})
    omega2 = TableCochain(1, {(W("b"),): 1})
    m = MasseyInstance(phi, omega1, omega2, 1, 1)
    # pieces of ab are (a, b); the j = 1 prefix is the identity and vanishes
    assert evaluate(eta1(m), (W("ab"),)) == evaluate(omega1, (W("a"),)) * phi.value(W("b"))
    assert evaluate(eta1(m), (W("ab"),)) == 0
    assert evaluate(eta1(m), (W("1"),)) == 0
    # single piece: the only prefix product is the identity
    assert evaluate(eta1(m), (W("a"),)) == 0


def test_eta2_letter_example():
    phi = QuasiMorphism(DecompositionSpec("letter", 2), LambdaTable({W("a"): 1}))
    omega2 = TableCochain(1, {(W("b"),): 1})
    m = MasseyInstance(phi, TableCochain(1, {}), omega2, 1, 1)
    # phi(a) * omega2(b) + phi(b) * omega2(1) = 1 + 0
    assert evaluate(eta2(m), (W("ab"),)) == 1
    # single piece: the suffix product is the identity
    assert evaluate(eta2(m), (W("a"),)) == 0
    assert evaluate(eta2(m), (W("1"),)) == 0


def test_eta_frozen_values():
    m = standard_instance()
    assert evaluate(eta1(m), (W("a"), W("Bab"))) == -1
    assert evaluate(eta1(m), (W("a"), W("BBA"))) == 1
    assert evaluate(eta2(m), (W("aba"), W("a"))) == 1
    assert evaluate(eta2(m), (W("abA"), W("A"))) == -1
    assert evaluate(eta_bridge(m), (W("a"), W("Baba"), W("a"))) == -1
    assert evaluate(eta_bridge(m), (W("a"), W("BabA"), W("A"))) == 1
    assert evaluate(eta_bridge(m), (W("a"), W("Babb"), W("b"))) == Fraction(-2, 3)


def eta_bridge_oracle(m, t):
    """Direct evaluation of the bridging sum from its displayed formula."""
    mid = m.k1 - 1
    head, e, tail = t[:mid], t[mid], t[mid + 1 :]
    pieces = decompose(m.phi.spec, e)
    total = Fraction(0)
    prefix = W("1")
    for j, piece in enumerate(pieces, start=1):
        suffix = W("1")
        for p in pieces[j:]:
            suffix = multiply_letters(suffix, p)
        total += (
            evaluate(m.omega1, head + (prefix,))
            * m.phi.value(piece)
            * evaluate(m.omega2, (suffix,) + tail)
        )
        prefix = multiply_letters(prefix, piece)
    return total


def test_eta_bridge_matches_independent_oracle():
    m = standard_instance()
    br = eta_bridge(m)
    for t in domain(3, budget=5, samples=40, seed=13):
        assert evaluate(br, t) == eta_bridge_oracle(m, t)


def test_eta_zero_lambda():
    m = zero_instance()
    for t in domain(3, budget=4):
        assert evaluate(eta_bridge(m), t) == 0
    for t in domain(2, budget=4):
        assert evaluate(eta1(m), t) == 0
        assert evaluate(eta2(m), t) == 0


# -- beta primitives ---------------------------------------------------------


def test_beta_primitive_identities():
    m = standard_instance()
    ctx = EvalContext()
    dphi = coboundary(qm_cochain(m.phi))
    lhs1, rhs1 = coboundary(beta1(m)), cup(m.omega1, dphi)
    lhs2, rhs2 = coboundary(beta2(m)), cup(dphi, m.omega2)
    for t in domain(4, budget=6, samples=120, max_len=30, seed=21):
        assert evaluate(lhs1, t, ctx) == evaluate(rhs1, t, ctx)
        assert evaluate(lhs2, t, ctx) == evaluate(rhs2, t, ctx)


def test_beta_zero_lambda_gives_zero():
    m = zero_instance()
    for t in domain(3, budget=5):
        assert evaluate(beta1(m), t) == 0
        assert evaluate(beta2(m), t) == 0


# -- representative and primitive -------------------------------------------


def test_mu_simplification_and_cocycle():
    m = standard_instance()
    mu = massey_representative(m)
    mus = mu_simplified(m)
    ctx = EvalContext()
    for t in domain(5, budget=6, samples=60, seed=31):
        assert evaluate(mu, t, ctx) == evaluate(mus, t, ctx)
    dmu = coboundary(mu)
    for t in domain(6, budget=6):
        assert evaluate(dmu, t, ctx) == 0


def test_delta_p_equals_mu():
    m = standard_instance()
    primitive = bounded_primitive(m)
    mu = massey_representative(m)
    dP = coboundary(primitive)
    ctx = EvalContext()
    for t in domain(5, budget=6, samples=80, max_len=25, seed=41):
        assert evaluate(dP, t, ctx) == evaluate(mu, t, ctx)


def test_three_sum_equals_primitive_with_ledger():
    m = standard_instance()
    primitive = bounded_primitive(m)
    ctx = EvalContext()
    r_hat = measure_r_hat(m.phi.spec, 3)
    saw_survivor = False
    for t in domain(4, budget=6, samples=200, max_len=30, seed=51):
        total, ledger = three_sum_residual(m, t, ctx)
        total = Fraction(total, ledger.den)
        assert total == evaluate(primitive, t, ctx)
        assert len(ledger.surviving_terms) <= ledger.bound <= 3 * r_hat
        saw_survivor = saw_survivor or ledger.surviving_terms
    assert saw_survivor


def test_three_sum_rejects_bad_input():
    m = standard_instance()
    with pytest.raises(UsageError):
        three_sum_residual(m, (W("a"), W("A"), W("b"), W("a")))
    with pytest.raises(UsageError):
        three_sum_residual(m, (W("a"), W("b")))


def test_letter_middle_primitive_vanishes():
    # R-hat = 0 for letter decompositions: every term cancels
    phi = QuasiMorphism(DecompositionSpec("letter", 2), LambdaTable({W("a"): 1}))
    base = standard_instance()
    m = MasseyInstance(phi, base.omega1, base.omega2, 2, 2)
    primitive = bounded_primitive(m)
    ctx = EvalContext()
    for t in domain(4, budget=6, samples=100, seed=61):
        assert evaluate(primitive, t, ctx) == 0
        total, ledger = three_sum_residual(m, t, ctx)
        assert total == 0
        assert ledger.bound == 0
        assert not ledger.surviving_terms


def test_zero_lambda_primitive_vanishes():
    m = zero_instance()
    primitive = bounded_primitive(m)
    for t in domain(4, budget=5):
        assert evaluate(primitive, t) == 0


# -- mutations ---------------------------------------------------------------


@pytest.mark.parametrize("mutation", ["flip-eta-sign", "shift-z-boundary"])
def test_mutations_break_three_sum(mutation):
    m = standard_instance(mutation=mutation)
    primitive = bounded_primitive(m)
    ctx = EvalContext()
    mismatch = None
    for t in domain(4, budget=6):
        total, ledger = three_sum_residual(m, t, ctx)
        total = Fraction(total, ledger.den)
        if total != evaluate(primitive, t, ctx):
            mismatch = t
            break
    assert mismatch is not None


def test_beta_cup_sign_mutation_breaks_primitive_identity():
    m = standard_instance(mutation="flip-beta1-cup-sign")
    lhs = coboundary(beta1(m))
    rhs = cup(m.omega1, coboundary(qm_cochain(m.phi)))
    ctx = EvalContext()
    mismatch = None
    for t in domain(4, budget=6):
        if evaluate(lhs, t, ctx) != evaluate(rhs, t, ctx):
            mismatch = t
            break
    assert mismatch is not None


def test_unknown_mutation_rejected():
    base = standard_instance()
    with pytest.raises(UsageError):
        MasseyInstance(base.phi, base.omega1, base.omega2, 2, 2, mutation="nope")


def test_degree_validation():
    base = standard_instance()
    with pytest.raises(UsageError):
        MasseyInstance(base.phi, base.omega1, base.omega2, 3, 2)
    with pytest.raises(UsageError):
        MasseyInstance(base.phi, base.omega1, base.omega2, 0, 2)


# -- full verification flows -------------------------------------------------


def test_verify_massey_triviality_passes():
    report = verify_massey_triviality(standard_instance(), small_plan())
    assert report.passed
    names = [s.name for s in report.stages]
    assert names == [
        "cocycle-omega1",
        "cocycle-omega2",
        "primitive-beta1",
        "primitive-beta2",
        "mu-simplification",
        "mu-cocycle",
        "delta-p-equals-mu",
        "three-sum-equality",
        "ledger-bound",
        "sup-p-ladder",
    ]
    assert report.notes["r_hat"] == 1
    assert report.notes["convention_dependent"] is False


def test_verify_massey_triviality_mutated_fails_with_counterexample():
    report = verify_massey_triviality(
        standard_instance(mutation="flip-eta-sign"), small_plan()
    )
    assert not report.passed
    failed = [s for s in report.stages if not s.passed]
    assert any(s.name == "three-sum-equality" for s in failed)
    stage = next(s for s in failed if s.name == "three-sum-equality")
    assert stage.counterexample is not None
    assert "tuple" in stage.counterexample


def test_failing_ledger_bound_carries_the_ledger(monkeypatch):
    # With R-hat read as 0 the first tuple with a thick tripod fails
    # ledger-bound; its counterexample is that tuple's ledger.
    monkeypatch.setattr(massey, "measure_r_hat", lambda *args: 0)
    m = standard_instance()
    report = verify_massey_triviality(m, small_plan())
    stages = {s.name: s for s in report.stages}
    assert stages["three-sum-equality"].passed
    failure = stages["ledger-bound"].counterexample
    assert failure is not None and failure["three_r_hat"] == 0
    t = tuple(map(W, failure["tuple"]))
    _, ledger = three_sum_residual(m, t)
    assert failure["ledger"] == ledger.to_json()
    assert failure["bound"] == ledger.bound > 0
    assert failure["survivors"] == len(failure["ledger"]["surviving_terms"])
    values = [Fraction(term["value"]) for term in failure["ledger"]["surviving_terms"]]
    assert values == [Fraction(v, ledger.den) for _, _, v in ledger.surviving_terms]


def test_verify_primitives_flow():
    good = verify_primitives(standard_instance(), small_plan())
    assert good.passed
    bad = verify_primitives(
        standard_instance(mutation="flip-beta1-cup-sign"), small_plan()
    )
    assert not bad.passed
    stage = next(s for s in bad.stages if s.name == "primitive-beta1")
    assert not stage.passed and stage.counterexample is not None


def test_degree_one_factors_run_under_stated_conventions():
    # degree-1 bounded aligned cocycles are forced to vanish, so the flow is
    # exercised with zero tables; it must still run and flag the convention
    phi = QuasiMorphism(
        DecompositionSpec("brooks", 2, W("ab")), LambdaTable({W("ab"): 1})
    )
    omega = TableCochain(1, {})
    m = MasseyInstance(phi, omega, omega, 1, 1)
    assert m.convention_dependent
    plan = small_plan(sample_counts={"cocycle": 50, "primitive": 50, "delta_p": 50,
                                     "three_sum": 50, "mu_simplification": 30,
                                     "mu_cocycle": 20, "norms": 50})
    report = verify_massey_triviality(m, plan)
    assert report.notes["convention_dependent"] is True
    assert report.passed


def count_task_lists(monkeypatch) -> list:
    """Record the (arity, sample key) of every ``checks.stage_tasks`` call."""
    calls = []
    build = checks.stage_tasks

    def counted(plan, arity, stage, **kw):
        calls.append((arity, stage))
        return build(plan, arity, stage, **kw)

    monkeypatch.setattr(checks, "stage_tasks", counted)
    return calls


def test_task_lists_are_built_once_per_domain(monkeypatch):
    calls = count_task_lists(monkeypatch)
    report = verify_massey_triviality(standard_instance(), small_plan())
    # k1 == k2: the cocycle, primitive and norms pairs each share one list.
    assert sorted(calls) == [
        (2, "norms"),
        (3, "cocycle"),
        (4, "primitive"),
        (4, "three_sum"),
        (5, "delta_p"),
        (5, "mu_simplification"),
        (6, "mu_cocycle"),
    ]
    checked = {s.name: s.checked for s in report.stages}
    assert checked["cocycle-omega1"] == checked["cocycle-omega2"]
    assert checked["primitive-beta1"] == checked["primitive-beta2"]


def test_shared_task_lists_match_one_list_per_stage(monkeypatch):
    """With k1 != k2 no two stages share a domain; the report is the one
    built with a fresh list for every stage."""
    m = standard_instance()
    omega1 = TableCochain(1, {(W("a"),): 1, (W("ab"),): Fraction(1, 2)})
    m = MasseyInstance(m.phi, omega1, m.omega2, 1, 2)
    plan = small_plan(
        exhaustive_total_budget=4,
        deep_budget=4,
        sample_counts=dict.fromkeys(ExperimentPlan.DEFAULT_SAMPLES, 20),
    )
    calls = count_task_lists(monkeypatch)
    shared = strip_timing(verify_massey_triviality(m, plan).to_json())
    assert len(calls) == len(set(calls)) == 10
    monkeypatch.setattr(massey, "task_lists", lambda p: functools.partial(checks.stage_tasks, p))
    fresh = strip_timing(verify_massey_triviality(m, plan).to_json())
    assert len(calls) == 10 + 10
    assert shared == fresh
