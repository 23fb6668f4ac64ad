"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy fixtures are
module-scoped so the exhaustive axiom scan and the full verification ladder
run once each; the criteria that use them are marked ``slow``.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from massey_workbench.checks import identity_stage, stage_tasks, vanishing_stage
from massey_workbench.cochain import (
    TableCochain,
    alternate,
    coboundary,
    cup,
    lincomb,
    qm_cochain,
    restrict,
)
from massey_workbench.config import load_config, massey_from_json
from massey_workbench.decomposition import DecompositionSpec, check_axioms, measure_r_hat
from massey_workbench.cli import main
from massey_workbench.harness import run_defect
from massey_workbench.massey import MasseyInstance, verify_massey_triviality
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.report import ExperimentPlan, strip_timing
from massey_workbench.words import parse_word
from oracles import tampered_lambda

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

W = lambda s: parse_word(s, 2)

FAMILIES = {
    "letter": DecompositionSpec("letter", 2),
    "rolli": DecompositionSpec("rolli", 2),
    "brooks(ab)": DecompositionSpec("brooks", 2, W("ab")),
}


def report_line(criterion: str, ok: bool):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def axiom_results():
    results = {}
    started = time.monotonic()
    for name, spec in FAMILIES.items():
        results[name] = check_axioms(spec, radius=8, pair_radius=6)
    results["elapsed"] = time.monotonic() - started
    return results


@pytest.fixture(scope="module")
def standard_run():
    doc = load_config(CONFIG_DIR / "massey-brooks-standard.json")
    instance, plan = massey_from_json(doc)
    return verify_massey_triviality(instance, plan)


def stage(report, name):
    return next(s for s in report.stages if s.name == name)


@pytest.mark.slow
def test_criterion_1_axiom_suite(axiom_results):
    ok = True
    for name in FAMILIES:
        report = axiom_results[name]
        for check in report.stages:
            if not check.passed:
                print(f"  {name}/{check.name} FAILED: {check.counterexample}")
                ok = False
    elapsed = axiom_results["elapsed"]
    print(f"  axiom suite over 3 families took {elapsed:.1f}s (budget 300s)")
    ok = ok and elapsed <= 300
    report_line("1 decomposition-axioms radius 8 / pairs radius 6", ok)


@pytest.mark.slow
def test_criterion_2_r_hat_stabilization(axiom_results):
    ok = True
    for name, spec in FAMILIES.items():
        at6 = axiom_results[name].notes["r_hat"]
        at5 = measure_r_hat(spec, 5)
        folded = axiom_results[name].stages[-1].stats["r_hat_previous_radius"]
        print(f"  {name}: R-hat(6)={at6} R-hat(5)={at5} (same scan: {folded})")
        if at6 != at5 or folded != at5:
            ok = False
    if axiom_results["letter"].notes["r_hat"] != 0:
        print("  letter family must measure R-hat = 0 exactly")
        ok = False
    report_line("2 R-hat stabilization and letter zero", ok)


def _complex_plan():
    return ExperimentPlan(
        rank=2,
        seed=20260809,
        exhaustive_total_budget=6,
        sample_counts={"sanity": 10_000},
        max_len=50,
    )


def _sanity_exprs():
    psi1 = QuasiMorphism(
        DecompositionSpec("brooks", 2, W("aB")), LambdaTable({W("aB"): 1})
    )
    psi2 = QuasiMorphism(
        DecompositionSpec("rolli", 2),
        LambdaTable({W("a"): Fraction(1, 2), W("b"): Fraction(1, 3)}),
    )
    deg1 = qm_cochain(psi1)
    deg2 = restrict(coboundary(qm_cochain(psi2)))
    table = TableCochain(
        2, {(W("a"), W("b")): Fraction(1), (W("ab"), W("b")): Fraction(-2)}
    )
    return deg1, deg2, table


def test_criterion_3_complex_sanity():
    plan = _complex_plan()
    deg1, deg2, table = _sanity_exprs()
    stages = []
    for name, expr in (("qm", deg1), ("table", table)):
        stages.append(
            vanishing_stage(
                f"delta-delta-{name}",
                coboundary(coboundary(expr)),
                stage_tasks(plan, expr.degree + 2, "sanity"),
            )
        )
    for name, expr in (("table", table), ("restricted", deg2)):
        stages.append(
            identity_stage(
                f"alt-idempotent-{name}",
                alternate(alternate(expr)),
                alternate(expr),
                stage_tasks(plan, expr.degree, "sanity"),
            )
        )
        stages.append(
            identity_stage(
                f"alt-chain-map-{name}",
                alternate(coboundary(expr)),
                coboundary(alternate(expr)),
                stage_tasks(plan, expr.degree + 1, "sanity"),
            )
        )
    for name, e1, e2 in (("1x1", deg1, deg1), ("1x2", deg1, deg2), ("2x1", table, deg1)):
        sign = -1 if e1.degree % 2 else 1
        stages.append(
            identity_stage(
                f"leibniz-{name}",
                coboundary(cup(e1, e2)),
                lincomb((1, cup(coboundary(e1), e2)), (sign, cup(e1, coboundary(e2)))),
                stage_tasks(plan, e1.degree + e2.degree + 1, "sanity"),
            )
        )
    ok = True
    for s in stages:
        flag = "" if s.passed else f"  FAILED: {s.counterexample}"
        print(f"  {s.name}: checked={s.checked}{flag}")
        if not s.passed or s.checked < 10_000:
            ok = False
    report_line("3 complex sanity (delta-delta, alt, Leibniz)", ok)


@pytest.mark.slow
def test_criterion_4_primitive_identities(standard_run):
    ok = True
    for name in ("cocycle-omega1", "cocycle-omega2", "primitive-beta1", "primitive-beta2"):
        s = stage(standard_run, name)
        flag = "" if s.passed else f"  FAILED: {s.counterexample}"
        print(f"  {name}: checked={s.checked}{flag}")
        if not s.passed:
            ok = False
        if name.startswith("primitive") and s.checked < 10_000:
            ok = False
    report_line("4 primitive identities delta-beta", ok)


@pytest.mark.slow
def test_criterion_5_massey_triviality(standard_run):
    ok = True
    for name in ("delta-p-equals-mu", "three-sum-equality", "ledger-bound", "sup-p-ladder"):
        s = stage(standard_run, name)
        flag = "" if s.passed else f"  FAILED: {s.counterexample}"
        print(f"  {name}: checked={s.checked}{flag}")
        if not s.passed:
            ok = False
    ladder = stage(standard_run, "sup-p-ladder").stats
    sups = [Fraction(r["sup"]) for r in ladder["ladder"]]
    bound = Fraction(ladder["bound"])
    print(f"  sup|P| ladder {[str(s) for s in sups]} bound {bound}")
    if any(s > sups[0] for s in sups[1:]) or any(s > bound for s in sups):
        ok = False
    if stage(standard_run, "delta-p-equals-mu").checked < 10_000:
        ok = False
    report_line("5 Massey triviality: delta P = mu, three sums, 3R bound", ok)


def _mutation_plan():
    return ExperimentPlan(
        rank=2,
        seed=11,
        exhaustive_total_budget=5,
        deep_budget=5,
        pair_radius=3,
        sample_counts={
            "cocycle": 100,
            "primitive": 100,
            "mu_simplification": 60,
            "delta_p": 100,
            "three_sum": 150,
            "mu_cocycle": 30,
            "norms": 100,
        },
        max_len=15,
        max_len_ladder=(10,),
        ladder_samples=40,
    )


def test_criterion_6_mutation_sensitivity():
    doc = load_config(CONFIG_DIR / "massey-brooks-standard.json")
    ok = True
    for mutation in ("flip-eta-sign", "shift-z-boundary"):
        base, _ = massey_from_json(doc)
        mutated = MasseyInstance(
            base.phi, base.omega1, base.omega2, base.k1, base.k2, mutation=mutation
        )
        report = verify_massey_triviality(mutated, _mutation_plan())
        failed = [s for s in report.stages if not s.passed]
        with_cex = [s for s in failed if s.counterexample]
        print(
            f"  {mutation}: failing stages {[s.name for s in failed]}"
            f" counterexample={'yes' if with_cex else 'no'}"
        )
        if report.passed or not with_cex:
            ok = False

    base, _ = massey_from_json(doc)
    tampered = QuasiMorphism(
        base.phi.spec, tampered_lambda(base.phi.table, W("BA"), 0)
    )
    defect_report = run_defect(
        {
            "rank": 2,
            "phi": {
                "decomposition": {"family": "brooks", "word": "ab"},
                "lambda": [{"piece": "ab", "value": "1"}],
            },
            "radius": 3,
            "pair_radius": 3,
            "random_pairs": 100,
            "seed": 2,
        }
    )
    assert defect_report.passed  # untampered flow is a sane baseline
    from massey_workbench.harness import _antisymmetry_stage, _tripod_identity_stage

    anti = _antisymmetry_stage(tampered, 3, None)
    tripod = _tripod_identity_stage(tampered, 3, None)
    print(
        f"  lambda-perturbation: antisymmetry={'fail' if not anti.passed else 'pass'}"
        f" tripod-identity={'fail' if not tripod.passed else 'pass'}"
    )
    if anti.passed and tripod.passed:
        ok = False
    if not anti.passed and anti.counterexample is None:
        ok = False
    report_line("6 mutation sensitivity with counterexamples", ok)


def test_criterion_7_determinism(tmp_path):
    doc = load_config(CONFIG_DIR / "massey-brooks-standard.json")
    doc["plan"] = {
        "seed": 20260809,
        "exhaustive_total_budget": 5,
        "deep_budget": 5,
        "pair_radius": 3,
        "sample_counts": {
            "cocycle": 100,
            "primitive": 100,
            "mu_simplification": 60,
            "delta_p": 100,
            "three_sum": 150,
            "mu_cocycle": 30,
            "norms": 100,
        },
        "max_len": 20,
        "max_len_ladder": [25],
        "ladder_samples": 80,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    status1 = main(["massey", "--config", str(cfg), "--out", str(out1)])
    status2 = main(["massey", "--config", str(cfg), "--out", str(out2)])
    doc1 = strip_timing(json.loads(out1.read_text(encoding="utf-8")))
    doc2 = strip_timing(json.loads(out2.read_text(encoding="utf-8")))
    same = json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    print(f"  two seeded runs identical modulo timing: {same}")
    report_line("7 determinism of reports", status1 == 0 and status2 == 0 and same)
