import copy
import dataclasses
import importlib.util
import json
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import pytest

from massey_workbench import checks, decomposition, harness, massey, report
from massey_workbench.cli import main
from massey_workbench.config import (
    expr_from_json,
    load_config,
    massey_from_json,
    plan_from_json,
    qm_from_json,
    spec_from_json,
)
from massey_workbench.errors import ConfigError
from massey_workbench.harness import (
    RUNNERS,
    _antisymmetry_stage,
    _tripod_identity_stage,
    run_axioms,
    run_defect,
    run_massey,
)
from massey_workbench.quasimorphism import QuasiMorphism
from massey_workbench.report import (
    ExperimentPlan,
    Report,
    load_report,
    render_table,
    strip_timing,
)
from massey_workbench.words import parse_word
from oracles import tampered_lambda
from test_words import run_python

W = lambda s: parse_word(s, 2)

SMALL_PLAN = {
    "seed": 5,
    "exhaustive_total_budget": 5,
    "deep_budget": 5,
    "pair_radius": 3,
    "sample_counts": {
        "cocycle": 60,
        "primitive": 60,
        "mu_simplification": 40,
        "delta_p": 60,
        "three_sum": 80,
        "mu_cocycle": 20,
        "norms": 80,
    },
    "max_len": 15,
    "max_len_ladder": [10],
    "ladder_samples": 40,
}


def massey_doc(**extra):
    doc = {
        "command": "massey",
        "rank": 2,
        "phi": {
            "decomposition": {"family": "brooks", "word": "ab"},
            "lambda": [{"piece": "ab", "value": "1"}],
        },
        "quasimorphisms": {
            "psi1": {
                "decomposition": {"family": "brooks", "word": "aB"},
                "lambda": [{"piece": "aB", "value": "1"}],
            },
            "psi2": {
                "decomposition": {"family": "rolli"},
                "lambda": [
                    {"piece": "a", "value": "1/2"},
                    {"piece": "b", "value": "1/3"},
                ],
            },
        },
        "omega1": "delta-qm:psi1",
        "omega2": "delta-qm:psi2",
        "k1": 2,
        "k2": 2,
        "plan": dict(SMALL_PLAN),
    }
    doc.update(extra)
    return doc


# -- config parsing ----------------------------------------------------------


def test_spec_and_qm_parsing():
    spec = spec_from_json({"family": "brooks", "word": "ab"}, 2)
    assert spec.describe() == "brooks(ab)"
    q = qm_from_json(
        {
            "decomposition": {"family": "rolli"},
            "lambda": [{"piece": "a", "value": "2/3"}],
        },
        2,
    )
    assert q.value(parse_word("aaa", 2)) == Fraction(2, 3) * 0 + q.table.value(W("aaa"))
    assert q.value(W("a")) == Fraction(2, 3)


def test_spec_family_is_checked_before_its_keys():
    """An unknown family is named as such, not as an unknown key of it."""
    with pytest.raises(ConfigError, match="unknown decomposition family 'Brooks'"):
        spec_from_json({"family": "Brooks", "word": "ab"}, 2)
    with pytest.raises(ConfigError, match="unknown decomposition family 5"):
        spec_from_json({"family": 5}, 2)
    with pytest.raises(ConfigError, match="unknown 'rolli' spec keys: \\['word'\\]"):
        spec_from_json({"family": "rolli", "word": "ab"}, 2)


def test_config_header_names_the_command():
    """``schema_version`` and ``command`` are optional; when present they must
    be 1 and the running command (a ``verify-primitive`` run also reads a
    ``massey`` config)."""
    from massey_workbench.harness import check_config_keys

    headerless = {k: v for k, v in MASSEY_DOC.items() if k != "command"}
    check_config_keys(headerless, "massey")
    check_config_keys(dict(MASSEY_DOC, schema_version=1), "verify-primitive")
    check_config_keys(VERIFY_DOC, "verify-primitive")
    with pytest.raises(ConfigError, match="cannot read a config for command 'verify-primitive'"):
        check_config_keys(VERIFY_DOC, "massey")
    with pytest.raises(ConfigError, match="schema_version must be 1, got 2"):
        check_config_keys(dict(AXIOMS_DOC, schema_version=2), "axioms")


def test_spec_parsing_errors():
    with pytest.raises(ConfigError):
        spec_from_json({}, 2)
    with pytest.raises(ConfigError):
        spec_from_json({"family": "brooks"}, 2)
    with pytest.raises(ConfigError):
        qm_from_json({"lambda": []}, 2)
    with pytest.raises(ConfigError):
        qm_from_json(
            {"decomposition": {"family": "rolli"}, "lambda": [{"piece": "a"}]}, 2
        )


def test_expr_parsing_round_trip():
    qms = {
        "psi": qm_from_json(
            {
                "decomposition": {"family": "brooks", "word": "ab"},
                "lambda": [{"piece": "ab", "value": "1"}],
            },
            2,
            "psi",
        )
    }
    preset = expr_from_json("delta-qm:psi", 2, qms)
    assert preset.degree == 2
    nested = expr_from_json(
        {
            "op": "lincomb",
            "terms": [
                {"coeff": "3/2", "child": {"op": "qm", "name": "psi"}},
                {"coeff": "-1", "child": {"op": "qm", "name": "psi"}},
            ],
        },
        2,
        qms,
    )
    assert nested.degree == 1
    table = expr_from_json(
        {
            "op": "table",
            "degree": 2,
            "entries": [{"tuple": ["a", "b"], "value": "5"}],
        },
        2,
        {},
    )
    assert table.degree == 2
    with pytest.raises(ConfigError):
        expr_from_json("delta-qm:missing", 2, {})
    with pytest.raises(ConfigError):
        expr_from_json({"op": "wedge"}, 2, {})


def test_plan_validation():
    with pytest.raises(ConfigError):
        plan_from_json({"max_len_ladder": [10, 10]}, 2)
    with pytest.raises(ConfigError):
        plan_from_json({"bogus": 1}, 2)
    plan = plan_from_json({"seed": 9}, 2)
    assert plan.rank == 2 and plan.seed == 9
    assert plan.samples("cocycle") == ExperimentPlan.DEFAULT_SAMPLES["cocycle"]


def test_massey_from_json_builds_instance():
    inst, plan = massey_from_json(massey_doc())
    assert inst.k1 == inst.k2 == 2
    assert inst.phi.spec.describe() == "brooks(ab)"
    assert plan.seed == 5


# -- runners -----------------------------------------------------------------


def test_run_axioms_small():
    report = run_axioms(
        {
            "rank": 2,
            "decomposition": {"family": "rolli"},
            "radius": 4,
            "pair_radius": 3,
        }
    )
    assert report.passed
    assert report.notes["r_hat"] == 1
    stage_names = [s.name for s in report.stages]
    assert "r-hat-stabilization" in stage_names


def test_run_defect_small():
    report = run_defect(
        {
            "rank": 2,
            "phi": {
                "decomposition": {"family": "brooks", "word": "ab"},
                "lambda": [{"piece": "ab", "value": "1"}],
            },
            "radius": 3,
            "pair_radius": 3,
            "random_pairs": 200,
            "max_len": 30,
            "seed": 3,
        }
    )
    assert report.passed
    names = [s.name for s in report.stages]
    assert names == [
        "qm-antisymmetry",
        "defect-tripod-identity",
        "defect-bound",
        "defect-sup",
    ]


def test_run_defect_requires_qm():
    with pytest.raises(ConfigError):
        run_defect({"rank": 2})


def test_run_massey_small():
    report = run_massey(massey_doc())
    assert report.passed
    assert report.to_json()["overall_status"] == "pass"


def test_report_times_every_stage():
    for report in (run_massey(massey_doc()), run_axioms(AXIOMS_DOC), run_defect(DEFECT_DOC)):
        doc = report.to_json()
        timing = doc["timing"]["stages"]
        assert [t["name"] for t in timing] == [s["name"] for s in doc["stages"]]
        for t, stage in zip(timing, doc["stages"]):
            assert isinstance(t["wall_time_s"], float) and t["wall_time_s"] >= 0
            if t["wall_time_s"]:
                assert t["tuples_per_s"] == round(stage["checked_count"] / t["wall_time_s"], 1)
            else:
                assert t["tuples_per_s"] is None
        # Stage intervals and task building are disjoint and lie inside the run.
        tasks_s = doc["timing"]["tasks_s"]
        assert isinstance(tasks_s, float) and tasks_s >= 0
        assert (tasks_s > 0) == (doc["command"] == "massey")
        total = sum(t["wall_time_s"] for t in timing) + tasks_s
        assert total <= doc["timing"]["wall_time_s"] + 0.001 * (len(timing) + 1)
        assert "timing" not in strip_timing(doc)


def test_cli_dispatch(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(massey_doc()), encoding="utf-8")
    out = tmp_path / "report.json"
    status = main(["massey", "--config", str(path), "--out", str(out)])
    assert status == 0
    doc = load_report(out)
    assert doc["overall_status"] == "pass"
    assert doc["schema_version"] == 1


def test_cli_rejects_unknown_command(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "explode"}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["explode", "--config", str(path)])
    assert exc.value.code == 2
    assert "invalid choice: 'explode'" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-parent", "directory"])
def test_cli_checks_out_before_running(tmp_path, capsys, monkeypatch, target):
    """An --out path that cannot take the report is exit 2 before any
    runner is called, not a traceback after the whole run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(massey_doc()), encoding="utf-8")
    calls = []
    monkeypatch.setitem(RUNNERS, "massey", lambda *args: calls.append(args))
    out = str(tmp_path / target)
    assert main(["massey", "--config", str(path), "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --out {out}")
    assert "Traceback" not in captured.err and captured.out == ""
    assert calls == []


def test_cli_save_failure_is_exit_2(tmp_path, capsys, monkeypatch):
    """A write that fails after the run (here the path became a directory
    meanwhile) is exit 2 with the table still printed."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(massey_doc()), encoding="utf-8")
    out = tmp_path / "report.json"

    def runner(doc, overrides):
        out.mkdir()
        return Report(command="massey")

    monkeypatch.setitem(RUNNERS, "massey", runner)
    assert main(["massey", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write report to {out}")
    assert "Traceback" not in captured.err and "massey" in captured.out


# -- determinism -------------------------------------------------------------


def test_reports_identical_modulo_timing(tmp_path):
    doc = massey_doc()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        main(["massey", "--config", str(path), "--out", str(out)])
    a, b = (strip_timing(load_report(out)) for out in outs)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_jobs_do_not_change_results():
    doc = massey_doc()
    serial = run_massey(doc)
    parallel = run_massey(doc, {"jobs": 2})
    a, b = strip_timing(serial.to_json()), strip_timing(parallel.to_json())
    # config echo differs only through the jobs override; compare stages
    assert a["stages"] == b["stages"]
    assert a["overall_status"] == b["overall_status"]


# -- CLI ---------------------------------------------------------------------


def test_cli_axioms_and_report(tmp_path, capsys):
    cfg = tmp_path / "axioms.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "axioms",
                "rank": 2,
                "decomposition": {"family": "letter"},
                "radius": 3,
                "pair_radius": 2,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "axioms-report.json"
    status = main(["axioms", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert status == 0
    assert "triangle-factorizations" in captured.out
    assert out.exists()

    status = main(["report", str(out)])
    captured = capsys.readouterr()
    assert status == 0
    assert "pass" in captured.out


def test_cli_radius_override(tmp_path):
    cfg = tmp_path / "axioms.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "axioms",
                "rank": 2,
                "decomposition": {"family": "letter"},
                "radius": 7,
                "pair_radius": 2,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "r.json"
    status = main(["axioms", "--config", str(cfg), "--radius", "3", "--out", str(out)])
    assert status == 0
    doc = load_report(out)
    assert doc["notes"]["radius"] == 3


def test_cli_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    out = tmp_path / "never.json"
    status = main(["massey", "--config", str(bad), "--out", str(out)])
    captured = capsys.readouterr()
    assert status == 2
    assert "error" in captured.err
    assert not out.exists()


def test_cli_missing_config(capsys):
    status = main(["massey", "--config", "/nonexistent/x.json"])
    assert status == 2


def nested_restricts(depth: int):
    expr = "delta-qm:psi1"
    for _ in range(depth):
        expr = {"op": "restrict", "child": expr}
    return expr


@pytest.mark.parametrize(
    "raw",
    [
        json.dumps(massey_doc()).encode() + b"\xff",
        b"[" * 100_000 + b"]" * 100_000,
        json.dumps(massey_doc(omega1=nested_restricts(700))).encode(),
    ],
    ids=["not-utf-8", "deep-array", "deep-omega1"],
)
def test_cli_unreadable_config_is_exit_2(tmp_path, capsys, raw):
    """A config that is no UTF-8 text or that nests past the interpreter's
    recursion limit is a one-line configuration error, exit 2; each used to
    end in a traceback, exit 1."""
    cfg = tmp_path / "config.json"
    cfg.write_bytes(raw)
    assert main(["massey", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "massey_workbench.cli", *args)


def one_error_line(done: subprocess.CompletedProcess, status: int) -> str:
    """The one ``error:`` line of a CLI run that exited with ``status``."""
    assert (done.returncode, done.stdout) == (status, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    return done.stderr


@pytest.mark.parametrize("command", ["report", "massey"])
def test_cli_deep_json_is_exit_2(tmp_path, command):
    """A report or config file nested 100,000 deep is one error line, exit
    2; ``report`` used to end in a ``RecursionError`` traceback, exit 1."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    args = [command, str(path)] if command == "report" else [command, "--config", str(path)]
    assert "nests too deeply to read" in one_error_line(run_cli(*args), 2)


def test_cli_ball_far_past_the_cap_is_exit_3(tmp_path):
    """A radius of 200,000 is refused as soon as the ball's sizes pass the
    cap; it used to run on, summing the exact size of the whole ball."""
    cfg = tmp_path / "axioms.json"
    cfg.write_text(json.dumps(dict(AXIOMS_DOC, radius=200_000)), encoding="utf-8")
    err = one_error_line(run_cli("axioms", "--config", str(cfg)), 3)
    assert "ball of radius 200000 in rank 2 exceeds the enumeration cap" in err


def test_budgets_past_every_tuple_length_change_no_stage(tmp_path):
    """With an entry radius of 1 no tuple is longer than its arity, so
    budgets of 300,000 give the stages of budgets of 6; the exhaustive
    domains used to be sized over every length up to the budget."""
    stages = []
    for budget in (6, 300_000):
        plan = dict(
            SMALL_PLAN, exhaustive_entry_radius=1, exhaustive_total_budget=budget, deep_budget=budget
        )
        cfg, out = tmp_path / f"massey-{budget}.json", tmp_path / f"report-{budget}.json"
        cfg.write_text(json.dumps(massey_doc(plan=plan)), encoding="utf-8")
        assert run_cli("massey", "--config", str(cfg), "--out", str(out)).returncode in (0, 1)
        stages.append(load_report(out)["stages"])
    assert stages[0] == stages[1]


def test_cli_failing_run_exits_one(tmp_path):
    cfg = tmp_path / "mut.json"
    cfg.write_text(
        json.dumps(massey_doc(mutation="flip-eta-sign")), encoding="utf-8"
    )
    out = tmp_path / "mut-report.json"
    status = main(["massey", "--config", str(cfg), "--out", str(out)])
    assert status == 1
    doc = load_report(out)
    assert doc["overall_status"] == "fail"
    failing = [s for s in doc["stages"] if s["status"] == "fail"]
    assert failing and failing[0]["counterexample"]


def test_cli_verify_primitive(tmp_path):
    cfg = tmp_path / "vp.json"
    cfg.write_text(json.dumps(massey_doc(command="verify-primitive")), encoding="utf-8")
    status = main(["verify-primitive", "--config", str(cfg)])
    assert status == 0


def test_render_table_matches_report():
    doc = {
        "command": "massey",
        "overall_status": "pass",
        "stages": [
            {"name": "x", "status": "pass", "checked_count": 5, "counterexample": None}
        ],
    }
    table = render_table(doc)
    assert "massey" in table and "x" in table and "5" in table


# -- overrides and strict inputs ----------------------------------------------

DEFECT_DOC = {
    "command": "defect",
    "rank": 2,
    "phi": {
        "decomposition": {"family": "brooks", "word": "ab"},
        "lambda": [{"piece": "ab", "value": "1"}],
    },
    "radius": 2,
    "pair_radius": 2,
    "random_pairs": 60,
    "max_len": 30,
    "seed": 5,
}


def test_zero_overrides_are_not_replaced_by_config_values():
    by_override = run_defect(DEFECT_DOC, {"seed": 0, "radius": 0})
    by_config = run_defect(dict(DEFECT_DOC, seed=0, radius=0))
    assert strip_timing(by_override.to_json())["stages"] == strip_timing(
        by_config.to_json()
    )["stages"]
    assert by_override.stages[0].checked == 1 + 4 + 12  # ball of radius 2
    axioms = run_axioms(
        {"rank": 2, "decomposition": {"family": "letter"}, "radius": 3, "pair_radius": 0},
        {"radius": 0},
    )
    assert axioms.notes["radius"] == 0


def test_overrides_read_as_config_values():
    """An override is the config value it replaces, and a None override is
    not given."""

    def stages(report):
        return strip_timing(report.to_json())["stages"]

    by_config = massey_doc()
    by_config["plan"] = dict(by_config["plan"], seed=7)
    by_override = run_massey(massey_doc(), {"seed": 7, "radius": None, "jobs": None})
    assert stages(by_override) == stages(run_massey(by_config))
    by_override = run_defect(DEFECT_DOC, {"seed": 7, "radius": 1})
    assert stages(by_override) == stages(run_defect(dict(DEFECT_DOC, seed=7, radius=1)))
    unset = {"seed": None, "radius": None, "jobs": None}
    assert stages(run_defect(DEFECT_DOC, unset)) == stages(run_defect(DEFECT_DOC))
    assert stages(run_axioms(AXIOMS_DOC, unset)) == stages(run_axioms(AXIOMS_DOC))


def test_cli_refuses_a_seed_for_axioms(tmp_path, capsys):
    """axioms reads no seed; --seed was once ignored, exit 0."""
    assert main(config_args(tmp_path, AXIOMS_DOC, "radius", 2) + ["--seed", "5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown axioms config keys: ['seed']\n"


def test_jobs_below_one_rejected():
    doc = {"rank": 2, "decomposition": {"family": "letter"}, "radius": 2}
    for jobs in (0, -1):
        with pytest.raises(ConfigError):
            run_axioms(doc, {"jobs": jobs})
        with pytest.raises(ConfigError):
            run_defect(DEFECT_DOC, {"jobs": jobs})
        with pytest.raises(ConfigError):
            run_massey(massey_doc(), {"jobs": jobs})
    with pytest.raises(ConfigError):
        run_axioms(dict(doc, jobs=0))


def test_cli_rejects_jobs_zero_and_massey_radius(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(massey_doc()), encoding="utf-8")
    assert main(["massey", "--config", str(cfg), "--jobs", "0"]) == 2
    for command in ("massey", "verify-primitive"):
        out = tmp_path / f"{command}.json"
        status = main([command, "--config", str(cfg), "--radius", "3", "--out", str(out)])
        assert status == 2
        assert not out.exists()
    assert "--radius" in capsys.readouterr().err


def test_unknown_config_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mutaton"):
        run_massey(massey_doc(mutaton="flip-eta-sign"))
    with pytest.raises(ConfigError, match="r_hat"):
        run_massey(massey_doc(r_hat=1000))
    with pytest.raises(ConfigError):
        run_axioms({"rank": 2, "radius": 2, "radiu": 3})
    with pytest.raises(ConfigError):
        run_defect(dict(DEFECT_DOC, random_pair=10))
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(massey_doc(mutaton="flip-eta-sign")), encoding="utf-8")
    assert main(["massey", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps(massey_doc(r_hat=1000)), encoding="utf-8")
    assert main(["massey", "--config", str(cfg)]) == 2


def test_shipped_configs_pass_the_key_check():
    from pathlib import Path

    from massey_workbench.harness import check_config_keys

    configs = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
    assert configs
    for path in configs:
        doc = load_config(path)
        check_config_keys(doc, doc["command"])


@pytest.mark.parametrize(
    "bad",
    [
        {"max_len": 0},
        {"max_len": -3},
        {"ladder_samples": 0},
        {"max_len_ladder": [0, 10]},
        {"max_len_ladder": [-5]},
        {"jobs": 0},
        {"exhaustive_entry_radius": 0},
        {"max_len_ladder": []},
    ],
)
def test_plan_rejects_non_positive_sizes(tmp_path, bad):
    with pytest.raises(ConfigError):
        plan_from_json(bad, 2)
    doc = massey_doc()
    doc["plan"] = dict(SMALL_PLAN, **bad)
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["massey", "--config", str(cfg)]) == 2


MASSEY_DOC = massey_doc()
VERIFY_DOC = massey_doc(command="verify-primitive")

AXIOMS_DOC = {
    "command": "axioms",
    "rank": 2,
    "decomposition": {"family": "rolli"},
    "radius": 2,
    "pair_radius": 2,
}


def config_args(tmp_path, base, key, value) -> list[str]:
    """CLI arguments running a copy of ``base`` with ``key`` (which may be a
    dotted path into nested objects and lists) set to ``value``, under the
    command of ``base``."""
    doc = copy.deepcopy(base)
    *parents, last = key.split(".")
    target = doc
    for parent in parents:
        target = target[int(parent)] if isinstance(target, list) else target[parent]
    target[last] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    return [base["command"], "--config", str(cfg)]


@pytest.mark.parametrize(
    "base, key, bad",
    [
        pytest.param(base, key, bad, id=f"{base['command']}-{key}-{bad!r}")
        for base, key, bad in [
            (AXIOMS_DOC, "rank", "2"),
            (AXIOMS_DOC, "radius", "x"),
            (AXIOMS_DOC, "pair_radius", 2.0),
            (AXIOMS_DOC, "enumeration_cap", "7"),
            (AXIOMS_DOC, "jobs", True),
            (AXIOMS_DOC, "check_stabilization", "no"),
            (AXIOMS_DOC, "check_stabilization", 0),
            (DEFECT_DOC, "rank", 2.0),
            (DEFECT_DOC, "radius", True),
            (DEFECT_DOC, "pair_radius", "3"),
            (DEFECT_DOC, "random_pairs", "many"),
            (DEFECT_DOC, "max_len", None),
            (DEFECT_DOC, "seed", "0"),
            (DEFECT_DOC, "enumeration_cap", "7"),
            (DEFECT_DOC, "jobs", 1.5),
            (MASSEY_DOC, "rank", True),
            (MASSEY_DOC, "k1", "x"),
            (MASSEY_DOC, "k2", 2.0),
            (VERIFY_DOC, "k1", "2"),
            (MASSEY_DOC, "plan.rank", "2"),
            (MASSEY_DOC, "plan.seed", "5"),
            (MASSEY_DOC, "plan.exhaustive_entry_radius", 4.0),
            (MASSEY_DOC, "plan.exhaustive_total_budget", "5"),
            (MASSEY_DOC, "plan.deep_budget", True),
            (MASSEY_DOC, "plan.pair_radius", "3"),
            (MASSEY_DOC, "plan.max_len", 15.5),
            (MASSEY_DOC, "plan.ladder_samples", None),
            (MASSEY_DOC, "plan.enumeration_cap", "7"),
            (MASSEY_DOC, "plan.jobs", "1"),
            (MASSEY_DOC, "plan.max_len_ladder", 5),
            (MASSEY_DOC, "plan.max_len_ladder", ["10"]),
            (MASSEY_DOC, "plan.sample_counts", [5]),
            (MASSEY_DOC, "plan.sample_counts.delta_p", "5"),
            (VERIFY_DOC, "plan.pair_radius", "3"),
            (MASSEY_DOC, "plan", "x"),
            (MASSEY_DOC, "plan", 3),
            (MASSEY_DOC, "plan", []),
            (MASSEY_DOC, "plan", [["seed", 5]]),
            (VERIFY_DOC, "plan", None),
            # The plan takes the config's rank; a plan.rank of 3 once sampled
            # tuples with c on a rank-2 instance.
            (MASSEY_DOC, "plan.rank", 3),
        ]
    ],
)
def test_config_values_must_have_their_json_type(tmp_path, base, key, bad):
    assert main(config_args(tmp_path, base, key, bad)) == 2


NEGATIVE_PAIR_RADIUS = [
    (AXIOMS_DOC, "pair_radius", -1),
    (DEFECT_DOC, "pair_radius", -1),
    (MASSEY_DOC, "plan.pair_radius", -1),
]
TABLE_EXPR = {"op": "table", "degree": 2, "entries": [{"tuple": ["a", "b"], "value": 1}]}
MASSEY_K1_DOC = massey_doc(k1=1)


@pytest.mark.parametrize(
    "base, key, bad",
    [
        pytest.param(base, key, bad, id=f"{base['command']}-{key}-{bad!r}")
        for base, key, bad in [
            (MASSEY_DOC, "phi.decomposition.word", 5),
            (MASSEY_DOC, "phi.lambda", 5),
            (MASSEY_DOC, "phi.lambda.0.value", "1/0"),
            (MASSEY_DOC, "phi.lambda.0.value", "1e999999"),
            (MASSEY_DOC, "phi.lambda.0.value", "1e-999999"),
            (MASSEY_DOC, "phi.lambda", [{"piece": "ab"}]),
            (MASSEY_DOC, "phi.lambda", [{"piece": "ab", "value": 1}, {"piece": "ab", "value": 2}]),
            (DEFECT_DOC, "phi.lambda.0.value", "1/0"),
            (DEFECT_DOC, "phi.lambda", [{"piece": "ab", "value": 1}, {"piece": "ab", "value": 1}]),
            (DEFECT_DOC, "random_pairs", -1),
            (DEFECT_DOC, "max_len", -1),
            (DEFECT_DOC, "rank", 27),
            (AXIOMS_DOC, "rank", 0),
            (AXIOMS_DOC, "rank", 27),
            (AXIOMS_DOC, "rank", 127),
            (MASSEY_DOC, "plan.exhaustive_total_budget", -3),
            (MASSEY_DOC, "plan.deep_budget", -1),
            (MASSEY_DOC, "quasimorphisms", []),
            (VERIFY_DOC, "quasimorphisms", "psi1"),
            (MASSEY_DOC, "omega1", {"op": "const", "value": "x"}),
            (MASSEY_DOC, "omega1", {"op": "const"}),
            (MASSEY_DOC, "omega1", {"op": "delta"}),
            (MASSEY_DOC, "omega1", {"op": "lincomb"}),
            (MASSEY_DOC, "omega1", {"op": "lincomb", "terms": [{"coeff": "1/0", "child": "x"}]}),
            (MASSEY_DOC, "omega1", dict(TABLE_EXPR, degree="x")),
            (MASSEY_DOC, "omega1", dict(TABLE_EXPR, degree=2.9)),
            (MASSEY_K1_DOC, "omega1", {"op": "table", "degree": True, "entries": []}),
            (MASSEY_DOC, "omega1", dict(TABLE_EXPR, entries=[{"tuple": "ab", "value": 1}])),
            (MASSEY_DOC, "schema_version", 2),
            (MASSEY_DOC, "schema_version", "x"),
            (MASSEY_DOC, "schema_version", True),
            (MASSEY_DOC, "schema_version", 1.0),
            (AXIOMS_DOC, "schema_version", 0),
            (DEFECT_DOC, "schema_version", None),
            (MASSEY_DOC, "command", "axioms"),
            (MASSEY_DOC, "command", "verify-primitive"),
            (MASSEY_DOC, "command", 5),
            (VERIFY_DOC, "command", "defect"),
            (AXIOMS_DOC, "command", "massey"),
            (DEFECT_DOC, "command", ["defect"]),
            *NEGATIVE_PAIR_RADIUS,
        ]
    ],
)
def test_cli_rejects_malformed_config_values(tmp_path, capsys, base, key, bad):
    """Malformed values end in a configuration error, exit 2, with no
    traceback, whether they used to raise or to be read silently."""
    assert main(config_args(tmp_path, base, key, bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("base, key, bad", NEGATIVE_PAIR_RADIUS)
def test_negative_pair_radius_names_its_key(tmp_path, capsys, base, key, bad):
    """The error names ``pair_radius``, not the ball enumeration's radius."""
    assert main(config_args(tmp_path, base, key, bad)) == 2
    assert "pair_radius must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["plan.exhaustive_total_budget", "plan.deep_budget"])
def test_zero_budget_is_valid(tmp_path, key):
    """A budget of 0 leaves only the random tuples, as it always did."""
    assert main(config_args(tmp_path, MASSEY_DOC, key, 0)) == 0


@pytest.mark.parametrize(
    "base, key, bad",
    [
        pytest.param(base, key, bad, id=f"{base['command']}-{key}-{bad!r}")
        for base, key, bad in [
            (AXIOMS_DOC, "decomposition.word", "ab"),
            (MASSEY_DOC, "quasimorphisms.psi2.decomposition.word", "ab"),
            (MASSEY_DOC, "phi.lamda", [{"piece": "ab", "value": "2"}]),
            (DEFECT_DOC, "phi.name", "phi"),
            (MASSEY_DOC, "phi.lambda", [{"piece": "ab", "value": 1, "valeu": 2}]),
            (MASSEY_DOC, "omega1", {"op": "delta", "child": {"op": "qm", "name": "psi1"}, "sgn": -1}),
            (MASSEY_DOC, "omega1", {"op": "restrict", "child": "delta-qm:psi1", "alt": True}),
            (MASSEY_K1_DOC, "omega1", {"op": "qm", "name": "psi1", "quasimorphism": {}}),
            (MASSEY_DOC, "omega1", dict(TABLE_EXPR, entries=[{"tuple": ["a", "b"], "value": 1, "x": 0}])),
            (MASSEY_DOC, "omega1", dict(TABLE_EXPR, entries=[5])),
            (MASSEY_DOC, "omega1", {"op": "lincomb", "terms": [{"coeff": 1, "child": "delta-qm:psi1", "c": 1}]}),
            (DEFECT_DOC, "quasimorphism", DEFECT_DOC["phi"]),
        ]
    ],
)
def test_cli_rejects_unknown_nested_config_keys(tmp_path, capsys, base, key, bad):
    """A key no reader reads, at any depth, is a configuration error rather
    than a silent default (a misspelled "lambda" would read as phi = 0); the
    defect command reads its quasi-morphism from "phi" only."""
    assert main(config_args(tmp_path, base, key, bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "base, key, bad",
    [
        (AXIOMS_DOC, "enumeration_cap", -1),
        (DEFECT_DOC, "enumeration_cap", 0),
        (MASSEY_DOC, "plan.enumeration_cap", 0),
        (VERIFY_DOC, "plan.enumeration_cap", -5),
    ],
)
def test_cli_rejects_non_positive_enumeration_cap(tmp_path, capsys, base, key, bad):
    assert main(config_args(tmp_path, base, key, bad)) == 2
    assert "enumeration_cap must be an integer >= 1" in capsys.readouterr().err
    assert main(config_args(tmp_path, base, key, None)) == 0


@pytest.mark.parametrize("value", ["x", "-5", "0", "1e3"])
def test_cli_rejects_invalid_enumeration_cap_env(monkeypatch, capsys, value):
    from pathlib import Path

    config = Path(__file__).resolve().parent.parent / "configs" / "axioms-letter.json"
    monkeypatch.setenv("MASSEY_WORKBENCH_ENUM_CAP", value)
    assert main(["axioms", "--config", str(config)]) == 2
    assert "MASSEY_WORKBENCH_ENUM_CAP must be an integer >= 1" in capsys.readouterr().err


# Lengths past the enumeration cap, or past 2**31 - 1 whatever the cap, once
# ended in an OverflowError traceback from getrandbits.
OVERSIZED_LENGTHS = [
    (MASSEY_DOC, "plan.max_len", 5_000_000_000),
    (VERIFY_DOC, "plan.max_len", 2**31),
    (MASSEY_DOC, "plan.max_len_ladder", [10, 5_000_000_000]),
    (DEFECT_DOC, "max_len", 5_000_000_000),
]


@pytest.mark.parametrize("env_cap", [None, str(2**40)])
@pytest.mark.parametrize("base, key, bad", OVERSIZED_LENGTHS)
def test_cli_rejects_oversized_lengths(tmp_path, monkeypatch, capsys, base, key, bad, env_cap):
    """An oversized max_len, ladder rung or defect max_len is a one-line
    resource-cap error, exit 3, before R-hat or any stage runs, also with
    the enumeration cap raised past 2**31."""
    if env_cap is not None:
        monkeypatch.setenv("MASSEY_WORKBENCH_ENUM_CAP", env_cap)

    def ran(*args, **kwargs):
        raise AssertionError("a scan ran")

    for module in (massey, harness):
        monkeypatch.setattr(module, "measure_r_hat", ran)
    monkeypatch.setattr(report.Report, "add", ran)
    assert main(config_args(tmp_path, base, key, bad)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "exceeds the length cap" in err


@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("base", [AXIOMS_DOC, DEFECT_DOC], ids=["axioms", "defect"])
def test_negative_radius_is_refused_before_any_scan(tmp_path, monkeypatch, capsys, base, flag):
    """A radius of -1, from the config or from --radius, is a one-line
    configuration error, exit 2, before R-hat or any stage runs; defect once
    ran R-hat and qm-antisymmetry first."""

    def ran(*args, **kwargs):
        raise AssertionError("a scan ran")

    for name in ("measure_r_hat", "check_axioms"):
        monkeypatch.setattr(harness, name, ran)
    monkeypatch.setattr(report.Report, "add", ran)
    args = config_args(tmp_path, base, "radius", base["radius"] if flag else -1)
    assert main(args + ["--radius", "-1"] if flag else args) == 2
    assert capsys.readouterr().err == "error: radius must be >= 0, got -1\n"


@pytest.mark.parametrize("text", ["a^99999999999", "a^-" + "9" * 5000], ids=["power", "digits"])
def test_oversized_word_powers_hit_the_length_cap(tmp_path, capsys, text):
    """A word power past the length cap, or with more digits than ``int``
    reads, is a one-line resource-cap error, exit 3; it used to end in a
    MemoryError or ValueError traceback."""
    assert main(config_args(tmp_path, MASSEY_DOC, "phi.decomposition.word", text)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "exceeds the length cap" in err


@pytest.mark.parametrize(
    "text",
    ["a\u212a", "ab^\u0663", "a^\u00b2"],
    ids=["kelvin-sign", "arabic-three", "superscript-two"],
)
def test_word_syntax_is_ascii(tmp_path, capsys, text):
    """A letter or digit outside ASCII is a one-line configuration error,
    exit 2. The Kelvin sign used to read as the generator k, the
    Arabic-Indic digit three as 3, and the superscript two as a power past
    the length cap (exit 3)."""
    base = dict(AXIOMS_DOC, rank=26, radius=0, pair_radius=0)
    brooks = {"family": "brooks", "word": text}
    assert main(config_args(tmp_path, base, "decomposition", brooks)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "base, key",
    [(MASSEY_DOC, "plan.max_len"), (MASSEY_DOC, "plan.max_len_ladder"), (DEFECT_DOC, "max_len")],
)
def test_lengths_are_bounded_by_the_enumeration_cap(tmp_path, monkeypatch, capsys, base, key):
    """The cap in force bounds every sampled length: 20 passes a cap of 20,
    21 does not."""
    monkeypatch.setenv("MASSEY_WORKBENCH_ENUM_CAP", "20")
    ladder = key.endswith("ladder")
    base = copy.deepcopy(base)
    if base["command"] == "defect":
        base.update(radius=0, pair_radius=0)
    else:
        base["plan"].update(exhaustive_total_budget=2, deep_budget=2, pair_radius=1)
    assert main(config_args(tmp_path, base, key, [10, 20] if ladder else 20)) in (0, 1)
    capsys.readouterr()
    assert main(config_args(tmp_path, base, key, [10, 21] if ladder else 21)) == 3
    assert "length cap 20" in capsys.readouterr().err


def stage_doc(**fields):
    stage = {"name": "x", "status": "pass", "checked_count": 1, "counterexample": None, "stats": None}
    return json.dumps({"stages": [dict(stage, **fields)]})


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"command": "massey"}',
        '{"stages": [1]}',
        stage_doc(stats=[1]),
        stage_doc(stats="abc"),
        stage_doc(checked_count="3"),
        stage_doc(checked_count=True),
        stage_doc(counterexample=[1]),
        stage_doc(name=None),
        stage_doc(status=1),
    ],
)
def test_cli_report_rejects_non_reports(tmp_path, capsys, text):
    path = tmp_path / "not-a-report.json"
    path.write_text(text, encoding="utf-8")
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert "not a report" in captured.err
    assert captured.out == ""


def test_check_stabilization_false_skips_the_stage():
    report = run_axioms(dict(AXIOMS_DOC, check_stabilization=False))
    assert report.stages[-1].name == "triangle-factorizations"
    report = run_axioms(dict(AXIOMS_DOC, check_stabilization=True))
    assert report.stages[-1].name == "r-hat-stabilization"


def test_unknown_sample_count_stage_rejected(tmp_path):
    # "delta-p" for "delta_p" used to run the stage on the default 10,000 tuples.
    with pytest.raises(ConfigError, match="delta-p"):
        plan_from_json({"sample_counts": {"delta-p": 5}}, 2)
    doc = massey_doc()
    doc["plan"] = dict(SMALL_PLAN, sample_counts={"delta-p": 5})
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["massey", "--config", str(cfg)]) == 2
    plan = plan_from_json({"sample_counts": {"delta_p": 5}}, 2)
    assert plan.samples("delta_p") == 5
    assert plan.samples("three_sum") == ExperimentPlan.DEFAULT_SAMPLES["three_sum"]


def test_defect_at_two_jobs_matches_serial():
    serial = strip_timing(run_defect(DEFECT_DOC).to_json())
    parallel = strip_timing(run_defect(DEFECT_DOC, {"jobs": 2}).to_json())
    assert parallel == serial


def test_failing_defect_stages_match_across_jobs():
    """A tampered (non-alternating) table fails both checks; the first
    counterexample and the domain-size count do not depend on the job count."""
    phi = qm_from_json(DEFECT_DOC["phi"], 2)
    tampered = QuasiMorphism(phi.spec, tampered_lambda(phi.table, W("BA"), 0))
    stages = {
        jobs: (
            _antisymmetry_stage(tampered, 3, None, jobs),
            _tripod_identity_stage(tampered, 3, None, jobs),
        )
        for jobs in (1, 2)
    }
    for anti, tripod in stages.values():
        assert not anti.passed and not tripod.passed
        assert anti.checked == 53  # the ball of radius 3
        assert tripod.checked == 53**2
    assert stages[1] == stages[2]


def test_stage_timing_comes_from_the_stage_own_scan(monkeypatch):
    """The R-hat scans of massey and defect are timed in no stage, massey's
    task building is timed under ``tasks_s``, and the axioms pair scan is
    timed in triangle-factorizations, not in the per-word stages."""

    def slowed(fn, only=lambda *args: True):
        def wrapper(*args, **kwargs):
            if only(*args):
                time.sleep(0.3)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(massey, "measure_r_hat", slowed(massey.measure_r_hat))
    monkeypatch.setattr(decomposition, "_scan_triangles", slowed(decomposition._scan_triangles))
    # The tasks of the first stage, cocycle-omega1, are slowed.
    only_cocycle = lambda plan, arity, stage: stage == "cocycle"  # noqa: E731
    monkeypatch.setattr(checks, "stage_tasks", slowed(checks.stage_tasks, only_cocycle))
    timing = run_massey(massey_doc()).to_json()["timing"]
    first = timing["stages"][0]
    assert first["name"] == "cocycle-omega1" and first["wall_time_s"] < 0.3
    assert timing["tasks_s"] >= 0.3
    assert timing["wall_time_s"] >= 0.6
    stages = run_axioms(AXIOMS_DOC).to_json()["timing"]["stages"]
    walls = {stage["name"]: stage["wall_time_s"] for stage in stages}
    assert walls["triangle-factorizations"] >= 0.3
    assert walls["pieces-concatenate"] < 0.3
    timing = run_defect(DEFECT_DOC).to_json()["timing"]
    assert all(stage["wall_time_s"] < 0.3 for stage in timing["stages"])
    assert timing["wall_time_s"] >= 0.3


def test_massey_stage_domains_match_the_benchmark_counts():
    """Every stage checks exactly the tuple count the benchmark derives from
    the plan on its own (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = massey_doc()
    report = run_massey(doc)
    plan = dataclasses.asdict(plan_from_json(doc["plan"], doc["rank"]))
    checked = {stage.name: stage.checked for stage in report.stages}
    assert checked == workloads.expected_massey_counts(plan)
