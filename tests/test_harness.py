import json
from fractions import Fraction

import pytest

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
from massey_workbench.harness import run_axioms, run_config, run_defect, run_massey
from massey_workbench.report import (
    ExperimentPlan,
    load_report,
    render_table,
    strip_timing,
)
from massey_workbench.words import parse_word

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
    assert q(parse_word("aaa", 2)) == Fraction(2, 3) * 0 + q.table.value((1, 1, 1))
    assert q(W("a")) == Fraction(2, 3)


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


def test_run_config_dispatch(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(massey_doc()), encoding="utf-8")
    out = tmp_path / "report.json"
    status, report = run_config(path, out=out)
    assert status == 0
    doc = load_report(out)
    assert doc["overall_status"] == "pass"
    assert doc["schema_version"] == 1


def test_run_config_rejects_unknown_command(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "explode"}), encoding="utf-8")
    with pytest.raises(ConfigError):
        run_config(path)


# -- determinism -------------------------------------------------------------


def test_reports_identical_modulo_timing(tmp_path):
    doc = massey_doc()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _, first = run_config(path)
    _, second = run_config(path)
    a, b = strip_timing(first.to_json()), strip_timing(second.to_json())
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
    with pytest.raises(ConfigError):
        run_axioms({"rank": 2, "radius": 2, "radiu": 3})
    with pytest.raises(ConfigError):
        run_defect(dict(DEFECT_DOC, random_pair=10))
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(massey_doc(mutaton="flip-eta-sign")), encoding="utf-8")
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


AXIOMS_DOC = {
    "command": "axioms",
    "rank": 2,
    "decomposition": {"family": "rolli"},
    "radius": 2,
    "pair_radius": 2,
}


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
        ]
    ],
)
def test_config_values_must_have_their_json_type(tmp_path, base, key, bad):
    doc = dict(base, **{key: bad})
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main([doc["command"], "--config", str(cfg)]) == 2


def test_check_stabilization_false_skips_the_stage():
    report = run_axioms(dict(AXIOMS_DOC, check_stabilization=False))
    assert report.stages[-1].name == "triangle-factorizations"
    report = run_axioms(dict(AXIOMS_DOC, check_stabilization=True))
    assert report.stages[-1].name == "r-hat-stabilization"
