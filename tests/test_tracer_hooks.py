"""The benchmark tracer still finds every library name it wraps.

``perfbench/tracer.py`` installs its wrappers by name, so a renamed or
removed function would otherwise show only when someone runs
``perfbench/run.py --trace 1``. The tracer is imported from its file as is.
"""

import importlib.util
import sys
from pathlib import Path

from massey_workbench import harness
from massey_workbench.checks import sup_scan, task_lists
from massey_workbench.cochain import TableCochain, alternate, random_aligned_tuples
from massey_workbench.config import massey_from_json
from massey_workbench.words import parse_word

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_bindings() -> dict:
    """Every attribute of every library module and of every class in them."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "massey_workbench" or name.startswith("massey_workbench."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cls_attr, member in vars(value).items():
                        out[(name, attr, cls_attr)] = member
    return out


# The standard instance on a tiny plan: every stage of the ladder runs.
TINY_MASSEY = {
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
            "lambda": [{"piece": "a", "value": "1/2"}, {"piece": "b", "value": "1/3"}],
        },
    },
    "omega1": "delta-qm:psi1",
    "omega2": "delta-qm:psi2",
    "k1": 2,
    "k2": 2,
    "plan": {
        "exhaustive_total_budget": 4,
        "deep_budget": 4,
        "pair_radius": 2,
        "sample_counts": {
            stage: 5
            for stage in ("cocycle", "primitive", "mu_simplification", "delta_p",
                          "three_sum", "mu_cocycle", "norms")
        },
        "max_len": 6,
        "max_len_ladder": [6],
        "ladder_samples": 5,
    },
}


# A Rolli defect job: the tripod identity, R-hat and the defect statistics.
TINY_DEFECT = {
    "rank": 2,
    "phi": {
        "decomposition": {"family": "rolli"},
        "lambda": [{"piece": "a", "value": "1"}, {"piece": "b^2", "value": "-1/2"}],
    },
    "radius": 2,
    "pair_radius": 2,
    "random_pairs": 5,
    "max_len": 6,
}


def test_tracer_installs_counts_and_uninstalls():
    tracer_module = load_tracer()
    before = library_bindings()
    m, plan = massey_from_json(TINY_MASSEY)
    domain = task_lists(plan)(m.k1 + m.k2, "three_sum")
    three_sum_pairs = len({t[m.k1 - 1 : m.k1 + 1] for t in domain})
    assert three_sum_pairs < len(domain)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert library_bindings() != before
        report = harness.RUNNERS["axioms"](
            {"rank": 2, "decomposition": {"family": "letter"}, "radius": 2, "pair_radius": 2}
        )
        assert report.passed
        assert harness.RUNNERS["massey"](TINY_MASSEY).passed
        # three_sum_residual splits one tripod per distinct (g_{k1}, h_1)
        # pair of its domain, and defect_from_triangle one per pair.
        splits = tracer.counts["decomposition.triangle_split"]
        assert splits == three_sum_pairs
        assert harness.RUNNERS["defect"](TINY_DEFECT).passed
        assert tracer.counts["decomposition.triangle_split"] > splits > 0
        # Table and alternation nodes, which the standard instance does not use.
        w = parse_word("ab", 2)
        table = TableCochain(2, {(w, w): 1})
        sup_scan(alternate(table), random_aligned_tuples(2, 2, 5, 3, 0))
    finally:
        tracer.uninstall()
    assert tracer.counts["decomposition.triangle_scan.pairs"] > 0
    assert tracer.counts["parallel.chunked_map"] > 0
    for kind in tracer_module.EVAL_KINDS.values():
        assert tracer.counts[f"cochain.eval.{kind}"] > 0, kind
    for kind in tracer_module.ETA_KINDS.values():
        assert tracer.counts[f"massey.eta.{kind}"] > 0, kind
    assert tracer.counts["quasimorphism.value_letters"] > 0
    assert tracer.counts["massey.three_sum_residual"] > 0
    # A layer whose call no longer goes through the wrapped binding would
    # read 0 in the per-layer table instead of failing.
    for layer in (
        "decomposition.triangle_split",
        "decomposition.measure_r_hat",
        "decomposition.check_axioms",
        "quasimorphism.defect",
        "quasimorphism.defect_sup",
        "cochain.tasks",
    ) + tuple(f"decomposition.piece_lengths.{f}" for f in tracer_module.FAMILIES):
        assert tracer.counts[layer] > 0, layer
    after = library_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
