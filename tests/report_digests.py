"""Timing-stripped report digests of every shipped and benchmarked case.

Usage, from the repository root:

    python3 tests/report_digests.py > digests.json
    python3 tests/report_digests.py axioms > axioms.json
    python3 tests/report_digests.py --against digests.json [prefix ...]

Prints one JSON object that maps each case to the sha256 of its reports,
rendered by ``report.render_json`` with the ``timing`` key dropped. The
cases are every ``configs/*.json`` at ``--jobs`` 1 and 2, the three
``perfbench/workloads.py`` workloads at seeds 1-3, the three mutations
on the mutation-sentinel plan at seeds 1-3, and the three mutations on the
``massey-long`` plan at seeds 1-2, whose entries of up to 200 letters reach
the collapsed eta sums (the sentinel's reach 12), ``WIDE_PLAN`` at
seeds 1-2, whose entries and top ladder rung of 300 letters need more than
the top byte of a 32-bit output for a length draw, and ``LINCOMB_OMEGA1``
on the sentinel and ``massey-long`` plans, unmutated and with each
mutation, at seed 1: an omega1 that is no windowed restriction, so the eta
sums read it on whole entries, ``ALT_OMEGA1`` and ``TABLE_LINCOMB_OMEGA2``
on the sentinel plan at seed 1, the two expression kinds the standard
instance never evaluates, and the ``instances.py`` instances with phi
= Brooks(ab) and omega1 windows K = 1 to 4 on the sentinel plan at seed 1,
and, on the same plan and seed, ``RANK3`` (phi = Brooks(abC), psi1 =
Brooks(cA), the only case that formats a ``c`` or ``C`` letter) and
``CUP_OMEGA1`` (omega1 = delta psi1 cup delta psi2, k1 = 4).
Three cases pass overrides, as the CLI flags
do, rather than config values: ``defect-brooks-ab.json`` with ``--seed 7
--radius 3``, ``axioms-brooks-ab.json`` with ``--radius 7`` and the
unmutated sentinel plan at seed 1 with ``--seed 7``. Arguments, if any, are
case-name prefixes, and only the cases whose name starts with one of them
run: ``axioms`` selects the three ``axioms-*.json`` configs and the
``axioms-defect`` workload, a check of a change to the triangle scan in
under a minute. A refactor that must keep every report byte-identical
saves the object on the old tree and runs ``--against`` it on the new one:
each selected case whose digest differs from the saved one, or that only
one side has, is printed, and the exit status is 1 on any such case. It is
not a pytest module: all cases together take minutes to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
# The workload definitions are read, never written, bytecode included.
sys.dont_write_bytecode = True

import instances  # noqa: E402
import workloads  # noqa: E402

from massey_workbench.config import load_config  # noqa: E402
from massey_workbench.harness import RUNNERS  # noqa: E402
from massey_workbench.report import render_json, strip_timing  # noqa: E402

SEEDS = (1, 2, 3)
LONG_MUTATION_SEEDS = (1, 2)
# The massey-long plan with random entries and a ladder rung of up to 300
# letters: max_len 300 has 9 bits, the workloads' largest (200) has 8.
WIDE_PLAN = {
    **workloads.LONG_PLAN,
    "max_len": 300,
    "max_len_ladder": [25, 300],
    "ladder_samples": 30,
}
# omega1 = delta-qm:psi1 + 1/2 delta-qm:psi2, a factor with no window.
LINCOMB_OMEGA1 = {
    "op": "lincomb",
    "terms": [
        {"coeff": 1, "child": "delta-qm:psi1"},
        {"coeff": "1/2", "child": "delta-qm:psi2"},
    ],
}
# omega1 = alt(delta-qm:psi1): the eta sums and every stage read omega1 on
# inverted products of entries.
ALT_OMEGA1 = {"op": "alt", "child": "delta-qm:psi1"}
# omega2 = a two-entry table + delta-qm:psi2: a table leaf beside a
# windowed restriction, again a factor with no window.
TABLE_LINCOMB_OMEGA2 = {
    "op": "lincomb",
    "terms": [
        {
            "coeff": "2/3",
            "child": {
                "op": "table",
                "degree": 2,
                "entries": [
                    {"tuple": ["a", "b"], "value": "1"},
                    {"tuple": ["ab", "A"], "value": "-1/2"},
                ],
            },
        },
        {"coeff": 1, "child": "delta-qm:psi2"},
    ],
}
# Rank 3: phi = Brooks(abC) and psi1 = Brooks(cA) hold the third generator.
RANK3 = {
    "rank": 3,
    "phi": {
        "decomposition": {"family": "brooks", "word": "abC"},
        "lambda": [{"piece": "abC", "value": "1"}],
    },
    "quasimorphisms": {
        **workloads.STANDARD_INSTANCE["quasimorphisms"],
        "psi1": {
            "decomposition": {"family": "brooks", "word": "cA"},
            "lambda": [{"piece": "cA", "value": "1"}],
        },
    },
}
# omega1 = delta-qm:psi1 cup delta-qm:psi2, a degree-4 factor.
CUP_OMEGA1 = {
    "omega1": {"op": "cup", "left": "delta-qm:psi1", "right": "delta-qm:psi2"},
    "k1": 4,
}

# Configs run with overrides in place of their own values.
OVERRIDE_CASES = (
    ("defect-brooks-ab.json", {"seed": 7, "radius": 3}),
    ("axioms-brooks-ab.json", {"radius": 7}),
)


def cases():
    """(case name, [(command, config dict, overrides), ...]) in a fixed order."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        for jobs in (1, 2):
            doc = load_config(path)
            yield f"{path.name} --jobs {jobs}", [(doc["command"], doc, {"jobs": jobs})]
    for name, overrides in OVERRIDE_CASES:
        doc = load_config(ROOT / "configs" / name)
        flags = " ".join(f"--{key} {value}" for key, value in overrides.items())
        yield f"{name} {flags}", [(doc["command"], doc, overrides)]
    doc = workloads.massey_doc(workloads.SENTINEL_PLAN, 1)
    yield "sentinel none seed 1 --seed 7", [("massey", doc, {"seed": 7})]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            yield f"{workload} seed {seed}", workloads.job_calls(workload, seed)
    for mutation in workloads.SENTINEL_EXPECT:
        for seed in SEEDS:
            doc = workloads.massey_doc(workloads.SENTINEL_PLAN, seed, mutation)
            yield f"sentinel {mutation} seed {seed}", [("massey", doc, {})]
    for mutation in workloads.SENTINEL_EXPECT:
        for seed in LONG_MUTATION_SEEDS:
            doc = workloads.massey_doc(workloads.LONG_PLAN, seed, mutation)
            yield f"long {mutation} seed {seed}", [("massey", doc, {})]
    for seed in LONG_MUTATION_SEEDS:
        yield f"wide seed {seed}", [("massey", workloads.massey_doc(WIDE_PLAN, seed), {})]
    for plan_name, plan in (("sentinel", workloads.SENTINEL_PLAN), ("long", workloads.LONG_PLAN)):
        for mutation in (None, *workloads.SENTINEL_EXPECT):
            doc = dict(workloads.massey_doc(plan, 1, mutation), omega1=LINCOMB_OMEGA1)
            yield f"lincomb {plan_name} {mutation or 'none'} seed 1", [("massey", doc, {})]
    for name, key, expr in (
        ("alt omega1", "omega1", ALT_OMEGA1),
        ("table-lincomb omega2", "omega2", TABLE_LINCOMB_OMEGA2),
    ):
        doc = dict(workloads.massey_doc(workloads.SENTINEL_PLAN, 1), **{key: expr})
        yield f"{name} sentinel seed 1", [("massey", doc, {})]
    for window in sorted(instances.PSI1_BY_WINDOW):
        doc = instances.massey_doc(workloads.SENTINEL_PLAN, 1, "brooks-ab", window)
        yield f"instance brooks-ab K {window} seed 1", [("massey", doc, {})]
    for name, changes in (("rank3 brooks-abC", RANK3), ("cup omega1", CUP_OMEGA1)):
        doc = dict(workloads.massey_doc(workloads.SENTINEL_PLAN, 1), **changes)
        yield f"{name} sentinel seed 1", [("massey", doc, {})]


def digest(calls) -> str:
    reports = [RUNNERS[command](doc, overrides) for command, doc, overrides in calls]
    text = "".join(render_json(strip_timing(r.to_json())) for r in reports)
    return hashlib.sha256(text.encode()).hexdigest()


def compare(saved: dict, digests: dict, prefixes: tuple[str, ...]) -> list[str]:
    """One line per selected case that differs or that one side lacks."""
    lines = [
        f"missing here: {name}"
        for name in saved
        if name not in digests and name.startswith(prefixes)
    ]
    for name, value in digests.items():
        if name not in saved:
            lines.append(f"missing in the saved digests: {name}")
        elif saved[name] != value:
            lines.append(f"differs: {name}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Timing-stripped report digests.")
    parser.add_argument("prefixes", nargs="*", help="run only cases starting with one of these")
    parser.add_argument("--against", metavar="FILE", help="compare with a saved digest object")
    args = parser.parse_args(argv)
    prefixes = tuple(args.prefixes) or ("",)
    digests = {name: digest(calls) for name, calls in cases() if name.startswith(prefixes)}
    if args.against is None:
        print(json.dumps(digests, indent=2))
        return 0
    saved = json.loads(Path(args.against).read_text(encoding="utf-8"))
    lines = compare(saved, digests, prefixes)
    equal = sum(saved.get(name) == value for name, value in digests.items())
    print("\n".join(lines + [f"{equal} of {len(digests)} cases equal"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
