"""Seeded workload definitions for the benchmark.

Everything here is plain data and arithmetic; nothing imports the library,
so the set-up probe can time the library import on its own.

Each workload turns ``--seed`` into the config dicts of one job. A job is
one verification: a fresh runner call on a fresh config dict, exactly as the
CLI makes it. The expected ``checked_count`` of every stage is derived here
from the plan alone (counting words and compositions), independently of the
library, so a speed-up cannot come from checking less.
"""

from __future__ import annotations

import copy

# The instance of configs/massey-brooks-standard.json: phi = Brooks(ab),
# psi1 = Brooks(aB), psi2 = Rolli with lambda(a) = 1/2, lambda(b) = 1/3.
STANDARD_INSTANCE = {
    "command": "massey",
    "schema_version": 1,
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
}

SAMPLE_STAGES = (
    "cocycle",
    "primitive",
    "mu_simplification",
    "delta_p",
    "three_sum",
    "mu_cocycle",
    "norms",
)

# Tens of thousands of short overlapping tuples: the exhaustive budget-5
# domain plus a few hundred random tuples of at most 12 letters per stage.
SHORT_PLAN = {
    "exhaustive_entry_radius": 4,
    "exhaustive_total_budget": 5,
    "deep_budget": 5,
    "pair_radius": 4,
    "max_len": 12,
    "max_len_ladder": [6, 12],
    "ladder_samples": 100,
    "sample_counts": {stage: 300 for stage in SAMPLE_STAGES},
}

# Few tuples with long entries: a budget-4 exhaustive domain, random tuples
# at the standard max_len and the standard sup ladder.
LONG_PLAN = {
    "exhaustive_entry_radius": 4,
    "exhaustive_total_budget": 4,
    "deep_budget": 4,
    "pair_radius": 4,
    "max_len": 50,
    "max_len_ladder": [25, 50, 100, 200],
    "ladder_samples": 300,
    "sample_counts": {stage: 100 for stage in SAMPLE_STAGES},
}

# Mutation sentinel: a tiny plan whose random part is large enough on the
# stages each mutation must break that a miss was never seen in 30 seeds.
SENTINEL_PLAN = {
    "exhaustive_entry_radius": 3,
    "exhaustive_total_budget": 4,
    "deep_budget": 4,
    "pair_radius": 3,
    "max_len": 12,
    "max_len_ladder": [12],
    "ladder_samples": 10,
    "sample_counts": {
        "cocycle": 20,
        "mu_simplification": 20,
        "mu_cocycle": 20,
        "norms": 20,
        "primitive": 300,
        "delta_p": 300,
        "three_sum": 300,
    },
}

# Stages each mutation must fail, with a counterexample.
SENTINEL_EXPECT = {
    "flip-eta-sign": ("three-sum-equality",),
    "shift-z-boundary": ("three-sum-equality",),
    "flip-beta1-cup-sign": ("primitive-beta1", "delta-p-equals-mu"),
}

AXIOM_FAMILIES = (
    {"family": "letter"},
    {"family": "rolli"},
    {"family": "brooks", "word": "ab"},
)
AXIOM_RADIUS = 7
AXIOM_PAIR_RADIUS = 5
DEFECT = {"radius": 3, "pair_radius": 4, "random_pairs": 2000, "max_len": 100}

WORKLOADS = ("massey-short", "massey-long", "axioms-defect")

# Worker processes of the untimed pool-path job on massey-short's inputs
# (the box has two cores).
PARALLEL_JOBS = 2


def massey_doc(plan: dict, seed: int, mutation: str | None = None) -> dict:
    doc = copy.deepcopy(STANDARD_INSTANCE)
    doc["plan"] = dict(copy.deepcopy(plan), seed=seed)
    if mutation is not None:
        doc["mutation"] = mutation
    return doc


def job_calls(workload: str, seed: int, jobs: int = 1) -> list[tuple[str, dict, dict]]:
    """The (command, config dict, overrides) runner calls of one job.

    ``jobs`` > 1 passes ``--jobs`` the way the CLI does, as an override, so
    the config dict and hence the report stay the same.
    """
    overrides = {"jobs": jobs} if jobs > 1 else {}
    if workload == "massey-short":
        return [("massey", massey_doc(SHORT_PLAN, seed), overrides)]
    if workload == "massey-long":
        return [("massey", massey_doc(LONG_PLAN, seed), overrides)]
    if workload == "axioms-defect":
        calls = [
            (
                "axioms",
                {
                    "command": "axioms",
                    "rank": 2,
                    "decomposition": dict(family),
                    "radius": AXIOM_RADIUS,
                    "pair_radius": AXIOM_PAIR_RADIUS,
                    "check_stabilization": True,
                },
                overrides,
            )
            for family in AXIOM_FAMILIES
        ]
        calls.append(
            (
                "defect",
                {
                    "command": "defect",
                    "rank": 2,
                    "phi": copy.deepcopy(STANDARD_INSTANCE["phi"]),
                    "seed": seed,
                    **DEFECT,
                },
                overrides,
            )
        )
        return calls
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Plan-implied stage counts


def sphere(rank: int, length: int) -> int:
    """Reduced words of exactly this length."""
    return 1 if length == 0 else 2 * rank * (2 * rank - 1) ** (length - 1)


def ball(rank: int, radius: int) -> int:
    return sum(sphere(rank, n) for n in range(radius + 1))


def compositions(total: int, parts: int, max_part: int) -> int:
    """Ordered compositions of ``total`` into ``parts`` parts in [1, max_part]."""
    ways = [1] + [0] * total
    for _ in range(parts):
        nxt = [0] * (total + 1)
        for done, count in enumerate(ways):
            if count:
                for part in range(1, min(max_part, total - done) + 1):
                    nxt[done + part] += count
        ways = nxt
    return ways[total]


def exhaustive_count(rank: int, arity: int, budget: int, entry_cap: int) -> int:
    """Aligned tuples are the cut decompositions of reduced words."""
    if budget < arity:
        return 0
    return sum(
        sphere(rank, n) * compositions(n, arity, entry_cap)
        for n in range(arity, budget + 1)
    )


# Stage name -> (arity with k1 = k2 = 2, sample key).
MASSEY_STAGE_DOMAINS = {
    "cocycle-omega1": (3, "cocycle"),
    "cocycle-omega2": (3, "cocycle"),
    "primitive-beta1": (4, "primitive"),
    "primitive-beta2": (4, "primitive"),
    "mu-simplification": (5, "mu_simplification"),
    "mu-cocycle": (6, "mu_cocycle"),
    "delta-p-equals-mu": (5, "delta_p"),
    "three-sum-equality": (4, "three_sum"),
    "ledger-bound": (4, "three_sum"),
}


def expected_massey_counts(plan: dict) -> dict[str, int]:
    out = {}
    for stage, (arity, key) in MASSEY_STAGE_DOMAINS.items():
        budget = plan["exhaustive_total_budget"] if arity <= 5 else plan["deep_budget"]
        out[stage] = (
            exhaustive_count(2, arity, budget, plan["exhaustive_entry_radius"])
            + plan["sample_counts"][key]
        )
    out["sup-p-ladder"] = len(plan["max_len_ladder"]) * plan["ladder_samples"]
    return out


AXIOM_STAGES = (
    "pieces-concatenate",
    "inverse-symmetry",
    "piece-runs-stable",
    "triangle-factorizations",
    "r-hat-stabilization",
)
DEFECT_STAGES = ("qm-antisymmetry", "defect-tripod-identity", "defect-bound", "defect-sup")


def expected_counts(command: str, doc: dict) -> dict[str, int]:
    """Stage name -> checked_count the config implies."""
    if command == "massey":
        return expected_massey_counts(doc["plan"])
    if command == "axioms":
        words = ball(2, doc["radius"])
        pairs = ball(2, doc["pair_radius"]) ** 2
        return dict(zip(AXIOM_STAGES, (words, words, words, pairs, 0)))
    if command == "defect":
        pairs = ball(2, doc["radius"]) ** 2
        sampled = pairs + doc["random_pairs"]
        counts = (ball(2, doc["radius"] + 2), pairs, sampled, sampled)
        return dict(zip(DEFECT_STAGES, counts))
    raise ValueError(f"unknown command {command!r}")


def all_stage_names() -> list[str]:
    """Every report stage of every workload, in report order."""
    return [*expected_massey_counts(SHORT_PLAN), *AXIOM_STAGES, *DEFECT_STAGES]
