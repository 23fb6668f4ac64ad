"""A slice of the instance matrix: the massey command on sixteen instances
of the theorem, every phi against every window K of the omega1 factor.

Plain data on top of ``perfbench/workloads.py``'s sentinel plan, shared by
``tests/test_instance_matrix.py``, which asserts the verdicts, and
``tests/report_digests.py``, which pins the phi = Brooks(ab) reports.
"""

from __future__ import annotations

import copy


def _qm(family: str, lam: dict[str, str], word: str | None = None) -> dict:
    decomposition = {"family": family} if word is None else {"family": family, "word": word}
    return {
        "decomposition": decomposition,
        "lambda": [{"piece": p, "value": v} for p, v in lam.items()],
    }


PHIS = {
    "letter": _qm("letter", {"a": "1"}),
    "rolli": _qm("rolli", {"a": "1/2", "b^2": "1"}),
    "brooks-ab": _qm("brooks", {"ab": "1"}, "ab"),
    "brooks-aab": _qm("brooks", {"aab": "1", "b": "1/3"}, "aab"),
}

# psi1 by its window K = QuasiMorphism.window: the longest counted pattern
# less one (Rolli counts the runs one letter longer than its top power).
PSI1_BY_WINDOW = {
    1: _qm("brooks", {"aB": "1"}, "aB"),
    2: _qm("brooks", {"aab": "1"}, "aab"),
    3: _qm("rolli", {"a": "1", "a^2": "1/2"}),
    4: _qm("brooks", {"aabab": "1"}, "aabab"),
}
PSI2 = _qm("brooks", {"aab": "1"}, "aab")


def massey_doc(plan: dict, seed: int, phi: str, window: int) -> dict:
    """The massey config of one instance: phi, psi1 of window ``window``,
    psi2 = Brooks(aab), omegas ``delta-qm``, k1 = k2 = 2."""
    return copy.deepcopy(
        {
            "command": "massey",
            "schema_version": 1,
            "rank": 2,
            "phi": PHIS[phi],
            "quasimorphisms": {"psi1": PSI1_BY_WINDOW[window], "psi2": PSI2},
            "omega1": "delta-qm:psi1",
            "omega2": "delta-qm:psi2",
            "k1": 2,
            "k2": 2,
            "plan": dict(plan, seed=seed),
        }
    )
