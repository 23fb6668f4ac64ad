"""The eta memo key holds only the letters its windowed factors read.

A windowed factor of an eta node has degree 2 and cuts its pair to
``(x[-K:], y[:K])``, so a windowed ``left`` reads only ``t[0][-K_L:]`` and a
windowed ``right`` only ``t[-1][:K_R]`` (README "Eta bulk collapse", "Memo
key"). On the standard instance, its ``shift-z-boundary`` mutation and the
sixteen instances of ``instances.py`` (psi1 windows K = 1 to 4), every eta
node is evaluated in one shared ``EvalContext`` on short aligned tuples and
on variants of each that agree with it on the windowed letters and differ
beyond them. Each value must equal the node's sum on the whole tuple in a
fresh context, and each tuple with its variants must leave one memo entry.
A key cut one letter short must fail the test.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from instances import PHIS, PSI1_BY_WINDOW, massey_doc
from massey_workbench import massey
from massey_workbench.cochain import EvalContext, random_aligned_tuples
from massey_workbench.config import massey_from_json
from massey_workbench.massey import eta1, eta2, eta_bridge
from massey_workbench.words import multiply_letters, sample_word

STANDARD = Path(__file__).resolve().parent.parent / "configs" / "massey-brooks-standard.json"
VARIANTS = 3


def cases():
    standard = json.loads(STANDARD.read_text(encoding="utf-8"))
    yield "standard", standard
    yield "standard shift-z-boundary", dict(standard, mutation="shift-z-boundary")
    for phi in sorted(PHIS):
        for window in sorted(PSI1_BY_WINDOW):
            yield f"{phi} K {window}", massey_doc(standard["plan"], 1, phi, window)


CASES = dict(cases())


def extended(rng, rank, word, front):
    """``word`` with up to four random letters joined at its front or back,
    without cancellation."""
    while True:
        extra = sample_word(rank, rng.randint(1, 4), rng.getrandbits(32))
        joined = multiply_letters(extra, word) if front else multiply_letters(word, extra)
        if len(joined) == len(extra) + len(word):
            return joined


def variants(rng, rank, node, t):
    """Tuples equal to ``t`` on what the node's windowed factors read and
    different before ``t[0][-K_L:]`` or after ``t[-1][:K_R]``; an entry
    shorter than its window is read whole and kept."""
    kl, kr = node.cut
    out = []
    for _ in range(VARIANTS):
        first = extended(rng, rank, t[0][-kl:], True) if 0 < kl <= len(t[0]) else t[0]
        v = (first,) + t[1:]
        last = extended(rng, rank, t[-1][:kr], False) if 0 < kr <= len(t[-1]) else t[-1]
        out.append(v[:-1] + (last,))
    return out


def eta_nodes(doc):
    m, _ = massey_from_json(doc)
    return m.rank, (eta1(m), eta2(m), eta_bridge(m))


def check_memo_key(rank, nodes):
    """Each tuple and its variants give the whole-tuple sums, in one context
    shared by all of them and in one of their own, where they leave one entry."""
    rng = random.Random(0)
    for node in nodes:
        shared = EvalContext()
        for t in random_aligned_tuples(rank, node.degree, 40, 5, 0):
            own = EvalContext()
            for v in [t] + variants(rng, rank, node, t):
                want = node._compute(v, EvalContext())
                assert node._eval(v, shared) == node._eval(v, own) == want, v
            assert sum(key[0] is node for key in own.node_values) == 1, t


@pytest.mark.parametrize("case", list(CASES))
def test_eta_memo_key_reads_only_the_windows(case):
    rank, nodes = eta_nodes(CASES[case])
    assert all(any(node.cut) for node in nodes)
    check_memo_key(rank, nodes)


def test_a_key_one_letter_short_fails(monkeypatch):
    # Nodes bind ``cut`` once, so they are built before the patch.
    built = [eta_nodes(doc) for doc in CASES.values()]
    short = property(
        lambda node: tuple(k - 1 if 0 < k < sys.maxsize else 0 for k in node.windows)
    )
    monkeypatch.setattr(massey._EtaBase, "cut", short)
    with pytest.raises(AssertionError):
        for rank, nodes in built:
            check_memo_key(rank, nodes)
