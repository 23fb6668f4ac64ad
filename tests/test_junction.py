"""Differential tests of the coboundary of a quasi-morphism leaf.

On a concatenating pair ``(x, y)``, ``coboundary(qm_cochain(q))`` reads the
counting kernel on ``x[-K:]``, ``y[:K]`` and their concatenation, K =
``q.window`` (README "Junction window"); on every other pair it sums its
faces. Both paths are compared with phi(x) + phi(y) - phi(x y) from the
plain piece sum of ``tests/oracles.py`` for the letter, Rolli and Brooks
families on ranks 1 to 3 and 26, on alternating and tampered tables, at
cuts inside and beside forced pieces. Each broken copy of the window read
below must make the comparison fail.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench.cochain import Coboundary, coboundary, evaluate, qm_cochain
from massey_workbench.decomposition import DecompositionSpec
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import (
    invert_letters,
    multiply_letters,
    parse_word,
    reduce_letters,
    sample_word,
)
from oracles import reference_value, tampered_lambda

# Brooks words with the smallest rank that holds them.
BROOKS_WORDS = (("a", 1), ("ab", 2), ("aab", 2), ("abC", 3), ("aabab", 2))
RANKS = (1, 2, 3, 26)


def letters_of_rank(rank):
    return st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i)))


@st.composite
def cases(draw):
    """A quasi-morphism, a reduced word and cut positions of it: random
    stretches with forced pieces between them (``w`` or ``w^-1`` for Brooks,
    letter powers otherwise, up to 40 letters long on rank 1), cut inside
    and beside the forced pieces and anywhere."""
    family = draw(st.sampled_from(("letter", "rolli", "brooks")))
    w = None
    if family == "brooks":
        text, least = draw(st.sampled_from(BROOKS_WORDS))
        rank = draw(st.sampled_from([r for r in RANKS if r >= least]))
        w = parse_word(text, rank)
    else:
        rank = draw(st.sampled_from(RANKS))
    letter = letters_of_rank(rank)
    if family == "brooks":
        piece = letter.map(lambda x: reduce_letters([x])) | st.sampled_from([w, invert_letters(w)])
    elif family == "rolli":
        piece = st.tuples(letter, st.integers(1, 3)).map(lambda p: reduce_letters([p[0]] * p[1]))
    else:
        piece = letter.map(lambda x: reduce_letters([x]))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    entries: dict = {}
    for p, v in draw(st.lists(st.tuples(piece, value), max_size=6)):
        if invert_letters(p) not in entries:
            entries[p] = v
    table = LambdaTable(entries)
    for p, v in draw(st.lists(st.tuples(piece, value), max_size=2)):
        table = tampered_lambda(table, p, v)
    q = QuasiMorphism(DecompositionSpec(family, rank, w), table)

    run = 40 if rank == 1 else 6
    z = b""
    cuts = []
    for _ in range(draw(st.integers(1, 8))):
        sampled = sample_word(rank, draw(st.integers(0, 30)), draw(st.integers(0, 2**32)))
        z = multiply_letters(z, sampled)
        if family == "brooks":
            forced = w if draw(st.booleans()) else invert_letters(w)
        else:
            forced = reduce_letters([draw(letter)] * draw(st.integers(1, run)))
        z = multiply_letters(z, forced)
        cuts.append(len(z) - draw(st.integers(0, len(forced))))
    cuts += draw(st.lists(st.integers(1, 400), max_size=3))
    n = len(z)
    return q, z, sorted({min(max(c, 1), n - 1) for c in cuts}) if n >= 2 else []


def piece_sum_defect(q, x, y, xy):
    return reference_value(q, x) + reference_value(q, y) - reference_value(q, xy)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_coboundary_matches_piece_sum(case):
    q, z, cuts = case
    delta = coboundary(qm_cochain(q))
    for c in cuts:
        x, y = z[:c], z[c:]
        # One assertion, so a broken evaluator fails at one site. z y^-1
        # cancels at its junction, so the coboundary sums its faces there.
        assert (evaluate(delta, (x, y)), evaluate(delta, (z, invert_letters(y)))) == (
            piece_sum_defect(q, x, y, z),
            piece_sum_defect(q, z, invert_letters(y), x),
        )


def test_junction_examples():
    def delta(family, table, word=None):
        spec = DecompositionSpec(family, 2, word and parse_word(word, 2))
        q = QuasiMorphism(spec, LambdaTable({parse_word(p, 2): v for p, v in table.items()}))
        node = coboundary(qm_cochain(q))
        return lambda x, y: evaluate(node, (parse_word(x, 2), parse_word(y, 2)))

    brooks = delta("brooks", {"ab": 1}, "ab")
    # phi(a) + phi(b) - phi(ab) = 0 + 0 - 1
    assert brooks("a", "b") == -1 and brooks("b", "a") == 0
    rolli = delta("rolli", {"a": 1, "a^2": 5})
    # a, a: 1 + 1 - 5; aa, a: 5 + 1 - lambda(a^3) = 6; b, a: no run crosses
    assert rolli("a", "a") == -3 and rolli("a^2", "a") == 6 and rolli("b", "a") == 0
    # ba^2, a^2 b: the window of 3 letters keeps both runs whole
    assert rolli("b a^2", "a^2 b") == 10
    # the letter family has no pattern that can cross a junction
    letter = delta("letter", {"a": 7})
    assert letter("a", "a") == 0 and letter("b a", "a b") == 0
    assert delta("brooks", {"aab": Fraction(1, 2)}, "aab")("b a", "a b") == Fraction(-1, 2)


def window_read(short=0, head=False, product=True):
    """``Coboundary._eval`` with its window read rebuilt, optionally
    broken: a window ``short`` letters too short, ``x[:K]`` read instead of
    ``x[-K:]``, or the ``v(x' + y')`` term dropped. Every other tuple is
    left to the real ``_eval``."""
    exact = Coboundary._eval

    def _eval(self, t, ctx):
        qm = self.qm
        if qm is None or not (t[0] and t[1] and t[0][-1] + t[1][0] != 256):
            return exact(self, t, ctx)
        k = qm.window - short
        x = t[0][:k] if head else t[0][len(t[0]) - min(k, len(t[0])) :]
        y = t[1][:k]
        v = qm.value_letters
        return v(x) + v(y) - (v(x + y) if product else 0)

    return _eval


@pytest.mark.parametrize(
    "broken",
    [window_read(short=1), window_read(head=True), window_read(product=False)],
    ids=["short-window", "head-of-x", "no-product-term"],
)
def test_differential_test_catches_broken_window_reads(monkeypatch, broken):
    monkeypatch.setattr(Coboundary, "_eval", broken)
    with pytest.raises(AssertionError):
        test_coboundary_matches_piece_sum()


def test_unbroken_window_read_passes(monkeypatch):
    """The rebuilt read the broken copies start from is itself exact, so
    each of them fails for its own defect."""
    monkeypatch.setattr(Coboundary, "_eval", window_read())
    test_coboundary_matches_piece_sum()
