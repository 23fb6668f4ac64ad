"""Differential tests of the junction kernel.

``QuasiMorphism.junction(x, y)`` gives phi(x) + phi(y) - phi(x y) for a
concatenating pair from the letters around the junction alone, and the
coboundary of a quasi-morphism leaf returns it on such pairs. Both are
compared with the plain piece sum of ``tests/oracles.py`` for the letter,
Rolli and Brooks families on ranks 1 to 3 and 26, on alternating and
tampered tables, at cuts inside and beside forced pieces. Each broken
evaluator below must make the comparison fail.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench import quasimorphism
from massey_workbench.cochain import coboundary, evaluate, qm_cochain
from massey_workbench.decomposition import DecompositionSpec
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import Word, _make, parse_word, sample_word
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
        piece = letter.map(lambda x: Word([x], rank)) | st.sampled_from([w, w.inverse()])
    elif family == "rolli":
        piece = st.tuples(letter, st.integers(1, 3)).map(lambda p: Word([p[0]] * p[1], rank))
    else:
        piece = letter.map(lambda x: Word([x], rank))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    entries: dict = {}
    for p, v in draw(st.lists(st.tuples(piece, value), max_size=6)):
        if p.inverse() not in entries:
            entries[p] = v
    table = LambdaTable(entries)
    for p, v in draw(st.lists(st.tuples(piece, value), max_size=2)):
        table = tampered_lambda(table, p, v)
    q = QuasiMorphism(DecompositionSpec(family, rank, w), table)

    run = 40 if rank == 1 else 6
    z = Word((), rank)
    cuts = []
    for _ in range(draw(st.integers(1, 8))):
        z = z * sample_word(rank, draw(st.integers(0, 30)), draw(st.integers(0, 2**32)))
        if family == "brooks":
            forced = w if draw(st.booleans()) else w.inverse()
        else:
            forced = Word([draw(letter)] * draw(st.integers(1, run)), rank)
        z = z * forced
        cuts.append(len(z) - draw(st.integers(0, len(forced))))
    cuts += draw(st.lists(st.integers(1, 400), max_size=3))
    n = len(z)
    return q, z, sorted({min(max(c, 1), n - 1) for c in cuts}) if n >= 2 else []


def piece_sum_defect(q, x, y, xy):
    return reference_value(q, x) + reference_value(q, y) - reference_value(q, xy)


@given(cases())
@settings(max_examples=300, deadline=None)
def test_junction_matches_piece_sum(case):
    q, z, cuts = case
    delta = coboundary(qm_cochain(q))
    rank = q.rank
    for c in cuts:
        x, y = _make(z.letters[:c], rank), _make(z.letters[c:], rank)
        want = piece_sum_defect(q, x, y, z)
        # One assertion, so a broken evaluator fails at one site. z y^-1
        # cancels at its junction, so the coboundary takes the three-term
        # path there.
        assert (
            Fraction(q.junction(x.letters, y.letters), q.den),
            evaluate(delta, (x, y)),
            evaluate(delta, (z, y.inverse())),
        ) == (want, want, piece_sum_defect(q, z, y.inverse(), x))


def test_junction_examples():
    brooks = QuasiMorphism(
        DecompositionSpec("brooks", 2, parse_word("ab", 2)), LambdaTable({parse_word("ab", 2): 1})
    )
    rolli = QuasiMorphism(
        DecompositionSpec("rolli", 2),
        LambdaTable({parse_word("a", 2): 1, parse_word("a^2", 2): 5}),
    )
    a, b, aa = (parse_word(s, 2).letters for s in ("a", "b", "aa"))
    # phi(a) + phi(b) - phi(ab) = 0 + 0 - 1
    assert brooks.junction(a, b) == -1 and brooks.junction(b, a) == 0
    # a, a: 1 + 1 - 5; aa, a: 5 + 1 - lambda(a^3) = 6; b, a: no run crosses
    assert rolli.junction(a, a) == -3 and rolli.junction(aa, a) == 6
    assert rolli.junction(b, a) == 0
    # the letter family has no pattern that can cross a junction
    letter = QuasiMorphism(DecompositionSpec("letter", 2), LambdaTable({parse_word("a", 2): 7}))
    assert letter.junction(a, a) == 0


def broken_kernel(short=0, start=True, translate=True):
    """The junction formula term by term, with one part broken: a window
    ``short`` letters too short on each side, no start term, or no
    translation. It is returned with the true window, the largest k."""

    def factory(groups):
        def junction(x, y):
            total = 0
            for translation, terms in groups:
                tr = translation if translate and translation else bytes(range(256))
                for p, c, k in ((p, c, len(p) - 1) for p, c in terms if len(p) > 1):
                    span = k - short
                    tail = (b"\0" + x)[max(0, len(x) + 1 - span) :].translate(tr)
                    head = (b"\0" + y[:k]).translate(tr)
                    crossing = p in tail + head[1 : span + 1]
                    total += c * ((start and head == p) - crossing)
            return total

        return junction, max([1, *(len(p) - 1 for _, terms in groups for p, _ in terms)])

    return factory


@pytest.mark.parametrize(
    "broken",
    [broken_kernel(short=1), broken_kernel(start=False), broken_kernel(translate=False)],
    ids=["short-window", "no-start-term", "no-translation"],
)
def test_differential_test_catches_broken_kernels(monkeypatch, broken):
    monkeypatch.setattr(quasimorphism, "junction_kernel", broken)
    with pytest.raises(AssertionError):
        test_junction_matches_piece_sum()


def test_unbroken_reference_kernel_passes(monkeypatch):
    """The term-by-term form the broken kernels start from is itself exact,
    so each of them fails for its own defect."""
    monkeypatch.setattr(quasimorphism, "junction_kernel", broken_kernel())
    test_junction_matches_piece_sum()
