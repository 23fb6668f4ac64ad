"""The eta bulk collapse against the plain piece sums.

An eta node sums the edge pieces of its entry and gives the bulk ``A B``
times the rest of phi(e) (README "Eta bulk collapse"); a factor that is no
windowed restriction has the whole entry as its window, so its edge spans
every piece. The differential test compares each node with the sum over
the pieces of ``tests/oracles.py``, the windowed factors read from whole
words as plain piece sums. phi is drawn from the letter, Rolli and
Brooks(ab / aab / abC) families, the windowed factors from quasi-morphisms
with K from 1 to 4 (Brooks(aabab), Rolli powers), all with tampered tables;
entries of 1 to 200 letters carry long Rolli runs and forced Brooks pieces
at both edges, and the short ones make the two edges overlap. ``k1`` and
``k2`` run over 1 to 3 with table, lincomb and cup factors, which read the
whole entry.
"""

import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from massey_workbench.cochain import (
    EvalContext,
    Restriction,
    TableCochain,
    aligned_letters,
    coboundary,
    cup,
    evaluate,
    lincomb,
    qm_cochain,
    restrict,
)
from massey_workbench.config import load_config, massey_from_json
from massey_workbench.decomposition import DecompositionSpec, boundaries
from massey_workbench.massey import MasseyInstance, eta1, eta2, eta_bridge
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import (
    invert_letters,
    multiply_letters,
    parse_word,
    reduce_letters,
    sample_word,
)
from oracles import long_tuples, piece_lengths, reference_value, tampered_lambda

RANK = 3
# (family, Brooks word) of phi and of the windowed factors.
PHI_FAMILIES = (("letter", None), ("rolli", None), ("brooks", "ab"), ("brooks", "aab"), ("brooks", "abC"))
PSI_FAMILIES = PHI_FAMILIES[1:] + (("brooks", "aabab"),)
STANDARD = Path(__file__).resolve().parent.parent / "configs" / "massey-brooks-standard.json"

LETTER = st.integers(1, RANK).flatmap(lambda i: st.sampled_from((i, -i)))
VALUE = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def quasimorphisms(draw, families, dense=False):
    """A quasi-morphism of rank 3 with a nonzero entry on a longest piece
    (``w`` or ``w^-1`` for Brooks, a power of a letter up to the cube for
    Rolli, so K runs up to 4), up to four more entries and up to two
    tampered ones; ``dense`` puts a nonzero entry on every letter first."""
    family, text = draw(st.sampled_from(families))
    w = parse_word(text, RANK) if text else None
    letter = LETTER.map(lambda x: reduce_letters([x]))
    if family == "brooks":
        long_piece = st.sampled_from([w, invert_letters(w)])
        piece = letter | long_piece
    elif family == "rolli":
        power = st.tuples(LETTER, st.integers(1, 3)).map(lambda p: reduce_letters([p[0]] * p[1]))
        long_piece = piece = power
    else:
        long_piece = piece = letter
    entries: dict = {}
    if dense:
        for x in range(1, RANK + 1):
            entries[reduce_letters([x])] = draw(VALUE.filter(bool))
    forced = (draw(long_piece), draw(VALUE.filter(bool)))
    for p, v in [forced] + draw(st.lists(st.tuples(piece, VALUE), max_size=4)):
        if p not in entries and invert_letters(p) not in entries:
            entries[p] = v
    table = LambdaTable(entries)
    for p, v in draw(st.lists(st.tuples(piece, VALUE), max_size=2)):
        table = tampered_lambda(table, p, v)
    return QuasiMorphism(DecompositionSpec(family, RANK, w), table)


def windowed_ref(q):
    """restrict(delta q) from the piece sums of whole entries."""

    def f(t):
        x, y = t
        if not aligned_letters((x, y)):
            return Fraction(0)
        xy = multiply_letters(x, y)
        return reference_value(q, x) + reference_value(q, y) - reference_value(q, xy)

    return f


@st.composite
def factors(draw, degree):
    """(node, reference, quasi-morphism) of the given degree: mostly a windowed restriction
    in degree 2 (the letter family's is identically 0, so none is drawn
    from it), otherwise a table, lincomb or cup node, which has no window."""
    q = draw(quasimorphisms(PSI_FAMILIES))
    windowed = restrict(coboundary(qm_cochain(q)))
    if degree == 2:
        kind = draw(st.sampled_from(("windowed",) * 3 + ("lincomb", "table")))
        if kind == "windowed":
            return windowed, windowed_ref(q), q
        if kind == "table":
            key = (parse_word("a", RANK), parse_word("b", RANK))
            node = TableCochain(2, {key: draw(VALUE)})
            return node, lambda t: evaluate(node, t), q
        node = lincomb((draw(VALUE.filter(bool)), windowed))
    elif degree == 1:
        node = qm_cochain(q)
    else:
        leaf = qm_cochain(draw(quasimorphisms(PHI_FAMILIES)))
        node = cup(leaf, windowed) if draw(st.booleans()) else cup(windowed, leaf)
    return node, lambda t: evaluate(node, t), q


@st.composite
def lines(draw, pieces):
    """A reduced word of up to 200 letters made mostly of the given pieces
    (a one-letter power repeated up to 40 times) with random stretches
    between them."""
    target = draw(st.one_of(st.integers(0, 12), st.integers(0, 200)))
    z = b""
    while len(z) < target:
        p = draw(st.sampled_from(pieces))
        if draw(st.integers(0, 3)) == 0:
            part = sample_word(RANK, draw(st.integers(1, 30)), draw(st.integers(0, 2**32)))
        elif len(set(p)) == 1:
            part = p[:1] * draw(st.integers(1, 40))
        else:
            part = p
        z = multiply_letters(z, part)
    return z[:target]


@st.composite
def junction_words(draw, q):
    """A table piece of ``q``, a one-letter power repeated 2 to 4 times:
    a junction inside it has a nonzero defect more often than not."""
    p = draw(st.sampled_from(sorted(q.table.entries)))
    return p * draw(st.integers(2, 4)) if len(set(p)) == 1 else p


def short_words():
    return st.builds(
        lambda n, seed: sample_word(RANK, n, seed), st.integers(0, 6), st.integers(0, 2**32)
    )


def window_of(factor):
    """0 for an absent factor, K for a windowed restriction, and the whole
    entry, ``sys.maxsize``, for any other."""
    if factor is None:
        return 0
    return factor.window if isinstance(factor, Restriction) and factor.window else sys.maxsize


def oracle_sum(phi, left, right, head, e, tail, shift):
    """sum_j left(head, z<_j) lambda_j right(z>_j, tail) straight from the
    pieces, with the cut points moved by ``shift``."""
    cuts = boundaries(piece_lengths(phi.spec, e))
    total = Fraction(0)
    for j in range(1, len(cuts)):
        term = phi.table.value(e[cuts[j - 1] : cuts[j]])
        if term and left is not None:
            term *= left(head + (e[: cuts[j - 1 + shift]],))
        if term and right is not None:
            term *= right((e[cuts[j - shift] :],) + tail)
        total += term
    return total


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_collapsed_eta_matches_piece_sums(data):
    phi = data.draw(quasimorphisms(PHI_FAMILIES, dense=data.draw(st.booleans())))
    k1, k2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    if data.draw(st.integers(0, 3)):
        k1 = k2 = 2
    omega1, ref1, psi1 = data.draw(factors(k1))
    omega2, ref2, psi2 = data.draw(factors(k2))
    mutation = data.draw(st.sampled_from((None, "shift-z-boundary")))
    shift = 1 if mutation else 0
    m = MasseyInstance(phi, omega1, omega2, k1, k2, mutation=mutation)
    pieces = sorted({p for q in (phi, psi1, psi2) for p in q.table.entries})
    first, last = data.draw(junction_words(psi1)), data.draw(junction_words(psi2))
    z = multiply_letters(multiply_letters(first, data.draw(lines(pieces))), last)
    assume(z)
    # e is z less up to the letters of first and last, which end and start
    # the entries next to it.
    a = data.draw(st.integers(0, min(len(first), len(z) - 1)))
    b = len(z) - data.draw(st.integers(0, min(len(last), len(z) - 1 - a)))
    e = z[a:b]
    head = (*(data.draw(short_words()) for _ in range(k1 - 2)), z[:a])[: k1 - 1]
    tail = (z[b:], *(data.draw(short_words()) for _ in range(k2 - 2)))[: k2 - 1]
    for node, left, right, ref_left, ref_right, h, tl in (
        (eta1(m), omega1, None, ref1, None, head, ()),
        (eta2(m), None, omega2, None, ref2, (), tail),
        (eta_bridge(m), omega1, omega2, ref1, ref2, head, tail),
    ):
        assert node.windows == (window_of(left), window_of(right))
        got = node._eval(h + (e,) + tl, EvalContext())
        assert Fraction(got, node.den) == oracle_sum(phi, ref_left, ref_right, h, e, tl, shift)


def test_standard_eta_nodes_take_the_collapse():
    """On the standard instance both omegas are windowed (psi1 = Brooks(aB)
    with K = 1, psi2 = Rolli with K = 2), and the collapsed sums on
    200-letter entries equal the plain piece sums."""
    m, _ = massey_from_json(load_config(STANDARD))
    nodes = (eta1(m), eta2(m), eta_bridge(m))
    assert [node.windows for node in nodes] == [(1, 0), (0, 2), (1, 2)]

    def ref1(t):
        return evaluate(m.omega1, t)

    def ref2(t):
        return evaluate(m.omega2, t)

    ctx = EvalContext()
    for g, e, h in long_tuples(m.rank, 3, 4, 200, "eta-collapse"):
        for node, head, tail in zip(nodes, ((g,), (), (g,)), ((), (h,), (h,))):
            left, right = (ref1 if head else None), (ref2 if tail else None)
            got = evaluate(node, head + (e,) + tail, ctx)
            assert got == oracle_sum(m.phi, left, right, head, e, tail, 0)
