"""The three-sum stage's per-pair record against the oracles, and the ledger
against the cache it lives in.

``three_sum_residual`` computes the tripod and the nonzero-lambda pieces of
each pair ``(g, h)`` once (``massey._pair_record``) and keeps them in the
``EvalContext``. The record is compared with ``oracles.triangle_split`` and
with pieces recomputed from ``oracles.cut_flags`` and the lambda table, for
letter, Rolli, Brooks(ab), Brooks(aab) and rank-3 Brooks(abC). The ledger
must not depend on what the cache holds: one shared context, a fresh one per
tuple, and a context cleared before every store give the same results.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from massey_workbench.cochain import EvalContext, coboundary, cup, lincomb, qm_cochain, restrict
from massey_workbench.massey import (
    MasseyInstance,
    _pair_record,
    bounded_primitive,
    three_sum_residual,
)
from massey_workbench.words import reduce_letters
from test_eta_arguments import PHIS, _qm


def words(rank, min_size=1, max_size=24):
    letter = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    return st.lists(letter, min_size=min_size, max_size=max_size).map(reduce_letters)


def aligned(*entries) -> bool:
    return all(entries) and all(a[-1] + b[0] != 256 for a, b in zip(entries, entries[1:]))


def expected_pieces(phi, e, offset):
    """Piece count and ``(j, a, b, lambda numerator)`` of the nonzero pieces
    of ``e``, positions shifted by ``offset``, from the oracle cut flags."""
    flags = oracles.cut_flags(phi.spec, e)
    cuts = [a for a, flag in enumerate(flags) if flag] + [len(e)]
    pieces = []
    for j in range(len(cuts) - 1):
        a, b = cuts[j], cuts[j + 1]
        lam = phi.table.value(e[a:b]) * phi.den
        assert lam.denominator == 1
        if lam:
            pieces.append((j, offset + a, offset + b, int(lam)))
    return len(cuts) - 1, tuple(pieces)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pair_record_matches_the_oracles(data):
    phi = PHIS[data.draw(st.sampled_from(sorted(PHIS)))]
    g = data.draw(words(phi.rank))
    h = data.draw(words(phi.rank))
    assume(aligned(g, h))
    n1, n3, thick, sides = _pair_record(phi, g, h)
    tri = oracles.triangle_split(phi.spec, g, h)
    assert (n1, n3) == (tri.corner_counts[0], tri.corner_counts[2])
    assert thick == tri.thick_lengths
    assert sides == tuple(
        expected_pieces(phi, e, offset) for e, offset in ((g, 0), (h, len(g)), (g + h, 0))
    )


def instance(phi):
    """k1 = k2 = 2 over phi's rank. Each omega is a windowed restriction of
    ``delta psi`` plus a cup of two homomorphisms (letter quasi-morphisms),
    a cocycle that reads whole entries, so every prefix and suffix product
    of the three sides shows in the values."""
    rank = phi.rank
    delta1 = restrict(coboundary(qm_cochain(_qm(rank, "brooks", "aB", {"aB": 1}))))
    delta2 = restrict(coboundary(qm_cochain(_qm(rank, "rolli", None, {"a": "1/2", "b": "1/3"}))))
    hom1 = qm_cochain(_qm(rank, "letter", None, {"a": 1, "b": "-1/2"}))
    hom2 = qm_cochain(_qm(rank, "letter", None, {"a": 2, "b": 3}))
    omega1 = lincomb((1, delta1), (1, cup(hom1, hom2)))
    omega2 = lincomb((1, delta2), (Fraction(1, 3), cup(hom2, hom1)))
    return MasseyInstance(phi, omega1, omega2, 2, 2)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ledger_does_not_depend_on_the_cache(data):
    phi = PHIS[data.draw(st.sampled_from(sorted(PHIS)))]
    m = instance(phi)
    # Few pairs under many heads and tails, so records are read back.
    entry, short = words(phi.rank), words(phi.rank, max_size=8)
    pairs = data.draw(st.lists(st.tuples(entry, entry), min_size=1, max_size=3))
    ends = data.draw(st.lists(st.tuples(short, short), min_size=1, max_size=4))
    domain = [(x, g, h, y) for g, h in pairs for x, y in ends if aligned(x, g, h, y)]
    assume(domain)

    ctx = EvalContext()
    shared = [three_sum_residual(m, t, ctx) for t in domain]
    records = {key for key in ctx.node_values if key[0] is phi}
    assert records == {(phi, t[1], t[2]) for t in domain}
    fresh = [three_sum_residual(m, t, EvalContext()) for t in domain]
    with mock.patch.object(EvalContext, "limit", 1):
        ctx = EvalContext()
        cleared = [three_sum_residual(m, t, ctx) for t in domain]
        assert len(ctx.node_values) == 1
    assert shared == fresh == cleared

    primitive = bounded_primitive(m)
    ctx = EvalContext()
    for t, (total, ledger) in zip(domain, shared):
        assert total * primitive.den == primitive._eval(t, ctx) * ledger.den
        assert len(ledger.surviving_terms) <= ledger.bound
