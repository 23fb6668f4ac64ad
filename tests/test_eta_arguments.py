"""The factor arguments of the eta sums against a recomputation from the
definitions.

Factors that record their arguments read the whole entry, so every piece of
it is an edge piece of the eta sums. The prefix and suffix products each
eta node passes them, and its value, are compared with the pieces of
``piece_lengths`` / ``boundaries`` and the oracle ``reference_value``,
shifted as the ``shift-z-boundary`` mutation prescribes, while the
three-sum sides must stay unshifted.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from massey_workbench.cochain import Cochain, EvalContext
from massey_workbench.decomposition import DecompositionSpec, boundaries, piece_lengths
from massey_workbench.massey import (
    MasseyInstance,
    eta1,
    eta2,
    eta_bridge,
    three_sum_residual,
)
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import parse_word, reduce_letters
from oracles import reference_value
from test_letters import signed


def _qm(rank, family, word, table):
    spec = DecompositionSpec(family, rank, parse_word(word, rank) if word else None)
    return QuasiMorphism(
        spec, LambdaTable({parse_word(p, rank): Fraction(v) for p, v in table.items()})
    )


# Each table leaves some pieces at lambda 0, which no factor is asked about.
PHIS = {
    "letter": _qm(2, "letter", None, {"a": "1/2"}),
    "rolli": _qm(2, "rolli", None, {"a": "1/2", "aa": "-1/3", "b": 1}),
    "brooks(ab)": _qm(2, "brooks", "ab", {"ab": 1}),
    "brooks(aab)": _qm(2, "brooks", "aab", {"aab": "2/3", "b": "1/5"}),
    "brooks(abC)": _qm(3, "brooks", "abC", {"abC": 1, "c": "-1/2"}),
}


class Recorder(Cochain):
    """Degree-1 cochain that is 1 everywhere and records its arguments."""

    def __init__(self):
        self.degree = 1
        self.den = 1
        self.calls = []

    def _eval(self, t, ctx):
        self.calls.append(t)
        return 1


def ref_runs(phi, letters):
    cuts = boundaries(piece_lengths(phi.spec, letters))
    runs = []
    for j in range(1, len(cuts)):
        lam = reference_value(phi, letters[cuts[j - 1] : cuts[j]]) * phi.den
        assert lam.denominator == 1
        if lam:
            runs.append((j, int(lam)))
    return cuts, tuple(runs)


def check_arguments(m, letters, shift):
    cuts, runs = ref_runs(m.phi, letters)
    n = len(cuts) - 1
    pres = [(letters[: cuts[min(j - 1 + shift, n)]],) for j, _ in runs]
    sufs = [(letters[cuts[max(j - shift, 0)] :],) for j, _ in runs]
    rec1, rec2 = m.omega1, m.omega2
    for node, expect1, expect2 in (
        (eta1(m), pres, []),
        (eta2(m), [], sufs),
        (eta_bridge(m), pres, sufs),
    ):
        rec1.calls.clear()
        rec2.calls.clear()
        assert node._eval((letters,), EvalContext()) == sum(lam for _, lam in runs)
        assert rec1.calls == expect1
        assert rec2.calls == expect2


def entries(rank):
    letter = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    return st.lists(st.lists(letter, max_size=14).map(reduce_letters), min_size=1, max_size=6)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_eta_factor_arguments_match_recomputation(data):
    phi = PHIS[data.draw(st.sampled_from(sorted(PHIS)))]
    mutation = data.draw(st.sampled_from([None, "shift-z-boundary"]))
    shift = 1 if mutation else 0
    words = data.draw(entries(phi.rank))
    m = MasseyInstance(phi, Recorder(), Recorder(), 1, 1, mutation=mutation)

    for letters in words:
        check_arguments(m, letters, shift)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_three_sum_sides_are_unshifted(data):
    phi = PHIS[data.draw(st.sampled_from(sorted(PHIS)))]
    g, h = data.draw(entries(phi.rank).filter(lambda ws: len(ws) >= 2))[:2]
    assume(g and h and signed(g)[-1] != -signed(h)[0])
    t = (g, h)
    plain = MasseyInstance(phi, Recorder(), Recorder(), 1, 1)
    shifted = MasseyInstance(phi, Recorder(), Recorder(), 1, 1, mutation="shift-z-boundary")
    total, ledger = three_sum_residual(plain, t)
    shifted_total, shifted_ledger = three_sum_residual(shifted, t)
    assert (shifted_total, shifted_ledger) == (total, ledger)
    assert plain.omega1.calls == shifted.omega1.calls
    assert plain.omega2.calls == shifted.omega2.calls
