"""The integer cochain tree against a plain ``Fraction`` interpreter.

Every node evaluates to an integer numerator over its own fixed ``den``.
Here random trees over every node kind are built twice: once from the
library's nodes and once as ``Fraction`` closures written straight from the
definitions (coboundary sum, front/back cup, halved alternation, extension
by zero, linear combination, piece sums). Both are evaluated on aligned and
non-aligned tuples and must agree exactly. The eta nodes are checked the
same way against the sums in the ``massey`` module docstring.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench.checks import identity_stage
from massey_workbench.cochain import (
    EvalContext,
    TableCochain,
    alternate,
    coboundary,
    constant,
    cup,
    evaluate,
    lincomb,
    qm_cochain,
    random_aligned_tuples,
    restrict,
)
from massey_workbench.decomposition import DecompositionSpec, boundaries, piece_lengths
from massey_workbench.massey import (
    MasseyInstance,
    bounded_primitive,
    eta1,
    eta2,
    eta_bridge,
    massey_representative,
)
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import invert_letters, multiply_letters, parse_word, reduce_letters
from oracles import reference_value

RANK = 2
W = lambda s: parse_word(s, RANK)

QMS = (
    QuasiMorphism(
        DecompositionSpec("rolli", RANK),
        LambdaTable({W("a"): Fraction(1, 2), W("b"): Fraction(1, 3)}),
    ),
    QuasiMorphism(
        DecompositionSpec("rolli", RANK),
        LambdaTable({W("a"): Fraction(2, 3), W("aa"): Fraction(-1, 4), W("b"): 1}),
    ),
    QuasiMorphism(
        DecompositionSpec("brooks", RANK, W("ab")),
        LambdaTable({W("ab"): 1, W("a"): Fraction(1, 5)}),
    ),
)

VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=12)
LETTERS = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=5)
WORDS = LETTERS.map(reduce_letters)


def ref_aligned(t) -> bool:
    if any(len(w) == 0 for w in t):
        return False
    return all(len(multiply_letters(u, v)) == len(u) + len(v) for u, v in zip(t, t[1:]))


def ref_flip(t):
    return tuple(invert_letters(w) for w in reversed(t))


@st.composite
def aligned_tuples(draw, degree):
    """An aligned tuple: the cut decomposition of a reduced word."""
    seed = draw(st.integers(0, 2**16))
    return random_aligned_tuples(RANK, degree, 1, 4, seed)[0]


@st.composite
def trees(draw, degree: int, depth: int):
    """(library node, Fraction reference) of a random tree of this degree."""
    kinds = ["table"]
    if degree == 0:
        kinds.append("const")
    if degree == 1:
        kinds.append("qm")
    if depth > 0:
        kinds += ["alt", "restrict", "lincomb"]
        if degree >= 1:
            kinds += ["coboundary", "cup"]
    kind = draw(st.sampled_from(kinds))

    if kind == "const":
        v = draw(VALUES)
        return constant(v), lambda t: v
    if kind == "qm":
        q = draw(st.sampled_from(QMS))
        return qm_cochain(q), lambda t: reference_value(q, t[0])
    if kind == "table":
        rows = draw(st.lists(st.tuples(aligned_tuples(degree), VALUES), max_size=4))
        entries = dict(rows)
        node = TableCochain(degree, entries)
        return node, lambda t: entries.get(t, Fraction(0))
    if kind == "coboundary":
        child, f = draw(trees(degree - 1, depth - 1))

        def delta(t):
            k = len(t) - 1
            total = f(t[1:])
            for i in range(1, k + 1):
                merged = multiply_letters(t[i - 1], t[i])
                total += (-1) ** i * f(t[: i - 1] + (merged,) + t[i + 1 :])
            return total + (-1) ** (k + 1) * f(t[:k])

        return coboundary(child), delta
    if kind == "cup":
        p = draw(st.integers(0, degree))
        left, f = draw(trees(p, depth - 1))
        right, g = draw(trees(degree - p, depth - 1))
        return cup(left, right), lambda t: f(t[:p]) * g(t[p:])
    if kind == "alt":
        child, f = draw(trees(degree, depth - 1))
        sign = (-1) ** ((degree + 1) // 2)
        return alternate(child), lambda t: (f(t) + sign * f(ref_flip(t))) / 2
    if kind == "restrict":
        child, f = draw(trees(degree, depth - 1))
        return restrict(child), lambda t: f(t) if ref_aligned(t) else Fraction(0)
    parts = draw(st.lists(st.tuples(VALUES, trees(degree, depth - 1)), min_size=1, max_size=3))
    node = lincomb(*((c, e) for c, (e, _) in parts))
    return node, lambda t: sum((c * f(t) for c, (_, f) in parts), Fraction(0))


def tuples_of(degree):
    """Two aligned tuples and two arbitrary ones (identity entries and
    cancelling neighbours allowed)."""
    return st.tuples(
        aligned_tuples(degree),
        aligned_tuples(degree),
        st.tuples(*[WORDS] * degree),
        st.tuples(*[WORDS] * degree),
    )


def check_node(node, ref, tasks):
    assert isinstance(node.den, int) and node.den > 0
    shared = EvalContext()
    for t in tasks:
        assert isinstance(node._eval(t, EvalContext()), int)
        assert evaluate(node, t) == ref(t)
        assert evaluate(node, t, shared) == ref(t)


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_integer_tree_matches_fraction_interpreter(data):
    degree = data.draw(st.integers(0, 3))
    node, ref = data.draw(trees(degree, 3))
    check_node(node, ref, data.draw(tuples_of(degree)))


def ref_pieces(q: QuasiMorphism, g: bytes):
    """(z<_j, lambda(piece_j), z>_j) over the pieces of g."""
    cuts = boundaries(piece_lengths(q.spec, g))
    for j in range(1, len(cuts)):
        yield g[: cuts[j - 1]], q.table.value(g[cuts[j - 1] : cuts[j]]), g[cuts[j] :]


@st.composite
def omegas(draw, degree):
    """A random tree plus a multiple of a cochain that rarely vanishes on
    short tuples (phi, or a cup or coboundary of quasi-morphisms), so that
    the eta sums below are seldom zero."""
    q, r = draw(st.sampled_from(QMS)), draw(st.sampled_from(QMS))
    if degree == 1:
        dense, g = qm_cochain(q), lambda t: reference_value(q, t[0])
    elif draw(st.booleans()):
        dense = cup(qm_cochain(q), qm_cochain(r))
        g = lambda t: reference_value(q, t[0]) * reference_value(r, t[1])
    else:
        dense = coboundary(qm_cochain(q))
        g = lambda t: (
            reference_value(q, t[1])
            - reference_value(q, multiply_letters(t[0], t[1]))
            + reference_value(q, t[0])
        )
    node, f = draw(trees(degree, 2))
    c = draw(VALUES.filter(bool))
    return lincomb((c, dense), (1, node)), lambda t: c * g(t) + f(t)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_eta_nodes_match_their_sums(data):
    k1, k2 = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    omega1, f1 = data.draw(omegas(k1))
    omega2, f2 = data.draw(omegas(k2))
    phi = data.draw(st.sampled_from(QMS))
    m = MasseyInstance(phi, omega1, omega2, k1, k2)

    def ref_eta1(t):
        return sum(
            (f1(t[:-1] + (pre,)) * lam for pre, lam, _ in ref_pieces(phi, t[-1])),
            Fraction(0),
        )

    def ref_eta2(t):
        return sum(
            (lam * f2((suf,) + t[1:]) for _, lam, suf in ref_pieces(phi, t[0])),
            Fraction(0),
        )

    def ref_bridge(t):
        head, e, tail = t[: k1 - 1], t[k1 - 1], t[k1:]
        return sum(
            (
                f1(head + (pre,)) * lam * f2((suf,) + tail)
                for pre, lam, suf in ref_pieces(phi, e)
            ),
            Fraction(0),
        )

    check_node(eta1(m), ref_eta1, data.draw(tuples_of(k1)))
    check_node(eta2(m), ref_eta2, data.draw(tuples_of(k2)))
    check_node(eta_bridge(m), ref_bridge, data.draw(tuples_of(k1 + k2 - 1)))


@contextmanager
def small_context_limit(limit):
    """Every ``EvalContext`` clears at ``limit`` entries; each store checks
    that the cache never holds more, and the yielded list counts clears."""
    clears = [0]
    store = EvalContext.store

    def checked_store(ctx, key, value):
        clears[0] += len(ctx.node_values) >= ctx.limit
        out = store(ctx, key, value)
        assert len(ctx.node_values) <= ctx.limit
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EvalContext, "limit", limit)
        mp.setattr(EvalContext, "store", checked_store)
        yield clears


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_context_limit_keeps_tree_values(data):
    """A wholesale clear forgets values, never changes them."""
    degree = data.draw(st.integers(0, 3))
    node, _ = data.draw(trees(degree, 3))
    tasks = random_aligned_tuples(RANK, degree, 30, 4, 0)
    tasks += list(data.draw(tuples_of(degree)))
    expected = [node._eval(t, EvalContext()) for t in tasks]
    shared = EvalContext()
    assert [node._eval(t, shared) for t in tasks] == expected
    with small_context_limit(data.draw(st.integers(1, 5))):
        ctx = EvalContext()
        assert [node._eval(t, ctx) for t in tasks] == expected


def test_context_limit_keeps_identity_stage():
    """delta P = mu on the standard instance, with the cache cleared every
    few stores, gives the stage result of the unbounded cache."""
    psi1 = QuasiMorphism(DecompositionSpec("brooks", RANK, W("aB")), LambdaTable({W("aB"): 1}))
    omega1 = restrict(coboundary(qm_cochain(psi1)))
    omega2 = restrict(coboundary(qm_cochain(QMS[0])))
    m = MasseyInstance(QMS[2], omega1, omega2, 2, 2)
    tasks = random_aligned_tuples(RANK, 5, 60, 6, 1)

    def stage():
        lhs = coboundary(bounded_primitive(m))
        return identity_stage("delta-p-equals-mu", lhs, massey_representative(m), tasks)

    expected = stage()
    assert expected.passed and expected.checked == len(tasks)
    with small_context_limit(7) as clears:
        assert stage() == expected
    assert clears[0] > 0
