import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench import cochain, massey
from massey_workbench.cochain import (
    Cochain,
    EvalContext,
    TableCochain,
    alternate,
    coboundary,
    constant,
    count_exhaustive_aligned_tuples,
    cup,
    evaluate,
    exhaustive_aligned_tuples,
    aligned_letters,
    lincomb,
    qm_cochain,
    random_aligned_tuples,
    restrict,
)
from massey_workbench.checks import sup_scan
from massey_workbench.decomposition import DecompositionSpec
from massey_workbench.errors import UsageError
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import (
    format_letters,
    multiply_letters,
    parse_word,
    reduce_letters,
    words_of_length,
)
from oracles import flip_letters as flip

W = lambda s: parse_word(s, 2)


def brooks_qm(pattern="ab"):
    return QuasiMorphism(
        DecompositionSpec("brooks", 2, W(pattern)), LambdaTable({W(pattern): 1})
    )


def table_two():
    return TableCochain(
        2,
        {
            (W("a"), W("b")): Fraction(1),
            (W("ab"), W("b")): Fraction(-2),
            (W("b"), W("a")): Fraction(1, 2),
        },
    )


def delta_oracle(fn, t):
    """Independent implementation of the inhomogeneous coboundary sum."""
    k = len(t) - 1
    total = fn(t[1:])
    for i in range(1, k + 1):
        merged = t[: i - 1] + (multiply_letters(t[i - 1], t[i]),) + t[i + 1 :]
        total += (-1) ** i * fn(merged)
    total += (-1) ** (k + 1) * fn(t[:k])
    return total


def rand_tuples(arity, count, max_len=8, seed=0):
    return random_aligned_tuples(2, arity, count, max_len, seed)


def test_aligned_letters_examples():
    assert aligned_letters((W("a"), W("b")))
    assert not aligned_letters((W("a"), W("Ab")))
    assert not aligned_letters((W("a"), W("1")))
    assert aligned_letters(())
    assert not aligned_letters((W("1"),))
    assert aligned_letters((W("ab"), W("ba"), W("ab")))


def test_flip_preserves_alignment():
    for t in rand_tuples(3, 20, seed=5):
        assert aligned_letters(flip(t))
        assert flip(flip(t)) == t


def test_aligned_tuples_closed_under_faces():
    # dropping an end entry or merging an adjacent pair stays aligned, so
    # coboundary expansion of an aligned tuple never leaves the domain
    for t in rand_tuples(4, 40, seed=15):
        assert aligned_letters(t[1:])
        assert aligned_letters(t[:-1])
        for i in range(len(t) - 1):
            merged = t[:i] + (multiply_letters(t[i], t[i + 1]),) + t[i + 2 :]
            assert aligned_letters(merged)


def test_delta_of_degree_zero_constant_vanishes():
    c = constant(Fraction(5, 7))
    for t in rand_tuples(1, 10, seed=1):
        assert evaluate(coboundary(c), t) == 0


def test_delta_qm_is_the_defect_expression():
    q = brooks_qm()
    e = coboundary(qm_cochain(q))
    for g, h in [(W("a"), W("b")), (W("ab"), W("ab")), (W("Ba"), W("ab"))]:
        assert evaluate(e, (g, h)) == q.value(h) - q.value(multiply_letters(g, h)) + q.value(g)
    assert evaluate(e, (W("a"), W("b"))) == -1


def test_coboundary_matches_oracle():
    q = brooks_qm()
    nodes = [qm_cochain(q), table_two(), restrict(coboundary(qm_cochain(q)))]
    for node in nodes:
        ctx = EvalContext()
        fn = lambda t: evaluate(node, t, ctx)
        for t in rand_tuples(node.degree + 1, 30, seed=node.degree):
            assert evaluate(coboundary(node), t) == delta_oracle(fn, t)


def test_delta_delta_is_zero():
    for node in (qm_cochain(brooks_qm()), table_two()):
        dd = coboundary(coboundary(node))
        for t in rand_tuples(node.degree + 2, 50, seed=2):
            assert evaluate(dd, t) == 0


def test_cup_unit_and_degree_zero():
    one = constant(1)
    q = qm_cochain(brooks_qm())
    for t in rand_tuples(1, 20, seed=3):
        assert evaluate(cup(one, q), t) == evaluate(q, t)
        assert evaluate(cup(q, one), t) == evaluate(q, t)
    assert evaluate(cup(constant(Fraction(2, 3)), constant(6)), ()) == 4


def test_cup_front_back_blocks():
    q1, q2 = qm_cochain(brooks_qm("ab")), qm_cochain(brooks_qm("aB"))
    e = cup(q1, q2)
    for t in rand_tuples(2, 20, seed=4):
        assert evaluate(e, t) == q1.qm.value(t[0]) * q2.qm.value(t[1])


def test_leibniz_rule():
    q1, q2 = qm_cochain(brooks_qm("ab")), qm_cochain(brooks_qm("aB"))
    t2 = table_two()
    pairs = [(q1, q2), (q1, t2), (t2, q2), (t2, t2)]
    for e1, e2 in pairs:
        lhs = coboundary(cup(e1, e2))
        sign = Fraction(-1) if e1.degree % 2 else Fraction(1)
        rhs = lincomb(
            (1, cup(coboundary(e1), e2)), (sign, cup(e1, coboundary(e2)))
        )
        for t in rand_tuples(e1.degree + e2.degree + 1, 40, seed=e1.degree):
            assert evaluate(lhs, t) == evaluate(rhs, t)


def test_alternation_degree_two_formula():
    t2 = table_two()
    a = alternate(t2)
    ctx = EvalContext()
    for t in rand_tuples(2, 30, seed=6):
        manual = Fraction(1, 2) * (
            evaluate(t2, t, ctx) - evaluate(t2, flip(t), ctx)
        )
        assert evaluate(a, t, ctx) == manual


def test_alternation_idempotent_and_projects():
    t2 = table_two()
    a = alternate(t2)
    aa = alternate(a)
    for t in rand_tuples(2, 30, seed=7):
        v = evaluate(a, t)
        assert evaluate(aa, t) == v
        # output satisfies the alternation identity
        assert v == -evaluate(a, flip(t))


def test_alternation_commutes_with_coboundary():
    for node in (table_two(), qm_cochain(brooks_qm())):
        lhs = alternate(coboundary(node))
        rhs = coboundary(alternate(node))
        for t in rand_tuples(node.degree + 1, 40, seed=8):
            assert evaluate(lhs, t) == evaluate(rhs, t)


def test_alternation_degree_zero_is_identity():
    c = constant(Fraction(3, 4))
    assert evaluate(alternate(c), ()) == Fraction(3, 4)


def test_extension_by_zero():
    t2 = table_two()
    assert evaluate(t2, (W("a"), W("1"))) == 0
    assert evaluate(t2, (W("a"), W("Ab"))) == 0
    assert evaluate(t2, (W("a"), W("b"))) == 1
    r = restrict(coboundary(qm_cochain(brooks_qm())))
    assert evaluate(r, (W("ab"), W("1"))) == 0
    assert evaluate(r, (W("b"), W("Ba"))) == 0


def test_table_cochain_rejects_bad_keys():
    with pytest.raises(UsageError):
        TableCochain(2, {(W("a"),): 1})
    with pytest.raises(UsageError):
        TableCochain(2, {(W("a"), W("A")): 1})


def test_evaluate_arity_mismatch():
    with pytest.raises(UsageError):
        evaluate(table_two(), (W("a"),))


def test_lincomb_validation():
    with pytest.raises(UsageError):
        lincomb((1, constant(1)), (1, qm_cochain(brooks_qm())))
    with pytest.raises(UsageError):
        lincomb()


def test_exhaustive_aligned_tuples_against_brute_force():
    # brute force: all pairs of nonempty ball words, filtered by alignment
    budget = 4
    words = [w for n in range(1, budget) for w in words_of_length(2, n)]
    brute = {
        (u, v)
        for u in words
        for v in words
        if len(u) + len(v) <= budget and aligned_letters((u, v))
    }
    mine = set(exhaustive_aligned_tuples(2, 2, budget))
    assert mine == brute
    assert count_exhaustive_aligned_tuples(2, 2, budget) == len(brute)


def test_exhaustive_aligned_tuples_no_duplicates_and_aligned():
    seen = set()
    for t in exhaustive_aligned_tuples(2, 3, 5, entry_cap=2):
        assert aligned_letters(t)
        assert all(len(x) <= 2 for x in t)
        assert t not in seen
        seen.add(t)


def test_random_aligned_tuple_properties():
    for t in random_aligned_tuples(2, 4, 50, 6, 9):
        assert aligned_letters(t)
        assert all(1 <= len(x) <= 6 for x in t)
    assert rand_tuples(3, 5, seed=10) == rand_tuples(3, 5, seed=10)


def old_random_aligned_tuples(rank, arity, count, max_len, seed):
    """The sampler as it was before the follower lists: the allowed letters
    rebuilt for every letter drawn."""
    alphabet = [x for i in range(1, rank + 1) for x in (i, -i)]
    rng = random.Random(f"{seed}:aligned:{arity}:{max_len}")
    out = []
    for _ in range(count):
        t, last = [], 0
        for _ in range(arity):
            letters = []
            for _ in range(rng.randint(1, max_len)):
                choices = [x for x in alphabet if x != -last] if last else alphabet
                last = rng.choice(choices)
                letters.append(last)
            t.append(reduce_letters(letters))
        out.append(tuple(t))
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_random_aligned_tuples_keep_their_random_stream(rank):
    for arity, max_len, seed in [(1, 30, 0), (2, 12, "7:delta_p"), (4, 50, 3)]:
        old = old_random_aligned_tuples(rank, arity, 40, max_len, seed)
        assert random_aligned_tuples(rank, arity, 40, max_len, seed) == old


def small_pairs(seed):
    """Every aligned pair within total length 4, then 200 random pairs."""
    return list(exhaustive_aligned_tuples(2, 2, 4)) + random_aligned_tuples(2, 2, 200, 25, seed)


def test_sup_scan():
    assert sup_scan(constant(Fraction(-7, 2)), [()]) == (Fraction(7, 2), [], 1)
    # homomorphism-like quasi-morphism: zero defect, zero coboundary norm,
    # and no argmax because no tuple beats 0
    letter_qm = QuasiMorphism(
        DecompositionSpec("letter", 2), LambdaTable({W("a"): 1})
    )
    tasks = small_pairs(3)
    assert sup_scan(coboundary(qm_cochain(letter_qm)), tasks) == (0, None, len(tasks))
    # brooks counting function: restricted coboundary achieves 1, and the
    # argmax is the first tuple that reaches it
    expr = restrict(coboundary(qm_cochain(brooks_qm())))
    tasks = small_pairs(4)
    first = next(t for t in tasks if abs(evaluate(expr, t)) == 1)
    for jobs in (1, 2):
        assert sup_scan(expr, tasks, jobs) == (1, list(map(format_letters, first)), len(tasks))


def test_context_never_returns_a_freed_nodes_value():
    # Each node is freed before the next is built, so the allocator may hand
    # the new node the old one's identity; the shared context must not
    # answer with the dead node's cached value.
    ctx = EvalContext()
    t = (W("a"), W("b"))
    stale = 0
    for i in range(2000):
        node = restrict(TableCochain(2, {t: i}))
        if evaluate(node, t, ctx) != i:
            stale += 1
        del node
    assert stale == 0


def library_node_classes(cls=Cochain):
    """Every public node class of the library below ``cls``."""
    out = set()
    for sub in cls.__subclasses__():
        if sub.__module__ in (cochain.__name__, massey.__name__):
            if not sub.__name__.startswith("_"):
                out.add(sub)
            out |= library_node_classes(sub)
    return out


def test_every_node_is_set_once():
    """Each node class computes its names once, in ``__init__``: rebinding
    or deleting any of them raises, and no node carries a ``__dict__`` where
    another name could go."""
    leaf = qm_cochain(brooks_qm())
    m = massey.MasseyInstance(brooks_qm("aB"), coboundary(leaf), coboundary(leaf), 2, 2)
    nodes = [
        constant("1/3"),
        table_two(),
        leaf,
        restrict(leaf),
        restrict(coboundary(leaf)),
        coboundary(leaf),
        cup(leaf, leaf),
        alternate(leaf),
        lincomb((1, leaf), (2, leaf)),
        massey.eta1(m),
        massey.eta2(m),
        massey.eta_bridge(m),
    ]
    assert {type(node) for node in nodes} == library_node_classes()
    for node in nodes:
        assert not hasattr(node, "__dict__"), type(node).__name__
        names = [n for c in type(node).__mro__ for n in getattr(c, "__slots__", ())]
        assert {"degree", "den"} <= set(names)
        if isinstance(node, cochain.Restriction):
            assert "window" in names
        for name in names:
            value = getattr(node, name)
            with pytest.raises(AttributeError, match="set once"):
                setattr(node, name, value)
            with pytest.raises(AttributeError, match="set once"):
                delattr(node, name)
            assert getattr(node, name) is value
