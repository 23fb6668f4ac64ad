"""Slow references written straight from the definitions, which the fast
paths of the library are compared against.

* ``piece_lengths`` is the decomposition written out per family: every
  letter a piece, ``groupby`` power blocks for Rolli, and the greedy
  left-to-right scan for Brooks; ``cut_flags`` reads the start flags off
  it. They are the oracles of ``decomposition.cut_flags`` and of the
  lengths derived from it, and every other oracle here decomposes with them.
* ``decompose`` cuts a word into its pieces, ``split_product`` splits a
  product at its cancelled part, and ``tampered_lambda`` breaks a table's
  alternation; only tests use them.
* ``triangle_split`` finds the three corners of the tripod of ``(1, g, gh)``
  with its own corner search over the cut positions of ``g``, ``h`` and
  ``(gh)^-1``, and decomposes every remainder fresh.
* ``verify_triangle`` recomputes the nine corner and remainder
  decompositions of a tripod and compares them with the three sides.
* ``reference_value`` is phi as the plain sum of lambda over the pieces
  (``piece_values``), the oracle of the counting kernel.
* ``random_aligned_tuple`` draws one aligned tuple with one ``randint`` per
  entry and one ``choice`` per letter, and ``random_aligned_tuples`` lists
  them on the seeded generator of ``cochain.random_aligned_tuples``: the
  reference of its block decoder.
* ``letters_of`` and ``words_of`` convert a tuple between ``Word`` entries
  and their ``Letters``.
* ``flip_letters`` reverses a tuple and inverts each entry, and
  ``tree_eval`` evaluates a cochain expression by recursion over its
  composite nodes, with no plan and no restriction memo: the reference of
  ``cochain.compile_plan``.
"""

import itertools
import random
from fractions import Fraction

from massey_workbench.cochain import (
    Alternation,
    Coboundary,
    Cochain,
    CupProduct,
    EvalContext,
    LinearCombination,
    Restriction,
    aligned_letters,
)
from massey_workbench.decomposition import (
    DecompositionSpec,
    TriangleDecomposition,
    boundaries,
)
from massey_workbench.errors import UsageError
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import (
    Letters,
    Word,
    _make,
    cancelled_length,
    invert_letters,
    multiply_letters,
)


def piece_lengths(spec: DecompositionSpec, letters: Letters) -> tuple[int, ...]:
    """Letter length of each piece of the decomposition, in order."""
    if spec.family == "letter":
        return (1,) * len(letters)
    if spec.family == "rolli":
        return tuple(len(list(run)) for _, run in itertools.groupby(letters))
    w = spec.brooks_word.letters
    winv = invert_letters(w)
    L = len(w)
    n = len(letters)
    out: list[int] = []
    i = 0
    # Disjointness of occurrences (non-self-overlap) makes the greedy scan exact.
    while i < n:
        chunk = letters[i : i + L]
        if chunk == w or chunk == winv:
            out.append(L)
            i += L
        else:
            out.append(1)
            i += 1
    return tuple(out)


def cut_flags(spec: DecompositionSpec, letters: Letters) -> bytes:
    """One byte per letter: 1 where a piece of ``piece_lengths`` starts."""
    return b"".join(b"\1" + b"\0" * (n - 1) for n in piece_lengths(spec, letters))


def decompose(spec: DecompositionSpec, g: Word) -> tuple[Word, ...]:
    """Cut ``g`` into its pieces."""
    if g.rank != spec.rank:
        raise UsageError(f"word rank {g.rank} differs from spec rank {spec.rank}")
    letters = g.letters
    cuts = boundaries(piece_lengths(spec, letters))
    return tuple(_make(letters[lo:hi], spec.rank) for lo, hi in zip(cuts, cuts[1:]))


def split_product(g: Word, h: Word) -> tuple[Word, Word, Word]:
    """Split ``g = p*t``, ``h = t^-1 * q`` with maximal cancelled part ``t``.

    ``g*h`` equals ``p*q`` with no cancellation at the junction; in a free
    group the maximal ``t`` is unique.
    """
    if g.rank != h.rank:
        raise UsageError(f"rank mismatch: {g.rank} vs {h.rank}")
    a, b = g.letters, h.letters
    c = cancelled_length(a, b)
    p = _make(a[: len(a) - c], g.rank)
    t = _make(a[len(a) - c :], g.rank)
    q = _make(b[c:], g.rank)
    return p, t, q


def _max_aligned(candidates: tuple[int, ...], other: set[int], cap: int) -> int:
    best = 0
    for pos in candidates:
        if pos > cap:
            break
        if pos in other and pos > best:
            best = pos
    return best


def triangle_split(spec: DecompositionSpec, g: Word, h: Word) -> TriangleDecomposition:
    """Corner words of maximal piece length for the triangle ``(1, g, gh)``.

    Each corner word must end on a piece boundary of both adjacent sides;
    nested prefixes make the maximal choice unique. Nothing is checked: a
    broken decomposition still yields a (wrong) split.
    """
    if g.rank != h.rank:
        raise UsageError(f"rank mismatch: {g.rank} vs {h.rank}")
    p, t, _q = split_product(g, h)
    gl, hl = g.letters, h.letters
    ghinv = invert_letters(multiply_letters(gl, hl))
    total = len(ghinv)
    rank = spec.rank

    cuts_g = boundaries(piece_lengths(spec, gl))
    cuts_h = boundaries(piece_lengths(spec, hl))
    cuts_ghinv = boundaries(piece_lengths(spec, ghinv))

    lead_g = cuts_g
    trail_g = tuple(cuts_g[-1] - c for c in reversed(cuts_g))
    lead_h = cuts_h
    trail_h = tuple(cuts_h[-1] - c for c in reversed(cuts_h))
    lead_ghinv = set(cuts_ghinv)
    trail_ghinv = {total - c for c in cuts_ghinv}

    # c2 sits inside the cancelled part t; c1 inside the shared prefix p of
    # g and gh (a trailing run of (gh)^-1); c3 inside the shared suffix q of
    # h and gh (inverted, a leading run of (gh)^-1).
    len_c2 = _max_aligned(trail_g, set(lead_h), len(t))
    len_c1 = _max_aligned(lead_g, trail_ghinv, len(p))
    len_c3 = _max_aligned(trail_h, lead_ghinv, len(hl) - len(t))

    c1 = _make(invert_letters(gl[:len_c1]), rank)
    c2 = _make(gl[len(gl) - len_c2 :], rank)
    c3 = _make(hl[len(hl) - len_c3 :], rank)
    r1 = _make(gl[len_c1 : len(gl) - len_c2], rank)
    r2 = _make(hl[len_c2 : len(hl) - len_c3], rank)
    r3 = _make(ghinv[len_c3 : total - len_c1], rank)
    thick = tuple(len(piece_lengths(spec, r.letters)) for r in (r1, r2, r3))
    corners = tuple(len(piece_lengths(spec, c.letters)) for c in (c1, c2, c3))
    return TriangleDecomposition(c1, c2, c3, r1, r2, r3, thick, corners)


def verify_triangle(
    spec: DecompositionSpec, g: Word, h: Word, tri: TriangleDecomposition
) -> bool:
    """Recompute all nine corner/remainder decompositions and compare runs."""
    gh = g * h
    sides = (
        (g, tri.c1.inverse(), tri.r1, tri.c2),
        (h, tri.c2.inverse(), tri.r2, tri.c3),
        (gh.inverse(), tri.c3.inverse(), tri.r3, tri.c1),
    )
    for side, first, mid, last in sides:
        expect = piece_lengths(spec, side.letters)
        got = (
            piece_lengths(spec, first.letters)
            + piece_lengths(spec, mid.letters)
            + piece_lengths(spec, last.letters)
        )
        if got != expect:
            return False
        if multiply_letters(
            multiply_letters(first.letters, mid.letters), last.letters
        ) != side.letters:
            return False
    return True


def piece_values(q: QuasiMorphism, g: Word) -> list[Fraction]:
    """lambda evaluated on each piece of g, in order."""
    letters = g.letters
    cuts = boundaries(piece_lengths(q.spec, letters))
    return [
        q.table.value(letters[cuts[i] : cuts[i + 1]]) for i in range(len(cuts) - 1)
    ]


def reference_value(q: QuasiMorphism, g: Word) -> Fraction:
    """phi(g) straight from the definition, as the sum of lambda over the
    pieces of g."""
    return sum(piece_values(q, g), Fraction(0))


def tampered_lambda(table: LambdaTable, piece: Word, value) -> LambdaTable:
    """Copy of a table with one entry overwritten, skipping the alternation
    completion. Breaks the alternating invariant on purpose, for mutation
    tests.
    """
    clone = LambdaTable.__new__(LambdaTable)
    entries = dict(table.entries)
    entries[piece.letters] = Fraction(value)
    clone.entries = entries
    clone.sup = max((abs(v) for v in entries.values()), default=Fraction(0))
    return clone


def _followers(rank: int) -> dict[int, list[int]]:
    """Letter byte (0 for none) -> the letter bytes that may follow it, in
    the alphabet order 1, -1, 2, -2, ..."""
    alphabet = [x & 0xFF for i in range(1, rank + 1) for x in (i, -i)]
    out = {0: alphabet}
    for last in alphabet:
        out[last] = [x for x in alphabet if (x + last) & 0xFF]
    return out


def random_aligned_tuple(
    rng: random.Random, rank: int, arity: int, max_len: int
) -> tuple[Letters, ...]:
    """Aligned tuple with entry lengths uniform in [1, max_len]: per entry
    one ``randint``, then one ``choice`` among the followers of the last
    letter per letter."""
    followers = _followers(rank)
    out = []
    last = 0
    for _ in range(arity):
        entry = bytearray()
        for _ in range(rng.randint(1, max_len)):
            last = rng.choice(followers[last])
            entry.append(last)
        out.append(bytes(entry))
    return tuple(out)


def random_aligned_tuples(rank: int, arity: int, count: int, max_len: int, seed):
    rng = random.Random(f"{seed}:aligned:{arity}:{max_len}")
    return [random_aligned_tuple(rng, rank, arity, max_len) for _ in range(count)]


def letters_of(t) -> tuple[Letters, ...]:
    return tuple(w.letters for w in t)


def words_of(t, rank: int = 2) -> tuple[Word, ...]:
    return tuple(_make(x, rank) for x in t)


def flip_letters(t: tuple[Letters, ...]) -> tuple[Letters, ...]:
    """Reverse the tuple and invert each entry; preserves alignment."""
    return tuple(invert_letters(x) for x in reversed(t))


def tree_eval(expr: Cochain, t: tuple[Letters, ...], ctx: EvalContext) -> int:
    """The numerator of ``expr`` on ``t`` over ``expr.den``, by recursion:
    a coboundary sums its faces (its junction read on a concatenating pair
    when its child is a quasi-morphism leaf), a cup multiplies its blocks
    unless the front one vanishes, an alternation adds or subtracts the
    flipped tuple, a linear combination scales its terms, and a restriction
    cuts its window and tests alignment. Every other node is a leaf and runs
    its own ``_eval``."""
    if isinstance(expr, Restriction):
        k = expr.window
        if k:
            t = (t[0][-k:], t[1][:k])
        return tree_eval(expr.child, t, ctx) if aligned_letters(t) else 0
    if isinstance(expr, Coboundary):
        qm = expr.qm
        if qm is not None and t[0] and t[1] and t[0][-1] + t[1][0] != 256:
            k = qm.window
            x, y = t[0][-k:], t[1][:k]
            v = qm.value_letters
            return v(x) + v(y) - v(x + y)
        child = expr.child
        k = child.degree
        total = tree_eval(child, t[1:], ctx)
        sign = 1
        for i in range(k):
            sign = -sign
            merged = multiply_letters(t[i], t[i + 1])
            total += sign * tree_eval(child, t[:i] + (merged,) + t[i + 2 :], ctx)
        last = tree_eval(child, t[:-1], ctx)
        return total + last if (k + 1) % 2 == 0 else total - last
    if isinstance(expr, CupProduct):
        p = expr.left.degree
        a = tree_eval(expr.left, t[:p], ctx)
        return a * tree_eval(expr.right, t[p:], ctx) if a else 0
    if isinstance(expr, Alternation):
        straight = tree_eval(expr.child, t, ctx)
        flipped = tree_eval(expr.child, flip_letters(t), ctx)
        return straight + flipped if (expr.degree + 1) // 2 % 2 == 0 else straight - flipped
    if isinstance(expr, LinearCombination):
        return sum(c * tree_eval(e, t, ctx) for c, e in expr.terms)
    return expr._eval(t, ctx)
