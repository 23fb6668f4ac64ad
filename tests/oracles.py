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
* ``random_word`` draws letters with one ``choice`` per letter, the
  reference of ``words.LetterStream``. ``random_aligned_tuple`` draws one
  aligned tuple with one ``randint`` per entry and ``random_word`` per
  entry, and ``random_aligned_tuples`` lists them on the seeded generator
  of ``cochain.random_aligned_tuples``: the reference of its decoder.
  ``long_tuples`` draws aligned tuples of entries of one fixed length.
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
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import (
    Letters,
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
    w = spec.brooks_word
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


def decompose(spec: DecompositionSpec, g: Letters) -> tuple[Letters, ...]:
    """Cut ``g`` into its pieces."""
    cuts = boundaries(piece_lengths(spec, g))
    return tuple(g[lo:hi] for lo, hi in zip(cuts, cuts[1:]))


def split_product(g: Letters, h: Letters) -> tuple[Letters, Letters, Letters]:
    """Split ``g = p*t``, ``h = t^-1 * q`` with maximal cancelled part ``t``.

    ``g*h`` equals ``p*q`` with no cancellation at the junction; in a free
    group the maximal ``t`` is unique.
    """
    c = cancelled_length(g, h)
    return g[: len(g) - c], g[len(g) - c :], h[c:]


def _max_aligned(candidates: tuple[int, ...], other: set[int], cap: int) -> int:
    best = 0
    for pos in candidates:
        if pos > cap:
            break
        if pos in other and pos > best:
            best = pos
    return best


def triangle_split(spec: DecompositionSpec, gl: Letters, hl: Letters) -> TriangleDecomposition:
    """Corner words of maximal piece length for the triangle ``(1, g, gh)``.

    Each corner word must end on a piece boundary of both adjacent sides;
    nested prefixes make the maximal choice unique. Nothing is checked: a
    broken decomposition still yields a (wrong) split.
    """
    p, t, _q = split_product(gl, hl)
    ghinv = invert_letters(multiply_letters(gl, hl))
    total = len(ghinv)

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

    c1 = invert_letters(gl[:len_c1])
    c2 = gl[len(gl) - len_c2 :]
    c3 = hl[len(hl) - len_c3 :]
    r1 = gl[len_c1 : len(gl) - len_c2]
    r2 = hl[len_c2 : len(hl) - len_c3]
    r3 = ghinv[len_c3 : total - len_c1]
    thick = tuple(len(piece_lengths(spec, r)) for r in (r1, r2, r3))
    corners = tuple(len(piece_lengths(spec, c)) for c in (c1, c2, c3))
    return TriangleDecomposition(c1, c2, c3, r1, r2, r3, thick, corners)


def verify_triangle(
    spec: DecompositionSpec, g: Letters, h: Letters, tri: TriangleDecomposition
) -> bool:
    """Recompute all nine corner/remainder decompositions and compare runs."""
    inv = invert_letters
    sides = (
        (g, inv(tri.c1), tri.r1, tri.c2),
        (h, inv(tri.c2), tri.r2, tri.c3),
        (inv(multiply_letters(g, h)), inv(tri.c3), tri.r3, tri.c1),
    )
    for side, first, mid, last in sides:
        expect = piece_lengths(spec, side)
        got = piece_lengths(spec, first) + piece_lengths(spec, mid) + piece_lengths(spec, last)
        if got != expect:
            return False
        if multiply_letters(multiply_letters(first, mid), last) != side:
            return False
    return True


def piece_values(q: QuasiMorphism, g: Letters) -> list[Fraction]:
    """lambda evaluated on each piece of g, in order."""
    cuts = boundaries(piece_lengths(q.spec, g))
    return [q.table.value(g[cuts[i] : cuts[i + 1]]) for i in range(len(cuts) - 1)]


def reference_value(q: QuasiMorphism, g: Letters) -> Fraction:
    """phi(g) straight from the definition, as the sum of lambda over the
    pieces of g."""
    return sum(piece_values(q, g), Fraction(0))


def tampered_lambda(table: LambdaTable, piece: Letters, value) -> LambdaTable:
    """Copy of a table with one entry overwritten, skipping the alternation
    completion. Breaks the alternating invariant on purpose, for mutation
    tests.
    """
    clone = LambdaTable.__new__(LambdaTable)
    entries = dict(table.entries)
    entries[piece] = Fraction(value)
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


def random_word(rng: random.Random, rank: int, length: int, last: int = 0) -> Letters:
    """``length`` letters, one ``choice`` per letter among the followers of
    the letter before, the first among the followers of the letter byte
    ``last`` (the whole alphabet for 0)."""
    followers = _followers(rank)
    out = bytearray()
    for _ in range(length):
        last = rng.choice(followers[last])
        out.append(last)
    return bytes(out)


def random_aligned_tuple(
    rng: random.Random, rank: int, arity: int, max_len: int
) -> tuple[Letters, ...]:
    """Aligned tuple with entry lengths uniform in [1, max_len]: per entry
    one ``randint``, then one ``choice`` among the followers of the last
    letter per letter."""
    return _aligned_walk(rng, rank, (rng.randint(1, max_len) for _ in range(arity)))


def random_aligned_tuples(rank: int, arity: int, count: int, max_len: int, seed):
    rng = random.Random(f"{seed}:aligned:{arity}:{max_len}")
    return [random_aligned_tuple(rng, rank, arity, max_len) for _ in range(count)]


def long_tuples(rank: int, arity: int, count: int, length: int, seed) -> list:
    """Aligned tuples whose entries have exactly ``length`` letters, one
    ``choice`` per letter on ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [_aligned_walk(rng, rank, [length] * arity) for _ in range(count)]


def _aligned_walk(rng: random.Random, rank: int, lengths) -> tuple[Letters, ...]:
    """Aligned entries of ``lengths``, read one by one as the entries are
    drawn: ``random_word`` per entry, each after the last letter before."""
    out = []
    last = 0
    for length in lengths:
        entry = random_word(rng, rank, length, last)
        out.append(entry)
        last = entry[-1]
    return tuple(out)


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
