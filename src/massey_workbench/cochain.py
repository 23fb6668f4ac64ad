"""Inhomogeneous cochain expressions over a free group, evaluated exactly.

A cochain of degree k is an evaluator on k-tuples of words. Expressions are
immutable trees: quasi-morphism and table leaves combined by coboundary,
cup product, alternation, restriction to the aligned domain, and linear
combination. Aligned-only leaves extend by zero off the aligned tuples
(entries nontrivial, adjacent products concatenating without cancellation).

Every node has one shape: a ``__slots__`` class that computes its
``degree`` and a fixed positive integer ``den`` in ``__init__``, and whose
``_eval`` returns the integer numerator of its value over that ``den``: a
cup multiplies the factors' denominators, a linear combination takes their
lcm and scales each term by a precomputed integer. ``Cochain.__setattr__``
lets a name be bound once, so no node changes under a cached value.
``evaluate`` is where the ``Fraction`` is built; everything below it is
integer arithmetic.

Below ``evaluate`` a tuple holds the entries' ``Letters``, not ``Word``s:
cache keys are ``(node, t)`` and a coboundary face is a bare ``bytes``:
``a + b`` when the entries concatenate, else their ``multiply_letters``
product. On a concatenating pair the coboundary of a quasi-morphism leaf
evaluates the leaf's counting kernel on the ``QuasiMorphism.window`` letters
each side of the junction, so its restriction keys its memo on those letters
alone (``Restriction.window``, README "Junction window").
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import ResourceCapError, UsageError
from .quasimorphism import QuasiMorphism, SetOnce
from .words import (
    LENGTH_LIMIT,
    Letters,
    Word,
    _sample_aligned,
    enumeration_cap,
    invert_letters,
    multiply_letters,
    sphere_size,
    words_of_length,
)

WordTuple = tuple[Word, ...]
LettersTuple = tuple[Letters, ...]


def aligned_letters(t: Sequence[Letters]) -> bool:
    """Membership in the aligned tuple set: no identity entries, and every
    adjacent product concatenates with zero cancellation. The empty tuple
    is aligned."""
    prev_last = 0
    for letters in t:
        # Byte 0 is no letter, so the first entry never cancels.
        if not letters or letters[0] + prev_last == 256:
            return False
        prev_last = letters[-1]
    return True


def is_aligned(t: Sequence[Word]) -> bool:
    return aligned_letters(tuple(w.letters for w in t))


def flip_letters(t: LettersTuple) -> LettersTuple:
    """Reverse the tuple and invert each entry; preserves alignment."""
    return tuple(invert_letters(x) for x in reversed(t))


class EvalContext:
    """Per-run caches. Not shared across processes; create one per worker.

    Keys hold the node itself, so a cached node stays alive and its identity
    cannot pass to a new node while its values are cached; the three-sum
    pair records are keyed by ``(phi, g, h)``. The cache is
    cleared wholesale when it reaches ``limit`` entries, which keeps long
    exhaustive scans at bounded memory.
    """

    __slots__ = ("node_values",)
    limit = 1_500_000

    def __init__(self):
        self.node_values: dict[tuple, int] = {}

    def store(self, key: tuple, value: int) -> int:
        if len(self.node_values) >= self.limit:
            self.node_values.clear()
        self.node_values[key] = value
        return value


class Cochain(SetOnce):
    """Base expression node; subclasses set ``degree``, ``den`` and ``_eval``.

    A node computes ``degree`` and ``den`` in ``__init__``, and every name is
    bound once (``SetOnce``), so no value cached under a node can go stale.
    ``_eval`` returns the integer numerator of the value over ``den``. Nodes
    compare and hash by identity, which keeps cache keys cheap to hash.
    """

    __slots__ = ()
    degree: int
    den: int

    def _eval(self, t: LettersTuple, ctx: EvalContext) -> int:
        raise NotImplementedError


def evaluate(expr: Cochain, t: Sequence[Word], ctx: EvalContext | None = None) -> Fraction:
    """Evaluate an expression on a tuple whose arity matches its degree."""
    t = tuple(t)
    if len(t) != expr.degree:
        raise UsageError(f"arity {len(t)} does not match degree {expr.degree}")
    value = expr._eval(tuple(w.letters for w in t), ctx if ctx is not None else EvalContext())
    return Fraction(value, expr.den)


class ConstantCochain(Cochain):
    __slots__ = ("degree", "den", "value")

    def __init__(self, value: Fraction | int | str):
        self.degree = 0
        self.value = Fraction(value)
        self.den = self.value.denominator

    def _eval(self, t, ctx):
        return self.value.numerator


class TableCochain(Cochain):
    """Finite-support cochain on aligned tuples, zero elsewhere.

    ``table`` maps each key's letters to its entry's numerator over ``den``,
    the lcm of the entries' denominators.
    """

    __slots__ = ("degree", "den", "table")

    def __init__(self, degree: int, table: Mapping[WordTuple, Fraction | int | str]):
        self.degree = degree
        values: dict[LettersTuple, Fraction] = {}
        for key, raw in table.items():
            key = tuple(key)
            if len(key) != degree:
                raise UsageError(f"table key arity {len(key)} != degree {degree}")
            if not is_aligned(key):
                raise UsageError(f"table key {tuple(map(str, key))} is not aligned")
            values[tuple(w.letters for w in key)] = Fraction(raw)
        self.den = math.lcm(*(v.denominator for v in values.values()))
        self.table = {
            k: v.numerator * (self.den // v.denominator) for k, v in values.items()
        }

    def _eval(self, t, ctx):
        return self.table.get(t, 0)


class QMCochain(Cochain):
    """Degree-1 leaf evaluating a quasi-morphism (vanishes at the identity)."""

    __slots__ = ("degree", "den", "qm")

    def __init__(self, qm: QuasiMorphism):
        self.degree = 1
        self.den = qm.den
        self.qm = qm

    def _eval(self, t, ctx):
        return self.qm.value_letters(t[0])


class Restriction(Cochain):
    """Extension by zero off the aligned domain.

    Over the coboundary of a quasi-morphism leaf, ``window`` is the leaf's
    ``QuasiMorphism.window`` K, else 0. A nonzero window cuts a pair to
    ``(x[-K:], y[:K])`` before the memo and the child see it: the alignment
    test and the child's window read nothing else (README "Junction window").
    """

    __slots__ = ("degree", "den", "child", "window")

    def __init__(self, child: Cochain):
        self.degree = child.degree
        self.den = child.den
        self.child = child
        qm = child.qm if isinstance(child, Coboundary) else None
        self.window = qm.window if qm is not None else 0

    def _eval(self, t, ctx):
        k = self.window
        if k:
            t = (t[0][-k:], t[1][:k])
        key = (self, t)
        cached = ctx.node_values.get(key)
        if cached is not None:
            return cached
        value = self.child._eval(t, ctx) if aligned_letters(t) else 0
        return ctx.store(key, value)


class Coboundary(Cochain):
    """``qm`` is the quasi-morphism of a leaf child, else None.

    On a concatenating pair ``(x, y)`` the coboundary of a leaf is
    ``v(x') + v(y') - v(x' + y')`` with ``x' = x[-K:]``, ``y' = y[:K]``,
    ``v = qm.value_letters`` and ``K = qm.window`` (README "Junction
    window"); every other tuple takes the alternating sum of faces.
    """

    __slots__ = ("degree", "den", "child", "qm")

    def __init__(self, child: Cochain):
        self.degree = child.degree + 1
        self.den = child.den
        self.child = child
        self.qm = child.qm if isinstance(child, QMCochain) else None

    def _eval(self, t, ctx):
        qm = self.qm
        if qm is not None and t[0] and t[1] and t[0][-1] + t[1][0] != 256:
            k = qm.window
            x, y = t[0][-k:], t[1][:k]
            v = qm.value_letters
            return v(x) + v(y) - v(x + y)
        child = self.child
        k = child.degree
        total = child._eval(t[1:], ctx)
        sign = 1
        for i in range(k):
            sign = -sign
            a, b = t[i], t[i + 1]
            merged = a + b if a and b and a[-1] + b[0] != 256 else multiply_letters(a, b)
            face_value = child._eval(t[:i] + (merged,) + t[i + 2 :], ctx)
            total = total + face_value if sign > 0 else total - face_value
        last = child._eval(t[:-1], ctx)
        return total + last if (k + 1) % 2 == 0 else total - last


class CupProduct(Cochain):
    """Front block into the left factor, back block into the right factor."""

    __slots__ = ("degree", "den", "left", "right")

    def __init__(self, left: Cochain, right: Cochain):
        self.degree = left.degree + right.degree
        self.den = left.den * right.den
        self.left = left
        self.right = right

    def _eval(self, t, ctx):
        p = self.left.degree
        a = self.left._eval(t[:p], ctx)
        if not a:
            return 0
        return a * self.right._eval(t[p:], ctx)


class Alternation(Cochain):
    """alt(f)(t) = (f(t) + (-1)^ceil(k/2) f(flip t)) / 2; identity in degree 0.

    The halving is carried by ``den``, twice the child's.
    """

    __slots__ = ("degree", "den", "child")

    def __init__(self, child: Cochain):
        self.degree = child.degree
        self.den = 2 * child.den
        self.child = child

    def _eval(self, t, ctx):
        k = self.degree
        straight = self.child._eval(t, ctx)
        flipped = self.child._eval(flip_letters(t), ctx)
        if ((k + 1) // 2) % 2 == 0:
            return straight + flipped
        return straight - flipped


class LinearCombination(Cochain):
    """sum of c * e over the terms.

    ``den`` is the lcm of ``c.denominator * e.den`` over the nonzero terms,
    and ``terms`` holds (integer multiplier of the numerator of e, e) for
    each of them; zero terms are never evaluated.
    """

    __slots__ = ("degree", "den", "terms")

    def __init__(self, terms: Sequence[tuple[Fraction | int | str, Cochain]]):
        terms = tuple((Fraction(c), e) for c, e in terms)
        if not terms:
            raise UsageError("empty linear combination has no degree")
        degrees = {e.degree for _, e in terms}
        if len(degrees) != 1:
            raise UsageError(f"mixed degrees in linear combination: {sorted(degrees)}")
        self.degree = degrees.pop()
        live = [(c, e) for c, e in terms if c]
        self.den = math.lcm(*(c.denominator * e.den for c, e in live))
        self.terms = tuple(
            (c.numerator * (self.den // (c.denominator * e.den)), e) for c, e in live
        )

    def _eval(self, t, ctx):
        total = 0
        for c, e in self.terms:
            total += c * e._eval(t, ctx)
        return total


# The builders are the node classes themselves.
constant = ConstantCochain
qm_cochain = QMCochain
coboundary = Coboundary
cup = CupProduct
alternate = Alternation
restrict = Restriction


def lincomb(*terms: tuple[Fraction | int | str, Cochain]) -> LinearCombination:
    return LinearCombination(terms)


# ---------------------------------------------------------------------------
# Aligned tuple domains


def _compositions(total: int, parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Ordered positive compositions of `total` into `parts`, each <= max_part."""
    if parts == 1:
        if 1 <= total <= max_part:
            yield (total,)
        return
    lo = max(1, total - max_part * (parts - 1))
    hi = min(max_part, total - (parts - 1))
    for first in range(lo, hi + 1):
        for rest in _compositions(total - first, parts - 1, max_part):
            yield (first,) + rest


def count_exhaustive_aligned_tuples(
    rank: int, arity: int, total_budget: int, entry_cap: int | None = None
) -> int:
    if arity == 0:
        return 1
    entry_cap = entry_cap or total_budget
    total = 0
    for length in range(arity, total_budget + 1):
        ncomp = sum(1 for _ in _compositions(length, arity, entry_cap))
        total += sphere_size(rank, length) * ncomp
    return total


def exhaustive_aligned_tuples(
    rank: int,
    arity: int,
    total_budget: int,
    entry_cap: int | None = None,
    cap: int | None = None,
) -> Iterator[LettersTuple]:
    """All aligned tuples whose entries concatenate to a reduced word of
    length <= total_budget, each entry of length <= entry_cap.

    Aligned tuples are exactly the cut decompositions of reduced words, so
    the domain is enumerated as (word, cut positions) pairs: each word in
    ``words_of_length`` order, cut by each composition in turn.
    """
    count = count_exhaustive_aligned_tuples(rank, arity, total_budget, entry_cap)
    limit = enumeration_cap(cap)
    if count > limit:
        raise ResourceCapError(
            f"{count} aligned tuples exceed the enumeration cap {limit}"
        )
    if arity == 0:
        yield ()
        return
    entry_cap = entry_cap or total_budget
    # Tuples share one bytes object per distinct entry (at most the ball of
    # radius entry_cap), which also hashes once.
    intern = {}.setdefault
    for length in range(arity, total_budget + 1):
        cutters = [_cutter(comp) for comp in _compositions(length, arity, entry_cap)]
        if not cutters:
            continue
        for letters in words_of_length(rank, length):
            for cut in cutters:
                entries = cut(letters)
                yield tuple(map(intern, entries, entries))


def _cutter(comp: tuple[int, ...]):
    """The function cutting a word into entries of the lengths ``comp``."""
    if len(comp) == 1:
        return lambda letters: (letters,)
    ends = list(itertools.accumulate(comp))
    return operator.itemgetter(*map(slice, [0, *ends[:-1]], ends))


def random_aligned_tuples(
    rank: int, arity: int, count: int, max_len: int, seed: int | str
) -> list[LettersTuple]:
    """``count`` seeded aligned tuples, entry lengths uniform in [1, max_len]
    (``words._sample_aligned`` on a generator of its own)."""
    if not 1 <= max_len <= LENGTH_LIMIT:
        raise UsageError(f"max_len must be in [1, {LENGTH_LIMIT}], got {max_len}")
    rng = random.Random(f"{seed}:aligned:{arity}:{max_len}")
    return _sample_aligned(rank, arity, count, max_len, rng)
