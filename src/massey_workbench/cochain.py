"""Inhomogeneous cochain expressions over a free group, evaluated exactly.

A cochain of degree k is an evaluator on k-tuples of words, each entry the
``Letters`` of ``words`` and the tuple a ``LettersTuple``. Expressions are
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

Cache keys are ``(node, t)``, and composite nodes run one generated function
per ``EvalContext`` (``compile_plan``, README "Compiled evaluation plans").
On a concatenating pair the coboundary of a quasi-morphism leaf evaluates
the leaf's counting kernel on the ``QuasiMorphism.window`` letters each side
of the junction, so its restriction keys its memo on those letters alone
(``Restriction.window``, README "Junction window").
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .errors import UsageError
from .quasimorphism import QuasiMorphism, SetOnce
from .words import (
    LENGTH_LIMIT,
    Letters,
    _sample_aligned,
    check_size,
    format_letters,
    invert_letters,
    multiply_letters,
    sphere_size,
    words_of_length,
)

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


class EvalContext:
    """Per-run caches. Not shared across processes; create one per worker.

    Keys hold the node itself, so a cached node stays alive and its identity
    cannot pass to a new node while its values are cached; the three-sum
    pair records are keyed by ``(phi, g, h)``. The cache is
    cleared wholesale when it reaches ``limit`` entries, which keeps long
    exhaustive scans at bounded memory. ``plans`` holds the composite nodes'
    plans, never pickled: a context goes into a payload before it has any.
    """

    __slots__ = ("node_values", "plans")
    limit = 1_500_000

    def __init__(self):
        self.node_values: dict[tuple, int] = {}
        self.plans = _Plans()

    def store(self, key: tuple, value: int) -> int:
        if len(self.node_values) >= self.limit:
            self.node_values.clear()
        self.node_values[key] = value
        return value


class _Plans(dict):
    """Composite node -> its plan, compiled on the first lookup."""

    def __missing__(self, node: Cochain) -> Callable[[LettersTuple, EvalContext], int]:
        return self.setdefault(node, compile_plan(node))


class Cochain(SetOnce):
    """Base expression node; subclasses set ``degree``, ``den`` and ``_eval``.

    A node computes ``degree`` and ``den`` in ``__init__``, and every name is
    bound once (``SetOnce``), so no value cached under a node can go stale.
    ``_eval`` returns the integer numerator of the value over ``den``. Nodes
    compare and hash by identity, which keeps cache keys cheap to hash.
    ``_terms`` expands a node for ``compile_plan``; a leaf is one call of its ``_eval``.
    """

    __slots__ = ()
    degree: int
    den: int

    def _eval(self, t: LettersTuple, ctx: EvalContext) -> int:
        raise NotImplementedError

    def _terms(self, args: tuple) -> list:
        return [(1, ((self, args),))]


def evaluate(expr: Cochain, t: Sequence[Letters], ctx: EvalContext | None = None) -> Fraction:
    """Evaluate an expression on a tuple whose arity matches its degree."""
    t = tuple(t)
    if len(t) != expr.degree:
        raise UsageError(f"arity {len(t)} does not match degree {expr.degree}")
    value = expr._eval(t, ctx if ctx is not None else EvalContext())
    return Fraction(value, expr.den)


class ConstantCochain(Cochain):
    __slots__ = ("degree", "den", "value")

    def __init__(self, value: Fraction | int | str):
        self.degree = 0
        self.value = Fraction(value)
        self.den = self.value.denominator

    def _eval(self, t, ctx):
        return self.value.numerator

    def _terms(self, args):
        return [(self.value.numerator, ())]


class TableCochain(Cochain):
    """Finite-support cochain on aligned tuples, zero elsewhere.

    ``table`` maps each key to its entry's numerator over ``den``, the lcm
    of the entries' denominators.
    """

    __slots__ = ("degree", "den", "table")

    def __init__(self, degree: int, table: Mapping[LettersTuple, Fraction | int | str]):
        self.degree = degree
        values: dict[LettersTuple, Fraction] = {}
        for key, raw in table.items():
            key = tuple(key)
            if len(key) != degree:
                raise UsageError(f"table key arity {len(key)} != degree {degree}")
            if not aligned_letters(key):
                raise UsageError(f"table key {tuple(map(format_letters, key))} is not aligned")
            values[key] = Fraction(raw)
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

    The coboundary of a leaf is a leaf: ``v(x') + v(y') - v(x' y')`` with
    ``x' = x[-K:]``, ``y' = y[:K]`` on a concatenating pair (``K =
    qm.window``, README "Junction window"), else on the whole pair, with ``v
    = qm.value_letters``; any other coboundary expands to its faces.
    """

    __slots__ = ("degree", "den", "child", "qm")

    def __init__(self, child: Cochain):
        self.degree = child.degree + 1
        self.den = child.den
        self.child = child
        self.qm = child.qm if isinstance(child, QMCochain) else None

    def _eval(self, t, ctx):
        if self.qm is None:
            return ctx.plans[self](t, ctx)
        x, y = t
        if x and y and x[-1] + y[0] != 256:
            x, y = x[-self.qm.window :], y[: self.qm.window]
        v = self.qm.value_letters
        return v(x) + v(y) - v(multiply_letters(x, y))

    def _terms(self, args):
        if self.qm is not None:
            return super()._terms(args)
        faces = [args[1:]]
        for i in range(len(args) - 1):
            (a, b, inv), (c, d, _) = args[i : i + 2]
            # Inverted ranges run backwards, so their merge is t[c:b].
            faces.append(args[:i] + ((c, b, inv) if inv else (a, d, inv),) + args[i + 2 :])
        faces.append(args[:-1])
        expanded = map(self.child._terms, faces)
        return [((-1) ** i * c, fs) for i, terms in enumerate(expanded) for c, fs in terms]


class CupProduct(Cochain):
    """Front block into the left factor, back block into the right factor."""

    __slots__ = ("degree", "den", "left", "right")

    def __init__(self, left: Cochain, right: Cochain):
        self.degree = left.degree + right.degree
        self.den = left.den * right.den
        self.left = left
        self.right = right

    def _eval(self, t, ctx):
        return ctx.plans[self](t, ctx)

    def _terms(self, args):
        p = self.left.degree
        right = self.right._terms(args[p:])
        return [(c * d, fs + gs) for c, fs in self.left._terms(args[:p]) for d, gs in right]


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
        return ctx.plans[self](t, ctx)

    def _terms(self, args):
        sign = -1 if (self.degree + 1) // 2 % 2 else 1
        flipped = tuple((a, b, not inv) for a, b, inv in reversed(args))
        return self.child._terms(args) + [(sign * c, fs) for c, fs in self.child._terms(flipped)]


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
        return ctx.plans[self](t, ctx)

    def _terms(self, args):
        return [(c * d, fs) for c, e in self.terms for d, fs in e._terms(args)]


def compile_plan(expr: Cochain) -> Callable[[LettersTuple, EvalContext], int]:
    """``expr._eval`` as one generated straight-line function on its
    ``_terms`` (README "Compiled evaluation plans"): each range product is
    built once, each distinct leaf call made at most once, on first use, and
    each term stops at its first zero factor. No term is merged or cancelled."""
    root = tuple((i, i + 1, False) for i in range(expr.degree))
    names = {r: f"t{r[0]}" for r in root}
    head = ["def f(t, ctx):"] + [f"    {', '.join(names.values())}, = t"] * bool(root)
    # Open ``if`` blocks, the body first, as (leading factor, calls made in it):
    # a call made only in a closed block is retried at its next use.
    body, leaves, maybe, blocks = ["    total = 0"], {}, set(), [(None, set())]

    def product(a, b, inv):
        if (a, b, inv) not in names:
            x, y = product(a, b if inv else b - 1, False), names[b - 1, b, False]
            concat = f"{x} + {y} if {x} and {y} and {x}[-1] + {y}[0] != 256 else mul({x}, {y})"
            names[a, b, inv] = f"{'q' if inv else 'p'}{a}_{b}"
            head.append(f"    {names[a, b, inv]} = {f'inv({x})' if inv else concat}")
        return names[a, b, inv]

    def load(call):
        j = leaves.setdefault(call, len(leaves))
        if all(j not in made for _, made in blocks):
            args = "t" if call[1] == root else f"({''.join(product(*r) + ', ' for r in call[1])})"
            line = f"v{j} = L{j}({args}, ctx)"
            body.append("    " * len(blocks) + (f"if v{j} is None: {line}" if j in maybe else line))
            blocks[-1][1].add(j)
        return f"v{j}"

    for c, factors in [term for term in expr._terms(root) if term[0]]:
        guards = [call for call, _ in blocks[1:]]
        keep = 1 + sum(itertools.takewhile(bool, map(operator.eq, factors[:-1], guards)))
        while len(blocks) > keep:
            maybe |= blocks.pop()[1]
        for call in factors[keep - 1 : -1]:
            body.append(f"{'    ' * len(blocks)}if {load(call)}:")
            blocks.append((call, set()))
        used = [str(c)] * (c != 1 or not factors) + [load(call) for call in factors]
        body.append(f"{'    ' * len(blocks)}total += {' * '.join(used)}")
    head += [f"    {' = '.join(f'v{j}' for j in sorted(maybe))} = None"] * bool(maybe)
    namespace = {"mul": multiply_letters, "inv": invert_letters}
    namespace.update((f"L{j}", leaf._eval) for (leaf, _), j in leaves.items())
    exec("\n".join([*head, *body, "    return total"]), namespace)
    # Popped, ``f`` and its globals form no cycle: a plan dies with its context.
    return namespace.pop("f")


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
    return sum(_tuple_counts(rank, arity, total_budget, entry_cap or total_budget))


def _tuple_counts(rank: int, arity: int, total_budget: int, entry_cap: int) -> Iterator[int]:
    """The number of aligned tuples of each total length that can hold one:
    no length past ``arity * entry_cap`` does."""
    if arity == 0:
        return iter((1,))
    return (
        sphere_size(rank, length) * sum(1 for _ in _compositions(length, arity, entry_cap))
        for length in range(arity, min(total_budget, arity * entry_cap) + 1)
    )


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
    entry_cap = entry_cap or total_budget
    check_size(
        _tuple_counts(rank, arity, total_budget, entry_cap),
        f"domain of aligned {arity}-tuples of length <= {total_budget}",
        cap,
    )
    if arity == 0:
        yield ()
        return
    # Tuples share one bytes object per distinct entry (at most the ball of
    # radius entry_cap), which also hashes once.
    intern = {}.setdefault
    for length in range(arity, total_budget + 1):
        cutters = [_cutter(comp) for comp in _compositions(length, arity, entry_cap)]
        if not cutters:  # nor does any longer length hold a tuple
            break
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
