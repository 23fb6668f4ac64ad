"""Decomposable quasi-morphisms: bounded alternating piece functions summed
over the pieces of a decomposition.

Values are exact rationals throughout, so every downstream identity can be
asserted with equality rather than tolerance. A quasi-morphism is evaluated
by an integer counting kernel (``counting_kernel``) as a numerator over the
least common denominator of its table; the tests compare it with the plain
sum of lambda over the pieces (``tests/oracles.py``). No pattern it counts
has more than ``window`` + 1 letters, so the defect of a concatenating pair
is the same kernel on the ``window`` letters each side of the junction.

Words are ``Letters``, the packed ``bytes`` of ``words``, and so are the
pieces lambda is keyed by. The value cache is keyed by those bytes, whose
hash is computed once per object, and the kernel counts substrings directly
in them: lambda's pieces are already the byte patterns it looks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from ._parallel import Scan, pair_scan, scan
from .decomposition import DecompositionSpec, triangle_split
from .errors import ConfigError, UsageError
from .words import (
    LENGTH_LIMIT,
    Letters,
    LetterStream,
    enumerate_ball,
    format_letters,
    invert_letters,
    multiply_letters,
)


class LambdaTable:
    """Finite alternating rational table on pieces, default 0 off support.

    Construction auto-inserts the negated value on each inverse piece and
    rejects contradictory pairs.
    """

    __slots__ = ("entries", "sup")

    def __init__(self, entries: Mapping[Letters, Fraction | int | str]):
        table: dict[Letters, Fraction] = {}
        for piece, raw in entries.items():
            if not piece:
                raise ConfigError("the identity cannot be a piece")
            value = Fraction(raw)
            for key, val in ((piece, value), (invert_letters(piece), -value)):
                if key in table and table[key] != val:
                    raise ConfigError(
                        f"contradictory lambda values at piece {format_letters(key)}"
                    )
                table[key] = val
        self.entries = table
        self.sup = max((abs(v) for v in table.values()), default=Fraction(0))

    def value(self, letters: Letters) -> Fraction:
        return self.entries.get(letters, _ZERO)


_ZERO = Fraction(0)


class SetOnce:
    """Slots that are bound once: rebinding or deleting one raises
    ``AttributeError``, so no value cached under the object can go stale."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is set once")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is set once")


class QuasiMorphism(SetOnce):
    """phi(g) = sum of lambda over the pieces of the decomposition of g.

    ``den`` is the least common denominator of lambda, and ``numerators``
    maps each piece with nonzero lambda to its numerator over ``den``.
    ``value_letters`` returns the integer numerator of phi over ``den`` and
    ``value`` the ``Fraction``. The defect of a concatenating pair ``x y``
    is that of ``(x[-window:], y[:window])`` (README "Junction window").
    """

    __slots__ = ("spec", "table", "name", "den", "numerators", "window", "_cache", "_kernel")

    def __init__(self, spec: DecompositionSpec, table: LambdaTable, name: str = "phi"):
        for letters in table.entries:
            if not _is_legal_piece(spec, letters):
                raise ConfigError(
                    f"{format_letters(letters)} is not a piece of the {spec.describe()} family"
                )
        self.spec = spec
        self.table = table
        self.name = name
        self._cache: dict[Letters, int] = {}
        self.den, self.numerators, self._kernel, self.window = counting_kernel(spec, table)

    @property
    def rank(self) -> int:
        return self.spec.rank

    def value(self, letters: Letters) -> Fraction:
        return Fraction(self.value_letters(letters), self.den)

    def value_letters(self, letters: Letters) -> int:
        cached = self._cache.get(letters)
        if cached is not None:
            return cached
        total = self._kernel(letters)
        if len(self._cache) >= 1_000_000:
            self._cache.clear()
        self._cache[letters] = total
        return total

    def __getstate__(self):
        return (self.spec, self.table, self.name)

    def __setstate__(self, state):
        self.__init__(*state)


# ---------------------------------------------------------------------------
# Exact counting kernels
#
# For every family, phi(g) is an integer combination of substring counts of
# g, divided by the least common denominator of lambda. The kernel counts on
# the word's own letter bytes behind a leading 0 byte, which is no letter,
# and each count is one ``bytes.count``.

# (translation table or None, ((pattern, integer coefficient), ...))
_CountGroup = tuple[bytes | None, tuple[tuple[bytes, int], ...]]


def _letter_terms(scaled: dict[Letters, int]) -> list[_CountGroup]:
    """Every piece is one letter: count each letter."""
    return [(None, tuple(scaled.items()))]


def _brooks_terms(w: Letters, scaled: dict[Letters, int]) -> list[_CountGroup]:
    """Pieces are the occurrences of w and w^-1 plus the letters outside them.

    Non-self-overlap makes all occurrences pairwise disjoint, so the pieces
    of ``cut_flags`` are exactly them and ``bytes.count``, which counts
    non-overlapping matches, finds every one. A single-letter piece x
    is counted as all x minus the x inside the occurrences.
    """
    if len(w) == 1:
        return _letter_terms(scaled)
    coeffs: dict[Letters, int] = {}
    for pattern in (w, invert_letters(w)):
        coeffs[pattern] = scaled.get(pattern, 0) - sum(
            c * pattern.count(p[0]) for p, c in scaled.items() if len(p) == 1
        )
    for p, c in scaled.items():
        if len(p) == 1:
            coeffs[p] = c
    return [(None, tuple((p, c) for p, c in coeffs.items() if c))]


def _rolli_terms(scaled: dict[Letters, int]) -> list[_CountGroup]:
    """Pieces are the maximal runs x^k.

    With x mapped to byte 1 and every other byte to 0, the runs of x of
    length >= k are the matches of 0 1^k, so the runs of length exactly k
    number R_k - R_{k+1}; summed against lambda(x^k) this telescopes to
    sum over k of (lambda(x^k) - lambda(x^(k-1))) R_k.
    """
    powers: dict[int, dict[int, int]] = {}
    for p, c in scaled.items():
        powers.setdefault(p[0], {})[len(p)] = c
    groups: list[_CountGroup] = []
    for x, lam in powers.items():
        indicator = bytes(1 if b == x else 0 for b in range(256))
        ks = sorted(set(lam) | {k + 1 for k in lam})
        terms = tuple(
            (b"\0" + b"\1" * k, lam.get(k, 0) - lam.get(k - 1, 0)) for k in ks
        )
        groups.append((indicator, tuple((pat, c) for pat, c in terms if c)))
    return groups


def counting_kernel(
    spec: DecompositionSpec, table: LambdaTable
) -> tuple[int, dict[Letters, int], Callable[[Letters], int], int]:
    """(den, scaled, evaluator, window): the least common denominator of the
    table, the nonzero entries as numerators over it, an exact evaluator of
    the numerator over it of the quasi-morphism (spec, table) on
    ``Letters``, and the largest ``len(p) - 1`` over the counted patterns
    ``p``, at least 1: a concatenating pair's defect reads only
    ``x[-window:]`` and ``y[:window]`` (README "Junction window").

    Every table entry is read as given, so a table that is not alternating
    (the tests' ``tampered_lambda``) is evaluated as the piece sum would be.
    """
    den = math.lcm(*(v.denominator for v in table.entries.values()))
    scaled = {p: int(v * den) for p, v in table.entries.items() if v}
    if spec.family == "letter":
        groups = _letter_terms(scaled)
    elif spec.family == "rolli":
        groups = _rolli_terms(scaled)
    else:
        groups = _brooks_terms(spec.brooks_word, scaled)  # type: ignore[arg-type]
    groups = [(tr, terms) for tr, terms in groups if terms]
    window = max([1, *(len(p) - 1 for _, terms in groups for p, _ in terms)])

    def kernel(letters: Letters) -> int:
        s = b"\0" + letters
        total = 0
        for translation, terms in groups:
            t = s if translation is None else s.translate(translation)
            for pattern, coeff in terms:
                total += coeff * t.count(pattern)
        return total

    return den, scaled, kernel, window


def _is_legal_piece(spec: DecompositionSpec, letters: Letters) -> bool:
    if spec.family == "letter":
        return len(letters) == 1
    if spec.family == "rolli":
        return len(set(letters)) == 1
    w: Letters = spec.brooks_word  # type: ignore[assignment]
    return len(letters) == 1 or letters in (w, invert_letters(w))


def defect(q: QuasiMorphism, g: Letters, h: Letters) -> Fraction:
    """phi(g) + phi(h) - phi(g h), exactly."""
    value = q.value_letters
    return Fraction(value(g) + value(h) - value(multiply_letters(g, h)), q.den)


def defect_from_triangle(q: QuasiMorphism, g: Letters, h: Letters) -> Fraction:
    """The defect equals phi(r1) + phi(r2) + phi(r3) over the tripod remainders."""
    tri = triangle_split(q.spec, g, h)
    value = q.value_letters
    return Fraction(value(tri.r1) + value(tri.r2) + value(tri.r3), q.den)


@dataclass
class DefectStats:
    max_abs: Fraction
    argmax: tuple[str, str] | None
    checked: int

    def to_json(self) -> dict:
        return {
            "max_abs_defect": str(self.max_abs),
            "argmax_pair": list(self.argmax) if self.argmax else None,
            "checked_count": self.checked,
        }


def _defect_probe(q: QuasiMorphism, pair: tuple[Letters, Letters], out: Scan) -> None:
    g, h = pair
    out.offer("defect", abs(defect(q, g, h)), pair)


def defect_sup(
    q: QuasiMorphism,
    ball_radius: int = 0,
    random_pairs: int = 0,
    max_len: int = 50,
    seed: int = 0,
    cap: int | None = None,
    jobs: int = 1,
) -> DefectStats:
    """Max |defect| over an exhaustive ball and/or seeded random pairs, each
    drawn as ``randint(0, max_len)`` twice, then two words (``LetterStream``)."""
    result = Scan()
    if ball_radius > 0:
        ball = list(enumerate_ball(q.rank, ball_radius, cap))
        result = pair_scan(_defect_probe, q, ball, ball, jobs)
    if random_pairs > 0:
        if not 0 <= max_len <= LENGTH_LIMIT:
            raise UsageError(f"max_len must be in [0, {LENGTH_LIMIT}], got {max_len}")
        stream = LetterStream(q.rank, f"{seed}:defect")
        pairs = []
        for _ in range(random_pairs):
            lg, lh = stream.below(max_len + 1), stream.below(max_len + 1)
            pairs.append((stream.word(lg), stream.word(lh)))
        result.merge(scan(_defect_probe, q, pairs, jobs))
    best, pair = result.best("defect", _ZERO)
    argmax = None if pair is None else (format_letters(pair[0]), format_letters(pair[1]))
    return DefectStats(best, argmax, result.checked)
