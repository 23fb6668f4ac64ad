"""Reduced words in a free group of finite rank.

A letter is a nonzero integer: ``+i`` is the i-th generator, ``-i`` its
formal inverse (1-indexed, ``i <= rank``). A word is a tuple of letters
with no adjacent cancelling pair; the empty tuple is the identity.
"""

from __future__ import annotations

import functools
import os
import random
from typing import Iterable, Iterator

from .errors import ConfigError, ResourceCapError, UsageError

DEFAULT_ENUMERATION_CAP = 5_000_000
ENUMERATION_CAP_ENV = "MASSEY_WORKBENCH_ENUM_CAP"

Letters = tuple[int, ...]


def reduce_letters(raw: Iterable[int]) -> Letters:
    """Cancel adjacent inverse pairs until none remain (stack pass)."""
    out: list[int] = []
    push = out.append
    pop = out.pop
    for x in raw:
        if out and out[-1] == -x:
            pop()
        else:
            push(x)
    return tuple(out)


def multiply_letters(a: Letters, b: Letters) -> Letters:
    """Reduced product of two already-reduced letter tuples."""
    la, lb = len(a), len(b)
    c = 0
    m = min(la, lb)
    while c < m and a[la - 1 - c] == -b[c]:
        c += 1
    return a[: la - c] + b[c:]


def invert_letters(a: Letters) -> Letters:
    return tuple(-x for x in reversed(a))


class Word:
    """Immutable reduced word of a fixed rank.

    The constructor reduces its input, so every held value is in canonical
    form; binary operations require matching ranks.
    """

    __slots__ = ("letters", "rank")

    def __init__(self, letters: Iterable[int] = (), rank: int = 2):
        if not 1 <= rank <= 26:
            raise ConfigError(f"rank must be in [1, 26], got {rank}")
        reduced = reduce_letters(letters)
        for x in reduced:
            if x == 0 or abs(x) > rank:
                raise ConfigError(f"letter {x} outside rank {rank}")
        object.__setattr__(self, "letters", reduced)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return hash((self.letters, self.rank))

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise UsageError(f"rank mismatch: {self.rank} vs {other.rank}")
        return _make(multiply_letters(self.letters, other.letters), self.rank)

    def inverse(self) -> "Word":
        return _make(invert_letters(self.letters), self.rank)

    def identity(self) -> "Word":
        return _make((), self.rank)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, rank={self.rank})"

    def __str__(self) -> str:
        return format_word(self)

    def __reduce__(self):
        return (_make, (self.letters, self.rank))


def _make(letters: Letters, rank: int) -> Word:
    """Fast constructor for letters already known to be reduced."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "rank", rank)
    return w


def word(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def parse_word(text: str, rank: int) -> Word:
    """Parse word syntax: ``a``..``z`` generators, ``A`` or ``a^-1`` inverses.

    Powers ``a^3`` / ``a^-2`` are accepted; ``1`` denotes the identity.
    """
    s = text.strip().replace(" ", "")
    if s in ("", "1"):
        return Word((), rank)
    letters: list[int] = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isalpha() and ch.lower().isascii():
            base = ord(ch.lower()) - ord("a") + 1
            if base > rank:
                raise ConfigError(f"generator {ch!r} outside rank {rank} in {text!r}")
            val = base if ch.islower() else -base
            i += 1
            power = 1
            if i < n and s[i] == "^":
                i += 1
                j = i
                if j < n and s[j] == "-":
                    j += 1
                while j < n and s[j].isdigit():
                    j += 1
                if j == i or (s[i] == "-" and j == i + 1):
                    raise ConfigError(f"malformed power in {text!r}")
                power = int(s[i:j])
                i = j
            if power >= 0:
                letters.extend([val] * power)
            else:
                letters.extend([-val] * (-power))
        else:
            raise ConfigError(f"unexpected character {ch!r} in word {text!r}")
    return Word(letters, rank)


def format_word(w: Word) -> str:
    """Canonical text: lower-case generators, upper-case inverses, 1 for identity."""
    if not w.letters:
        return "1"
    out = []
    for x in w.letters:
        ch = chr(ord("a") + abs(x) - 1)
        out.append(ch if x > 0 else ch.upper())
    return "".join(out)


def split_product(g: Word, h: Word) -> tuple[Word, Word, Word]:
    """Split ``g = p*t``, ``h = t^-1 * q`` with maximal cancelled part ``t``.

    ``g*h`` equals ``p*q`` with no cancellation at the junction; in a free
    group the maximal ``t`` is unique.
    """
    if g.rank != h.rank:
        raise UsageError(f"rank mismatch: {g.rank} vs {h.rank}")
    a, b = g.letters, h.letters
    la, lb = len(a), len(b)
    c = 0
    m = min(la, lb)
    while c < m and a[la - 1 - c] == -b[c]:
        c += 1
    p = _make(a[: la - c], g.rank)
    t = _make(a[la - c :], g.rank)
    q = _make(b[c:], g.rank)
    return p, t, q


def ball_size(rank: int, radius: int) -> int:
    """Number of reduced words of length <= radius."""
    if radius < 0:
        raise UsageError("radius must be >= 0")
    n = 2 * rank
    total = 1
    count = n
    for _ in range(radius):
        total += count
        count *= n - 1
    return total


def sphere_size(rank: int, length: int) -> int:
    """Number of reduced words of length exactly `length`."""
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def _alphabet(rank: int) -> list[int]:
    letters = []
    for i in range(1, rank + 1):
        letters.append(i)
        letters.append(-i)
    return letters


def enumeration_cap(override: int | None = None) -> int:
    """``override``, else the environment variable, else the default; a
    value that is not an integer >= 1 is a ``ConfigError``."""
    source, raw = "enumeration_cap", override
    if raw is None:
        source, raw = ENUMERATION_CAP_ENV, os.environ.get(ENUMERATION_CAP_ENV)
        if not raw:
            return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"{source} must be an integer >= 1, got {raw!r}")
    return cap


def words_of_length(rank: int, length: int) -> Iterator[Letters]:
    """All reduced letter tuples of exact length, in lexicographic letter order."""
    alphabet = _alphabet(rank)
    if length == 0:
        yield ()
        return

    def extend(prefix: list[int], remaining: int) -> Iterator[Letters]:
        if remaining == 0:
            yield tuple(prefix)
            return
        last = prefix[-1] if prefix else 0
        for x in alphabet:
            if x != -last:
                prefix.append(x)
                yield from extend(prefix, remaining - 1)
                prefix.pop()

    yield from extend([], length)


def enumerate_ball(rank: int, radius: int, cap: int | None = None) -> Iterator[Word]:
    """Every reduced word of length <= radius, exactly once, shortest first."""
    total = ball_size(rank, radius)
    limit = enumeration_cap(cap)
    if total > limit:
        raise ResourceCapError(
            f"ball of radius {radius} in rank {rank} has {total} words, cap is {limit}"
        )
    for length in range(radius + 1):
        for letters in words_of_length(rank, length):
            yield _make(letters, rank)


def sample_word(rank: int, length: int, seed: int | random.Random) -> Word:
    """Uniform reduced word of exact length via a non-backtracking walk."""
    if length < 0:
        raise UsageError("length must be >= 0")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return _make(_sample_letters(rank, length, rng, first_banned=0), rank)


def _sample_letters(
    rank: int, length: int, rng: random.Random, first_banned: int
) -> Letters:
    """Random reduced letters; the first letter avoids `-first_banned` if nonzero."""
    if length == 0:
        return ()
    followers = _followers(rank)
    out: list[int] = []
    last = first_banned
    for _ in range(length):
        last = rng.choice(followers[last])
        out.append(last)
    return tuple(out)


@functools.cache
def _followers(rank: int) -> dict[int, tuple[int, ...]]:
    """Letter (0 for none) -> the letters that may follow it, in alphabet
    order. Read-only: the dict is shared by every caller."""
    alphabet = _alphabet(rank)
    followers = {0: tuple(alphabet)}
    for last in alphabet:
        followers[last] = tuple(x for x in alphabet if x != -last)
    return followers
