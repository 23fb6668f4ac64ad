"""Reduced words in a free group of finite rank.

A word is ``Letters``, a ``bytes`` object with one signed byte per letter:
the signed letter ``+i`` is the i-th generator and ``-i`` its formal
inverse (1-indexed, ``i <= rank <= 26``), and its byte is ``x & 0xFF``, so
``+i`` is byte ``i`` and ``-i`` is byte ``256 - i``. The bytes of a word are
reduced (no adjacent cancelling pair) and hold no zero byte; ``b""`` is the
identity. ``parse_word`` reads the word syntax of a config into reduced
``Letters`` of one rank, and ``format_letters`` writes them back.

Two letter bytes are inverse exactly when they sum to 256; that is the one
inverse test, used by reduction, by ``cancelled_length`` (the junction of a
product) and by alignment. ``INVERSE`` maps every letter byte to its
inverse's, so a word is inverted by one ``translate`` of its reversal.
Bytes rather than tuples of ints because ``bytes`` hashes in C and caches
its hash, so a word that keys several caches is hashed once, and a slice or
a product is one compact copy.

Every seeded draw reads a generator of its own through one decoder,
``LetterStream``, and gets what per-call ``randint`` and ``choice`` give.
"""

from __future__ import annotations

import functools
import os
import random
import sys
from array import array
from typing import Iterable, Iterator

from .errors import ConfigError, ResourceCapError, UsageError, integer

DEFAULT_ENUMERATION_CAP = 5_000_000
ENUMERATION_CAP_ENV = "MASSEY_WORKBENCH_ENUM_CAP"
# Sampled lengths stay under the enumeration cap and this limit: a length
# draw is then one 32-bit output, whatever the cap is raised to.
LENGTH_LIMIT = 2**31 - 1
# 32-bit outputs per draw of the stream decoder once its draws have doubled up.
_BLOCK = 1 << 12

Letters = bytes

# Letter byte -> byte of the inverse letter (the signed negation mod 256).
INVERSE = bytes(-b & 0xFF for b in range(256))
# Letter byte -> its character in the word syntax.
_TEXT = bytes(
    ord("a") + b - 1 if 1 <= b <= 26 else ord("A") + 255 - b if b >= 230 else ord("?")
    for b in range(256)
)


def reduce_letters(raw: Iterable[int]) -> Letters:
    """Pack signed letters, cancelling adjacent inverse pairs until none
    remain (stack pass)."""
    out = bytearray()
    for x in raw:
        b = x & 0xFF
        if out and out[-1] + b == 256:
            out.pop()
        else:
            out.append(b)
    return bytes(out)


def cancelled_length(a: Letters, b: Letters) -> int:
    """Length of the longest suffix of ``a`` whose inverse is a prefix of
    ``b``: the letters that cancel at the junction of ``a b``."""
    la = len(a)
    m = min(la, len(b))
    c = 0
    while c < m and a[la - 1 - c] + b[c] == 256:
        c += 1
    return c


def multiply_letters(a: Letters, b: Letters) -> Letters:
    """Reduced product of two reduced words."""
    c = cancelled_length(a, b)
    return a[: len(a) - c] + b[c:]


def invert_letters(a: Letters) -> Letters:
    return a[::-1].translate(INVERSE)


def parse_word(text: str, rank: int) -> Letters:
    """Parse word syntax into reduced letters of ``rank``: ASCII ``a``..``z``
    generators, ``A`` or ``a^-1`` inverses.

    Powers ``a^3`` / ``a^-2`` take ASCII digits; ``1`` denotes the identity.
    """
    check_rank(rank)
    s = text.strip().replace(" ", "")
    if s in ("", "1"):
        return b""
    letters: list[int] = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isascii() and ch.isalpha():
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
                while j < n and "0" <= s[j] <= "9":
                    j += 1
                if j == i or (s[i] == "-" and j == i + 1):
                    raise ConfigError(f"malformed power in {text!r}")
                try:
                    power = int(s[i:j])
                except ValueError:  # more digits than int() reads
                    raise ResourceCapError(f"power in word {text!r} exceeds the length cap")
                i = j
            check_length(len(letters) + abs(power), f"length of word {text!r}")
            if power >= 0:
                letters.extend([val] * power)
            else:
                letters.extend([-val] * (-power))
        else:
            raise ConfigError(f"unexpected character {ch!r} in word {text!r}")
    return reduce_letters(letters)


def check_rank(rank: int) -> int:
    """``rank`` if it is in [1, 26], the ranks whose letters the byte
    encoding and the word syntax hold, else a ``ConfigError``."""
    if not 1 <= rank <= 26:
        raise ConfigError(f"rank must be in [1, 26], got {rank}")
    return rank


def format_letters(letters: Letters) -> str:
    """Canonical text: lower-case generators, upper-case inverses, 1 for identity."""
    return letters.translate(_TEXT).decode("ascii") or "1"


def ball_size(rank: int, radius: int) -> int:
    """Number of reduced words of length <= radius."""
    return sum(_sphere_sizes(rank, radius))


def _sphere_sizes(rank: int, radius: int) -> Iterator[int]:
    """The sphere sizes of the ball of ``radius``, shortest first."""
    if radius < 0:
        raise UsageError("radius must be >= 0")
    return (sphere_size(rank, length) for length in range(radius + 1))


def sphere_size(rank: int, length: int) -> int:
    """Number of reduced words of length exactly `length`."""
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def enumeration_cap(override: int | None = None) -> int:
    """``override``, else the environment variable, else the default; a
    value that is not an integer >= 1 is a ``ConfigError``."""
    source, raw = "enumeration_cap", integer(override, "enumeration_cap", optional=True)
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
    """All reduced words of exact length, in lexicographic alphabet order."""
    followers = _followers(rank)
    prefix = bytearray()

    def extend(last: int, remaining: int) -> Iterator[Letters]:
        if remaining == 0:
            yield bytes(prefix)
            return
        for x in followers[last]:
            prefix.append(x)
            yield from extend(x, remaining - 1)
            prefix.pop()

    yield from extend(0, length)


def enumerate_ball(rank: int, radius: int, cap: int | None = None) -> Iterator[Letters]:
    """Every reduced word of length <= radius, exactly once, shortest first."""
    check_size(_sphere_sizes(rank, radius), f"ball of radius {radius} in rank {rank}", cap)
    for length in range(radius + 1):
        yield from words_of_length(rank, length)


def check_size(sizes: Iterable[int], what: str, cap: int | None = None) -> None:
    """A ``ResourceCapError`` naming ``what`` if ``sizes`` add up to more
    than the enumeration cap. They are added only until the total passes
    the cap, so a domain far past it is never sized in full."""
    limit = enumeration_cap(cap)
    total = 0
    for size in sizes:
        total += size
        if total > limit:
            raise ResourceCapError(f"{what} exceeds the enumeration cap {limit}")


def check_length(value: int, key: str, cap: int | None = None) -> None:
    """A ``ResourceCapError`` naming ``key`` if ``value`` exceeds the
    enumeration cap or ``LENGTH_LIMIT``."""
    limit = min(enumeration_cap(cap), LENGTH_LIMIT)
    if value > limit:
        raise ResourceCapError(
            f"{key} {value} exceeds the length cap {limit} "
            f"(the enumeration cap, at most {LENGTH_LIMIT})"
        )


def sample_word(rank: int, length: int, seed: int | str) -> Letters:
    """Uniform reduced word of exact length via a non-backtracking walk: the
    letters of one ``choice`` per letter on ``random.Random(seed)``."""
    return LetterStream(rank, seed).word(length)


def _sample_aligned(
    rank: int, arity: int, count: int, max_len: int, seed: int | str
) -> list[tuple[Letters, ...]]:
    """``count`` aligned tuples: per entry ``randint(1, max_len)`` and one
    ``choice`` per letter, the first after the previous entry's last, so a
    tuple's letters are one walk from its first letter on."""
    stream = LetterStream(rank, seed)
    if not arity:
        return [()] * count
    below, span = stream.below, stream.span
    out = []
    for _ in range(count):
        lengths, spans = [], []
        for _ in range(arity):
            length = below(max_len) + 1
            lengths.append(length)
            if not spans:
                spans.append(bytes((below(2 * rank),)))
                length -= 1
            spans.append(span(length))
        letters = _walk(stream.followers, b"".join(spans))
        t, a = [], 0
        for length in lengths:
            t.append(letters[a : a + length])
            a += length
        out.append(tuple(t))
    return out


class LetterStream:
    """The 32-bit outputs of a private ``random.Random(seed)``, decoded as
    ``random`` reads them. They are drawn ahead, so the generator ends past
    the outputs decoded: it is made here and never handed out."""

    __slots__ = ("followers", "_codes", "_rng", "_words", "_marks", "_p")

    def __init__(self, rank: int, seed: int | str):
        self.followers = _followers(rank)
        self._codes = _choice_codes(rank)
        self._rng = random.Random(seed)
        self._words, self._marks, self._p = array("I"), b"", 0

    def below(self, n: int) -> int:
        """One ``_randbelow(n)``, 1 <= n < 2**32, as ``randint`` and ``choice``
        draw it: the top ``n.bit_length()`` bits of an output, until < n."""
        shift = 32 - n.bit_length()
        while True:
            if self._p == len(self._words):
                self._draw(1)
            r = self._words[self._p] >> shift
            self._p += 1
            if r < n:
                return r

    def span(self, k: int) -> bytes:
        """The ``_choice_codes`` marks of the next ``k`` follower choices,
        their rejected tries (255) left in."""
        p = self._p
        end, short = p + k, k
        while short:
            if end > len(self._marks):
                self._draw(end - p)
                p, end = 0, end - p
            short = self._marks.count(255, end - short, end)
            end += short
        self._p = end
        return self._marks[p:end]

    def word(self, length: int) -> Letters:
        """The letters of one ``choice`` per letter: the first among the
        alphabet, each later one among the followers of the letter before."""
        if length <= 0:
            if length:
                raise UsageError("length must be >= 0")
            return b""
        first = bytes((self.below(len(self.followers[0])),))
        return _walk(self.followers, first + self.span(length - 1))

    def _draw(self, need: int) -> None:
        """Drop the outputs before the read position and draw m more (``getrandbits(32
        m)`` is m outputs, the first lowest) until ``need`` outputs lie ahead of it:
        the need at first, then at least twice the draw before, up to ``_BLOCK``."""
        p = self._p
        m = max(need - (len(self._words) - p), min(2 * len(self._words), _BLOCK))
        raw = self._rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        more = array("I", raw)
        if sys.byteorder == "big":
            more.byteswap()
        self._words = self._words[p:] + more
        self._marks = self._marks[p:] + raw[3::4].translate(self._codes)
        self._p = 0


def _walk(followers: list[bytes], marks: bytes) -> Letters:
    """The letters that the follower choices among ``marks`` pick one after
    another, the first among the whole alphabet."""
    last, out = 0, bytearray()
    for c in marks.translate(None, b"\xff"):
        last = followers[last][c]
        out.append(last)
    return bytes(out)


@functools.cache
def _choice_codes(rank: int) -> bytes:
    """Top byte of a 32-bit output -> the follower choice it makes, or 255
    for a rejected try: with n = 2 rank - 1 <= 51 followers the choice is
    the top ``n.bit_length()`` <= 6 bits of the output."""
    n = 2 * rank - 1
    shift = 8 - n.bit_length()
    return bytes(b >> shift if b >> shift < n else 255 for b in range(256))


@functools.cache
def _followers(rank: int) -> list[bytes]:
    """Letter byte (0 for none) -> the letter bytes that may follow it, in
    alphabet order ``1, -1, 2, -2, ...`` (not byte order), the order of
    every enumeration and of the sampler's choices; ``b""`` for a byte that
    is no letter of the rank. A list, since the sampler's walk indexes it
    once per letter. Read-only: it is shared by every caller."""
    check_rank(rank)
    alphabet = bytes(x & 0xFF for i in range(1, rank + 1) for x in (i, -i))
    followers = [b""] * 256
    followers[0] = alphabet
    for last in alphabet:
        followers[last] = bytes(x for x in alphabet if x + last != 256)
    return followers
