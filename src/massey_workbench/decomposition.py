"""Decompositions of reduced words into piece sequences.

Three concrete families are supported:

* ``letter``: every letter is a piece.
* ``rolli``: maximal single-generator power blocks are pieces.
* ``brooks``: all occurrences of a fixed non-self-overlapping word ``w``
  and of ``w^-1`` are pieces; leftover letters are single-letter pieces.

Every family cuts the letter sequence of the input, so the product of the
pieces returns the word with no cancellation at any junction. One C-level
kernel per family writes the cuts as flags (``cut_flags``). One tripod
core over per-word tables locates the piece-aligned corners of the tripods
spanned by ``(1, g, g*h)`` for one ``g`` and a row of ``h`` and counts the
pieces of their thick remainders: ``triangle_scan`` runs it on every row of
a ball, ``triangle_split`` on a one-column row.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Literal

from ._parallel import Scan, chunked_map, scan
from .errors import ConfigError, UsageError
from .report import Report, StageResult
from .words import (
    Letters,
    cancelled_length,
    enumerate_ball,
    format_letters,
    invert_letters,
    multiply_letters,
)


def is_non_self_overlapping(w: Letters) -> bool:
    """True iff occurrences of ``w`` and ``w^-1`` in any reduced word are
    pairwise disjoint.

    Concretely: ``w != w^-1`` and for every proper length ``i`` the length-i
    suffix of ``w`` differs from the length-i prefix of ``w`` and of
    ``w^-1``, and the length-i suffix of ``w^-1`` differs from the length-i
    prefix of ``w``.
    """
    if not w:
        raise UsageError("the empty word is not a valid piece pattern")
    winv = invert_letters(w)
    if w == winv:
        return False
    n = len(w)
    for i in range(1, n):
        if w[n - i :] == w[:i] or w[n - i :] == winv[:i] or winv[n - i :] == w[:i]:
            return False
    return True


FAMILIES = ("letter", "rolli", "brooks")


@dataclass(frozen=True)
class DecompositionSpec:
    """One of the three piece families (``FAMILIES``), pinned to a rank."""

    family: Literal["letter", "rolli", "brooks"]
    rank: int
    brooks_word: Letters | None = None

    def __post_init__(self):
        # Letters must fit one signed byte and miss the cut-flag mark's 0x7f.
        if not 1 <= self.rank <= 26:
            raise ConfigError(f"rank must be in [1, 26], got {self.rank}")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown decomposition family {self.family!r}")
        if self.family == "brooks":
            w = self.brooks_word
            if not w:
                raise ConfigError("brooks family requires a nonempty word")
            if any(not 1 <= min(b, 256 - b) <= self.rank for b in w):
                raise ConfigError(
                    f"brooks word {format_letters(w)} holds a letter outside rank {self.rank}"
                )
            if not is_non_self_overlapping(w):
                raise ConfigError(
                    f"brooks word {format_letters(w)} is self-overlapping; "
                    "occurrences would not be disjoint"
                )
        elif self.brooks_word is not None:
            raise ConfigError(f"family {self.family!r} takes no word parameter")

    @functools.cached_property
    def brooks_patterns(self) -> tuple[Letters, Letters, bytes]:
        """The Brooks word, its inverse, and the mark ``cut_flags`` writes over them."""
        w: Letters = self.brooks_word  # type: ignore[assignment]
        return w, invert_letters(w), b"\0" + b"\x7f" * (len(w) - 1)

    def describe(self) -> str:
        if self.family == "brooks":
            return f"brooks({format_letters(self.brooks_word)})"  # type: ignore[arg-type]
        return self.family


# Maps the 0x7f bytes of a Brooks mark to 0 and every other byte to 1.
_STARTS = bytes(0 if b == 0x7F else 1 for b in range(256))


def cut_flags(spec: DecompositionSpec, letters: Letters) -> bytes:
    """One byte per letter: 1 where a piece starts, 0 inside a piece.

    Rolli starts a piece where a letter differs from the one before it.
    Brooks writes a mark (byte 0, then 0x7f bytes, none a letter) over each
    occurrence of ``w`` and ``w^-1``: non-self-overlap makes them pairwise
    disjoint, so ``bytes.replace`` finds the pieces of the greedy scan.
    """
    family = spec.family
    if family == "letter":
        return b"\1" * len(letters)
    if family == "rolli":
        return bytes(map(operator.ne, letters, b"\0" + letters))
    w, winv, mark = spec.brooks_patterns
    return letters.replace(w, mark).replace(winv, mark).translate(_STARTS)


def piece_lengths(spec: DecompositionSpec, letters: Letters) -> tuple[int, ...]:
    """Letter length of each piece, in order: a start flag and the 0s after it."""
    return tuple([len(run) + 1 for run in cut_flags(spec, letters).split(b"\1")[1:]])


def boundaries(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """Cumulative cut positions (0, ..., total length) of a piece run."""
    return tuple(itertools.accumulate(lengths, initial=0))


@dataclass(frozen=True)
class TriangleDecomposition:
    """Piece-aligned corner words and thick remainders of the tripod of (1, g, gh).

    Satisfies, as concatenations of piece sequences:
    ``D(g) = D(c1^-1) D(r1) D(c2)``, ``D(h) = D(c2^-1) D(r2) D(c3)``,
    ``D((gh)^-1) = D(c3^-1) D(r3) D(c1)``. The two count triples are the
    piece counts of ``r1, r2, r3`` and of ``c1, c2, c3``.
    """

    c1: Letters
    c2: Letters
    c3: Letters
    r1: Letters
    r2: Letters
    r3: Letters
    thick_lengths: tuple[int, int, int]
    corner_counts: tuple[int, int, int]


def _word_axioms_probe(spec: DecompositionSpec, letters: Letters, out: Scan) -> None:
    lengths = piece_lengths(spec, letters)
    cuts = boundaries(lengths)
    pieces = [letters[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    acc: Letters = b""
    for piece in pieces:
        acc = multiply_letters(acc, piece)
    if acc != letters or sum(lengths) != len(letters) or any(not p for p in pieces):
        out.fail("pieces-concatenate", {"word": format_letters(letters)})
        return

    inv_pieces = piece_lengths(spec, invert_letters(letters))
    if inv_pieces != tuple(reversed(lengths)):
        out.fail("inverse-symmetry", {"word": format_letters(letters)})

    # Flags that start with 1 spell one piece run, so equal flags, equal runs.
    flags = cut_flags(spec, letters)
    m = len(pieces)
    for i in range(m):
        for j in range(i + 1, m + 1):
            ci, cj = cuts[i], cuts[j]
            if cut_flags(spec, letters[ci:cj]) != flags[ci:cj]:
                out.fail("piece-runs-stable", {"word": format_letters(letters), "run": (i + 1, j)})
                return


def check_axioms(
    spec: DecompositionSpec,
    radius: int,
    pair_radius: int | None = None,
    cap: int | None = None,
    jobs: int = 1,
    stabilize: bool = True,
) -> Report:
    """The ``axioms`` report: exhaustively verify the decomposition axioms
    on balls.

    Per-word axioms over the radius ball: (i) the pieces concatenate back to
    the word with zero cancellation, (ii) inverse symmetry, (iii) every
    contiguous piece run decomposes to exactly that run. Pairwise over the
    pair-radius ball: the three triangle factorizations hold as piece
    sequences, recording the maximal observed thick length R-hat. With
    ``stabilize`` and a pair radius of at least 1, R-hat must equal its
    value over the ball one smaller, found by the same pair scan.
    """
    if pair_radius is None:
        pair_radius = radius
    report = Report(command="axioms")
    ball = list(enumerate_ball(spec.rank, radius, cap))
    words = scan(_word_axioms_probe, spec, ball, jobs)
    for name in ("pieces-concatenate", "inverse-symmetry", "piece-runs-stable"):
        report.add(StageResult.from_scan(name, words))
    triangles = _scan_triangles(spec, pair_radius, cap, jobs)
    report.add(StageResult.from_scan("triangle-factorizations", triangles))
    r_hat, argmax = triangles.best("r_hat", -1)
    r_hat = max(r_hat, 0)
    report.notes = {
        "spec": spec.describe(),
        "radius": radius,
        "pair_radius": pair_radius,
        "r_hat": r_hat,
        "r_hat_argmax": argmax,
    }
    if stabilize and pair_radius >= 1:
        previous = triangles.best("r_hat_inner", -1)[0]
        moved = {"pair_radius": pair_radius, "r_hat": r_hat, "previous": previous}
        report.add(
            StageResult(
                "r-hat-stabilization",
                0,
                None if previous == r_hat else moved,
                stats={"r_hat": r_hat, "r_hat_previous_radius": previous},
            )
        )
    return report


class _InverseRuns(dict):
    """Cut flags of the inverse of the piece-aligned prefixes (``from_end``)
    or suffixes of a word, keyed by their letter length and decomposed on
    first read, so a scan pays only for the corners it meets."""

    __slots__ = ("spec", "inverse", "from_end")

    def __init__(self, spec: DecompositionSpec, inverse: Letters, from_end: bool):
        self.spec, self.inverse, self.from_end = spec, inverse, from_end

    def __missing__(self, k: int) -> bytes:
        inv = self.inverse
        segment = inv[len(inv) - k :] if self.from_end else inv[:k]
        flags = self[k] = cut_flags(self.spec, segment)
        return flags


class _ScanData:
    """Boundary data of one word, the per-word table of the tripod core.

    Besides the cut positions it holds the inverse letters and the cut
    flags of the inverse of each piece-aligned prefix (``inv_prefix``, by
    lead cut) and suffix (``inv_suffix``, by trail cut): the two corner
    segments of a third side ``(gh)^-1`` are exactly such inverses.
    """

    __slots__ = (
        "letters",
        "inverse",
        "lead_desc",
        "trail_list",
        "trail_desc",
        "index",
        "inv_prefix",
        "inv_suffix",
    )

    def __init__(self, spec: DecompositionSpec, letters: Letters):
        cuts = boundaries(piece_lengths(spec, letters))
        total = cuts[-1]
        inv = invert_letters(letters)
        self.letters = letters
        self.inverse = inv
        self.lead_desc = cuts[::-1]
        self.trail_desc = tuple(total - c for c in cuts)
        self.trail_list = self.trail_desc[::-1]
        self.index = {pos: i for i, pos in enumerate(cuts)}
        self.inv_prefix = _InverseRuns(spec, inv, True)
        self.inv_suffix = _InverseRuns(spec, inv, False)


# Separates the words of a row in one cut_flags call. It is no letter byte
# (1..26, 230..255) and no Brooks mark byte (0, 0x7f), so every kernel
# starts afresh after it: a Brooks pattern holds only letters, and a Rolli
# letter always differs from it.
_SEP = b"\x40"


def _tripod_row(
    spec: DecompositionSpec,
    dg: _ScanData,
    cols: list[_ScanData],
    cancels: list[int],
    products: list[Letters],
) -> list[tuple[int, int, int, tuple[int, int, int]] | None]:
    """Corners and thick piece counts of the tripods of ``(1, g, gh)`` for
    one ``g`` and every column ``h``, given the cancelled length of each
    product ``g h`` and the product's inverse ``(gh)^-1``.

    For each column, ``(len1, len2, len3, thick)``: the letter lengths of
    the corners (``c1^-1`` is a prefix of ``g``, ``c2`` a suffix of ``g``
    and ``c3`` a suffix of ``h``, each the longest one ending on a piece
    boundary of both adjacent sides) and the piece counts of the three
    remainders; ``None`` when the factorization of ``(gh)^-1`` fails.

    The products of the row are decomposed by one ``cut_flags`` call on
    their ``_SEP``-joined bytes, each read at its offset, and their
    nonempty middle segments by a second such call. The two corner
    segments are the inverses of a piece-aligned suffix of ``h`` and prefix
    of ``g``, whose cut flags are read from the tables. Flag strings that
    start with 1 spell piece-length sequences one to one, so comparing
    flags compares piece runs. Piece runs within ``g`` and ``h`` themselves
    are covered by the per-word run checks, so their remainders are counted
    from the cut indices.
    """
    kernel = cut_flags
    a, inv_a = dg.letters, dg.inverse
    la = len(a)
    lead_desc, trail_list = dg.lead_desc, dg.trail_list
    index_g, inv_prefix = dg.index, dg.inv_prefix
    # The 1 after the last product keeps its empty-corner read in range.
    flags = kernel(spec, _SEP.join(products)) + b"\1"
    out = []
    mids, mid_flags, mid_cols = [], [], []
    start = 0
    for dh, c, ghinv in zip(cols, cancels, products):
        inv_b, index_h = dh.inverse, dh.index
        lb, total = len(inv_b), len(ghinv)
        end = start + total
        # c2 sits inside the cancelled part; c1 inside the shared prefix of
        # g and gh (a trailing run of (gh)^-1); c3 inside the shared suffix
        # of h and gh (inverted, a leading run of (gh)^-1). c1 and c3 are
        # searched longest first through the product's flags. Both
        # descending cut lists end at 0, the empty corner, which the loop
        # takes whether or not it breaks, so the byte it reads there (a
        # separator's flag or the final 1) does not matter.
        len2 = 0
        if c:
            for pos in trail_list:
                if pos > c:
                    break
                if pos in index_h:
                    len2 = pos
        cap1 = la - c
        for len1 in lead_desc:
            if len1 <= cap1 and flags[end - len1]:
                break
        cap3 = lb - c
        for len3 in dh.trail_desc:
            if len3 <= cap3 and flags[start + len3]:
                break
        lo, hi = start + len3, end - len1
        mid = flags[lo:hi]
        # The letter comparisons show the end segments are the tabled words
        # (they restate gh[:len1] == g[:len1] and gh[-len3:] == h[-len3:] on
        # the inverse), so the table lookups are exact. The one for c2
        # compares two empty words when len2 is 0, so it is skipped then.
        if (
            dh.inv_suffix[len3] == flags[start:lo]
            and inv_prefix[len1] == flags[hi:end]
            and ghinv[total - len1 :] == inv_a[la - len1 :]
            and ghinv[:len3] == inv_b[:len3]
            and (not len2 or a[la - len2 :] == inv_b[lb - len2 :])
        ):
            if lo != hi:
                mid_cols.append(len(out))
                mids.append(ghinv[len3 : total - len1])
                mid_flags.append(mid)
            thick = (
                index_g[la - len2] - index_g[len1],
                index_h[lb - len3] - index_h[len2],
                mid.count(1),
            )
            out.append((len1, len2, len3, thick))
        else:
            out.append(None)
        start = end + 1
    # Each middle's own flags must equal the product's flags on it. The
    # joined middles are all nonempty, so a kernel that restarts at _SEP
    # writes a 1 there; a difference anywhere is located middle by middle.
    if mids and kernel(spec, _SEP.join(mids)) != b"\1".join(mid_flags):
        for j, mid, expect in zip(mid_cols, mids, mid_flags):
            if kernel(spec, mid) != expect:
                out[j] = None
    return out


def triangle_split(spec: DecompositionSpec, g: Letters, h: Letters) -> TriangleDecomposition:
    """Corner words of maximal piece length for the triangle ``(1, g, gh)``.

    A one-column row of the tripod core: the tables of ``g`` and ``h`` are
    built and only the two corner entries it reads are decomposed; corner
    piece counts are cut-index differences, like those of ``r1`` and ``r2``.
    A pair whose factorization fails, which ``triangle_scan`` would record
    as a counterexample, raises ``UsageError``.
    """
    la, lb = len(g), len(h)
    dg, dh = _ScanData(spec, g), _ScanData(spec, h)
    c = cancelled_length(g, h)
    ghinv = dh.inverse[: lb - c] + dg.inverse[c:]
    found = _tripod_row(spec, dg, [dh], [c], [ghinv])[0]
    if found is None:
        raise UsageError(
            f"triangle factorization fails for g = {format_letters(g)}, h = {format_letters(h)}"
        )
    len1, len2, len3, thick = found
    ig, ih = dg.index, dh.index
    return TriangleDecomposition(
        invert_letters(g[:len1]),
        g[la - len2 :],
        h[lb - len3 :],
        g[len1 : la - len2],
        h[len2 : lb - len3],
        ghinv[len3 : len(ghinv) - len1],
        thick,
        (ig[len1], ig[la] - ig[la - len2], ih[lb] - ih[lb - len3]),
    )


def triangle_scan(
    spec: DecompositionSpec, left: list[Letters], right: list[Letters], inner_radius: int = -1
) -> tuple[int, dict | None, int, dict | None, int]:
    """Check triangle factorizations for all pairs; track max thick length.

    Each ``g`` of ``left`` is one row of the tripod core over ``right``, on
    per-word tables built once per word. The cancelled length of every
    column is read from a table that maps each prefix of a ``right`` word
    to the columns that start with it: the columns listed under the
    length-k prefix of ``g^-1`` cancel at least k letters. It holds every
    prefix, quadratic in word length, so it suits balls of short words;
    ``triangle_split`` on long entries builds none.

    Returns (checked, first counterexample or None, r_hat, argmax info,
    r_hat over the pairs with ``|g|, |h| <= inner_radius`` or -1 if none),
    the counterexample and argmax being the first such pair in row-major
    order.
    """
    data: dict[Letters, _ScanData] = {}
    for w in (*right, *left):
        if w not in data:
            data[w] = _ScanData(spec, w)
    cols = [data[h] for h in right]
    inv_cols = [dh.inverse for dh in cols]
    by_prefix: dict[Letters, list[int]] = {}
    for j, b in enumerate(right):
        for k in range(1, len(b) + 1):
            by_prefix.setdefault(b[:k], []).append(j)

    counterexample = argmax = None
    r_hat = r_inner = -1
    for g in left:
        dg = data[g]
        inv_a = dg.inverse
        cancels = [0] * len(right)
        for k in range(1, len(inv_a) + 1):
            hits = by_prefix.get(inv_a[:k])
            if hits is None:
                break
            for j in hits:
                cancels[j] = k
        # (gh)^-1 is h^-1 g^-1 with the cancelled letters dropped: built in
        # one C-level pass, then redone for the columns that cancel.
        products = list(map(operator.add, inv_cols, itertools.repeat(inv_a)))
        for j in by_prefix.get(inv_a[:1], ()):
            c, inv_b = cancels[j], inv_cols[j]
            products[j] = inv_b[: len(inv_b) - c] + inv_a[c:]
        g_inner = len(g) <= inner_radius
        for j, found in enumerate(_tripod_row(spec, dg, cols, cancels, products)):
            if found is None:
                if counterexample is None:
                    counterexample = {"g": format_letters(g), "h": format_letters(right[j])}
                continue
            n1, n2, worst = thick = found[3]
            if n1 > worst:
                worst = n1
            if n2 > worst:
                worst = n2
            if worst > r_hat:
                r_hat = worst
                argmax = {
                    "g": format_letters(g),
                    "h": format_letters(right[j]),
                    "thick_lengths": thick,
                }
            if worst > r_inner and g_inner and len(right[j]) <= inner_radius:
                r_inner = worst
    return len(left) * len(right), counterexample, max(r_hat, 0), argmax, r_inner


def _triangle_chunk(payload, chunk) -> Scan:
    spec, ball, inner_radius = payload
    checked, counterexample, r_hat, argmax, r_inner = triangle_scan(
        spec, chunk, ball, inner_radius
    )
    out = Scan(checked)
    if counterexample is not None:
        out.fail("triangle-factorizations", counterexample)
    if argmax is not None:
        out.offer("r_hat", r_hat, argmax)
    out.offer("r_hat_inner", r_inner)
    return out


def _scan_triangles(spec: DecompositionSpec, pair_radius: int, cap: int | None, jobs: int) -> Scan:
    """Triangle scan of every pair of the pair-radius ball, rows split over
    workers: check ``triangle-factorizations``, statistics ``r_hat`` (with its
    pair) and ``r_hat_inner`` (over the pairs of the ball one smaller)."""
    ball = list(enumerate_ball(spec.rank, pair_radius, cap))
    return chunked_map(_triangle_chunk, (spec, ball, pair_radius - 1), ball, jobs)


def measure_r_hat(
    spec: DecompositionSpec, pair_radius: int, cap: int | None = None, jobs: int = 1
) -> int:
    """Max observed thick length over all pairs in the pair-radius ball."""
    triangles = _scan_triangles(spec, pair_radius, cap, jobs)
    failure = triangles.failures.get("triangle-factorizations")
    if failure is not None:
        raise UsageError(f"triangle factorization failed while measuring R-hat: {failure}")
    return max(triangles.best("r_hat", -1)[0], 0)
