"""Decompositions of reduced words into piece sequences.

Three concrete families are supported:

* ``letter``: every letter is a piece.
* ``rolli``: maximal single-generator power blocks are pieces.
* ``brooks``: all occurrences of a fixed non-self-overlapping word ``w``
  and of ``w^-1`` are pieces; leftover letters are single-letter pieces.

Every family cuts the letter sequence of the input, so the product of the
pieces returns the word with no cancellation at any junction. The triangle
split locates the piece-aligned corners of the tripod spanned by
``(1, g, g*h)`` in the Cayley tree and measures the misaligned remainders.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Literal

from ._parallel import parallel_triangle_scan
from .errors import ConfigError, UsageError
from .words import (
    Letters,
    Word,
    _make,
    enumerate_ball,
    invert_letters,
    multiply_letters,
    split_product,
)

PieceSequence = tuple[Word, ...]


def is_non_self_overlapping(w: Word) -> bool:
    """True iff occurrences of ``w`` and ``w^-1`` in any reduced word are
    pairwise disjoint.

    Concretely: ``w != w^-1`` and for every proper length ``i`` the length-i
    suffix of ``w`` differs from the length-i prefix of ``w`` and of
    ``w^-1``, and the length-i suffix of ``w^-1`` differs from the length-i
    prefix of ``w``.
    """
    a = w.letters
    if not a:
        raise UsageError("the empty word is not a valid piece pattern")
    b = invert_letters(a)
    if a == b:
        return False
    n = len(a)
    for i in range(1, n):
        if a[n - i :] == a[:i] or a[n - i :] == b[:i] or b[n - i :] == a[:i]:
            return False
    return True


@dataclass(frozen=True)
class DecompositionSpec:
    """One of the three piece families, pinned to a rank."""

    family: Literal["letter", "rolli", "brooks"]
    rank: int
    brooks_word: Word | None = None

    def __post_init__(self):
        if self.family not in ("letter", "rolli", "brooks"):
            raise ConfigError(f"unknown decomposition family {self.family!r}")
        if self.family == "brooks":
            w = self.brooks_word
            if w is None or not w.letters:
                raise ConfigError("brooks family requires a nonempty word")
            if w.rank != self.rank:
                raise ConfigError("brooks word rank differs from spec rank")
            if not is_non_self_overlapping(w):
                raise ConfigError(
                    f"brooks word {w} is self-overlapping; occurrences would not be disjoint"
                )
        elif self.brooks_word is not None:
            raise ConfigError(f"family {self.family!r} takes no word parameter")

    @functools.cached_property
    def brooks_patterns(self) -> tuple[Letters, Letters]:
        """Letters of the Brooks word and of its inverse."""
        w = self.brooks_word.letters  # type: ignore[union-attr]
        return w, invert_letters(w)

    def describe(self) -> str:
        if self.family == "brooks":
            return f"brooks({self.brooks_word})"
        return self.family


def piece_lengths(spec: DecompositionSpec, letters: Letters) -> tuple[int, ...]:
    """Letter length of each piece of the decomposition, in order."""
    if spec.family == "letter":
        return (1,) * len(letters)
    if spec.family == "rolli":
        return tuple(len(list(run)) for _, run in itertools.groupby(letters))
    w, winv = spec.brooks_patterns
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


def boundaries(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """Cumulative cut positions (0, ..., total length) of a piece run."""
    out = [0]
    acc = 0
    for piece_len in lengths:
        acc += piece_len
        out.append(acc)
    return tuple(out)


def decompose(spec: DecompositionSpec, g: Word) -> PieceSequence:
    """Cut ``g`` into its pieces."""
    if g.rank != spec.rank:
        raise UsageError(f"word rank {g.rank} differs from spec rank {spec.rank}")
    letters = g.letters
    cuts = boundaries(piece_lengths(spec, letters))
    return tuple(
        _make(letters[cuts[i] : cuts[i + 1]], spec.rank) for i in range(len(cuts) - 1)
    )



def prefix_product(spec: DecompositionSpec, g: Word, j: int) -> Word:
    """Product of the first ``j - 1`` pieces of ``g`` (identity for j = 1)."""
    cuts = boundaries(piece_lengths(spec, g.letters))
    n = len(cuts) - 1
    if not 1 <= j <= n:
        raise UsageError(f"piece index {j} outside [1, {n}]")
    return _make(g.letters[: cuts[j - 1]], spec.rank)


def suffix_product(spec: DecompositionSpec, g: Word, j: int) -> Word:
    """Product of the pieces after the j-th one (identity for j = count)."""
    cuts = boundaries(piece_lengths(spec, g.letters))
    n = len(cuts) - 1
    if not 1 <= j <= n:
        raise UsageError(f"piece index {j} outside [1, {n}]")
    return _make(g.letters[cuts[j] :], spec.rank)


@dataclass(frozen=True)
class TriangleDecomposition:
    """Piece-aligned corner words and thick remainders of the tripod of (1, g, gh).

    Satisfies, as concatenations of piece sequences:
    ``D(g) = D(c1^-1) D(r1) D(c2)``, ``D(h) = D(c2^-1) D(r2) D(c3)``,
    ``D((gh)^-1) = D(c3^-1) D(r3) D(c1)``.
    """

    c1: Word
    c2: Word
    c3: Word
    r1: Word
    r2: Word
    r3: Word
    thick_lengths: tuple[int, int, int]

    @property
    def thick_total(self) -> int:
        return sum(self.thick_lengths)


def _max_aligned(candidates: tuple[int, ...], other: frozenset[int] | set[int], cap: int) -> int:
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
    nested prefixes make the maximal choice unique.
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
    thick = (
        len(piece_lengths(spec, r1.letters)),
        len(piece_lengths(spec, r2.letters)),
        len(piece_lengths(spec, r3.letters)),
    )
    return TriangleDecomposition(c1, c2, c3, r1, r2, r3, thick)


@dataclass
class AxiomCheck:
    name: str
    passed: bool = True
    checked: int = 0
    counterexample: dict | None = None

    def fail(self, example: dict):
        if self.passed:
            self.passed = False
            self.counterexample = example


@dataclass
class AxiomReport:
    """Outcome of the exhaustive decomposition axiom suite."""

    spec_description: str
    radius: int
    pair_radius: int
    checks: list[AxiomCheck] = field(default_factory=list)
    r_hat: int = 0
    r_hat_argmax: dict | None = None
    # Max thick length over pairs of the ball of radius pair_radius - 1,
    # found by the same scan; None when pair_radius is 0.
    r_hat_previous_radius: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "spec": self.spec_description,
            "radius": self.radius,
            "pair_radius": self.pair_radius,
            "passed": self.passed,
            "r_hat": self.r_hat,
            "r_hat_argmax": self.r_hat_argmax,
            "r_hat_previous_radius": self.r_hat_previous_radius,
            "checks": [
                {
                    "name": c.name,
                    "status": "pass" if c.passed else "fail",
                    "checked_count": c.checked,
                    "counterexample": c.counterexample,
                }
                for c in self.checks
            ],
        }


def _pieces_from_cuts(letters: Letters, cuts: tuple[int, ...]) -> tuple[Letters, ...]:
    return tuple(letters[cuts[i] : cuts[i + 1]] for i in range(len(cuts) - 1))


def check_axioms(
    spec: DecompositionSpec,
    radius: int,
    pair_radius: int | None = None,
    cap: int | None = None,
    jobs: int = 1,
) -> AxiomReport:
    """Exhaustively verify the decomposition axioms on balls.

    Per-word axioms over the radius ball: (i) the pieces concatenate back to
    the word with zero cancellation, (ii) inverse symmetry, (iii) every
    contiguous piece run decomposes to exactly that run. Pairwise over the
    pair-radius ball: the three triangle factorizations hold as piece
    sequences, recording the maximal observed thick length R-hat.
    """
    if pair_radius is None:
        pair_radius = radius
    report = AxiomReport(spec.describe(), radius, pair_radius)
    ax1 = AxiomCheck("pieces-concatenate")
    ax2 = AxiomCheck("inverse-symmetry")
    ax3 = AxiomCheck("piece-runs-stable")
    ax4 = AxiomCheck("triangle-factorizations")
    report.checks = [ax1, ax2, ax3, ax4]

    rank = spec.rank
    for w in enumerate_ball(rank, radius, cap):
        letters = w.letters
        lengths = piece_lengths(spec, letters)
        cuts = boundaries(lengths)
        pieces = _pieces_from_cuts(letters, cuts)

        ax1.checked += 1
        acc: Letters = ()
        for piece in pieces:
            acc = multiply_letters(acc, piece)
        if acc != letters or sum(lengths) != len(letters) or any(not p for p in pieces):
            ax1.fail({"word": str(w)})
            continue

        ax2.checked += 1
        inv_pieces = piece_lengths(spec, invert_letters(letters))
        if inv_pieces != tuple(reversed(lengths)) or not _inverse_pieces_match(
            letters, cuts
        ):
            ax2.fail({"word": str(w)})

        ax3.checked += 1
        ok = True
        m = len(pieces)
        for i in range(m):
            for j in range(i + 1, m + 1):
                run = letters[cuts[i] : cuts[j]]
                if piece_lengths(spec, run) != lengths[i:j]:
                    ok = False
                    ax3.fail({"word": str(w), "run": (i + 1, j)})
                    break
            if not ok:
                break

    _check_triangles(spec, pair_radius, cap, report, ax4, jobs)
    return report


def _inverse_pieces_match(letters: Letters, cuts: tuple[int, ...]) -> bool:
    """Pieces of the inverse word are the reversed inverted pieces."""
    inv = invert_letters(letters)
    total = len(letters)
    k = len(cuts) - 1
    for idx in range(k):
        lo, hi = cuts[idx], cuts[idx + 1]
        expected = invert_letters(letters[lo:hi])
        if inv[total - hi : total - lo] != expected:
            return False
    return True


def _check_triangles(
    spec: DecompositionSpec,
    pair_radius: int,
    cap: int | None,
    report: AxiomReport,
    check: AxiomCheck,
    jobs: int = 1,
) -> None:
    ball = list(enumerate_ball(spec.rank, pair_radius, cap))
    result = parallel_triangle_scan(spec, ball, jobs, pair_radius - 1)
    check.checked = result["checked"]
    if result["counterexample"] is not None:
        check.fail(result["counterexample"])
    report.r_hat = result["r_hat"]
    report.r_hat_argmax = result["r_hat_argmax"]
    if pair_radius >= 1:
        report.r_hat_previous_radius = result["r_hat_inner"]


class _ScanData:
    """Precomputed boundary data for one ball word.

    Besides the cut positions it holds the inverse letters and the piece
    lengths of the inverse of every piece-aligned prefix (keyed by lead cut)
    and suffix (keyed by trail cut): the two corner segments of a third side
    ``(gh)^-1`` are exactly such inverses.
    """

    __slots__ = (
        "letters",
        "inverse",
        "lead_list",
        "lead_set",
        "trail_list",
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
        self.lead_list = cuts
        self.lead_set = set(cuts)
        self.trail_list = tuple(total - c for c in reversed(cuts))
        self.index = {pos: i for i, pos in enumerate(cuts)}
        self.inv_prefix = {k: piece_lengths(spec, inv[total - k :]) for k in cuts}
        self.inv_suffix = {k: piece_lengths(spec, inv[:k]) for k in self.trail_list}


def triangle_scan(
    spec: DecompositionSpec, left: list[Word], right: list[Word], inner_radius: int = -1
) -> tuple[int, dict | None, int, dict | None, int]:
    """Check triangle factorizations for all pairs; track max thick length.

    The per-pair check decomposes the third side ``(gh)^-1`` and its middle
    segment fresh; its two corner segments are the inverses of a
    piece-aligned suffix of ``h`` and prefix of ``g``, whose piece lengths
    are read from per-word tables, and the check compares those letters.
    Piece runs within ``g`` and ``h`` themselves are covered by the
    exhaustive per-word run checks, so here only their boundary data is
    consulted.

    Returns (checked, first counterexample or None, r_hat, argmax info,
    r_hat over the pairs with ``|g|, |h| <= inner_radius`` or -1 if none).
    """
    data: dict[Letters, _ScanData] = {}
    for w in right:
        data[w.letters] = _ScanData(spec, w.letters)
    for w in left:
        if w.letters not in data:
            data[w.letters] = _ScanData(spec, w.letters)
    rows = [data[w.letters] for w in right]

    get_lengths = piece_lengths
    counterexample = None
    r_hat = -1
    r_inner = -1
    argmax = None
    rank = spec.rank
    for g in left:
        dg = data[g.letters]
        a = dg.letters
        la = len(a)
        inv_a = dg.inverse
        g_lead, g_trail, g_index = dg.lead_list, dg.trail_list, dg.index
        g_inv_prefix = dg.inv_prefix
        g_inner = la <= inner_radius
        for dh in rows:
            b = dh.letters
            lb = len(b)
            inv_b = dh.inverse

            c = 0
            m = la if la < lb else lb
            while c < m and a[la - 1 - c] == -b[c]:
                c += 1
            ghinv = inv_b[: lb - c] + inv_a[c:]
            total = la + lb - 2 * c

            full = get_lengths(spec, ghinv)
            lead_ghinv = set(itertools.accumulate(full, initial=0))

            len2 = 0
            for pos in g_trail:
                if pos > c:
                    break
                if pos in dh.lead_set:
                    len2 = pos
            len1 = 0
            cap1 = la - c
            for pos in g_lead:
                if pos > cap1:
                    break
                if total - pos in lead_ghinv:
                    len1 = pos
            len3 = 0
            cap3 = lb - c
            for pos in dh.trail_list:
                if pos > cap3:
                    break
                if pos in lead_ghinv:
                    len3 = pos

            seg_mid = get_lengths(spec, ghinv[len3 : total - len1])
            # The end segments' piece lengths are looked up in the tables of
            # h and g; the letter comparisons show the segments are the
            # tabled words (they restate gh[:len1] == g[:len1] and
            # gh[-len3:] == h[-len3:] on the inverse), so the lookups are exact.
            ok = (
                dh.inv_suffix[len3] + seg_mid + g_inv_prefix[len1] == full
                and ghinv[total - len1 :] == inv_a[la - len1 :]
                and ghinv[:len3] == inv_b[:len3]
                and a[la - len2 :] == inv_b[lb - len2 :]
            )
            if not ok:
                if counterexample is None:
                    counterexample = {
                        "g": str(_make(a, rank)),
                        "h": str(_make(b, rank)),
                    }
                continue
            n_r1 = g_index[la - len2] - g_index[len1]
            n_r2 = dh.index[lb - len3] - dh.index[len2]
            n_r3 = len(seg_mid)
            worst = n_r1 if n_r1 >= n_r2 else n_r2
            if n_r3 > worst:
                worst = n_r3
            if worst > r_hat:
                r_hat = worst
                argmax = {
                    "g": str(_make(a, rank)),
                    "h": str(_make(b, rank)),
                    "thick_lengths": (n_r1, n_r2, n_r3),
                }
            if worst > r_inner and g_inner and lb <= inner_radius:
                r_inner = worst
    return len(left) * len(right), counterexample, max(r_hat, 0), argmax, r_inner


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


def measure_r_hat(
    spec: DecompositionSpec, pair_radius: int, cap: int | None = None, jobs: int = 1
) -> int:
    """Max observed thick length over all pairs in the pair-radius ball."""
    report = AxiomReport(spec.describe(), 0, pair_radius)
    check = AxiomCheck("triangle-factorizations")
    report.checks = [check]
    _check_triangles(spec, pair_radius, cap, report, check, jobs)
    if not check.passed:
        raise UsageError(
            f"triangle factorization failed while measuring R-hat: {check.counterexample}"
        )
    return report.r_hat

