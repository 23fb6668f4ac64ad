import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench import decomposition
from massey_workbench.decomposition import (
    DecompositionSpec,
    boundaries,
    check_axioms,
    cut_flags,
    is_non_self_overlapping,
    measure_r_hat,
    piece_lengths,
    triangle_scan,
    triangle_split,
)
from massey_workbench.errors import ConfigError, UsageError
from massey_workbench.report import strip_timing
from massey_workbench.words import (
    cancelled_length,
    enumerate_ball,
    format_letters,
    invert_letters,
    multiply_letters,
    parse_word,
    sample_word,
)
import oracles
from oracles import decompose, verify_triangle
from test_letters import signed

W = lambda s: parse_word(s, 2)

LETTER = DecompositionSpec("letter", 2)
ROLLI = DecompositionSpec("rolli", 2)
BROOKS_AB = DecompositionSpec("brooks", 2, W("ab"))
BROOKS_AAB = DecompositionSpec("brooks", 2, W("aab"))
BROOKS_ABC = DecompositionSpec("brooks", 3, parse_word("abC", 3))


def brute_occurrences(haystack, needle):
    """Oracle: all start offsets where needle occurs in haystack."""
    n, m = len(haystack), len(needle)
    return [i for i in range(n - m + 1) if haystack[i : i + m] == needle]


def test_decompose_examples():
    assert decompose(LETTER, W("ab")) == (W("a"), W("b"))
    assert decompose(ROLLI, parse_word("a^3 b^-2 a", 2)) == (
        parse_word("a^3", 2),
        parse_word("b^-2", 2),
        W("a"),
    )
    assert decompose(BROOKS_AB, W("aabab")) == (W("a"), W("ab"), W("ab"))


def test_brooks_occurrences_match_brute_force():
    # every occurrence of ab or BA in aabab must become a piece
    g = W("aabab")
    occ = brute_occurrences(g, W("ab"))
    occ_inv = brute_occurrences(g, W("BA"))
    assert occ == [1, 3] and occ_inv == []
    starts = []
    pos = 0
    for p in decompose(BROOKS_AB, g):
        if len(p) == 2:
            starts.append(pos)
        pos += len(p)
    assert starts == occ


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_brooks_pieces_are_exactly_all_occurrences(seed):
    g = sample_word(2, seed % 40, seed)
    expected = sorted(brute_occurrences(g, W("ab")) + brute_occurrences(g, W("BA")))
    starts = []
    pos = 0
    for p in decompose(BROOKS_AB, g):
        if len(p) == 2:
            starts.append(pos)
        pos += len(p)
    assert starts == expected


def test_non_self_overlapping_examples():
    assert is_non_self_overlapping(W("ab")) is True
    assert is_non_self_overlapping(W("aa")) is False
    assert is_non_self_overlapping(W("aba")) is False


def brute_non_self_overlapping(w: bytes) -> bool:
    """Oracle: look for two distinct overlapping occurrences of w or w^-1
    inside every reduced word assembled from w against itself."""
    patterns = [w, invert_letters(w)]
    m = len(w)
    for p1, p2 in itertools.product(patterns, repeat=2):
        for shift in range(1, m):
            # overlay p2 shifted over p1; consistent overlap means trouble
            if all(p1[shift + i] == p2[i] for i in range(m - shift)):
                return False
    return w != invert_letters(w)


@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_non_self_overlapping_matches_brute_force(seed):
    w = sample_word(2, (seed % 5) + 1, seed)
    assert is_non_self_overlapping(w) == brute_non_self_overlapping(w)


def test_non_self_overlapping_empty_word():
    with pytest.raises(UsageError):
        is_non_self_overlapping(W("1"))


def test_brooks_spec_rejects_self_overlapping():
    with pytest.raises(ConfigError):
        DecompositionSpec("brooks", 2, W("aa"))
    with pytest.raises(ConfigError):
        DecompositionSpec("brooks", 2, W("1"))


def around_piece(spec, g, j):
    """The products of the pieces before and after the j-th piece of ``g``,
    sliced from its cut positions as the eta sums slice them."""
    cuts = boundaries(piece_lengths(spec, g))
    return g[: cuts[j - 1]], g[cuts[j] :]


def test_prefix_suffix_products():
    assert around_piece(BROOKS_AB, W("aabab"), 2) == (W("a"), W("ab"))
    assert around_piece(BROOKS_AB, W("aabab"), 1) == (W("1"), W("abab"))
    assert around_piece(LETTER, W("ab"), 2) == (W("a"), W("1"))
    assert around_piece(BROOKS_AB, W("aabab"), 3) == (W("aab"), W("1"))
    assert around_piece(ROLLI, parse_word("a^3b^-2a", 2), 1) == (W("1"), parse_word("b^-2a", 2))


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_prefix_piece_suffix_reassembles(seed):
    for spec in (LETTER, ROLLI, BROOKS_AB):
        g = sample_word(2, (seed % 12) + 1, seed)
        pieces = decompose(spec, g)
        for j in range(1, len(pieces) + 1):
            before, after = around_piece(spec, g, j)
            assert before + pieces[j - 1] + after == g


def test_triangle_letter_example():
    tri = triangle_split(LETTER, W("ab"), W("Ba"))
    assert (tri.c1, tri.c2, tri.c3) == (W("A"), W("b"), W("a"))
    assert tri.r1 == tri.r2 == tri.r3 == W("1")
    assert tri.thick_lengths == (0, 0, 0)


def test_triangle_reduced_product_has_trivial_c2():
    # when gh is already reduced the cancelled corner is empty
    for g, h in [(W("ab"), W("ab")), (W("aab"), W("ba")), (W("b"), W("a"))]:
        assert signed(g)[-1] != -signed(h)[0]
        tri = triangle_split(LETTER, g, h)
        assert tri.c2 == W("1")


def test_triangle_degenerate_brooks():
    g, h = W("ab"), W("BA")
    tri = triangle_split(BROOKS_AB, g, h)
    assert tri.c2 == W("ab")
    assert verify_triangle(BROOKS_AB, g, h, tri)


SPECS = (LETTER, ROLLI, BROOKS_AB, BROOKS_AAB, BROOKS_ABC)


@st.composite
def tripod_pairs(draw):
    """A spec and a pair of words of up to 40 letters; ``h`` often starts by
    cancelling a tail of ``g``, so that the middle corner is exercised."""
    spec = draw(st.sampled_from(SPECS))
    rank = spec.rank
    g = sample_word(rank, draw(st.integers(0, 40)), draw(st.integers(0, 2**32)))
    cancel = draw(st.integers(0, len(g)))
    rest = sample_word(rank, draw(st.integers(0, 40 - cancel)), draw(st.integers(0, 2**32)))
    h = multiply_letters(invert_letters(g[len(g) - cancel :]), rest)
    return spec, g, h


@given(tripod_pairs())
@settings(max_examples=400, deadline=None)
def test_triangle_factorizations_random(case):
    """The one-pair tripod core against the oracle's own corner search. The
    oracle decomposes every corner and remainder fresh, so the counts read
    from cut indices (``thick_lengths``, ``corner_counts``) are compared
    with fresh decompositions."""
    spec, g, h = case
    tri = triangle_split(spec, g, h)
    expect = oracles.triangle_split(spec, g, h)
    for name in ("c1", "c2", "c3", "r1", "r2", "r3", "thick_lengths", "corner_counts"):
        assert getattr(tri, name) == getattr(expect, name), name
    assert verify_triangle(spec, g, h, tri)


def test_check_axioms_letter_small():
    report = check_axioms(LETTER, radius=4, pair_radius=3)
    assert report.passed
    assert report.notes["r_hat"] == 0
    names = [c.name for c in report.stages]
    assert names == [
        "pieces-concatenate",
        "inverse-symmetry",
        "piece-runs-stable",
        "triangle-factorizations",
        "r-hat-stabilization",
    ]
    unstable = check_axioms(LETTER, radius=4, pair_radius=3, stabilize=False)
    assert [c.name for c in unstable.stages] == names[:4]


def test_check_axioms_rolli_and_brooks_small():
    for spec in (ROLLI, BROOKS_AB):
        report = check_axioms(spec, radius=4, pair_radius=3)
        assert report.passed
        assert report.notes["r_hat"] >= 0
        assert report.to_json()["overall_status"] == "pass"


def test_measure_r_hat_consistent_with_triangle_split():
    for spec in (LETTER, ROLLI, BROOKS_AB):
        ball = list(enumerate_ball(2, 3))
        naive = max(
            max(oracles.triangle_split(spec, g, h).thick_lengths) for g in ball for h in ball
        )
        assert measure_r_hat(spec, 3) == naive


def test_spec_validation():
    with pytest.raises(ConfigError):
        DecompositionSpec("letters", 2)
    with pytest.raises(ConfigError):
        DecompositionSpec("letter", 2, W("ab"))


def test_brooks_word_letters_must_fit_the_rank():
    DecompositionSpec("brooks", 3, parse_word("aC", 3))
    for letters in (parse_word("aC", 3), parse_word("ac", 3), b"\x01\x00", b"\x01\x80"):
        with pytest.raises(ConfigError, match="outside rank 2"):
            DecompositionSpec("brooks", 2, letters)


def test_check_axioms_parallel_matches_serial():
    for spec in (LETTER, ROLLI, BROOKS_AB, BROOKS_AAB):
        serial = check_axioms(spec, radius=3, pair_radius=3, jobs=1)
        parallel = check_axioms(spec, radius=3, pair_radius=3, jobs=2)
        assert strip_timing(serial.to_json()) == strip_timing(parallel.to_json())


def naive_triangle_scan(spec, left, right, inner_radius=-1):
    """Oracle for triangle_scan: the oracle's triangle_split and
    verify_triangle on every pair, in row-major order."""
    counterexample, r_hat, argmax, r_inner = None, -1, None, -1
    for g in left:
        for h in right:
            tri = oracles.triangle_split(spec, g, h)
            if not verify_triangle(spec, g, h, tri):
                if counterexample is None:
                    counterexample = {"g": format_letters(g), "h": format_letters(h)}
                continue
            worst = max(tri.thick_lengths)
            if worst > r_hat:
                r_hat = worst
                argmax = {
                    "g": format_letters(g),
                    "h": format_letters(h),
                    "thick_lengths": tri.thick_lengths,
                }
            if len(g) <= inner_radius and len(h) <= inner_radius:
                r_inner = max(r_inner, worst)
    return len(left) * len(right), counterexample, max(r_hat, 0), argmax, r_inner


@pytest.mark.parametrize(
    "spec, radius",
    [(LETTER, 4), (ROLLI, 4), (BROOKS_AB, 4), (BROOKS_AAB, 4), (BROOKS_ABC, 3)],
    ids=lambda v: v.describe() if isinstance(v, DecompositionSpec) else str(v),
)
def test_triangle_scan_matches_naive_oracle(spec, radius):
    ball = list(enumerate_ball(spec.rank, radius))
    naive = naive_triangle_scan(spec, ball, ball)
    assert triangle_scan(spec, ball, ball) == naive
    for jobs in (1, 2):
        report = check_axioms(spec, 1, radius, jobs=jobs)
        triangles = report.stages[3]
        assert (triangles.checked, triangles.counterexample) == naive[:2]
        assert (report.notes["r_hat"], report.notes["r_hat_argmax"]) == naive[2:4]
    # R-hat of Brooks(aab) grows 0, 0, 2, 3, 3 over radii 0..4, so every
    # inner radius below the ball's is compared, not only radius - 1.
    for inner in range(radius):
        assert triangle_scan(spec, ball, ball, inner)[4] == measure_r_hat(spec, inner)
        stabilization = check_axioms(spec, 0, inner + 1).stages[-1]
        previous = stabilization.stats["r_hat_previous_radius"]
        assert previous == measure_r_hat(spec, inner)
    serial = strip_timing(check_axioms(spec, 2, radius - 1, jobs=1).to_json())
    assert strip_timing(check_axioms(spec, 2, radius - 1, jobs=2).to_json()) == serial


def merge_last_two(flags):
    """Clear the last start flag of a word with two pieces or more."""
    if flags.count(1) < 2:
        return flags
    last = flags.rindex(1)
    return flags[:last] + b"\0" + flags[last + 1 :]


def merge_first_two(flags):
    """Clear the second start flag of a word with two pieces or more."""
    if flags.count(1) < 2:
        return flags
    second = flags.index(1, 1)
    return flags[:second] + b"\0" + flags[second + 1 :]


def per_segment_kernel(mutate, longer_than=-1):
    """A ``cut_flags`` that applies ``mutate`` to the flags of every
    ``_SEP``-separated word longer than ``longer_than`` letters, as if each
    word had been decomposed by its own call."""
    real = decomposition.cut_flags

    def kernel(spec, letters):
        flags = bytearray(real(spec, letters))
        start = 0
        for part in letters.split(decomposition._SEP):
            end = start + len(part)
            if len(part) > longer_than:
                flags[start:end] = mutate(bytes(flags[start:end]))
            start = end + 1
        return bytes(flags)

    return kernel


# Every family at ranks 1, 2, 3 and 26, each Brooks word from the
# least rank that holds it.
SCAN_SPECS = [
    DecompositionSpec(family, rank)
    for family in ("letter", "rolli")
    for rank in (1, 2, 3, 26)
] + [
    DecompositionSpec("brooks", rank, parse_word(text, rank))
    for text, least in (("a", 1), ("ab", 2), ("aab", 2), ("abC", 3))
    for rank in (1, 2, 3, 26)
    if rank >= least
]


@st.composite
def scan_lists(draw):
    """A spec, two independently drawn lists and an inner radius. The lists
    draw from a pool of words of up to 8 letters, their inverses and the
    empty word, so they hold duplicates and pairs with ``h = g^-1``; in
    about half the cases a row ``g`` is added whose every column cancels
    against it."""
    spec = draw(st.sampled_from(SCAN_SPECS))
    rank = spec.rank
    draws = st.tuples(st.integers(0, 8), st.integers(0, 2**32))
    pool = [sample_word(rank, n, seed) for n, seed in draw(st.lists(draws, min_size=1, max_size=5))]
    pool += [invert_letters(w) for w in pool] + [b""]
    left = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    right = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    g = pool[0]
    tails = [
        multiply_letters(invert_letters(g), sample_word(rank, n, seed))
        for n, seed in draw(st.lists(draws))
    ]
    cancelling = [h for h in [invert_letters(g), *tails] if cancelled_length(g, h)]
    if cancelling and draw(st.booleans()):
        left.insert(draw(st.integers(0, len(left))), g)
        right = draw(st.lists(st.sampled_from(cancelling), min_size=1, max_size=6))
    return spec, left, right, draw(st.integers(-1, 9))


@given(scan_lists())
@settings(max_examples=300, deadline=None)
def test_triangle_scan_matches_naive_oracle_on_lists(case):
    """The whole scan result, row batching included, against the oracle on
    non-square lists: checked count, first counterexample, R-hat, its
    argmax and the inner R-hat."""
    spec, left, right, inner = case
    assert triangle_scan(spec, left, right, inner) == naive_triangle_scan(
        spec, left, right, inner
    )


def test_triangle_scan_is_not_vacuous(monkeypatch):
    """A decomposition that breaks the triangle axiom must be caught through
    the per-word corner tables as well as through the fresh decompositions,
    by the scan and by the one-pair call alike. The one kernel is patched,
    so every decomposition of the module (cut flags, the piece lengths read
    off them, and each word of a row's joined products) merges the last two
    pieces."""
    monkeypatch.setattr(decomposition, "cut_flags", per_segment_kernel(merge_last_two))
    ball = list(enumerate_ball(2, 3))
    expected = {"g": "a", "h": "bab"}
    assert triangle_scan(ROLLI, ball, ball)[1] == expected
    for jobs in (1, 2):
        report = check_axioms(ROLLI, 1, 3, jobs=jobs)
        assert report.stages[3].counterexample == expected
    with pytest.raises(UsageError, match="g = a, h = bab"):
        triangle_split(ROLLI, W("a"), W("bab"))


@pytest.mark.parametrize(
    "spec, expected",
    [(LETTER, {"g": "aa", "h": "aa"}), (ROLLI, {"g": "ab", "h": "ab"})],
    ids=["letter", "rolli"],
)
def test_triangle_scan_reads_corner_tables(monkeypatch, spec, expected):
    """Merging the first two pieces of every word leaves the first corner
    segment of each product right but breaks the inverse-prefix table
    entries of ``g``, so this failure is caught by the comparison of the
    ``c1`` segment's tabled flags with the product's."""
    monkeypatch.setattr(decomposition, "cut_flags", per_segment_kernel(merge_first_two))
    ball = list(enumerate_ball(2, 3))
    assert triangle_scan(spec, ball, ball)[1] == expected


@pytest.mark.parametrize(
    "spec, expected",
    [(LETTER, "aaa"), (ROLLI, "aba"), (BROOKS_AB, "aaa")],
    ids=["letter", "rolli", "brooks(ab)"],
)
def test_triangle_scan_reads_product_flags(monkeypatch, spec, expected):
    """Only words longer than the ball radius are decomposed wrongly, so
    every per-word table (ball words and their corner segments) is right
    and only products and long middles are wrong: the scan must still
    fail, so the flags it checks come from the products themselves."""
    ball = list(enumerate_ball(2, 3))
    assert triangle_scan(spec, ball, ball)[1] is None
    monkeypatch.setattr(decomposition, "cut_flags", per_segment_kernel(merge_last_two, 3))
    assert triangle_scan(spec, ball, ball)[1] == {"g": "a", "h": expected}


def _marks(*patterns, count=-1):
    """A Brooks(ab) kernel that marks only ``patterns``, each at most
    ``count`` times (all occurrences by default)."""

    def kernel(spec, letters):
        _, _, mark = spec.brooks_patterns
        for pattern in patterns:
            letters = letters.replace(pattern, mark, count)
        return letters.translate(decomposition._STARTS)

    return kernel


def _first_flag_zero(spec, letters):
    flags = cut_flags(spec, letters)
    return b"\0" + flags[1:] if flags else flags


@pytest.mark.parametrize(
    "kernel,stage,counterexample",
    [
        (_marks(W("ab")), "inverse-symmetry", {"word": "ab"}),
        (_first_flag_zero, "pieces-concatenate", {"word": "a"}),
        (
            _marks(W("ab"), W("BA"), count=1),
            "piece-runs-stable",
            {"word": "abab", "run": (2, 3)},
        ),
    ],
    ids=["marks-only-w", "first-flag-zero", "first-occurrence-only"],
)
def test_word_axiom_stages_are_not_vacuous(monkeypatch, kernel, stage, counterexample):
    """Each per-word axiom stage fails, with its counterexample, for a
    broken cut-flags kernel. Pair radius 0 keeps the triangle scan to the
    identity, away from the broken pieces."""
    monkeypatch.setattr(decomposition, "cut_flags", kernel)
    report = check_axioms(BROOKS_AB, 4, 0, stabilize=False)
    failed = {s.name: s.counterexample for s in report.stages if not s.passed}
    assert failed[stage] == counterexample
