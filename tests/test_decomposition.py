import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench import decomposition
from massey_workbench._parallel import parallel_triangle_scan
from massey_workbench.decomposition import (
    DecompositionSpec,
    check_axioms,
    decompose,
    is_non_self_overlapping,
    measure_r_hat,
    prefix_product,
    suffix_product,
    triangle_scan,
    triangle_split,
    verify_triangle,
)
from massey_workbench.errors import ConfigError, UsageError
from massey_workbench.words import Word, enumerate_ball, parse_word, sample_word

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
    occ = brute_occurrences(g.letters, W("ab").letters)
    occ_inv = brute_occurrences(g.letters, W("BA").letters)
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
    w = W("ab").letters
    winv = W("BA").letters
    expected = sorted(
        brute_occurrences(g.letters, w) + brute_occurrences(g.letters, winv)
    )
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


def brute_non_self_overlapping(w: Word) -> bool:
    """Oracle: look for two distinct overlapping occurrences of w or w^-1
    inside every reduced word assembled from w against itself."""
    patterns = [w.letters, w.inverse().letters]
    m = len(w)
    for p1, p2 in itertools.product(patterns, repeat=2):
        for shift in range(1, m):
            # overlay p2 shifted over p1; consistent overlap means trouble
            if all(p1[shift + i] == p2[i] for i in range(m - shift)):
                return False
    return w.letters != w.inverse().letters


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


def test_prefix_suffix_products():
    assert prefix_product(BROOKS_AB, W("aabab"), 2) == W("a")
    assert prefix_product(BROOKS_AB, W("aabab"), 1) == W("1")
    assert prefix_product(LETTER, W("ab"), 2) == W("a")
    assert suffix_product(BROOKS_AB, W("aabab"), 2) == W("ab")
    assert suffix_product(BROOKS_AB, W("aabab"), 3) == W("1")
    assert suffix_product(ROLLI, parse_word("a^3b^-2a", 2), 1) == parse_word("b^-2a", 2)
    with pytest.raises(UsageError):
        prefix_product(LETTER, W("ab"), 3)
    with pytest.raises(UsageError):
        suffix_product(LETTER, W("ab"), 0)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_prefix_piece_suffix_reassembles(seed):
    for spec in (LETTER, ROLLI, BROOKS_AB):
        g = sample_word(2, (seed % 12) + 1, seed)
        pieces = decompose(spec, g)
        for j in range(1, len(pieces) + 1):
            assert (
                prefix_product(spec, g, j) * pieces[j - 1] * suffix_product(spec, g, j)
                == g
            )


def test_triangle_letter_example():
    tri = triangle_split(LETTER, W("ab"), W("Ba"))
    assert (tri.c1, tri.c2, tri.c3) == (W("A"), W("b"), W("a"))
    assert tri.r1 == tri.r2 == tri.r3 == W("1")
    assert tri.thick_lengths == (0, 0, 0)


def test_triangle_reduced_product_has_trivial_c2():
    # when gh is already reduced the cancelled corner is empty
    for g, h in [(W("ab"), W("ab")), (W("aab"), W("ba")), (W("b"), W("a"))]:
        assert g.letters[-1] != -h.letters[0]
        tri = triangle_split(LETTER, g, h)
        assert tri.c2 == W("1")


def test_triangle_degenerate_brooks():
    g, h = W("ab"), W("BA")
    tri = triangle_split(BROOKS_AB, g, h)
    assert tri.c2 == W("ab")
    assert verify_triangle(BROOKS_AB, g, h, tri)


@given(st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_triangle_factorizations_random(seed):
    g = sample_word(2, seed % 14, seed)
    h = sample_word(2, (seed // 7) % 14, seed + 1)
    for spec in (LETTER, ROLLI, BROOKS_AB):
        tri = triangle_split(spec, g, h)
        assert verify_triangle(spec, g, h, tri)


def test_check_axioms_letter_small():
    report = check_axioms(LETTER, radius=4, pair_radius=3)
    assert report.passed
    assert report.r_hat == 0
    names = [c.name for c in report.checks]
    assert names == [
        "pieces-concatenate",
        "inverse-symmetry",
        "piece-runs-stable",
        "triangle-factorizations",
    ]


def test_check_axioms_rolli_and_brooks_small():
    for spec in (ROLLI, BROOKS_AB):
        report = check_axioms(spec, radius=4, pair_radius=3)
        assert report.passed
        assert report.r_hat >= 0
        assert report.to_json()["passed"] is True


def test_measure_r_hat_consistent_with_triangle_split():
    for spec in (LETTER, ROLLI, BROOKS_AB):
        ball = list(enumerate_ball(2, 3))
        naive = max(
            max(triangle_split(spec, g, h).thick_lengths) for g in ball for h in ball
        )
        assert measure_r_hat(spec, 3) == naive


def test_spec_validation():
    with pytest.raises(ConfigError):
        DecompositionSpec("letters", 2)
    with pytest.raises(ConfigError):
        DecompositionSpec("letter", 2, W("ab"))
    with pytest.raises(ConfigError):
        DecompositionSpec("brooks", 3, W("ab"))  # rank mismatch
    with pytest.raises(UsageError):
        decompose(LETTER, parse_word("a", 3))


def test_check_axioms_parallel_matches_serial():
    for spec in (LETTER, ROLLI, BROOKS_AB, BROOKS_AAB):
        serial = check_axioms(spec, radius=3, pair_radius=3, jobs=1)
        parallel = check_axioms(spec, radius=3, pair_radius=3, jobs=2)
        assert serial.to_json() == parallel.to_json()


def naive_triangle_scan(spec, ball):
    """Oracle for triangle_scan: triangle_split and verify_triangle on every pair."""
    counterexample, r_hat, argmax = None, -1, None
    for g in ball:
        for h in ball:
            tri = triangle_split(spec, g, h)
            if not verify_triangle(spec, g, h, tri):
                if counterexample is None:
                    counterexample = {"g": str(g), "h": str(h)}
                continue
            worst = max(tri.thick_lengths)
            if worst > r_hat:
                r_hat = worst
                argmax = {"g": str(g), "h": str(h), "thick_lengths": tri.thick_lengths}
    return len(ball) ** 2, counterexample, max(r_hat, 0), argmax


@pytest.mark.parametrize(
    "spec, radius",
    [(LETTER, 4), (ROLLI, 4), (BROOKS_AB, 4), (BROOKS_AAB, 4), (BROOKS_ABC, 3)],
    ids=lambda v: v.describe() if isinstance(v, DecompositionSpec) else str(v),
)
def test_triangle_scan_matches_naive_oracle(spec, radius):
    ball = list(enumerate_ball(spec.rank, radius))
    assert triangle_scan(spec, ball, ball)[:4] == naive_triangle_scan(spec, ball)
    # R-hat of Brooks(aab) grows 0, 0, 2, 3, 3 over radii 0..4, so every
    # inner radius below the ball's is compared, not only radius - 1.
    for inner in range(radius):
        assert triangle_scan(spec, ball, ball, inner)[4] == measure_r_hat(spec, inner)
    previous = check_axioms(spec, 1, radius).r_hat_previous_radius
    assert previous == measure_r_hat(spec, radius - 1)
    serial = check_axioms(spec, 2, radius - 1, jobs=1).to_json()
    assert check_axioms(spec, 2, radius - 1, jobs=2).to_json() == serial


def test_triangle_scan_is_not_vacuous(monkeypatch):
    """A decomposition that breaks the triangle axiom must be caught through
    the per-word corner tables as well as through the fresh decompositions."""
    real = decomposition.piece_lengths

    def merge_last_two(spec, letters):
        lengths = real(spec, letters)
        if len(lengths) < 2:
            return lengths
        return lengths[:-2] + (lengths[-2] + lengths[-1],)

    monkeypatch.setattr(decomposition, "piece_lengths", merge_last_two)
    ball = list(enumerate_ball(2, 3))
    expected = {"g": "a", "h": "bab"}
    assert triangle_scan(ROLLI, ball, ball)[1] == expected
    assert parallel_triangle_scan(ROLLI, ball, 2)["counterexample"] == expected
    for jobs in (1, 2):
        report = check_axioms(ROLLI, 1, 3, jobs=jobs)
        assert report.checks[3].counterexample == expected
