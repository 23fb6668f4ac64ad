import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench.errors import ConfigError, ResourceCapError, UsageError
from massey_workbench.words import (
    Word,
    ball_size,
    enumerate_ball,
    format_word,
    parse_word,
    reduce_letters,
    sample_word,
    words_of_length,
)
from oracles import split_product
from test_letters import signed

W = lambda s: parse_word(s, 2)

raw_letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30)


def brute_reduce(seq):
    """Oracle: repeatedly delete the first cancelling adjacent pair."""
    seq = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == -seq[i + 1]:
                del seq[i : i + 2]
                changed = True
                break
    return tuple(seq)


def test_reduce_examples():
    assert Word([1, -1], 2) == W("1")
    assert Word([1, 2, -2, 1], 2) == W("aa")
    assert Word([1, 2], 2) == W("ab")


@given(raw_letters)
def test_reduce_matches_brute_force(seq):
    assert signed(reduce_letters(seq)) == brute_reduce(seq)


@given(raw_letters)
def test_reduce_idempotent(seq):
    once = reduce_letters(seq)
    assert reduce_letters(signed(once)) == once


def test_multiply_examples():
    assert W("ab") * W("Ba") == W("aa")
    g = W("abab")
    assert g * W("1") == g
    assert g * g.inverse() == W("1")


def test_multiply_rank_mismatch():
    with pytest.raises(UsageError):
        parse_word("a", 2) * parse_word("a", 3)


def test_invert_examples():
    assert W("ab").inverse() == W("BA")
    assert W("1").inverse() == W("1")
    assert W("aaa").inverse() == W("AAA")
    assert parse_word("a^3", 2).inverse() == parse_word("a^-3", 2)


words_small = st.builds(lambda seq: Word(seq, 2), raw_letters)


@given(words_small, words_small, words_small)
@settings(max_examples=200)
def test_multiply_associative(g, h, k):
    assert (g * h) * k == g * (h * k)


@given(words_small, words_small)
def test_invert_antihomomorphism(g, h):
    assert (g * h).inverse() == h.inverse() * g.inverse()
    assert g.inverse().inverse() == g


def test_split_product_examples():
    p, t, q = split_product(W("ab"), W("Ba"))
    assert (p, t, q) == (W("a"), W("b"), W("a"))
    p, t, q = split_product(W("ab"), W("ab"))
    assert (p, t, q) == (W("ab"), W("1"), W("ab"))
    p, t, q = split_product(W("ab"), W("BA"))
    assert (p, t, q) == (W("1"), W("ab"), W("1"))


@given(words_small, words_small)
def test_split_product_invariants(g, h):
    p, t, q = split_product(g, h)
    assert p * t == g
    assert t.inverse() * q == h
    assert g * h == p * q
    if p.letters and q.letters:
        assert signed(p.letters)[-1] != -signed(q.letters)[0]


def test_ball_size_closed_form():
    assert [ball_size(2, r) for r in range(5)] == [1, 5, 17, 53, 161]


def test_enumerate_ball_counts_and_reducedness():
    words = list(enumerate_ball(2, 3))
    assert len(words) == 53
    assert len(set(words)) == 53
    for w in words:
        assert reduce_letters(signed(w.letters)) == w.letters


def test_enumerate_ball_matches_brute_force():
    # generate every raw letter string of length <= 3, reduce, deduplicate
    alphabet = [1, -1, 2, -2]
    seen = {()}
    frontier = [()]
    for _ in range(3):
        frontier = [f + (x,) for f in frontier for x in alphabet]
        seen.update(brute_reduce(f) for f in frontier)
    assert sorted(seen) == sorted(signed(w.letters) for w in enumerate_ball(2, 3))


def test_enumerate_ball_cap():
    with pytest.raises(ResourceCapError):
        list(enumerate_ball(2, 10, cap=100))


def test_words_of_length_no_duplicates():
    ws = list(words_of_length(2, 4))
    assert len(ws) == len(set(ws)) == 4 * 3**3


def test_sample_word_deterministic():
    a = sample_word(2, 5, seed=42)
    b = sample_word(2, 5, seed=42)
    assert a == b and len(a) == 5
    assert sample_word(2, 0, seed=7) == W("1")


def test_sample_word_long_is_reduced():
    w = sample_word(2, 10_000, seed=3)
    assert len(w) == 10_000
    assert reduce_letters(signed(w.letters)) == w.letters


def test_parse_and_format():
    assert format_word(W("1")) == "1"
    assert format_word(parse_word("a^-1", 2)) == "A"
    assert format_word(parse_word("Ab a", 2)) == "Aba"
    assert signed(parse_word("a^2B", 2).letters) == (1, 1, -2)
    assert format_word(W("aB") * W("ba")) == "aa"


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_word("c", 2)
    with pytest.raises(ConfigError):
        parse_word("a^", 2)
    with pytest.raises(ConfigError):
        parse_word("a!", 2)
    with pytest.raises(ConfigError):
        Word([3], 2)
    # Every input letter is checked, also one that would cancel or that
    # wraps to a letter byte (257 & 0xFF is the byte of a).
    for letters in ([3, -3], [257], [0, 0]):
        with pytest.raises(ConfigError):
            Word(letters, 2)
    with pytest.raises(ConfigError):
        Word([1], 0)


def test_word_is_immutable_and_hashable():
    w = W("ab")
    with pytest.raises(AttributeError):
        w.letters = ()
    assert len({w, W("ab"), W("ba")}) == 2


def test_sample_word_uses_shared_rng_stream():
    rng = random.Random(5)
    first = sample_word(2, 8, rng)
    second = sample_word(2, 8, rng)
    assert first != second  # overwhelmingly likely; stream advanced


def test_enumeration_cap_env_override(monkeypatch):
    monkeypatch.setenv("MASSEY_WORKBENCH_ENUM_CAP", "10")
    with pytest.raises(ResourceCapError):
        list(enumerate_ball(2, 3))
    monkeypatch.delenv("MASSEY_WORKBENCH_ENUM_CAP")
    assert len(list(enumerate_ball(2, 3))) == 53
