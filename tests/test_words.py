import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench.errors import ConfigError, ResourceCapError
from massey_workbench.words import (
    ball_size,
    enumerate_ball,
    format_letters,
    invert_letters,
    multiply_letters,
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
    assert reduce_letters([1, -1]) == W("1")
    assert reduce_letters([1, 2, -2, 1]) == W("aa")
    assert reduce_letters([1, 2]) == W("ab")


@given(raw_letters)
def test_reduce_matches_brute_force(seq):
    assert signed(reduce_letters(seq)) == brute_reduce(seq)


@given(raw_letters)
def test_reduce_idempotent(seq):
    once = reduce_letters(seq)
    assert reduce_letters(signed(once)) == once


mul, inv = multiply_letters, invert_letters


def test_multiply_examples():
    assert mul(W("ab"), W("Ba")) == W("aa")
    g = W("abab")
    assert mul(g, W("1")) == g
    assert mul(g, inv(g)) == W("1")


def test_invert_examples():
    assert inv(W("ab")) == W("BA")
    assert inv(W("1")) == W("1")
    assert inv(W("aaa")) == W("AAA")
    assert inv(parse_word("a^3", 2)) == parse_word("a^-3", 2)


words_small = st.builds(reduce_letters, raw_letters)


@given(words_small, words_small, words_small)
@settings(max_examples=200)
def test_multiply_associative(g, h, k):
    assert mul(mul(g, h), k) == mul(g, mul(h, k))


@given(words_small, words_small)
def test_invert_antihomomorphism(g, h):
    assert inv(mul(g, h)) == mul(inv(h), inv(g))
    assert inv(inv(g)) == g


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
    assert mul(p, t) == g
    assert mul(inv(t), q) == h
    assert mul(g, h) == p + q
    if p and q:
        assert signed(p)[-1] != -signed(q)[0]


def test_ball_size_closed_form():
    assert [ball_size(2, r) for r in range(5)] == [1, 5, 17, 53, 161]


def test_enumerate_ball_counts_and_reducedness():
    words = list(enumerate_ball(2, 3))
    assert len(words) == 53
    assert len(set(words)) == 53
    for w in words:
        assert reduce_letters(signed(w)) == w


def test_enumerate_ball_matches_brute_force():
    # generate every raw letter string of length <= 3, reduce, deduplicate
    alphabet = [1, -1, 2, -2]
    seen = {()}
    frontier = [()]
    for _ in range(3):
        frontier = [f + (x,) for f in frontier for x in alphabet]
        seen.update(brute_reduce(f) for f in frontier)
    assert sorted(seen) == sorted(signed(w) for w in enumerate_ball(2, 3))


def test_enumerate_ball_cap():
    with pytest.raises(ResourceCapError):
        list(enumerate_ball(2, 10, cap=100))


def run_python(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """``python *args`` on this checkout's ``src`` in a child process, so a
    call that hangs fails its test at ``timeout`` instead of stalling the
    suite."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


@pytest.mark.parametrize(
    "call, rank",
    [
        ("random_aligned_tuples(0, 2, 1, 3, 0)", 0),
        ("sample_word(0, 3, 1)", 0),
        ("sample_word(27, 6, 1)", 27),
        ("list(enumerate_ball(128, 1))", 128),
    ],
)
def test_enumerators_and_samplers_check_the_rank(call, rank):
    """Every enumerator and sampler raises the one rank error outside
    [1, 26]. These calls once looped forever, raised ``IndexError``,
    returned ``eS?ycI`` and yielded 257 words in which byte 128 is its own
    inverse."""
    code = (
        "from massey_workbench.cochain import random_aligned_tuples\n"
        "from massey_workbench.words import enumerate_ball, sample_word\n"
        f"{call}\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 1
    last = done.stderr.strip().splitlines()[-1]
    assert last == f"massey_workbench.errors.ConfigError: rank must be in [1, 26], got {rank}"


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
    assert reduce_letters(signed(w)) == w


def test_parse_and_format():
    assert format_letters(W("1")) == "1"
    assert format_letters(parse_word("a^-1", 2)) == "A"
    assert format_letters(parse_word("Ab a", 2)) == "Aba"
    assert signed(parse_word("a^2B", 2)) == (1, 1, -2)
    assert format_letters(mul(W("aB"), W("ba"))) == "aa"
    assert parse_word("a^2 A^2 b", 2) == W("b")


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_word("c", 2)
    with pytest.raises(ConfigError):
        parse_word("a^", 2)
    with pytest.raises(ConfigError):
        parse_word("a!", 2)
    # Every letter is checked, also one that would cancel.
    with pytest.raises(ConfigError):
        parse_word("cC", 2)
    with pytest.raises(ConfigError):
        parse_word("a", 0)
    with pytest.raises(ConfigError):
        parse_word("1", 27)


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
