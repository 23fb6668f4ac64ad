"""Differential tests of the cut-flag kernels.

``decomposition.cut_flags`` (one C-level pass per family) and the piece
lengths read off it are compared with the per-family loops of
``tests/oracles.py`` on every rank from 1 to 26, on Brooks words of length
1 to 5, and on entries of up to 400 letters into which pieces of the family
(occurrences of ``w`` and ``w^-1``, letter powers) are forced. Each broken
kernel below must make the comparison fail.
"""

import operator
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from massey_workbench import decomposition
from massey_workbench.decomposition import DecompositionSpec
from massey_workbench.words import (
    invert_letters,
    multiply_letters,
    parse_word,
    reduce_letters,
    sample_word,
)

# Brooks words with the smallest rank that holds them; the spec rejects a
# self-overlapping word, so each of these is a valid pattern.
BROOKS_WORDS = (("a", 1), ("ab", 2), ("aab", 2), ("abC", 3), ("aaabb", 2))
MAX_LETTERS = 400


@st.composite
def specs(draw):
    family = draw(st.sampled_from(("letter", "rolli", "brooks")))
    if family != "brooks":
        return DecompositionSpec(family, draw(st.integers(1, 26)))
    text, least = draw(st.sampled_from(BROOKS_WORDS))
    rank = draw(st.integers(least, 26))
    return DecompositionSpec("brooks", rank, parse_word(text, rank))


@st.composite
def entries(draw):
    """A spec and a reduced entry of 0 to 400 letters: random words with
    forced pieces between them (``w`` or ``w^-1`` for Brooks, a letter power
    otherwise), cut to at most 400 letters."""
    spec = draw(specs())
    rank = spec.rank
    entry = b""
    for _ in range(draw(st.integers(0, 12))):
        sampled = sample_word(rank, draw(st.integers(0, 60)), draw(st.integers(0, 2**32)))
        entry = multiply_letters(entry, sampled)
        if spec.family == "brooks":
            w = spec.brooks_word
            forced = w if draw(st.booleans()) else invert_letters(w)
        else:
            x = draw(st.integers(1, rank)) * draw(st.sampled_from((1, -1)))
            forced = reduce_letters((x,) * draw(st.integers(1, 6)))
        entry = multiply_letters(entry, forced)
    return spec, entry[:MAX_LETTERS]


@given(entries())
@settings(max_examples=300, deadline=None)
def test_cut_flags_match_oracle(case):
    spec, letters = case
    # One assertion, so a broken kernel fails at one site.
    assert (
        decomposition.cut_flags(spec, letters),
        decomposition.piece_lengths(spec, letters),
    ) == (oracles.cut_flags(spec, letters), oracles.piece_lengths(spec, letters))


@given(entries(), st.lists(st.integers(0, MAX_LETTERS)))
@settings(max_examples=300, deadline=None)
def test_cut_flags_are_local_to_separator_segments(case, cuts):
    """Cut at random points (repeated points give empty words), an entry
    becomes a list of reduced words, with pieces of the family split
    across the cuts. The flags of the ``_SEP``-joined list, sliced at the
    separators, are the flags of each word on its own."""
    spec, letters = case
    bounds = [0, *sorted(min(c, len(letters)) for c in cuts), len(letters)]
    parts = [letters[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    joined = decomposition.cut_flags(spec, decomposition._SEP.join(parts))
    start = 0
    for part in parts:
        assert joined[start : start + len(part)] == decomposition.cut_flags(spec, part)
        start += len(part) + 1


def test_separator_is_no_letter_or_mark_byte():
    sep = decomposition._SEP
    letter_bytes = set(parse_word(string.ascii_letters, 26))
    mark = DecompositionSpec("brooks", 2, parse_word("ab", 2)).brooks_patterns[2]
    assert len(sep) == 1 and set(mark) == {0, 0x7F}
    assert sep[0] not in letter_bytes | set(mark)


def test_cut_flags_examples():
    brooks = DecompositionSpec("brooks", 2, parse_word("ab", 2))
    rolli = DecompositionSpec("rolli", 2)
    letters = parse_word("aabaBAb", 2)
    assert decomposition.cut_flags(brooks, letters) == b"\1\1\0\1\1\0\1"
    assert decomposition.piece_lengths(brooks, letters) == (1, 2, 1, 2, 1)
    assert decomposition.cut_flags(rolli, letters) == b"\1\0\1\1\1\1\1"
    assert decomposition.cut_flags(DecompositionSpec("letter", 2), b"") == b""
    assert decomposition.piece_lengths(rolli, b"") == ()


def _brooks_replaces_only_w(spec, letters):
    if spec.family != "brooks":
        return REAL_CUT_FLAGS(spec, letters)
    w, _, mark = spec.brooks_patterns
    return letters.replace(w, mark).translate(decomposition._STARTS)


def _brooks_mark_is_a_start(spec, letters):
    if spec.family != "brooks":
        return REAL_CUT_FLAGS(spec, letters)
    w, winv, mark = spec.brooks_patterns
    return letters.replace(w, mark).replace(winv, mark).translate(b"\1" * 256)


def _rolli_compares_next(spec, letters):
    if spec.family != "rolli":
        return REAL_CUT_FLAGS(spec, letters)
    return bytes(map(operator.ne, letters, letters[1:] + b"\0"))


REAL_CUT_FLAGS = decomposition.cut_flags


@pytest.mark.parametrize(
    "broken", [_brooks_replaces_only_w, _brooks_mark_is_a_start, _rolli_compares_next]
)
def test_differential_test_catches_broken_kernels(monkeypatch, broken):
    monkeypatch.setattr(decomposition, "cut_flags", broken)
    with pytest.raises(AssertionError):
        test_cut_flags_match_oracle()
