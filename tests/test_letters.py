"""Differential tests of the packed letter encoding.

Words are ``bytes`` with one signed byte per letter (``x & 0xFF``). The
signed-int tuple implementations the library used before are kept here as
oracles, and every packed operation is compared with them on random letter
lists for ranks 1 to 26, whose extreme letters +-26 are bytes 26 and 230.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench import quasimorphism, words
from massey_workbench._parallel import Scan
from massey_workbench.cochain import aligned_letters, random_aligned_tuples
from massey_workbench.decomposition import DecompositionSpec, is_non_self_overlapping
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import (
    LetterStream,
    cancelled_length,
    format_letters,
    invert_letters,
    multiply_letters,
    parse_word,
    reduce_letters,
    sample_word,
    words_of_length,
)
from oracles import flip_letters, random_word, reference_value, split_product
from oracles import random_aligned_tuples as per_letter_tuples


def signed(letters: bytes) -> tuple[int, ...]:
    """Packed letters read back as signed ints, written apart from the library."""
    return tuple(b - 256 if b >= 128 else b for b in letters)


# ---------------------------------------------------------------------------
# Signed-int tuple oracles


def reduce_tuple(raw):
    out = []
    for x in raw:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cancelled_tuple(a, b):
    la, lb = len(a), len(b)
    c = 0
    while c < min(la, lb) and a[la - 1 - c] == -b[c]:
        c += 1
    return c


def multiply_tuple(a, b):
    c = cancelled_tuple(a, b)
    return a[: len(a) - c] + b[c:]


def invert_tuple(a):
    return tuple(-x for x in reversed(a))


def split_tuple(a, b):
    c = cancelled_tuple(a, b)
    return a[: len(a) - c], a[len(a) - c :], b[c:]


def aligned_tuple(t):
    prev_last = 0
    for letters in t:
        if not letters:
            return False
        if prev_last and letters[0] == -prev_last:
            return False
        prev_last = letters[-1]
    return True


def flip_tuple(t):
    return tuple(invert_tuple(x) for x in reversed(t))


def format_tuple(letters):
    if not letters:
        return "1"
    out = []
    for x in letters:
        ch = chr(ord("a") + abs(x) - 1)
        out.append(ch if x > 0 else ch.upper())
    return "".join(out)


def alphabet_tuple(rank):
    return [x for i in range(1, rank + 1) for x in (i, -i)]


def words_of_length_tuple(rank, length):
    alphabet = alphabet_tuple(rank)
    if length == 0:
        yield ()
        return

    def extend(prefix, remaining):
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


def sample_tuple(rank, length, rng, first_banned):
    alphabet = alphabet_tuple(rank)
    followers = {0: tuple(alphabet)}
    for last in alphabet:
        followers[last] = tuple(x for x in alphabet if x != -last)
    out, last = [], first_banned
    for _ in range(length):
        last = rng.choice(followers[last])
        out.append(last)
    return tuple(out)


def random_aligned_tuples_tuple(rank, arity, count, max_len, seed):
    rng = random.Random(f"{seed}:aligned:{arity}:{max_len}")
    out = []
    for _ in range(count):
        t, last = [], 0
        for _ in range(arity):
            letters = sample_tuple(rank, rng.randint(1, max_len), rng, last)
            t.append(letters)
            last = letters[-1]
        out.append(tuple(t))
    return out


def piece_lengths_tuple(family, w, letters):
    if family == "letter":
        return (1,) * len(letters)
    if family == "rolli":
        return tuple(len(list(run)) for _, run in itertools.groupby(letters))
    winv = invert_tuple(w)
    out, i = [], 0
    while i < len(letters):
        if letters[i : i + len(w)] in (w, winv):
            out.append(len(w))
            i += len(w)
        else:
            out.append(1)
            i += 1
    return tuple(out)


def phi_tuple(family, w, table, letters):
    """Sum of lambda over the pieces, with lambda keyed by signed tuples."""
    total, pos = Fraction(0), 0
    for n in piece_lengths_tuple(family, w, letters):
        total += table.get(letters[pos : pos + n], 0)
        pos += n
    return total


# ---------------------------------------------------------------------------
# Strategies

ranks = st.one_of(st.just(26), st.integers(1, 26))


def letters_in(rank):
    """Signed letters of the rank, the extreme letters +-rank drawn often."""
    return st.one_of(
        st.sampled_from([rank, -rank]),
        st.integers(1, rank).flatmap(lambda i: st.sampled_from([i, -i])),
    )


def raw_lists(rank, max_size=30):
    return st.lists(letters_in(rank), max_size=max_size)


@st.composite
def word_pairs(draw):
    """(rank, a, b) reduced signed tuples, b often starting with the
    inverse of a suffix of a so the junction cancels."""
    rank = draw(ranks)
    a = reduce_tuple(draw(raw_lists(rank)))
    cut = draw(st.integers(0, len(a)))
    b = reduce_tuple(invert_tuple(a[cut:]) + tuple(draw(raw_lists(rank, 10))))
    if draw(st.booleans()):
        b = reduce_tuple(draw(raw_lists(rank)))
    return rank, a, b


def packed(letters):
    return bytes(x & 0xFF for x in letters)


# ---------------------------------------------------------------------------
# Tests


@given(ranks.flatmap(raw_lists))
@settings(max_examples=300)
def test_reduce_matches_tuple_oracle(raw):
    expect = reduce_tuple(raw)
    assert signed(reduce_letters(raw)) == expect
    assert reduce_letters(expect) == reduce_letters(raw)


@given(word_pairs())
@settings(max_examples=300)
def test_multiply_invert_split_match_tuple_oracle(case):
    rank, a, b = case
    pa, pb = packed(a), packed(b)
    assert cancelled_length(pa, pb) == cancelled_tuple(a, b)
    assert signed(multiply_letters(pa, pb)) == multiply_tuple(a, b)
    assert signed(invert_letters(pa)) == invert_tuple(a)
    assert tuple(map(signed, split_product(pa, pb))) == split_tuple(a, b)


@given(ranks.flatmap(lambda r: st.lists(raw_lists(r, 6).map(reduce_tuple), max_size=5)))
@settings(max_examples=300)
def test_aligned_and_flip_match_tuple_oracle(entries):
    t = tuple(entries)
    packed_t = tuple(packed(x) for x in t)
    assert aligned_letters(packed_t) == aligned_tuple(t)
    assert tuple(signed(x) for x in flip_letters(packed_t)) == flip_tuple(t)


@given(ranks.flatmap(lambda r: st.tuples(st.just(r), raw_lists(r))))
@settings(max_examples=300)
def test_format_parse_round_trip(case):
    rank, raw = case
    w = reduce_letters(raw)
    text = format_letters(w)
    assert text == format_tuple(reduce_tuple(raw))
    assert parse_word(text, rank) == w


def test_extreme_letters_are_bytes_26_and_230():
    z = parse_word("z^2 Y Z", 26)
    assert z == bytes([26, 26, 231, 230])
    assert signed(z) == (26, 26, -25, -26)
    assert format_letters(z) == "zzYZ"
    assert invert_letters(z) == bytes([26, 25, 230, 230])
    assert format_letters(reduce_letters([26, -26, -26])) == "Z"


@given(st.sampled_from([(r, n) for r in (1, 2, 3) for n in range(5)] + [(26, 0), (26, 1), (26, 2)]))
@settings(max_examples=20)
def test_words_of_length_keep_alphabet_order(case):
    rank, length = case
    mine = [signed(w) for w in words_of_length(rank, length)]
    assert mine == list(words_of_length_tuple(rank, length))


@given(ranks, st.integers(1, 4), st.integers(1, 60), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_random_stream_matches_tuple_oracle(rank, arity, max_len, seed):
    mine = random_aligned_tuples(rank, arity, 5, max_len, seed)
    expect = random_aligned_tuples_tuple(rank, arity, 5, max_len, seed)
    assert [tuple(signed(x) for x in t) for t in mine] == expect
    length = seed % 80
    assert signed(sample_word(rank, length, seed)) == sample_tuple(
        rank, length, random.Random(seed), 0
    )


@given(
    st.sampled_from((1, 2, 3, 26)),
    st.sampled_from((1, 2, 255, 256, 1000)),
    st.integers(0, 6),
    st.integers(0, 50),
    st.integers(0, 2**32) | st.text(max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_block_decoder_matches_the_per_letter_oracle(rank, max_len, arity, count, seed):
    """The block-decoded tuples are those of one ``randint`` per entry and
    one ``choice`` per letter. Lengths up to 255 are read off the top byte
    of an output, 256 and 1000 need more of it; rank 1 rejects half of its
    letter tries and rank 26 (51 followers) a fifth."""
    mine = random_aligned_tuples(rank, arity, count, max_len, seed)
    assert mine == per_letter_tuples(rank, arity, count, max_len, seed)


@given(
    st.sampled_from((1, 3, 26)) | ranks,
    st.integers(0, 400),
    st.booleans(),
    st.integers(0, 2**32),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_batched_sampler_keeps_the_choice_stream(rank, length, banned, seed, data):
    """The decoder returns the letters of one ``choice`` per letter: a word
    from the whole alphabet on, or a span walked on from a given letter;
    ranks 1, 3 and 26 (n = 1, 5, 51 followers) reject often."""
    first = data.draw(letters_in(rank)) if banned else 0
    stream = LetterStream(rank, seed)
    if first:
        last, mine = first, []
        for c in stream.span(length).translate(None, b"\xff"):
            last = [x for x in alphabet_tuple(rank) if x != -last][c]
            mine.append(last)
    else:
        mine = signed(stream.word(length))
    assert tuple(mine) == sample_tuple(rank, length, random.Random(seed), first)


# ---------------------------------------------------------------------------
# The stream decoder against plain per-call ``random.Random`` draws. Each
# test reads many draws from one stream, so a draw that takes one output
# too many or too few shows in every later one.


@pytest.mark.parametrize("n", (1, 2, 3, 5, 51, 255, 256, 1000, 2**31))
def test_below_is_randint(n):
    """``below(n)`` is ``randint(0, n - 1)``: at n = 2**k a try keeps k + 1
    bits and rejects half of them."""
    for seed in (0, "below"):
        stream, rng = LetterStream(1, seed), random.Random(seed)
        mine = [stream.below(n) for _ in range(2000)]
        assert mine == [rng.randint(0, n - 1) for _ in range(2000)]


@pytest.mark.parametrize("rank", (1, 2, 3, 26))
def test_word_is_one_choice_per_letter(rank):
    stream, rng = LetterStream(rank, f"word:{rank}"), random.Random(f"word:{rank}")
    for length in range(401):
        assert stream.word(length) == random_word(rng, rank, length)


def test_a_short_word_draws_few_outputs(monkeypatch):
    """A fresh stream sizes its first draw to the need and doubles each
    later one up to ``_BLOCK``, so a 5-letter word draws a few outputs."""
    drawn = []

    class Counted(random.Random):
        def getrandbits(self, k):
            drawn.append(k // 32)
            return super().getrandbits(k)

    monkeypatch.setattr(words.random, "Random", Counted)
    for seed in range(20):
        drawn.clear()
        assert len(sample_word(2, 5, seed)) == 5
        assert 5 <= sum(drawn) < words._BLOCK


@pytest.mark.parametrize("rank, max_len", [(1, 0), (2, 40), (3, 255), (26, 1000)])
def test_defect_pairs_are_the_plain_loop(rank, max_len, monkeypatch):
    """``defect_sup`` draws each random pair as ``randint(0, max_len)``
    twice, then the two words one ``choice`` per letter."""
    seen = []

    def scan(probe, q, pairs, jobs):
        seen.extend(pairs)
        return Scan()

    monkeypatch.setattr(quasimorphism, "scan", scan)
    q = QuasiMorphism(DecompositionSpec("letter", rank), LambdaTable({}))
    quasimorphism.defect_sup(q, random_pairs=300, max_len=max_len, seed=9)
    rng = random.Random("9:defect")
    expect = []
    for _ in range(300):
        lg, lh = rng.randint(0, max_len), rng.randint(0, max_len)
        expect.append((random_word(rng, rank, lg), random_word(rng, rank, lh)))
    assert seen == expect


@st.composite
def kernel_cases(draw):
    rank = draw(ranks)
    letter = letters_in(rank)
    family = draw(st.sampled_from(["letter", "rolli", "brooks"]))
    w = ()
    if family == "brooks":
        w = draw(
            st.lists(letter, min_size=1, max_size=1 if rank == 1 else 4)
            .map(reduce_tuple)
            .filter(lambda w: w and is_non_self_overlapping(packed(w)))
        )
        piece = st.one_of(letter.map(lambda x: (x,)), st.sampled_from([w, invert_tuple(w)]))
    elif family == "rolli":
        piece = st.tuples(letter, st.integers(1, 5)).map(lambda p: (p[0],) * p[1])
    else:
        piece = letter.map(lambda x: (x,))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    table: dict = {}
    for p, v in draw(st.lists(st.tuples(piece, value), max_size=6)):
        if invert_tuple(p) not in table:
            table[p] = v
            table[invert_tuple(p)] = -v
    runs = draw(st.lists(st.tuples(letter, st.integers(1, 6)), max_size=40))
    blocky = reduce_tuple(x for x, k in runs for _ in range(k))
    parts = st.sampled_from([w, invert_tuple(w)]) | letter.map(lambda x: (x,))
    patterned = reduce_tuple(x for part in draw(st.lists(parts, max_size=40)) for x in part)
    words = [reduce_tuple(draw(raw_lists(rank, 200))), blocky, patterned]
    return rank, family, w, table, words


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_counting_kernel_matches_tuple_oracle(case):
    rank, family, w, table, words = case
    spec = DecompositionSpec(family, rank, packed(w) if family == "brooks" else None)
    lam = LambdaTable({packed(p): v for p, v in table.items()})
    q = QuasiMorphism(spec, lam)
    for letters in words:
        g = packed(letters)
        expect = phi_tuple(family, w, table, letters)
        assert q.value(g) == expect
        assert reference_value(q, g) == expect
        assert Fraction(q.value_letters(g), q.den) == expect
