import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massey_workbench.decomposition import DecompositionSpec, is_non_self_overlapping
from massey_workbench.errors import ConfigError
from massey_workbench.quasimorphism import (
    DefectStats,
    LambdaTable,
    QuasiMorphism,
    defect,
    defect_from_triangle,
    defect_sup,
)
from massey_workbench.words import (
    enumerate_ball,
    format_letters,
    invert_letters,
    parse_word,
    reduce_letters,
    sample_word,
)
from oracles import decompose, random_word, reference_value, tampered_lambda
from test_letters import signed

W = lambda s: parse_word(s, 2)

BROOKS_AB = DecompositionSpec("brooks", 2, W("ab"))
ROLLI = DecompositionSpec("rolli", 2)
LETTER = DecompositionSpec("letter", 2)


def brooks_counting_qm():
    return QuasiMorphism(BROOKS_AB, LambdaTable({W("ab"): 1}))


def rolli_qm():
    return QuasiMorphism(
        ROLLI, LambdaTable({W("a"): Fraction(1, 2), W("b"): Fraction(1, 3)})
    )


def test_lambda_table_alternation():
    table = LambdaTable({W("ab"): Fraction(2, 3)})
    assert table.value(W("ab")) == Fraction(2, 3)
    assert table.value(W("BA")) == Fraction(-2, 3)
    assert table.value(W("a")) == 0
    assert table.sup == Fraction(2, 3)


def test_lambda_table_contradiction():
    with pytest.raises(ConfigError):
        LambdaTable({W("ab"): 1, W("BA"): 1})
    with pytest.raises(ConfigError):
        LambdaTable({W("1"): 1})
    # consistent double entry is fine
    LambdaTable({W("ab"): 1, W("BA"): -1})


def test_qm_rejects_illegal_pieces():
    with pytest.raises(ConfigError):
        QuasiMorphism(LETTER, LambdaTable({W("ab"): 1}))
    with pytest.raises(ConfigError):
        QuasiMorphism(ROLLI, LambdaTable({W("ab"): 1}))
    with pytest.raises(ConfigError):
        QuasiMorphism(BROOKS_AB, LambdaTable({W("ba"): 1}))
    # single letters are legal pieces in every family
    QuasiMorphism(BROOKS_AB, LambdaTable({W("a"): 1}))


def test_eval_examples():
    q = brooks_counting_qm()
    assert q.value(W("aabab")) == 2
    assert q.value(W("1")) == 0
    assert q.value(W("BABA")) == -2


def test_eval_brute_force_cross_check():
    # oracle: count occurrences of ab minus occurrences of BA directly
    q = brooks_counting_qm()
    for seed in range(40):
        g = sample_word(2, seed % 25, seed)
        s = signed(g)
        plus = sum(1 for i in range(len(s) - 1) if s[i : i + 2] == (1, 2))
        minus = sum(1 for i in range(len(s) - 1) if s[i : i + 2] == (-2, -1))
        assert q.value(g) == plus - minus


def test_defect_examples():
    q = brooks_counting_qm()
    assert defect(q, W("a"), W("b")) == -1
    g = W("abab")
    assert defect(q, g, W("1")) == 0
    assert defect(q, g, invert_letters(g)) == 0


@given(st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_antisymmetry(seed):
    for q in (brooks_counting_qm(), rolli_qm()):
        g = sample_word(2, seed % 30, seed)
        assert q.value(invert_letters(g)) == -q.value(g)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_piece_additivity(seed):
    # splitting at any piece boundary splits the value
    for q in (brooks_counting_qm(), rolli_qm()):
        g = sample_word(2, (seed % 20) + 1, seed)
        pieces = decompose(q.spec, g)
        for cut in range(len(pieces) + 1):
            u = b"".join(pieces[:cut])
            v = b"".join(pieces[cut:])
            assert q.value(g) == q.value(u) + q.value(v)


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_defect_equals_tripod_sum(seed):
    for q in (brooks_counting_qm(), rolli_qm()):
        g = sample_word(2, seed % 25, seed)
        h = sample_word(2, (seed // 5) % 25, seed + 1)
        assert defect(q, g, h) == defect_from_triangle(q, g, h)


def test_homomorphism_has_zero_defect():
    # letter family with lambda(a) = 1 counts the a-exponent: a homomorphism
    q = QuasiMorphism(LETTER, LambdaTable({W("a"): 1}))
    stats = defect_sup(q, ball_radius=3)
    assert stats.max_abs == 0
    assert stats.argmax is None  # nothing beats the starting value 0
    assert stats.checked == 53 * 53


def test_defect_sup_deterministic_and_bounded():
    q = brooks_counting_qm()
    s1 = defect_sup(q, ball_radius=2, random_pairs=50, max_len=40, seed=11)
    s2 = defect_sup(q, ball_radius=2, random_pairs=50, max_len=40, seed=11)
    assert s1.max_abs == s2.max_abs and s1.argmax == s2.argmax
    # measured R-hat for brooks(ab) is 1, lambda sup is 1: defect within 3
    assert s1.max_abs <= 3
    # The plain loop: ball pairs row by row, then the seeded random pairs;
    # the first pair reaching the max is the argmax, for any job count.
    ball = list(enumerate_ball(2, 2))
    pairs = [(g, h) for g in ball for h in ball]
    rng = random.Random("11:defect")
    for _ in range(50):
        lg, lh = rng.randint(0, 40), rng.randint(0, 40)
        pairs.append((random_word(rng, 2, lg), random_word(rng, 2, lh)))
    best, argmax = 0, None
    for g, h in pairs:
        if abs(defect(q, g, h)) > best:
            best, argmax = abs(defect(q, g, h)), (format_letters(g), format_letters(h))
    for jobs in (1, 2):
        stats = defect_sup(q, ball_radius=2, random_pairs=50, max_len=40, seed=11, jobs=jobs)
        assert stats == DefectStats(best, argmax, len(pairs))


def test_tampered_lambda_breaks_antisymmetry():
    q = brooks_counting_qm()
    bad = QuasiMorphism(BROOKS_AB, tampered_lambda(q.table, W("BA"), 0))
    assert bad.value(W("ab")) == 1
    assert bad.value(W("BA")) == 0  # no longer -1


# -- counting kernel against the piece-sum oracle -----------------------------


def letters_of(rank):
    return st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i)))


@st.composite
def qm_cases(draw):
    """A quasi-morphism with a random (possibly tampered) table, plus words
    up to 400 letters: one uniform reduced word and one built from long
    single-letter runs."""
    rank = draw(st.sampled_from([1, 2, 3, 26]))
    family = draw(st.sampled_from(["letter", "rolli", "brooks"]))
    letter = letters_of(rank)
    if family == "brooks":
        w = draw(
            st.lists(letter, min_size=1, max_size=1 if rank == 1 else 4)
            .map(reduce_letters)
            .filter(lambda w: w and is_non_self_overlapping(w))
        )
        spec = DecompositionSpec("brooks", rank, w)
        piece = st.one_of(
            letter.map(lambda x: reduce_letters([x])), st.sampled_from([w, invert_letters(w)])
        )
    elif family == "rolli":
        spec = DecompositionSpec("rolli", rank)
        piece = st.tuples(letter, st.integers(1, 5)).map(lambda p: reduce_letters([p[0]] * p[1]))
    else:
        spec = DecompositionSpec("letter", rank)
        piece = letter.map(lambda x: reduce_letters([x]))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    entries: dict = {}
    for p, v in draw(st.lists(st.tuples(piece, value), max_size=6)):
        if invert_letters(p) not in entries:
            entries[p] = v
    table = LambdaTable(entries)
    for p, v in draw(st.lists(st.tuples(piece, value), max_size=2)):
        table = tampered_lambda(table, p, v)
    q = QuasiMorphism(spec, table)

    uniform = sample_word(rank, draw(st.integers(0, 400)), draw(st.integers(0, 2**32)))
    runs = draw(st.lists(st.tuples(letter, st.integers(1, 8)), max_size=50))
    blocky = reduce_letters([x for x, k in runs for _ in range(k)])
    return q, [uniform, blocky, invert_letters(uniform), invert_letters(blocky)]


@given(qm_cases())
@settings(max_examples=300, deadline=None)
def test_counting_kernel_matches_piece_sum(case):
    q, words = case
    for g in words:
        assert q.value(g) == reference_value(q, g)
    clone = pickle.loads(pickle.dumps(q))
    for g in words:
        assert clone.value(g) == reference_value(q, g)


def test_counting_kernel_rank_26_byte_edge():
    # letters +-26 are the extreme signed bytes the kernel packs
    rank = 26
    z = lambda s: parse_word(s, rank)
    table = LambdaTable({z("zY"): Fraction(5, 7), z("z"): Fraction(-1, 3), z("a"): 2})
    q = QuasiMorphism(DecompositionSpec("brooks", rank, z("zY")), table)
    rolli = QuasiMorphism(
        DecompositionSpec("rolli", rank),
        LambdaTable({z("z"): 1, z("Z^2"): Fraction(1, 4), z("y^3"): -2}),
    )
    words = [z("zYzYZzYyZ"), z("Z^5yyyzzYYYz")]
    words += [sample_word(rank, n, n) for n in (1, 50, 400)]
    for g in words:
        for qm in (q, rolli):
            assert qm.value(g) == reference_value(qm, g)
            assert qm.value(invert_letters(g)) == reference_value(qm, invert_letters(g))
