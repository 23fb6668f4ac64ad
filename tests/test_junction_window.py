"""The junction window of a restricted quasi-morphism coboundary.

``restrict(coboundary(qm_cochain(q)))`` cuts a pair to
``(x[-K:], y[:K])``, K = ``q.window``, before its memo and its child see
it (README "Junction window"). The differential test compares it with the
untruncated value from the plain piece sums of ``tests/oracles.py``: the
defect on an aligned pair, 0 elsewhere. Pairs of 0 to 60 letters are drawn
with forced pieces around the junction, empty entries, cancelling
junctions and entries shorter than K. A window one letter short must make
the comparison fail. The key-bound tests read the ``EvalContext`` after an
evaluation of the standard instance's primitive on 200-letter entries.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from massey_workbench import quasimorphism
from massey_workbench.cochain import (
    EvalContext,
    Restriction,
    TableCochain,
    aligned_letters,
    coboundary,
    cup,
    evaluate,
    qm_cochain,
    restrict,
)
from massey_workbench.config import load_config, massey_from_json
from massey_workbench.decomposition import DecompositionSpec
from massey_workbench.massey import bounded_primitive
from massey_workbench.quasimorphism import LambdaTable, QuasiMorphism
from massey_workbench.words import (
    invert_letters,
    multiply_letters,
    parse_word,
    reduce_letters,
    sample_word,
)
from oracles import long_tuples, reference_value, tampered_lambda

# Brooks words with the smallest rank that holds them.
BROOKS_WORDS = (("a", 1), ("ab", 2), ("aab", 2), ("abC", 3), ("aabab", 2))
RANKS = (1, 2, 3, 26)
STANDARD = Path(__file__).resolve().parent.parent / "configs" / "massey-brooks-standard.json"


def letters_of_rank(rank):
    return st.integers(1, rank).flatmap(lambda i: st.sampled_from((i, -i)))


@st.composite
def quasimorphisms(draw, family=None, brooks=None, nonzero=False):
    """A letter, Rolli (powers up to a^3, inverse runs included) or Brooks
    quasi-morphism on rank 1 to 3 or 26, with up to two tampered entries;
    ``nonzero`` forces an entry on a piece longer than one letter."""
    family = family or draw(st.sampled_from(("letter", "rolli", "brooks")))
    w = None
    if family == "brooks":
        text, least = draw(st.sampled_from([b for b in BROOKS_WORDS if brooks in (None, b[0])]))
        rank = draw(st.sampled_from([r for r in RANKS if r >= least]))
        w = parse_word(text, rank)
    else:
        rank = draw(st.sampled_from(RANKS))
    letter = letters_of_rank(rank)
    if family == "brooks":
        piece = letter.map(lambda x: reduce_letters([x])) | st.sampled_from([w, invert_letters(w)])
        long_piece = st.sampled_from([w, invert_letters(w)])
    elif family == "rolli":
        piece = st.tuples(letter, st.integers(1, 3)).map(lambda p: reduce_letters([p[0]] * p[1]))
        long_piece = st.tuples(letter, st.integers(2, 3)).map(
            lambda p: reduce_letters([p[0]] * p[1])
        )
    else:
        piece = long_piece = letter.map(lambda x: reduce_letters([x]))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    entries: dict = {}
    forced = [(draw(long_piece), draw(value.filter(bool)))] if nonzero else []
    for p, v in forced + draw(st.lists(st.tuples(piece, value), max_size=6)):
        if p not in entries and invert_letters(p) not in entries:
            entries[p] = v
    table = LambdaTable(entries)
    for p, v in draw(st.lists(st.tuples(piece, value), max_size=2)):
        table = tampered_lambda(table, p, v)
    return QuasiMorphism(DecompositionSpec(family, rank, w), table), w


@st.composite
def pairs(draw, family=None, brooks=None, nonzero=False):
    """A quasi-morphism and pairs (x, y) of 0 to 60 letters: a word of
    random stretches and forced pieces (``w`` or ``w^-1`` for Brooks, letter
    powers otherwise) cut anywhere, the empty cuts included; each cut is
    kept, its ``y`` made to cancel against ``x`` by a prepended inverse
    tail, and its ``x`` cut to fewer letters than the window."""
    q, w = draw(quasimorphisms(family, brooks, nonzero))
    rank = q.rank
    letter = letters_of_rank(rank)
    z = b""
    cuts = [0]
    while len(z) < 60 and len(cuts) < 6:
        sampled = sample_word(rank, draw(st.integers(0, 8)), draw(st.integers(0, 2**32)))
        z = multiply_letters(z, sampled)
        forced = (w if draw(st.booleans()) else invert_letters(w)) if w else reduce_letters(
            [draw(letter)] * draw(st.integers(1, 5))
        )
        z = multiply_letters(z, forced)
        cuts.append(len(z) - draw(st.integers(0, len(forced))))
    z = z[:60]
    out = []
    for c in sorted({min(c, len(z)) for c in cuts} | {len(z)}):
        x, y = z[:c], z[c:]
        back = x[-draw(st.integers(1, 3)) :]
        out += [
            (x, y),
            (x, multiply_letters(invert_letters(back), y)),
            (x[-draw(st.integers(1, q.window)) :], y),
        ]
    return q, out


def untruncated(q, x, y):
    """The restricted coboundary from the piece sums of whole entries."""
    if not aligned_letters((x, y)):
        return Fraction(0)
    xy = multiply_letters(x, y)
    return reference_value(q, x) + reference_value(q, y) - reference_value(q, xy)


def check(case):
    q, pair_list = case
    node = restrict(coboundary(qm_cochain(q)))
    ctx = EvalContext()
    got = [evaluate(node, pair, ctx) for pair in pair_list]
    assert got == [untruncated(q, x, y) for x, y in pair_list]


@given(pairs())
@settings(max_examples=300, deadline=None)
def test_window_matches_piece_sum(case):
    check(case)


@pytest.mark.parametrize(
    "family, brooks", [("brooks", "aab"), ("rolli", None)], ids=["brooks-aab", "rolli-powers"]
)
def test_short_window_is_caught(monkeypatch, family, brooks):
    """With the window one letter short, a pair whose forced piece crosses
    the junction reads wrong."""
    exact = quasimorphism.counting_kernel

    def short(spec, table):
        *kernel, window = exact(spec, table)
        return (*kernel, window - 1)

    monkeypatch.setattr(quasimorphism, "counting_kernel", short)
    run = given(pairs(family, brooks, nonzero=True))(check)
    # The first failing example is enough; shrinking it would take longer.
    quick = settings(max_examples=300, deadline=None, database=None, phases=[Phase.generate])
    with pytest.raises(AssertionError):
        quick(run)()


def test_windows_of_the_families():
    def qm(family, table, word=None):
        spec = DecompositionSpec(family, 2, word and parse_word(word, 2))
        return QuasiMorphism(spec, LambdaTable({parse_word(p, 2): v for p, v in table.items()}))

    assert qm("letter", {"a": 1}).window == 1
    assert qm("brooks", {"ab": 1}, "ab").window == 1
    assert qm("brooks", {"aabab": 1}, "aabab").window == 4
    # lambda(a^3) - lambda(a^2) and -lambda(a^3) weigh the runs of 3 and 4
    assert qm("rolli", {"a": 1, "a^3": 2}).window == 4
    q = qm("brooks", {"aab": 1}, "aab")
    assert q.window == 2
    with pytest.raises(AttributeError, match="set once"):
        q.window = 5
    with pytest.raises(AttributeError, match="set once"):
        del q.window


# -- key bound ---------------------------------------------------------------


def restriction_keys(ctx):
    out: dict = {}
    for key in ctx.node_values:
        if isinstance(key[0], Restriction):
            out.setdefault(key[0], []).append(key[1])
    return out


def test_windowed_keys_are_bounded():
    """Every memo key of a windowed restriction holds at most K letters per
    entry after the primitive of the standard instance ran on 200-letter
    entries; both omega factors are windowed restrictions."""
    m, _ = massey_from_json(load_config(STANDARD))
    primitive = bounded_primitive(m)
    ctx = EvalContext()
    for t in long_tuples(m.rank, m.k1 + m.k2, 3, 200, "window-keys"):
        evaluate(primitive, t, ctx)
    keys = restriction_keys(ctx)
    assert set(keys) == {m.omega1, m.omega2}
    for node, ts in keys.items():
        assert node.window == node.child.qm.window >= 1
        assert all(len(e) <= node.window for t in ts for e in t)


def test_unwindowed_restrictions_keep_full_keys():
    q = QuasiMorphism(
        DecompositionSpec("brooks", 2, parse_word("ab", 2)),
        LambdaTable({parse_word("ab", 2): 1}),
    )
    leaf = qm_cochain(q)
    (x, y), = long_tuples(2, 2, 1, 200, "full-keys")
    table = TableCochain(2, {(x, y): 1})
    nodes = [
        restrict(table),
        restrict(cup(leaf, leaf)),
        restrict(coboundary(TableCochain(1, {(x,): 1}))),
    ]
    ctx = EvalContext()
    for node in nodes:
        assert node.window == 0
        evaluate(node, (x, y), ctx)
    assert restriction_keys(ctx) == {node: [(x, y)] for node in nodes}
    assert evaluate(nodes[0], (x, y)) == 1
