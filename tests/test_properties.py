"""Hypothesis sweeps tying independent routes to the same answers."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from varietylab import models
from varietylab.enumeration import canonical_form
from varietylab.models import (
    LANE_MIN_ORDER,
    MAX_LANE_ORDER,
    builtin,
    check_axioms,
    direct_product,
    evaluate,
    is_isomorphic,
    make_algebra,
    satisfies,
    word_value_classes,
)
from varietylab.terms import (
    AXIOM_TEXTS,
    ZERO,
    Arrow,
    Identity,
    Mode,
    Var,
    Word,
    identity_letters,
    normalize_is,
    parse_identity,
)
from varietylab.varieties import Variety, decide


def relabel(a, perm):
    """Apply the bijection old -> new given as a tuple over range(order)."""
    n = a.order
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[a.table[i][j]]
    return make_algebra(table, perm[a.distinguished])


def tables(min_order, max_order=4):
    """(rows, distinguished) of random tables of order min_order..max_order."""
    return st.integers(min_order, max_order).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.integers(0, n - 1),
        )
    )


small_tables = tables(2)


@st.composite
def sparse_tables(draw, min_order, max_order):
    """(rows, distinguished) of a table constant but for up to three cells,
    where identities hold more often and fail late in the sweep."""
    n = draw(st.integers(min_order, max_order))
    elements = st.integers(0, n - 1)
    rows = [[draw(elements)] * n for _ in range(n)]
    for i, j, v in draw(st.lists(st.tuples(elements, elements, elements), max_size=3)):
        rows[i][j] = v
    return rows, draw(elements)


@given(small_tables, st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(table_dist, rng):
    rows, dist = table_dist
    a = make_algebra(rows, dist)
    perm = list(range(a.order))
    rng.shuffle(perm)
    b = relabel(a, tuple(perm))
    assert canonical_form(a) == canonical_form(b)
    assert is_isomorphic(a, b)


@given(small_tables, small_tables)
def test_canonical_equality_matches_isomorphism(x, y):
    a = make_algebra(*x)
    b = make_algebra(*y)
    assert (canonical_form(a) == canonical_form(b)) == is_isomorphic(a, b)


words = st.text(alphabet="xyzO", min_size=1, max_size=4).map(Word)


@settings(max_examples=300)
@given(st.sampled_from(["A", "B", "K", "L", "M", "Z"]), words, words)
def test_batched_classes_agree_with_satisfies(name, u, v):
    a = builtin(name)
    classes = word_value_classes(a, (u, v))
    assert (classes[u] == classes[v]) == satisfies(a, Identity(u, v, Mode.IS)).holds


@st.composite
def word_families(draw, alphabet="xyzO"):
    """Words up to length 6, some prefixes of them and some repeats, in any order."""
    texts = st.text(alphabet=alphabet, min_size=1, max_size=6)
    drawn = draw(st.lists(texts, min_size=1, max_size=8))
    prefixes = [w[: draw(st.integers(1, len(w)))] for w in drawn[::2]]
    family = draw(st.permutations(drawn + prefixes + drawn[1::3]))
    return tuple(map(Word, family))


def reference_value_classes(a, family, letters="xyz"):
    """One evaluate call per word and assignment; ids in first-occurrence order."""
    values = itertools.product(range(a.order), repeat=len(letters))
    assigns = [dict(zip(letters, v)) for v in values]
    ids = {}
    return {
        w: ids.setdefault(tuple(evaluate(a, w, asg) for asg in assigns), len(ids))
        for w in family
    }


@settings(max_examples=300)
@given(tables(1), word_families())
def test_word_value_classes_match_reference_evaluator(table_dist, family):
    a = make_algebra(*table_dist)
    assert word_value_classes(a, family) == reference_value_classes(a, family)


@settings(max_examples=40, deadline=None)
@given(tables(5, MAX_LANE_ORDER), word_families("xyO"))
def test_packed_lanes_match_reference_up_to_the_order_bound(table_dist, family):
    # two letters keep the reference at order 16 to 256 assignments a word
    a = make_algebra(*table_dist)
    assert word_value_classes(a, family, "xy") == reference_value_classes(a, family, "xy")


def test_packed_lanes_at_order_sixteen_reach_the_top_lane_value():
    rng = random.Random(16)
    n = MAX_LANE_ORDER
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    a = make_algebra(rows, rng.randrange(n))
    # xx at x = 15 reads cell (15, 15) from lane value 15 * 16 + 15 = 255
    family = tuple(
        Word("".join(s)) for k in (1, 2, 3) for s in itertools.product("xyO", repeat=k)
    )
    assert word_value_classes(a, family, "xy") == reference_value_classes(a, family, "xy")


def test_word_value_classes_without_letters():
    a = builtin("M")
    family = (Word("O"), Word("OO"), Word("OOO"))
    assert word_value_classes(a, family, ()) == reference_value_classes(a, family, "")
    # letter-free words among words with letters: one vector each, constant lanes
    family += (Word("x"), Word("xO"), Word("Ox"))
    assert word_value_classes(a, family) == reference_value_classes(a, family)


def test_word_value_classes_refuse_orders_above_the_lane_bound():
    n = MAX_LANE_ORDER + 1
    a = make_algebra([[0] * n for _ in range(n)], 0)
    with pytest.raises(ValueError, match=f"order {n} is above {MAX_LANE_ORDER}"):
        word_value_classes(a, (Word("x"),))


@pytest.mark.parametrize("text", ["w", "xw"])
def test_word_value_classes_name_a_symbol_outside_the_letters(text):
    # w alone misses the one-symbol lookup, xw the packed column of w
    with pytest.raises(ValueError) as exc:
        word_value_classes(builtin("A"), (Word("x"), Word(text)))
    assert str(exc.value) == f"word {text} has symbol 'w', not one of x, y, z, O"


def reference_satisfies(a, ident):
    """One evaluate call per side and assignment, letters in sorted order."""
    letters = sorted(set(f"{ident.lhs}{ident.rhs}") & set("abcdefghijklmnopqrstuvwxyz"))
    for values in itertools.product(range(a.order), repeat=len(letters)):
        asg = dict(zip(letters, values))
        if evaluate(a, ident.lhs, asg) != evaluate(a, ident.rhs, asg):
            return False, asg
    return True, None


tree_terms = st.recursive(
    st.sampled_from([ZERO, Var("x"), Var("y"), Var("z")]),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda lr: Arrow(*lr)),
        sub.map(lambda t: Arrow(t, t)),  # a repeated subterm
    ),
    max_leaves=8,
)

long_words = st.text(alphabet="xyzwO", min_size=1, max_size=8).map(Word)

identities = st.one_of(
    st.tuples(words, words).map(lambda uv: Identity(*uv, Mode.IS)),
    # four letters: steps on every level of the nested loops
    st.tuples(long_words, long_words).map(lambda uv: Identity(*uv, Mode.IS)),
    # a shared prefix
    st.tuples(words, words).map(lambda uv: Identity(uv[0], uv[0] + uv[1], Mode.IS)),
    st.tuples(tree_terms, tree_terms).map(lambda lr: Identity(*lr, Mode.IZ)),
    # the left side recurs inside the right
    st.tuples(tree_terms, tree_terms).map(
        lambda lr: Identity(lr[0], Arrow(lr[1], lr[0]), Mode.IZ)
    ),
)

@settings(max_examples=400)
@given(tables(1, LANE_MIN_ORDER - 1), tables(LANE_MIN_ORDER, 7), identities)
def test_compiled_satisfies_matches_reference_evaluator(table_dist, lane_table_dist, ident):
    # the first table runs the per-element loop, the second the packed block
    for table_dist in (table_dist, lane_table_dist):
        a = make_algebra(*table_dist)
        res = satisfies(a, ident)
        assert (res.holds, res.witness) == reference_satisfies(a, ident)


def reference_axioms(a, mode):
    """check_axioms as (name, passed, witness) triples: in associative mode
    a scan of the triples for associativity, then reference_satisfies."""
    checks = []
    if mode is Mode.IS:
        t = a.table
        bad = next(
            (
                {"x": i, "y": j, "z": k}
                for i, j, k in itertools.product(range(a.order), repeat=3)
                if t[t[i][j]][k] != t[i][t[j][k]]
            ),
            None,
        )
        checks.append(("associativity", bad is None, bad))
    for text in AXIOM_TEXTS[mode]:
        checks.append((text, *reference_satisfies(a, parse_identity(text, mode))))
    return checks


@given(
    tables(1, LANE_MIN_ORDER - 1),
    st.one_of(
        tables(LANE_MIN_ORDER, MAX_LANE_ORDER), sparse_tables(LANE_MIN_ORDER, MAX_LANE_ORDER)
    ),
)
def test_check_axioms_matches_the_reference_on_random_tables(table_dist, lane_table_dist):
    # most random tables fail associativity, so its failing witness is
    # checked on the per-element loop (first table) and the packed block
    for table_dist in (table_dist, lane_table_dist):
        a = make_algebra(*table_dist)
        for mode in (Mode.IS, Mode.IZ):
            report = check_axioms(a, mode)
            got = [(c.name, c.passed, c.witness) for c in report.checks]
            assert got == reference_axioms(a, mode)


three_letter_identities = st.one_of(
    st.tuples(words, words).map(lambda uv: Identity(*uv, Mode.IS)),
    st.tuples(tree_terms, tree_terms).map(lambda lr: Identity(*lr, Mode.IZ)),
)

four_letter_words = st.text(alphabet="xyzwO", min_size=1, max_size=6).map(Word)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(tables(8, MAX_LANE_ORDER), sparse_tables(LANE_MIN_ORDER, MAX_LANE_ORDER)),
    three_letter_identities,
)
def test_packed_block_matches_the_reference_up_to_the_lane_order(table_dist, ident):
    # three letters fit one block of at most 4096 lanes at every packed order
    a = make_algebra(*table_dist)
    res = satisfies(a, ident)
    assert (res.holds, res.witness) == reference_satisfies(a, ident)


@settings(max_examples=30, deadline=None)
@given(sparse_tables(9, 10), four_letter_words, four_letter_words, st.permutations("wxyz"))
# xyz = Owxyz in the join semilattice 0 < 1 < ... < 8 first fails at w = 1
@example(([[max(i, j) for j in range(9)] for i in range(9)], 0), Word("xyz"), Word("O"), "wxyz")
def test_packed_block_under_a_leading_loop_matches_the_reference(table_dist, u, v, letters):
    # every letter occurs, and at orders 9 and up a block holds three
    # letters, so the loop runs over w and the block sweeps x, y, z
    a = make_algebra(*table_dist)
    ident = Identity(u, v + "".join(letters), Mode.IS)
    res = satisfies(a, ident)
    assert (res.holds, res.witness) == reference_satisfies(a, ident)


@pytest.mark.parametrize(
    "text, mode, orders",
    [
        ("xyz = zOxyzOO", Mode.IS, (3, 4, 9, 17)),
        ("((x>y)>z) = ((z'>x)>(y>z)')'", Mode.IZ, (3, 4, 9, 17)),
        # two letters, so that order 257, above the lanes, is swept too
        ("xyx = yxO", Mode.IS, (3, 4, 9, 17, 257)),
    ],
)
def test_one_program_serves_every_block_width(text, mode, orders):
    # one Identity object, so one cached program, is swept at block widths
    # 0, k (all its letters) and 1 in turn: the program must hold nothing
    # keyed by width
    ident = parse_identity(text, mode)
    k = len(identity_letters(ident))
    assert {models._block_width(n, k) for n in orders} == {0, k, 1}
    rng = random.Random(35)
    verdicts = set()
    for n in orders:
        join = [[max(i, j) for j in range(n)] for i in range(n)]
        sparse = [[n - 1] * n for _ in range(n)]
        for _ in range(3):
            sparse[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        drawn = [[rng.randrange(n) for _ in range(n)] for _ in range(n)] if n < 257 else join
        for rows, dist in ((join, 0), (sparse, n - 1), (drawn, rng.randrange(n))):
            a = make_algebra(rows, dist)
            res = satisfies(a, ident)
            assert (res.holds, res.witness) == reference_satisfies(a, ident), (n, dist)
            verdicts.add(res.holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize("names", [("M", "K"), ("M", "M")])
def test_lane_column_matches_the_reference_on_products(names):
    a = direct_product(*map(builtin, names))  # orders 20 and 25
    for mode in (Mode.IS, Mode.IZ):
        report = check_axioms(a, mode)
        assert [(c.name, c.passed, c.witness) for c in report.checks] == reference_axioms(a, mode)
    # two that hold in both products and one that fails
    for text in ("xyz = O", "xy = yx", "xx = x"):
        ident = parse_identity(text)
        res = satisfies(a, ident)
        assert (res.holds, res.witness) == reference_satisfies(a, ident)
    assert "_lane_tables" in vars(a)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([("M", "K"), ("M", "M")]), three_letter_identities)
def test_lane_column_matches_the_reference_on_drawn_identities(names, ident):
    a = direct_product(*map(builtin, names))  # orders 20 and 25: one-letter lane column
    res = satisfies(a, ident)
    assert (res.holds, res.witness) == reference_satisfies(a, ident)


@settings(max_examples=300)
@given(words, words)
def test_normal_forms_track_the_full_theory(u, v):
    ident = Identity(u, v, Mode.IS)
    assert (normalize_is(u) == normalize_is(v)) == decide(Variety.IS, ident)


@settings(max_examples=200)
@given(words, words)
def test_decide_is_symmetric(u, v):
    for variety in (Variety.B, Variety.K, Variety.M, Variety.SL_ZM, Variety.IS):
        assert decide(variety, Identity(u, v, Mode.IS)) == decide(
            variety, Identity(v, u, Mode.IS)
        )


def test_relabel_helper_round_trips():
    a = builtin("K")
    for perm in itertools.permutations(range(4)):
        inverse = tuple(perm.index(i) for i in range(4))
        back = relabel(relabel(a, perm), inverse)
        assert back.table == a.table and back.distinguished == a.distinguished
