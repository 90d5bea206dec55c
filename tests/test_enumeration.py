import copy
import dataclasses
import functools
import hashlib
import itertools
import multiprocessing
import operator

import pytest
from hypothesis import given, settings, strategies as st

from varietylab import enumeration, models, varieties, verify
from varietylab.enumeration import (
    MAX_CANONICAL_ORDER,
    MAX_ORDER,
    EnumerationReport,
    SearchStats,
    _census,
    canonical_form,
    classify,
    enumerate_algebras,
    render_report,
)
from varietylab.models import builtin, check_axioms, is_isomorphic, make_algebra
from varietylab.terms import Mode
from varietylab.varieties import Variety


def reference_canonical_form(a):
    """The brute-force canonical form: every relabeling that sends the
    distinguished element to 0, applied cell by cell; the least bytes win."""
    n = a.order
    d = a.distinguished
    rest = [i for i in range(n) if i != d]
    best = None
    for image in itertools.permutations(range(1, n)):
        pi = [0] * n
        pi[d] = 0
        inv = [d] * n
        for new, old in zip(image, rest):
            pi[old] = new
            inv[new] = old
        flat = bytes(
            pi[a.table[inv[p]][inv[q]]] for p in range(n) for q in range(n)
        )
        if best is None or flat < best:
            best = flat
    if best is None:  # order 1
        best = bytes([a.table[0][0]])
    return bytes([n]) + best


@functools.cache  # three tests ask for each order-3 census
def brute_force_census(order, mode):
    """Independent oracle: every table, every distinguished element, no
    pruning, no backtracking; reference forms of the axiom survivors."""
    blobs = set()
    for flat in itertools.product(range(order), repeat=order * order):
        table = [flat[i * order:(i + 1) * order] for i in range(order)]
        for d in range(order):
            a = make_algebra(table, d)
            if check_axioms(a, mode).passed:
                blobs.add(reference_canonical_form(a))
    return tuple(sorted(blobs))


def blobs_of(algebras):
    """The canonical forms of census representatives: a representative's
    table is its canonical form, so its order and cells, row by row."""
    return tuple(bytes([a.order, *itertools.chain.from_iterable(a.table)]) for a in algebras)


@st.composite
def algebras(draw, min_order, max_order):
    """A random table of an order in the range, any distinguished element."""
    n = draw(st.integers(min_order, max_order))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    rows = [cells[i * n:(i + 1) * n] for i in range(n)]
    return make_algebra(rows, draw(st.integers(0, n - 1)))


def test_bounds_enforced():
    with pytest.raises(ValueError):
        enumerate_algebras(6, Mode.IS)
    with pytest.raises(ValueError):
        enumerate_algebras(0, Mode.IS)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            enumerate_algebras(2, Mode.IS, jobs=jobs)


def test_order_one():
    rep = enumerate_algebras(1, Mode.IS)
    assert rep.count == 1
    assert rep.per_variety == {Variety.T: 1}
    assert enumerate_algebras(1, Mode.IZ).count == 1


def test_order_two_is_contains_A_and_Z():
    rep = enumerate_algebras(2, Mode.IS)
    forms = {canonical_form(a) for a in rep.algebras}
    assert canonical_form(builtin("A")) in forms
    assert canonical_form(builtin("Z")) in forms
    assert rep.count == 2


def test_order_two_iz_contains_2s_and_2b():
    rep = enumerate_algebras(2, Mode.IZ)
    forms = {canonical_form(a) for a in rep.algebras}
    assert canonical_form(builtin("2s")) in forms
    assert canonical_form(builtin("2b")) in forms


def test_every_enumerated_algebra_passes_axioms():
    for order in (1, 2, 3):
        for mode in (Mode.IS, Mode.IZ):
            for a in enumerate_algebras(order, mode).algebras:
                assert check_axioms(a, mode).passed


def test_builtins_appear_at_their_order():
    expected = {1: ("trivial",), 2: ("A", "Z"), 3: ("B",), 4: ("K", "L"), 5: ("M",)}
    for order, names in expected.items():
        forms = {canonical_form(a) for a in enumerate_algebras(order, Mode.IS).algebras}
        for name in names:
            assert canonical_form(builtin(name)) in forms, name


def test_canonical_form_examples():
    z = builtin("Z")
    z_swapped = make_algebra([[0, 0], [0, 0]], 0)
    assert canonical_form(z) == canonical_form(z_swapped)
    assert canonical_form(builtin("A")) != canonical_form(z)
    assert canonical_form(builtin("trivial")) == bytes([1, 0])
    assert is_isomorphic(z, z_swapped)


@settings(max_examples=300, deadline=None)
@given(algebras(1, 5))
def test_canonical_form_matches_reference(a):
    assert canonical_form(a) == reference_canonical_form(a)
    # the census walk's route: the order, then the cells, with 0 distinguished
    flat = bytes([a.order, *itertools.chain.from_iterable(a.table)])
    assert canonical_form(flat) == reference_canonical_form(make_algebra(a.table, 0))


@settings(max_examples=10, deadline=None)
@given(algebras(6, 6))
def test_canonical_form_matches_reference_at_order_six(a):
    # above MAX_ORDER, on the order-6 relabelings kept beside the census ones
    assert canonical_form(a) == reference_canonical_form(a)


def test_relabeling_tables_kept_are_bounded():
    enumeration._relabelings.cache_clear()
    for n in range(1, MAX_CANONICAL_ORDER + 1):
        canonical_form(make_algebra([[0] * n] * n, n - 1))
    # order 7 is refused, by either route, before its 720 relabelings are built
    with pytest.raises(ValueError, match="order 7 "):
        canonical_form(make_algebra([[0] * 7] * 7, 6))
    with pytest.raises(ValueError, match="order 7 "):
        canonical_form(bytes([7, *[0] * 49]))
    assert enumeration._relabelings.cache_info().currsize == 5  # orders 2 to 6
    assert max(len(enumeration._relabelings(n)) for n in range(2, 7)) == 120


@pytest.mark.parametrize(
    "blob",
    [bytes([2, 5, 5, 5, 5]), bytes([2, 0, 0]), bytes(6), b""],
    ids=["cell-above-order", "too-short", "order-0", "empty"],
)
def test_canonical_form_refuses_malformed_bytes(blob):
    with pytest.raises(ValueError, match="^canonical_form: bytes must be an order n >= 1, then"):
        canonical_form(blob)


def test_order_six_calls_share_one_relabeling_table():
    canonical_form(make_algebra([[0] * 6] * 6, 0))
    table = enumeration._relabelings(6)
    canonical_form(make_algebra([[p * q % 6 for q in range(6)] for p in range(6)], 0))
    assert enumeration._relabelings(6) is table


@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_census_matches_naive_oracle(order, mode):
    # validates both the pruning and pinning the constant at index 0
    assert brute_force_census(order, mode) == blobs_of(_census(order, mode)[0])


# sha256 of the joined canonical blobs, taken from the full-scan engine that
# preceded the incremental one (no symmetry breaking, every leaf kept)
ORDER_FOUR_DIGESTS = {
    Mode.IS: (26, "7ebb6a182e5d092df872443079b54fc82d3e5ed034e98e2808ea4c23ae21e1b6"),
    Mode.IZ: (249, "02fbef5b31c99245df78863a6c8b774cfb482776aa323a174ead050fa3314845"),
}


@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
def test_order_four_census_matches_pinned_digest(mode):
    blobs = blobs_of(_census(4, mode)[0])
    assert (len(blobs), hashlib.sha256(b"".join(blobs)).hexdigest()) == ORDER_FOUR_DIGESTS[mode]


# SearchStats(nodes, prunes, leaves, leaf_rejects) of each walk, taken from
# the walk that cuts every prefix that is not the least of its relabelings
# (orders 1 and 2 have no relabeling to cut by)
SEARCH_COUNTS = {
    Mode.IS: {
        1: SearchStats(1, 0, 1, 0),
        2: SearchStats(12, 5, 2, 0),
        3: SearchStats(110, 64, 8, 0),
        4: SearchStats(1195, 802, 81, 0),
    },
    Mode.IZ: {
        1: SearchStats(1, 0, 1, 0),
        2: SearchStats(20, 8, 3, 0),
        3: SearchStats(338, 199, 21, 0),
        4: SearchStats(7624, 5087, 496, 0),
    },
}


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
def test_search_counts(mode, order):
    # each leaf is canonicalised into a set, and check_axioms, run once per
    # class on the output representative, rejects no class the instance
    # checks let through (leaf_rejects counts classes); the other counts pin
    # the pruning, the symmetry breaking (the least-number bound and the
    # least-prefix cut) and (nodes and prunes only) the choice of the next
    # cell.  At orders 1 to 3 the prefix covers most of the table, so a
    # wrong bound or handover between the two cell-choice rules shows there
    # first
    assert enumerate_algebras(order, mode).stats == SEARCH_COUNTS[mode][order]


def test_order_five_associative_census_matches_pinned_digest():
    # digest taken from the walk that filled the cells in row-major order
    blobs = blobs_of(_census(5, Mode.IS)[0])
    assert (len(blobs), hashlib.sha256(b"".join(blobs)).hexdigest()) == (
        206,
        "d7e067e0410f415a1e9aa3a9e32ec56fe20065802810888bbae74ec13393f7da",
    )


def test_order_five_associative_report():
    rep = enumerate_algebras(5, Mode.IS)
    assert rep.count == 206
    assert sum(rep.per_variety.values()) == 206
    # the order-five pin beside the order-four ones above, read off the cached walk
    assert rep.stats == SearchStats(nodes=31486, prunes=22281, leaves=2842, leaf_rejects=0)


@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
def test_propagation_leaves_its_instance_lists_as_they_were(monkeypatch, mode):
    # backtracking has no undo, so each call must leave the lists it is given,
    # their instances and the register lists those hold, exactly as they were
    propagate = enumeration._propagate
    unchanged = []

    def checked(pending, c, t, n):
        before = copy.deepcopy(pending)
        kept = propagate(pending, c, t, n)
        unchanged.append(pending == before)
        return kept

    monkeypatch.setattr(enumeration, "_propagate", checked)
    enumeration._search(3, mode)
    assert unchanged and all(unchanged)


@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
def test_class_check_catches_a_planted_fault(monkeypatch, mode):
    # with all laws but the first gone, the walk lets through tables that
    # break the axioms; the check once per class must drop them
    monkeypatch.setitem(enumeration._LAWS, mode, enumeration._LAWS[mode][:1])
    passed, stats = _census(3, mode)
    assert blobs_of(passed) == brute_force_census(3, mode)
    assert stats.leaf_rejects > 0


def _greatest_prefix(t, key, images):
    return all(bytes(key(t)) >= bytes(get(t)).translate(pi) for get, pi in images)


def _no_ties(t, key, images):
    return all(bytes(key(t)) < bytes(get(t)).translate(pi) for get, pi in images)


@pytest.mark.parametrize(
    "leader, mode",
    [(_greatest_prefix, Mode.IZ), (_no_ties, Mode.IS), (_no_ties, Mode.IZ)],
    ids=["greatest-iz", "no-ties-is", "no-ties-iz"],
)
def test_oracle_catches_a_planted_fault_in_the_prefix_cut(monkeypatch, leader, mode):
    # keeping the greatest prefix, or dropping a prefix tied with its image
    # under another relabeling, cuts whole classes, which the class check
    # cannot see: only the brute-force census does
    monkeypatch.setattr(enumeration, "_is_leader", leader)
    found = set(blobs_of(_census(3, mode)[0]))
    assert found < set(brute_force_census(3, mode))


# the fill order of row 0 and column 0, written out apart from the walk's
FILL_ORDER = {n: [(0, 0)] + [c for j in range(1, n) for c in ((0, j), (j, 0))] for n in range(2, 6)}


@st.composite
def prefixes(draw):
    """Values for row 0 and column 0 of a random order from 2 to 5, keyed by
    cell (i, j), with no other cell set."""
    n = draw(st.integers(2, 5))
    values = draw(st.lists(st.integers(0, n - 1), min_size=2 * n - 1, max_size=2 * n - 1))
    return n, dict(zip(FILL_ORDER[n], values))


@settings(max_examples=300, deadline=None)
@given(prefixes())
def test_least_image_of_a_prefix_passes_the_cut_and_the_least_number_bound(drawn):
    # the soundness of the cut: every class keeps a member whose prefix the
    # walk reaches under the least-number bound and the cut lets through
    n, cells = drawn
    order = FILL_ORDER[n]
    least = min(
        (
            {(pi[i], pi[j]): pi[v] for (i, j), v in cells.items()}
            for pi in ((0, *image) for image in itertools.permutations(range(1, n)))
        ),
        key=lambda table: [table[c] for c in order],
    )
    mdn = 0
    for i, j in order:
        mdn = max(mdn, i, j)
        assert least[i, j] <= mdn + 1
        mdn = max(mdn, least[i, j])

    def flat(table):  # the walk's flat table: the prefix set, every other cell None
        t = [None] * (n * n)
        for (i, j), v in table.items():
            t[i * n + j] = v
        return t

    prefix = enumeration._prefix(n)
    key, images = operator.itemgetter(*prefix), enumeration._relabeled(n, prefix)[1:]
    assert enumeration._is_leader(flat(least), key, images)
    # and the cut keeps exactly the prefixes equal to their least image
    assert enumeration._is_leader(flat(cells), key, images) == (cells == least)


def test_report_carries_the_time_of_the_walk_that_ran(monkeypatch):
    monkeypatch.setattr(enumeration, "_cache", {})
    first = enumerate_algebras(3, Mode.IZ)
    assert first.elapsed_s > 0
    # a cache hit reports the cached walk's time, whatever jobs asks for
    assert enumerate_algebras(3, Mode.IZ, jobs=2).elapsed_s == first.elapsed_s


@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
def test_order_three_pins_of_the_check_match_brute_force(mode):
    # verify-paper's parallel-determinism line compares the search with these
    blobs = brute_force_census(3, mode)
    assert verify.ORDER_THREE_CENSUS[mode] == " ".join("".join(map(str, b[1:])) for b in blobs)


def test_census_is_one_walk_whatever_jobs(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the census started a worker pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(enumeration, "_cache", {})
    # the order-four pins of the tests above
    for mode in (Mode.IS, Mode.IZ):
        passed, walked = _census(4, mode)
        blobs = blobs_of(passed)
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        assert ((len(blobs), digest), walked) == (ORDER_FOUR_DIGESTS[mode], SEARCH_COUNTS[mode][4])
    assert enumerate_algebras(2, Mode.IS, jobs=2).algebras == (
        enumerate_algebras(2, Mode.IS, jobs=1).algebras
    )


def test_report_is_built_once_and_frozen(monkeypatch):
    rep = enumerate_algebras(4, Mode.IS)
    assert enumerate_algebras(4, Mode.IS) is rep
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.algebras = ()
    calls = []
    variety_of = varieties.variety_of
    monkeypatch.setattr(varieties, "variety_of", lambda a: calls.append(a) or variety_of(a))
    classify(rep)
    render_report(rep)
    assert calls == []
    histogram = " ".join(f"{v}:{rep.per_variety[v]}" for v in sorted(rep.per_variety, key=str))
    assert histogram == "B:4 B+ZM:2 K:1 L:1 M:4 N:3 SL:2 SL+M:2 SL+ZM:6 ZM:1"


@pytest.mark.parametrize(
    "order, counts",
    [(1, (1, 1)), (2, (2, 3)), (3, (6, 17)), (4, (26, 249)), (5, (206, 22707))],
)
def test_associative_census_is_the_tree_mode_census_cut_by_the_is_axioms(order, counts):
    # the same tables checked by the other mode's axioms: two searches, one answer
    associative = enumerate_algebras(order, Mode.IS).algebras
    tree = enumerate_algebras(order, Mode.IZ).algebras
    assert (len(associative), len(tree)) == counts
    assert {canonical_form(a) for a in associative} == {
        canonical_form(a) for a in tree if check_axioms(a, Mode.IS).passed
    }


def test_classify_small_orders():
    assert classify(enumerate_algebras(1, Mode.IS)) == {Variety.T: 1}
    counts = classify(enumerate_algebras(2, Mode.IS))
    assert counts == {Variety.SL: 1, Variety.ZM: 1}
    with pytest.raises(ValueError):
        classify(enumerate_algebras(2, Mode.IZ))


def test_classify_order_four_recovers_K_and_L():
    rep = enumerate_algebras(4, Mode.IS)
    counts = classify(rep)
    assert counts[Variety.K] == 1
    assert counts[Variety.L] == 1
    k_form = canonical_form(builtin("K"))
    l_form = canonical_form(builtin("L"))
    by_form = {canonical_form(a): a for a in rep.algebras}
    assert models.satisfies(by_form[k_form], "xy = yx")
    assert not models.satisfies(by_form[l_form], "xy = yx")


def test_classify_order_five():
    # every class checked against its variety's keys over the bounded word space
    counts = classify(enumerate_algebras(5, Mode.IS))
    histogram = " ".join(f"{v}:{counts[v]}" for v in sorted(counts, key=str))
    assert histogram == (
        "B:18 B+ZM:16 IS:2 K:3 L:13 M:20 N:82 SL:5 SL+K:3 SL+L:4 SL+M:14 SL+N:8 SL+ZM:17 ZM:1"
    )
    # 14 of the 16 varieties: no order-5 algebra generates T or B+K
    assert set(Variety) - set(counts) == {Variety.T, Variety.B_K}


def test_render_report_format():
    rep = enumerate_algebras(2, Mode.IS)
    text = render_report(rep)
    assert text.endswith("order=2 mode=is classes=2\n")
    assert text.count("# variety:") == 2
    iz = render_report(enumerate_algebras(2, Mode.IZ))
    assert "# variety:" not in iz
    assert iz.endswith("order=2 mode=iz classes=3\n")


def test_report_counts_consistent():
    rep = enumerate_algebras(3, Mode.IS)
    assert isinstance(rep, EnumerationReport)
    assert sum(rep.per_variety.values()) == rep.count
