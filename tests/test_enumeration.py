import functools
import hashlib
import itertools
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

from varietylab import enumeration, models, verify
from varietylab.enumeration import (
    MAX_KEPT_RELABELINGS,
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
    # orders within the enumeration bound; M (order 5) is out of reach
    expected = {1: ("trivial",), 2: ("A", "Z"), 3: ("B",), 4: ("K", "L")}
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


@settings(max_examples=10, deadline=None)
@given(algebras(6, 6))
def test_canonical_form_matches_reference_at_order_six(a):
    # above MAX_ORDER, on the order-6 relabelings kept beside the census ones
    assert canonical_form(a) == reference_canonical_form(a)


def test_relabeling_tables_kept_are_bounded(monkeypatch):
    monkeypatch.setattr(enumeration, "_RELABELINGS", {})
    for n in range(1, 8):
        canonical_form(make_algebra([[0] * n] * n, n - 1))
    kept = enumeration._RELABELINGS
    # order 7's 720 relabelings are built for the call, not kept
    assert sorted(kept) == [2, 3, 4, 5, 6]
    assert max(map(len, kept.values())) == MAX_KEPT_RELABELINGS


def test_order_six_calls_share_one_relabeling_table(monkeypatch):
    monkeypatch.setattr(enumeration, "_RELABELINGS", {})
    canonical_form(make_algebra([[0] * 6] * 6, 0))
    table = enumeration._RELABELINGS[6]
    canonical_form(make_algebra([[p * q % 6 for q in range(6)] for p in range(6)], 0))
    assert enumeration._relabelings(6) is table


@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_census_matches_naive_oracle(order, mode):
    # validates both the pruning and pinning the constant at index 0
    assert brute_force_census(order, mode) == _census(order, mode)[0]


# sha256 of the joined canonical blobs, taken from the full-scan engine that
# preceded the incremental one (no symmetry breaking, every leaf kept)
ORDER_FOUR_DIGESTS = {
    Mode.IS: (26, "7ebb6a182e5d092df872443079b54fc82d3e5ed034e98e2808ea4c23ae21e1b6"),
    Mode.IZ: (249, "02fbef5b31c99245df78863a6c8b774cfb482776aa323a174ead050fa3314845"),
}


@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
def test_order_four_census_matches_pinned_digest(mode):
    blobs, _ = _census(4, mode)
    assert (len(blobs), hashlib.sha256(b"".join(blobs)).hexdigest()) == ORDER_FOUR_DIGESTS[mode]


@pytest.mark.parametrize(
    "mode, stats",
    [
        (Mode.IS, SearchStats(nodes=1983, prunes=1375, leaves=112, leaf_rejects=0)),
        (Mode.IZ, SearchStats(nodes=12264, prunes=8168, leaves=1029, leaf_rejects=0)),
    ],
)
def test_order_four_search_counts(mode, stats):
    # each leaf is canonicalised into a set, and check_axioms, run once per
    # class on the output representative, rejects no class the instance
    # checks let through (leaf_rejects counts classes); the other counts pin
    # the pruning, the symmetry breaking and (nodes and prunes only) the
    # choice of the next cell
    assert enumerate_algebras(4, mode).stats == stats


def test_order_five_associative_census_matches_pinned_digest():
    # digest taken from the walk that filled the cells in row-major order
    blobs, _ = _census(5, Mode.IS)
    assert (len(blobs), hashlib.sha256(b"".join(blobs)).hexdigest()) == (
        206,
        "d7e067e0410f415a1e9aa3a9e32ec56fe20065802810888bbae74ec13393f7da",
    )


def test_order_five_associative_report():
    rep = enumerate_algebras(5, Mode.IS)
    assert rep.count == 206
    assert sum(rep.per_variety.values()) == 206


@pytest.mark.parametrize("mode", [Mode.IS, Mode.IZ])
def test_class_check_catches_a_planted_fault(monkeypatch, mode):
    # with all laws but the first gone, the walk lets through tables that
    # break the axioms; the check once per class must drop them
    monkeypatch.setitem(enumeration._LAWS, mode, enumeration._LAWS[mode][:1])
    blobs, stats = _census(3, mode)
    assert blobs == brute_force_census(3, mode)
    assert stats.leaf_rejects > 0


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
    # the pins of the two tests above
    for mode, stats in (
        (Mode.IS, SearchStats(nodes=1983, prunes=1375, leaves=112, leaf_rejects=0)),
        (Mode.IZ, SearchStats(nodes=12264, prunes=8168, leaves=1029, leaf_rejects=0)),
    ):
        blobs, walked = _census(4, mode)
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        assert ((len(blobs), digest), walked) == (ORDER_FOUR_DIGESTS[mode], stats)
    assert enumerate_algebras(2, Mode.IS, jobs=2).algebras == (
        enumerate_algebras(2, Mode.IS, jobs=1).algebras
    )


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
