import itertools

import pytest
from hypothesis import given, settings, strategies as st

from varietylab import models, varieties
from varietylab.lattice import (
    EXPECTED_COVERS,
    N5,
    FiniteLattice,
    LatticeError,
    build_lattice,
    find_n5,
    is_distributive,
    is_zero_distributive,
    neutral_elements,
)
from varietylab.varieties import Variety


@pytest.fixture(scope="module")
def lat():
    return build_lattice()


def test_build_shape(lat):
    assert len(lat) == 16
    assert set(lat.covers()) == set(EXPECTED_COVERS)
    assert lat.least() is Variety.T
    # row-major index order, which the lattice and verify-paper output keep
    order = [(lat.index(lo), lat.index(hi)) for lo, hi in lat.covers()]
    assert order == sorted(order)


def test_leq_is_closure_of_expected_covers(lat):
    closure = FiniteLattice.from_cover_pairs(lat.elements, EXPECTED_COVERS)
    for x, y in itertools.product(lat.elements, repeat=2):
        assert lat.leq(x, y) == closure.leq(x, y)


def test_join_meet_examples(lat):
    assert lat.join(Variety.B, Variety.M) is Variety.IS
    assert lat.join(Variety.B, Variety.K) is Variety.B_K
    assert lat.join(Variety.B, Variety.L) is Variety.B_K
    assert lat.join(Variety.B, Variety.N) is Variety.IS
    assert lat.meet(Variety.SL_N, Variety.B_K) is Variety.SL_L


def test_lattice_laws_exhaustive(lat):
    for x, y in itertools.product(lat.elements, repeat=2):
        assert lat.join(x, y) == lat.join(y, x)
        assert lat.meet(x, y) == lat.meet(y, x)
        assert lat.join(x, lat.meet(x, y)) == x
        assert lat.meet(x, lat.join(x, y)) == x
    for x, y, z in itertools.product(lat.elements, repeat=3):
        assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))
        assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))


def test_separation_witnesses_cover_every_non_leq_pair(lat):
    for v, w in itertools.product(lat.elements, repeat=2):
        if lat.leq(v, w):
            assert varieties.separation(v, w) is None
        else:
            gname, ident, witness = varieties.separation(v, w)
            assert gname in varieties.record(v).generators
            assert ident in varieties.record(w).basis
            res = models.satisfies(models.builtin(gname), ident)
            assert not res.holds and res.witness == witness


def test_find_n5(lat):
    pentagon = find_n5(lat)
    assert pentagon is not None
    o, a, b, c, i = pentagon
    assert lat.leq(o, a) and lat.leq(a, c) and lat.leq(c, i)
    assert a != c and o != a and c != i
    assert not lat.leq(b, a) and not lat.leq(a, b)
    assert lat.join(a, b) == i == lat.join(c, b)
    assert lat.meet(a, b) == o == lat.meet(c, b)
    # the known pentagon is among the valid ones
    known = (Variety.SL, Variety.SL_M, Variety.B, Variety.SL_N, Variety.IS)
    o, a, b, c, i = known
    assert lat.join(a, b) == i == lat.join(c, b)
    assert lat.meet(a, b) == o == lat.meet(c, b)
    assert lat.leq(a, c)


def test_find_n5_absent_in_modular_parts(lat):
    chain = lat.restrict((Variety.T, Variety.SL, Variety.B))
    assert find_n5(chain) is None
    assert find_n5(lat.down_set(Variety.N)) is None


def reference_find_n5(lat):
    """The former find_n5: every 5-subset in index order, tested for a
    pentagon sublattice."""
    n = len(lat.elements)
    leq = [[lat._up[i] >> j & 1 for j in range(n)] for i in range(n)]
    e = lat.elements
    for combo in itertools.combinations(range(n), 5):
        bottoms = [x for x in combo if all(leq[x][y] for y in combo)]
        tops = [x for x in combo if all(leq[y][x] for y in combo)]
        if len(bottoms) != 1 or len(tops) != 1:
            continue
        o, i = bottoms[0], tops[0]
        rest = [x for x in combo if x not in (o, i)]
        for b in rest:
            p, q = (x for x in rest if x != b)
            if leq[p][q]:
                lo, hi = p, q
            elif leq[q][p]:
                lo, hi = q, p
            else:
                continue
            if leq[b][lo] or leq[lo][b] or leq[b][hi] or leq[hi][b]:
                continue
            if (
                lat.join(e[lo], e[b]) == e[i]
                and lat.join(e[hi], e[b]) == e[i]
                and lat.meet(e[lo], e[b]) == e[o]
                and lat.meet(e[hi], e[b]) == e[o]
            ):
                return N5(e[o], e[lo], e[b], e[hi], e[i])
    return None


def reference_neutral_elements(lat):
    """The former neutral_elements: the median equation plus join- and
    meet-distributivity of the element."""
    out = []
    for x in lat.elements:
        ok = True
        for y, z in itertools.product(lat.elements, repeat=2):
            median_meet = lat.join(lat.join(lat.meet(x, y), lat.meet(y, z)), lat.meet(z, x))
            median_join = lat.meet(lat.meet(lat.join(x, y), lat.join(y, z)), lat.join(z, x))
            if median_meet != median_join:
                ok = False
                break
            if lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z)):
                ok = False
                break
            if lat.join(x, lat.meet(y, z)) != lat.meet(lat.join(x, y), lat.join(x, z)):
                ok = False
                break
        if ok:
            out.append(x)
    return frozenset(out)


def reference_is_distributive(lat):
    """The former is_distributive: the triple check on element labels."""
    for x, y, z in itertools.product(lat.elements, repeat=3):
        if lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z)):
            return False, (x, y, z)
    return True, None


def reference_is_zero_distributive(lat):
    """The former is_zero_distributive: the triple check on element labels."""
    bottom = lat.least()
    for x, y, z in itertools.product(lat.elements, repeat=3):
        if lat.meet(x, z) == bottom and lat.meet(y, z) == bottom:
            if lat.meet(lat.join(x, y), z) != bottom:
                return False, (x, y, z)
    return True, None


def assert_criteria_agree_with_reference(sub):
    assert find_n5(sub) == reference_find_n5(sub)
    assert neutral_elements(sub) == reference_neutral_elements(sub)
    assert is_distributive(sub) == reference_is_distributive(sub)
    assert is_zero_distributive(sub) == reference_is_zero_distributive(sub)


PENTAGON = FiniteLattice.from_cover_pairs(
    "oacbi", (("o", "a"), ("a", "c"), ("c", "i"), ("o", "b"), ("b", "i"))
)
M3 = FiniteLattice.from_cover_pairs(
    "oabci", (("o", "a"), ("o", "b"), ("o", "c"), ("a", "i"), ("b", "i"), ("c", "i"))
)
CHAIN = FiniteLattice.from_cover_pairs("0123", (("0", "1"), ("1", "2"), ("2", "3")))


def test_pinned_pentagon_and_neutral_elements(lat):
    assert find_n5(lat) == N5(Variety.T, Variety.K, Variety.B, Variety.L, Variety.B_K)
    assert sorted(map(str, neutral_elements(lat))) == ["B+K", "IS", "SL", "SL+ZM", "T", "ZM"]
    assert find_n5(PENTAGON) == N5("o", "a", "b", "c", "i")
    assert find_n5(M3) is None and neutral_elements(M3) == {"o", "i"}
    assert find_n5(CHAIN) is None and neutral_elements(CHAIN) == set(CHAIN.elements)


def test_criteria_agree_with_reference_on_known_lattices(lat):
    lattices = [lat.down_set(v) for v in lat.elements] + [PENTAGON, M3, CHAIN]
    for sub in lattices:
        assert_criteria_agree_with_reference(sub)


@st.composite
def closure_systems(draw):
    """A family of subsets of at most 5 points (bitmasks), closed under
    intersection, with the full set added, in a drawn element order: a
    lattice under inclusion that need not embed in the subvariety lattice."""
    points = draw(st.integers(1, 5))
    full = (1 << points) - 1
    family = {full} | draw(st.sets(st.integers(0, full), max_size=8))
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    elements = draw(st.permutations(sorted(family)))
    return FiniteLattice(elements, lambda a, b: a & ~b == 0)


@settings(max_examples=300, deadline=None)
@given(closure_systems())
def test_criteria_agree_with_reference_on_random_lattices(sub):
    assert_criteria_agree_with_reference(sub)


def test_distributivity(lat):
    ok, witness = is_distributive(lat)
    assert not ok and witness is not None
    assert is_distributive(lat.down_set(Variety.N))[0]
    two = FiniteLattice.from_cover_pairs(("bot", "top"), (("bot", "top"),))
    assert is_distributive(two)[0]


def test_zero_distributivity(lat):
    assert is_zero_distributive(lat)[0]
    assert find_n5(PENTAGON) is not None
    assert is_zero_distributive(PENTAGON)[0]
    assert is_zero_distributive(M3) == (False, ("a", "b", "c"))
    two = FiniteLattice.from_cover_pairs(("bot", "top"), (("bot", "top"),))
    assert is_zero_distributive(two)[0]


def test_neutral_elements(lat):
    neutral = neutral_elements(lat)
    assert Variety.SL in neutral
    assert Variety.ZM in neutral
    assert Variety.T in neutral and Variety.IS in neutral
    # anything sitting inside a pentagon in a non-bound role is not neutral
    assert Variety.B not in neutral
    assert Variety.SL_M not in neutral
    assert Variety.SL_N not in neutral


def test_atoms(lat):
    assert lat.atoms() == {Variety.SL, Variety.ZM}
    assert lat.down_set(Variety.N).atoms() == {Variety.ZM}
    two = FiniteLattice.from_cover_pairs(("bot", "top"), (("bot", "top"),))
    assert two.atoms() == {"top"}


def test_down_sets(lat):
    b_down = lat.down_set(Variety.B)
    assert set(b_down.elements) == {Variety.T, Variety.SL, Variety.B}
    assert b_down.leq(Variety.T, Variety.SL) and b_down.leq(Variety.SL, Variety.B)
    assert len(lat.down_set(Variety.N)) == 6


def test_to_dot_stable(lat):
    dot = lat.to_dot()
    assert dot == lat.to_dot()
    assert dot.startswith("digraph hasse {")
    assert '"B" -> "B+ZM";' in dot
    assert dot.count("->") == 25
    assert dot.index('"B";') < dot.index('"B+K";') < dot.index('"B+ZM";')


def test_order_decision_consistency(lat):
    words = varieties.exhaustive_identity_words(max_length=2)
    idents = [
        varieties.parse_identity(f"{u} = {w}")
        for u, w in itertools.product(words, repeat=2)
    ]
    for v, w in itertools.product(lat.elements, repeat=2):
        if lat.leq(v, w):
            for ident in idents:
                if varieties.decide(w, ident):
                    assert varieties.decide(v, ident)


def relation(pairs: str):
    """The relation that holds on exactly the pairs xy listed, space-separated."""
    held = set(pairs.split())
    return lambda x, y: x + y in held


def test_invalid_orders_rejected():
    with pytest.raises(LatticeError):
        FiniteLattice(("a", "b"), relation("aa"))
    with pytest.raises(LatticeError):
        FiniteLattice(("a", "b"), relation("aa ab ba bb"))
    with pytest.raises(LatticeError, match="not transitive at \\(a, b, c\\)"):
        FiniteLattice(("a", "b", "c"), relation("aa ab bb bc cc"))
    # three pairwise-incomparable elements have no joins
    with pytest.raises(LatticeError):
        FiniteLattice(("a", "b", "c"), relation("aa bb cc"))
    with pytest.raises(LatticeError, match="^duplicate elements$"):
        FiniteLattice(("a", "a"), relation("aa"))
    with pytest.raises(LatticeError, match="^no least element$"):
        FiniteLattice((), relation("")).least()
