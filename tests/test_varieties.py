import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from varietylab import models, varieties, verify
from varietylab.enumeration import enumerate_algebras
from varietylab.terms import (
    Identity,
    Mode,
    Word,
    contains_square,
    length,
    los,
    normalize_is,
    parse_identity,
    substitute,
)
from varietylab.varieties import (
    _COMPONENT_KEYS,
    Variety,
    compare_ids,
    decide,
    dense_ids,
    exhaustive_identity_words,
    generator_leq,
    key,
    key_ids,
    record,
    registry,
    variety_by_name,
    variety_of,
)


def ident(text):
    return parse_identity(text)


def _clear_registry_caches():
    for cached in (varieties.registry, varieties.separation):
        cached.cache_clear()


def test_registry_rejects_a_generator_that_violates_its_basis(monkeypatch):
    components, generators, texts = varieties._TABLE[Variety.SL]
    planted = (components, generators, texts + ("xy = O",))
    monkeypatch.setitem(varieties._TABLE, Variety.SL, planted)
    _clear_registry_caches()
    try:
        with pytest.raises(models.VerificationError) as exc:
            registry()
        assert str(exc.value) == "generator A violates basis of SL: xy = O at {'x': 0, 'y': 0}"
    finally:
        # no other test may see the planted row, nor records built from it
        monkeypatch.undo()
        _clear_registry_caches()
    assert len(registry()) == 16


def test_registry_size_and_examples():
    recs = registry()
    assert len(recs) == 16
    assert [str(i) for i in record(Variety.SL_ZM).basis] == ["xy = yxO"]
    assert [str(i) for i in record(Variety.B_K).basis] == ["xO = xx"]
    assert record(Variety.N).generators == ("L", "M")
    assert record(Variety.IS).basis == ()
    assert record(Variety.T).basis and str(record(Variety.T).basis[0]) == "x = O"


def test_registry_is_a_read_only_mapping_that_record_reads():
    recs = registry()
    assert list(recs) == list(Variety)
    with pytest.raises(TypeError):
        recs[Variety.T] = recs[Variety.IS]
    assert all(record(v) is rec for v, rec in recs.items())
    with pytest.raises(ValueError, match="unknown variety 'XY'"):
        record("XY")


@pytest.mark.parametrize(
    "call",
    [
        lambda: decide("bogus", "x = x"),
        lambda: key("bogus", Word("x")),
        lambda: key_ids("bogus", [Word("x")]),
    ],
    ids=["decide", "key", "key_ids"],
)
def test_an_unknown_variety_is_a_value_error(call):
    with pytest.raises(ValueError, match="^unknown variety 'bogus'$"):
        call()


def test_a_variety_may_be_named_by_its_plain_string():
    assert decide("B", "x = xx") and not decide("B", "xy = yx")
    with pytest.raises(ValueError, match="^unknown variety 'b'$"):
        decide("b", "x = xx")


def test_join_generators_are_component_unions():
    assert set(record(Variety.SL_N).generators) == {"A", "L", "M"}
    assert set(record(Variety.B_ZM).generators) == {"B", "Z"}
    assert set(record(Variety.IS).generators) == {"B", "L", "M"}


def test_variety_by_name():
    assert variety_by_name("SL+ZM") is Variety.SL_ZM
    with pytest.raises(ValueError):
        variety_by_name("SLvZM")


def test_decide_examples():
    assert decide(Variety.IS, "xyz = zOxyzOO")
    assert not decide(Variety.ZM, "x = xx")
    assert not decide(Variety.M, "xO = xx")
    assert decide(Variety.K, "xO = xx")
    assert decide(Variety.B, "xO = xx")


def test_decide_trivial_and_mode():
    assert decide(Variety.ZM, "x = x")
    assert decide(Variety.T, "x = yzO")
    with pytest.raises(ValueError):
        decide(Variety.B, parse_identity("0 = 0'", Mode.IZ))


def test_decide_commutative_law_handling():
    assert decide(Variety.M, "xy = yx")
    assert decide(Variety.K, "xy = yx")
    assert not decide(Variety.L, "xy = yx")
    assert not decide(Variety.N, "xy = yx")
    # renamed copy is still the commutative law, other short identities are not
    assert decide(Variety.M, "zy = yz")
    assert not decide(Variety.M, "xy = xyO")
    assert not decide(Variety.M, "xx = yy")


def oracle(v, identity):
    return all(
        models.satisfies(models.builtin(g), identity).holds
        for g in record(v).generators
    )


def test_decide_matches_oracle_small():
    # quick agreement sweep at length <= 3; the full bound runs in acceptance
    words = exhaustive_identity_words(max_length=3)
    for v in Variety:
        for u, w in itertools.product(words, repeat=2):
            identity = parse_identity(f"{u} = {w}")
            assert decide(v, identity) == oracle(v, identity), (v, str(identity))


def test_monotonicity_small():
    words = exhaustive_identity_words(max_length=3)
    order = [(v, w) for v in Variety for w in Variety if generator_leq(v, w)]
    for u, x in itertools.combinations(words, 2):
        identity = parse_identity(f"{u} = {x}")
        truth = {v: decide(v, identity) for v in Variety}
        for v, w in order:
            if truth[w]:
                assert truth[v], (v, w, str(identity))


def test_substitution_closure_randomized():
    res = verify.invariant_substitution_closure(seed=11, samples=120)
    assert res.passed, res.detail
    assert res.detail == "samples=120/variety failures=0"


def _image_weights(images):
    return [4 ** (3 - len(w)) for w in images]


def test_substitution_images_have_their_stated_probabilities():
    # each of x, y, z: a length uniform on 1..3, then each symbol uniform on xyzO
    images = exhaustive_identity_words(max_length=3)
    weights = _image_weights(images)
    probabilities = [Fraction(weight, sum(weights)) for weight in weights]
    assert len(images) == 84
    for image, p in zip(images, probabilities):
        assert p == Fraction(1, 3) * Fraction(1, 4) ** len(image)
    assert sum(probabilities) == 1
    # each image's entries in the unweighted draw are its weight
    counts = Counter(verify._images_by_weight(images))
    assert [counts[w] for w in images] == weights


def test_unweighted_draw_over_images_by_weight_is_the_weighted_draw():
    images = exhaustive_identity_words(max_length=3)
    by_weight = verify._images_by_weight(images)
    assert len(by_weight) == sum(_image_weights(images)) == 192
    cum_weights = list(itertools.accumulate(_image_weights(images)))
    for seed in range(200):
        weighted = random.Random(seed).choices(images, cum_weights=cum_weights, k=300)
        unweighted = random.Random(seed).choices(by_weight, k=300)
        assert weighted == unweighted, seed


def test_holding_pairs_are_the_ordered_pairs_each_variety_identifies():
    words = exhaustive_identity_words(max_length=3)
    for v in Variety:
        pairs = verify._holding_pairs(v, words)
        block_sizes = Counter(key(v, w) for w in words).values()
        assert len(pairs) == len(set(pairs)) == sum(n * n for n in block_sizes)
        assert all(decide(v, Identity(u, w, Mode.IS)) for u, w in pairs)


def test_normalize_matches_is_decision_small():
    words = exhaustive_identity_words(max_length=3)
    for u, w in itertools.product(words, repeat=2):
        same = normalize_is(u) == normalize_is(w)
        assert same == decide(Variety.IS, parse_identity(f"{u} = {w}"))


def test_variety_of():
    assert variety_of(models.builtin("Z")) is Variety.ZM
    assert variety_of(models.builtin("BxK_mod_I")) is Variety.L
    assert variety_of(models.builtin("trivial")) is Variety.T
    assert variety_of(models.builtin("A")) is Variety.SL
    assert variety_of(models.builtin("B")) is Variety.B
    assert variety_of(models.builtin("K")) is Variety.K
    assert variety_of(models.builtin("L")) is Variety.L
    assert variety_of(models.builtin("M")) is Variety.M


def _variety_of_per_variety_loop(a):
    # the reference: every basis identity of every variety evaluated anew
    sat = [
        v
        for v, rec in registry().items()
        if all(models.satisfies(a, i).holds for i in rec.basis)
    ]
    (least,) = [v for v in sat if all(generator_leq(v, w) for w in sat)]
    return least


ASSOCIATIVE_BUILTINS = ("trivial", "A", "B", "K", "L", "M", "Z")


def test_variety_of_evaluates_each_distinct_identity_once(monkeypatch):
    algebras = [
        models.builtin(name)
        for name in models.BUILTIN_NAMES
        if models.check_axioms(models.builtin(name), Mode.IS).passed
    ]
    algebras += [
        models.direct_product(models.builtin(a), models.builtin(b))
        for a, b in itertools.combinations_with_replacement(ASSOCIATIVE_BUILTINS, 2)
    ]
    algebras += enumerate_algebras(4, Mode.IS).algebras
    assert len(algebras) == 9 + 28 + 26
    want = [_variety_of_per_variety_loop(a) for a in algebras]
    distinct = len(varieties._basis_positions()[0])
    assert distinct == 10
    calls = []
    satisfies = models.satisfies

    def counting_satisfies(a, ident):
        calls.append(ident)
        return satisfies(a, ident)

    sweeps = []
    run = models._run

    def counting_run(a, program):
        sweeps.append(program)
        return run(a, program)

    monkeypatch.setattr(models, "satisfies", counting_satisfies)
    monkeypatch.setattr(models, "_run", counting_run)
    for a, v in zip(algebras, want):
        calls.clear()
        sweeps.clear()
        assert variety_of(a) is v
        assert len(calls) == len(set(calls)) <= distinct
        # the three associative-mode axioms, then one sweep per basis identity evaluated
        assert len(sweeps) == 3 + len(calls)


def test_variety_of_rejects_non_algebra(monkeypatch):
    with pytest.raises(models.AxiomViolationError) as exc:
        variety_of(models.builtin("2b"))
    assert exc.value.report.checks[0].witness == {"x": 0, "y": 0, "z": 0}
    # a semigroup whose least variety the order cannot single out
    monkeypatch.setattr(varieties, "generator_leq", lambda v, w: False)
    with pytest.raises(models.VerificationError, match=r"^no unique least variety among \[") as exc:
        variety_of(models.builtin("Z"))
    # varieties are named as in every other message, not by their reprs
    assert "[ZM, K, " in str(exc.value) and "<Variety." not in str(exc.value)


def test_exhaustive_word_count():
    assert len(exhaustive_identity_words()) == 340


# ---------------------------------------------------------------------------
# Normal-form keys and partition comparison


def _compare_keys(words, key_a, key_b):
    """compare_ids on the partitions two keys draw on the words."""
    return compare_ids(words, dense_ids(map(key_a, words)), dense_ids(map(key_b, words)))


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
def test_compare_partitions_matches_pairwise_count(labels):
    words = list(range(len(labels)))
    key_a, key_b = (lambda w: labels[w][0]), (lambda w: labels[w][1])
    only_a, only_b, pair = _compare_keys(words, key_a, key_b)
    pairs = list(itertools.product(words, repeat=2))
    assert only_a == sum(key_a(u) == key_a(w) and key_b(u) != key_b(w) for u, w in pairs)
    assert only_b == sum(key_b(u) == key_b(w) and key_a(u) != key_a(w) for u, w in pairs)
    if only_a == only_b == 0:
        assert pair is None
    else:
        u, w = pair
        assert (key_a(u) == key_a(w)) != (key_b(u) == key_b(w))
        assert key_a(u) == key_a(w) or not only_a


# the partition comparison as first written, a Counter over the key pairs
# themselves: the reference for the comparison of dense ids


def _reference_compare_partitions(words, key_a, key_b):
    keys = [(key_a(w), key_b(w)) for w in words]
    meet = _reference_sum_squares(keys)
    only_a = _reference_sum_squares(ka for ka, _ in keys) - meet
    only_b = _reference_sum_squares(kb for _, kb in keys) - meet
    return only_a, only_b, _reference_split(words, keys, 0) or _reference_split(words, keys, 1)


def _reference_sum_squares(labels):
    return sum(n * n for n in Counter(labels).values())


def _reference_split(words, keys, side):
    first = {}
    for w, k in zip(words, keys):
        u, ku = first.setdefault(k[side], (w, k))
        if ku != k:
            return u, w
    return None


# few distinct values of each kind, so that labels often collide
_KEY_ATOMS = st.one_of(
    st.none(),
    st.sampled_from(["", "x", "xy"]),
    st.frozensets(st.sampled_from("xy"), max_size=2),
    st.sampled_from([Word("x"), Word("xy"), Word("yx")]),
)
_KEYS = st.one_of(_KEY_ATOMS, st.tuples(_KEY_ATOMS), st.tuples(_KEY_ATOMS, _KEY_ATOMS))


@settings(max_examples=300)
@given(st.lists(st.tuples(_KEYS, _KEYS), max_size=14))
def test_compare_partitions_matches_the_reference_exactly(labels):
    words = [Word("x" * (i + 1)) for i in range(len(labels))]
    by_word = dict(zip(words, labels))
    key_a, key_b = (lambda w: by_word[w][0]), (lambda w: by_word[w][1])
    # the same counts and the same witness pair, not just a valid one
    assert _compare_keys(words, key_a, key_b) == _reference_compare_partitions(
        words, key_a, key_b
    )


def _reference_compare_ids(words, a, b):
    """compare_ids as first written: both sides scanned for a witness."""
    if a == b:
        return 0, 0, None
    pairs = list(zip(a, b))
    meet = _reference_sum_squares(pairs)
    only_a = _reference_sum_squares(a) - meet
    only_b = _reference_sum_squares(b) - meet
    return only_a, only_b, _reference_split(words, pairs, 0) or _reference_split(words, pairs, 1)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
def test_compare_ids_scans_only_a_side_with_pairs(labels):
    words = [f"w{i}" for i in range(len(labels))]
    a, b = [p[0] for p in labels], [p[1] for p in labels]
    scans = []
    split = varieties._split
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(varieties, "_split", lambda *args: scans.append(args[2]) or split(*args))
        only_a, only_b, pair = compare_ids(words, a, b)
    assert (only_a, only_b, pair) == _reference_compare_ids(words, a, b)
    # one scan, on the first side that has pairs, and none when the
    # partitions agree (a nested pair of partitions leaves one side empty)
    assert scans == ([0] if only_a else [1] if only_b else [])


def test_dense_ids_number_labels_by_first_occurrence():
    assert dense_ids(["b", None, "b", ("a",), None]) == [0, 1, 0, 2, 1]
    words = [Word(s) for s in ("x", "xx", "y", "xO", "yx", "xy")]
    assert key_ids(Variety.SL, words) == [0, 0, 1, 0, 2, 2]
    # the same partition under other labels: equal ids, so nothing to split
    assert compare_ids("pqrst", dense_ids("xyxzy"), dense_ids([7, 3, 7, 0, 3])) == (0, 0, None)
    assert compare_ids("pqr", [0, 0, 1], [0, 1, 1]) == (2, 2, ("p", "q"))


@pytest.mark.parametrize("v", list(Variety), ids=str)
def test_key_ids_draw_the_partition_of_the_keys(monkeypatch, v):
    words = list(exhaustive_identity_words(max_length=3))
    assert key_ids(v, words) == dense_ids([key(v, w) for w in words])
    assert key_ids(v, iter(words)) == key_ids(v, words)
    assert key_ids(v, []) == []
    if v is Variety.T:
        assert key_ids(v, words) == [0] * len(words)
    # each call reads the component keys anew, so a patched one is seen
    for component in _COMPONENT_KEYS:
        monkeypatch.setitem(_COMPONENT_KEYS, component, lambda w: len(w) % 3)
    assert key_ids(v, words) == dense_ids([key(v, w) for w in words])


def _generator_oracles(words):
    """Per variety, word -> the tuple of its value classes in v's generators."""
    names = {g for v in Variety for g in record(v).generators}
    classes = {g: models.word_value_classes(models.builtin(g), words) for g in names}
    return {
        v: (lambda w, gens=record(v).generators: tuple(classes[g][w] for g in gens))
        for v in Variety
    }


def test_keys_match_generators_up_to_length_six():
    words = exhaustive_identity_words(max_length=6)
    assert len(words) == 5460
    for v, classes in _generator_oracles(words).items():
        got = _compare_keys(words, lambda w: key(v, w), classes)
        assert got == (0, 0, None), v


# The nil keys as first written, from the word measures length and
# contains_square: the reference for the one vanishing rule that replaced them


def _square_or_long(w):
    return contains_square(w) or length(w) >= 3


def _short(w, vanishes, commutative):
    if vanishes:
        return None
    return "".join(sorted(w)) if commutative else w


_REFERENCE_NIL_KEYS = {
    Variety.ZM: lambda w: _short(w, length(w) >= 2, False),
    Variety.K: lambda w: _short(w, _square_or_long(w), True),
    Variety.L: lambda w: _short(w, _square_or_long(w), False),
    Variety.M: lambda w: _short(w, length(w) >= 3, True),
    Variety.N: lambda w: _short(w, length(w) >= 3, False),
}


def test_nil_keys_match_the_reference_up_to_length_six():
    words = exhaustive_identity_words(max_length=6)
    assert len(words) == 5460
    for v, reference in _REFERENCE_NIL_KEYS.items():
        assert [_COMPONENT_KEYS[v](w) for w in words] == list(map(reference, words)), v


@settings(max_examples=300)
@given(st.text(alphabet="wxyzO", min_size=1, max_size=10))
def test_nil_keys_match_the_reference_on_any_word(symbols):
    w = Word(symbols)
    for v, reference in _REFERENCE_NIL_KEYS.items():
        assert _COMPONENT_KEYS[v](w) == reference(w), v


def _first_incompatibility(v, words):
    """The first (u, w, a) where key(v, .) identifies u and w but not u + a
    and w + a, or not a + u and a + w; None when key(v, .) is a congruence
    on these words and their one-symbol extensions."""
    first = {}
    for w in words:
        u = first.setdefault(key(v, w), w)
        for a in map(Word, "xyzO"):
            if key(v, u + a) != key(v, w + a) or key(v, a + u) != key(v, a + w):
                return u, w, a
    return None


def test_keys_are_compatible_with_multiplication():
    words = exhaustive_identity_words()
    for v in Variety:
        assert _first_incompatibility(v, words) is None, v


def test_compatibility_catches_a_key_that_is_no_congruence(monkeypatch):
    # x and y agree on having no square, but xx and yx do not
    monkeypatch.setitem(_COMPONENT_KEYS, Variety.SL, lambda w: contains_square(w))
    assert _first_incompatibility(Variety.SL, exhaustive_identity_words()) == (
        Word("x"), Word("y"), Word("x")
    )


def test_check_06_counts_a_planted_fault(monkeypatch):
    # M's key forgets the commutative law xy = yx
    monkeypatch.setitem(_COMPONENT_KEYS, Variety.M, _COMPONENT_KEYS[Variety.N])
    words = exhaustive_identity_words()
    expected = 0
    for v, classes in _generator_oracles(words).items():
        keys = {w: key(v, w) for w in words}
        values = {w: classes(w) for w in words}
        expected += sum(
            (keys[u] == keys[w]) != (values[u] == values[w])
            for u, w in itertools.product(words, repeat=2)
        )
    assert expected == 12
    res = verify.check_06_decision_oracle_equivalence()
    assert not res.passed
    assert res.detail == "pairs=115600 varieties=16 discrepancies=12 first=M: xy = yx"
    found = re.search(r"discrepancies=(\d+) first=(\S+): (\S+) = (\S+)$", res.detail)
    assert int(found.group(1)) == expected
    v, u, w = Variety(found.group(2)), found.group(3), found.group(4)
    identity = parse_identity(f"{u} = {w}")
    assert decide(v, identity) != oracle(v, identity)


def test_order_monotonicity_catches_a_planted_fault(monkeypatch):
    assert verify.invariant_monotonicity().passed
    # K's key forgets the commutative law, which K inherits from M above it
    monkeypatch.setitem(_COMPONENT_KEYS, Variety.K, _COMPONENT_KEYS[Variety.L])
    res = verify.invariant_monotonicity()
    assert not res.passed
    assert res.detail == "violations=18 first=K <= M: xy = yx"
    found = re.search(r"violations=(\d+) first=(\S+) <= (\S+): (\S+) = (\S+)$", res.detail)
    assert int(found.group(1)) > 0
    below, above = Variety(found.group(2)), Variety(found.group(3))
    identity = parse_identity(f"{found.group(4)} = {found.group(5)}")
    assert generator_leq(below, above)
    assert decide(above, identity) and not decide(below, identity)


def test_classification_coincidence_catches_a_planted_fault(monkeypatch):
    assert verify.invariant_classification_coincidence().passed
    # the order-4 algebra of K is commutative, but K's key now says otherwise
    monkeypatch.setitem(_COMPONENT_KEYS, Variety.K, _COMPONENT_KEYS[Variety.L])
    with pytest.raises(models.VerificationError):
        verify.invariant_classification_coincidence()
    # verify-paper's guard turns the raised fact into the line's FAIL
    res = verify.guarded(verify.invariant_classification_coincidence)
    assert res.name == "invariant_classification_coincidence" and not res.passed
    assert res.detail == "algebra satisfies a different identity set than K: xy = yx"


def test_substitution_closure_catches_a_planted_fault(monkeypatch):
    # SL's key counts letters instead of naming them, which substitution breaks
    monkeypatch.setitem(_COMPONENT_KEYS, Variety.SL, lambda w: len(str(w)))
    res = verify.invariant_substitution_closure(seed=3, samples=50)
    assert not res.passed
    # pins the sample: a seed must keep drawing the same pairs and images
    assert res.detail == "samples=50/variety failures=200 first=SL: zzy = Oyy -> yOyOy = Oyy"
    found = re.search(r"failures=(\d+) first=(\S+): (.+ = .+) -> (.+ = .+)$", res.detail)
    assert int(found.group(1)) > 0
    v = Variety(found.group(2))
    assert decide(v, parse_identity(found.group(3)))
    assert not decide(v, parse_identity(found.group(4)))


def test_substitution_closure_catches_a_fault_only_long_words_reveal(monkeypatch):
    # B's key also tells words of length >= 7 from shorter ones.  Words of
    # length <= 3 reach length 7 under substitution only by some image of
    # length 3, so the default sample must draw those images to see the fault
    monkeypatch.setitem(_COMPONENT_KEYS, Variety.B, lambda w: (los(w), len(w) >= 7))
    res = verify.invariant_substitution_closure(seed=verify.DEFAULT_SEED)
    assert not res.passed
    assert res.detail == (
        "samples=1000/variety failures=739 first=B: Ozx = zxx -> OzyzOx = zyzOxOx"
    )
    found = re.search(r"failures=(\d+) first=(\S+): (.+ = .+) -> (.+) = (.+)$", res.detail)
    assert int(found.group(1)) > 0
    v = Variety(found.group(2))
    assert decide(v, parse_identity(found.group(3)))
    assert not decide(v, parse_identity(f"{found.group(4)} = {found.group(5)}"))
    assert max(len(found.group(4)), len(found.group(5))) >= 7


def _substitution_closure_reference(seed, samples=1000):
    """The sample judged one pair at a time: the same two draws per variety,
    then for each sample its image identity, built by `substitute`, decided
    by `decide`."""
    rng = random.Random(seed)
    words = exhaustive_identity_words(max_length=3)
    images_by_weight = verify._images_by_weight(words)
    failures = 0
    first = None
    for v in Variety:
        pairs = rng.choices(verify._holding_pairs(v, words), k=samples)
        images = iter(rng.choices(images_by_weight, k=3 * samples))
        for (u, w), triple in zip(pairs, zip(images, images, images)):
            mapping = dict(zip("xyz", map(Word, triple)))
            image = Identity(substitute(u, mapping), substitute(w, mapping), Mode.IS)
            if not decide(v, image):
                failures += 1
                if first is None:
                    first = f"{v}: {Identity(u, w, Mode.IS)} -> {image}"
    detail = f"samples={samples}/variety failures={failures}"
    if first:
        detail += f" first={first}"
    return verify.CheckResult("substitution-closure", failures == 0, detail)


@pytest.mark.parametrize(
    "seed, samples",
    [*((seed, 200) for seed in range(20)), (verify.DEFAULT_SEED, 1000), (7, 1000)],
)
def test_substitution_closure_matches_the_per_sample_reference(seed, samples):
    expected = _substitution_closure_reference(seed, samples)
    assert verify.invariant_substitution_closure(seed, samples) == expected


@pytest.mark.parametrize("component", list(_COMPONENT_KEYS), ids=str)
def test_substitution_closure_matches_the_reference_under_a_planted_key(
    monkeypatch, component
):
    # length mod 3 is no congruence: it identifies xy and xxxxx, not their
    # images xyy and xxxxx under y -> yy
    monkeypatch.setitem(_COMPONENT_KEYS, component, lambda w: len(w) % 3)
    res = verify.invariant_substitution_closure(verify.DEFAULT_SEED)
    assert not res.passed
    assert res == _substitution_closure_reference(verify.DEFAULT_SEED)


def test_substitution_closure_keys_each_distinct_image_once(monkeypatch):
    samples = 1000
    keyed = {v: [] for v in Variety}
    plain_key_ids = varieties.key_ids

    def recording_key_ids(v, words):
        words = list(words)
        keyed[v].extend(words)
        return plain_key_ids(v, words)

    # verify looks key_ids up at call time, so every word keyed goes through here
    monkeypatch.setattr(varieties, "key_ids", recording_key_ids)
    assert verify.invariant_substitution_closure(verify.DEFAULT_SEED, samples).passed
    words = list(exhaustive_identity_words(max_length=3))
    for v, calls in keyed.items():
        # first the words of length <= 3, to find the holding pairs
        assert calls[: len(words)] == words
        images = calls[len(words):]
        assert len(set(images)) == len(images), v
        assert 0 < len(images) < 2 * samples, v


# Bases: which identities are redundant


def _top(basis):
    """The largest variety in which every identity of the basis holds."""
    holding = [v for v in Variety if all(decide(v, i) for i in basis)]
    (top,) = [v for v in holding if all(generator_leq(w, v) for w in holding)]
    return top


def test_each_basis_defines_its_own_row():
    for v in Variety:
        assert _top(record(v).basis) is v, v


def test_xyz_is_O_is_the_only_redundant_basis_identity():
    # in every variety of the sixteen where xx = O holds, xyz = O holds too,
    # so K and L need not list it.  The rows keep it: `separation` reports the
    # first basis identity that fails, so its witnesses read the bases as listed
    for v in Variety:
        basis = record(v).basis
        for k, dropped in enumerate(basis):
            top = _top(basis[:k] + basis[k + 1:])
            if v in (Variety.K, Variety.L) and str(dropped) == "xyz = O":
                assert top is v
            else:
                assert top is not v and generator_leq(v, top), (v, str(dropped))
