"""The full verification suite, runnable deterministically in one shot.

Thirteen numbered end-to-end checks reproduce every headline fact the
package is built around, each inside its stated time budget; after them come
exhaustive or randomized invariant sweeps and the battery of documented
examples.  Sweeps of the bounded identity space compare partitions of its
340 words (normal-form keys against the generators' value classes) instead
of visiting its 115,600 pairs.  Output is free of timings so repeated runs
are byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import time
from dataclasses import dataclass
from functools import partial

from . import derivations, lattice as lattice_mod, models, varieties
from .derivations import replay, shipped_scripts
from .enumeration import canonical_form, classify, enumerate_algebras
from .lattice import (
    build_lattice,
    find_n5,
    is_distributive,
    is_zero_distributive,
    neutral_elements,
)
from .models import builtin, satisfies, subdirect_check, word_value_classes
from .terms import (
    Arrow,
    Identity,
    Mode,
    Word,
    ZERO,
    contains_square,
    content,
    length,
    los,
    normalize_is,
    parse_identity,
    parse_term,
    substitute,
)
from .varieties import Variety, decide, exhaustive_identity_words, record

DEFAULT_SEED = 2024

IZ_THEOREMS = (
    "((x>y)>z) = (((0'>x)>y)>z)",
    "((x>y)>z) = ((x>y)>z)''",
    "(((0>x)>0')>y) = ((x>0')>y)",
    "(0'>0') = 0'",
    "(0>0') = 0'",
    "((0>0')>x) = (0'>x)",
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def seed_from_env() -> int:
    raw = os.environ.get("VARIETYLAB_SEED")
    return int(raw) if raw else DEFAULT_SEED


# ---------------------------------------------------------------------------
# Shared helpers


def _generator_classes(words) -> dict:
    """Per variety v, word -> the value classes of the word in each generator
    of v: the semantic route to the partition that key(v, .) draws."""
    names = {g for v in Variety for g in record(v).generators}
    classes = {g: word_value_classes(builtin(g), words) for g in names}
    return {
        v: (lambda w, gens=record(v).generators: tuple(classes[g][w] for g in gens))
        for v in Variety
    }


def _is_genuine_n5(lat, pent) -> bool:
    o, a, b, c, i = pent
    return (
        len({o, a, b, c, i}) == 5
        and lat.leq(o, a)
        and lat.leq(a, c)
        and lat.leq(c, i)
        and not lat.leq(b, a)
        and not lat.leq(a, b)
        and not lat.leq(b, c)
        and not lat.leq(c, b)
        and lat.join(a, b) == i == lat.join(c, b)
        and lat.meet(a, b) == o == lat.meet(c, b)
    )


# ---------------------------------------------------------------------------
# The thirteen numbered checks


def check_01_lattice_reproduction() -> CheckResult:
    t0 = time.perf_counter()
    lat = build_lattice()
    elapsed = time.perf_counter() - t0
    covers = set(lat.covers())
    ok = (
        len(lat) == 16
        and covers == set(lattice_mod.EXPECTED_COVERS)
        and elapsed < 1.0
    )
    return CheckResult(
        "lattice-reproduction", ok, f"elements={len(lat)} covers={len(covers)}"
    )


def check_02_non_modularity() -> CheckResult:
    lat = build_lattice()
    t0 = time.perf_counter()
    pent = find_n5(lat)
    elapsed = time.perf_counter() - t0
    if pent is None:
        return CheckResult("non-modularity", False, "no pentagon found")
    ok = _is_genuine_n5(lat, pent) and elapsed < 1.0
    detail = f"o={pent.o} a={pent.a} b={pent.b} c={pent.c} i={pent.i}"
    return CheckResult("non-modularity", ok, detail)


def check_03_chain_and_downset() -> CheckResult:
    lat = build_lattice()
    b_down = lat.down_set(Variety.B)
    chain_ok = (
        set(b_down.elements) == {Variety.T, Variety.SL, Variety.B}
        and b_down.leq(Variety.T, Variety.SL)
        and b_down.leq(Variety.SL, Variety.B)
    )
    n_down = lat.down_set(Variety.N)
    ok = chain_ok and len(n_down) == 6
    return CheckResult(
        "band-chain-and-nil-downset", ok, f"|L(B)|=3 chain, |L(N)|={len(n_down)}"
    )


def check_04_neutrality() -> CheckResult:
    neutral = neutral_elements(build_lattice())
    ok = Variety.SL in neutral and Variety.ZM in neutral
    return CheckResult(
        "neutral-elements", ok, "neutral=" + ",".join(sorted(str(v) for v in neutral))
    )


def check_05_atoms() -> CheckResult:
    got = build_lattice().atoms()
    ok = got == {Variety.SL, Variety.ZM}
    return CheckResult("atoms", ok, "atoms=" + ",".join(sorted(str(v) for v in got)))


def check_06_decision_oracle_equivalence() -> CheckResult:
    t0 = time.perf_counter()
    words = exhaustive_identity_words()
    discrepancies = 0
    first = None
    for v, oracle in _generator_classes(words).items():
        only_key, only_oracle, pair = varieties.compare_partitions(
            words, partial(varieties.key, v), oracle
        )
        discrepancies += only_key + only_oracle
        if first is None and pair is not None:
            first = f"{v}: {pair[0]} = {pair[1]}"
    ok = discrepancies == 0 and time.perf_counter() - t0 < 60.0
    detail = f"pairs={len(words) ** 2} varieties=16 discrepancies={discrepancies}"
    if first is not None:
        detail += f" first={first}"
    return CheckResult("decision-oracle-equivalence", ok, detail)


def check_07_normal_form_completeness() -> CheckResult:
    # B, L and M generate IS, so their value classes are the free object's
    words = exhaustive_identity_words()
    only_nf, only_oracle, pair = varieties.compare_partitions(
        words, normalize_is, _generator_classes(words)[Variety.IS]
    )
    mismatches = only_nf + only_oracle
    detail = f"pairs={len(words) ** 2} mismatches={mismatches}"
    if pair is not None:
        detail += f" first={pair[0]} = {pair[1]}"
    return CheckResult("normal-form-completeness", mismatches == 0, detail)


def check_08_join_equalities() -> CheckResult:
    lat = build_lattice()
    ok = (
        lat.join(Variety.B, Variety.K) is Variety.B_K
        and lat.join(Variety.B, Variety.L) is Variety.B_K
        and lat.join(Variety.B, Variety.M) is Variety.IS
        and lat.join(Variety.B, Variety.N) is Variety.IS
    )
    return CheckResult("join-equalities", ok, "BvK=BvL=B+K, BvM=BvN=IS")


def check_09_construction_replay() -> CheckResult:
    quo = builtin("BxK_mod_I")
    problems = []
    if quo.order != 10:
        problems.append(f"order={quo.order}")
    if not satisfies(quo, "xx = O"):
        problems.append("misses xx=O")
    res = satisfies(quo, "xy = yx")
    if res.holds:
        problems.append("commutative")
    else:
        wx, wy = res.witness["x"], res.witness["y"]
        if (quo.element_name(wx), quo.element_name(wy)) != ("(e,a)", "(f,b)"):
            problems.append(f"witness {quo.element_name(wx)},{quo.element_name(wy)}")
    if varieties.variety_of(quo) is not Variety.L:
        problems.append(f"classified {varieties.variety_of(quo)}")
    return CheckResult(
        "construction-replay",
        not problems,
        "; ".join(problems) or "order=10, xx=O holds, witness (e,a),(f,b), variety L",
    )


def check_10_derivation_replay() -> CheckResult:
    t0 = time.perf_counter()
    scripts = shipped_scripts()
    problems = []
    if len(scripts) < 10:
        problems.append(f"only {len(scripts)} scripts")
    mutations = 0
    for script in scripts:
        if not replay(script):
            problems.append(f"{script.name} fails")
        for idx, step in enumerate(script.steps):
            if not step.substitution:
                continue
            if replay(corrupt_step_substitution(script, idx)).passed:
                problems.append(f"{script.name} survives mutation at step {idx}")
            mutations += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"too slow ({elapsed:.2f}s)")
    return CheckResult(
        "derivation-replay",
        not problems,
        "; ".join(problems) or f"scripts={len(scripts)} mutations={mutations}",
    )


def check_11_subdirect_decomposition() -> CheckResult:
    census = enumerate_algebras(4, Mode.IS)
    problems = []
    # the census may be cached: its own walk's time, not this call's
    if census.elapsed_s >= 600.0:
        problems.append(f"order-4 enumeration too slow ({census.elapsed_s:.0f}s)")
    total = 0
    for order in (1, 2, 3, 4):
        report = census if order == 4 else enumerate_algebras(order, Mode.IS)
        for a in report.algebras:
            total += 1
            if not subdirect_check(a).passed:
                problems.append(f"subdirect decomposition fails at order {order}")
            band = satisfies(a, "xx = x").holds
            monoid = satisfies(a, "xO = x").holds and satisfies(a, "Ox = x").holds
            if band != monoid:
                problems.append(f"band/monoid equivalence fails at order {order}")
    return CheckResult(
        "subdirect-and-band-monoid",
        not problems,
        "; ".join(problems) or f"algebras={total} subdirect=100% band-monoid=100%",
    )


def check_12_tree_mode_models() -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    two = enumerate_algebras(2, Mode.IZ)
    forms = {canonical_form(a) for a in two.algebras}
    if canonical_form(builtin("2s")) not in forms:
        problems.append("2s missing at order 2")
    if canonical_form(builtin("2b")) not in forms:
        problems.append("2b missing at order 2")
    total, failures = tree_mode_theorems((1, 2, 3))
    problems += failures
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"too slow ({elapsed:.0f}s)")
    return CheckResult(
        "tree-mode-models",
        not problems,
        "; ".join(problems) or f"algebras={total} identities={len(IZ_THEOREMS)}",
    )


def tree_mode_theorems(orders) -> tuple:
    """Check IZ_THEOREMS, and that 0' = 0 holds iff the subalgebra generated
    by 0 is not 2b, on every tree-mode algebra of the given orders.  Return
    the number of algebras and the list of what fails."""
    idents = [parse_identity(text, Mode.IZ) for text in IZ_THEOREMS]
    total = 0
    problems = []
    for order in orders:
        for a in enumerate_algebras(order, Mode.IZ).algebras:
            total += 1
            for ident in idents:
                if not satisfies(a, ident):
                    problems.append(f"{ident} fails at order {order}")
            fixed = satisfies(a, parse_identity("0' = 0", Mode.IZ)).holds
            sub = models.subalgebra_generated(a, set())
            has_2b = models.is_isomorphic(sub, builtin("2b"))
            if fixed == has_2b:
                problems.append(f"fixpoint/subalgebra biconditional fails at order {order}")
    return total, problems


def check_13_zero_distributivity() -> CheckResult:
    ok, witness = is_zero_distributive(build_lattice())
    return CheckResult(
        "zero-distributivity", ok, "exhaustive triples" if ok else f"witness={witness}"
    )


def corrupt_step_substitution(script, idx):
    """Copy the script with one binding of one step perturbed."""
    import copy

    bad = copy.deepcopy(script)
    step = bad.steps[idx]
    var = sorted(step.substitution)[0]
    image = step.substitution[var]
    if script.mode is Mode.IS:
        step.substitution[var] = image + Word("O")
    else:
        step.substitution[var] = Arrow(image, ZERO)
    return bad


NUMBERED_CHECKS = (
    check_01_lattice_reproduction,
    check_02_non_modularity,
    check_03_chain_and_downset,
    check_04_neutrality,
    check_05_atoms,
    check_06_decision_oracle_equivalence,
    check_07_normal_form_completeness,
    check_08_join_equalities,
    check_09_construction_replay,
    check_10_derivation_replay,
    check_11_subdirect_decomposition,
    check_12_tree_mode_models,
    check_13_zero_distributivity,
)


# ---------------------------------------------------------------------------
# Invariant sweeps beyond the numbered checks


def invariant_monotonicity() -> CheckResult:
    words = exhaustive_identity_words()
    keys = {v: {w: varieties.key(v, w) for w in words} for v in Variety}
    violations = 0
    first = None
    for v, x in itertools.product(Variety, repeat=2):
        if v is x or not varieties.generator_leq(v, x):
            continue
        # v <= x: whatever holds in x must hold in v
        lost, _, pair = varieties.compare_partitions(
            words, keys[x].__getitem__, keys[v].__getitem__
        )
        violations += lost
        if first is None and lost:
            first = f"{v} <= {x}: {pair[0]} = {pair[1]}"
    detail = f"violations={violations}"
    if first is not None:
        detail += f" first={first}"
    return CheckResult("order-monotonicity", violations == 0, detail)


def invariant_substitution_closure(seed: int, samples: int = 1000) -> CheckResult:
    """Sample whether each ker key_V is closed under substitution.

    For each variety V, `samples` times: an ordered pair (u, w) of words of
    length <= 3 over x, y, z, O with key(V, u) == key(V, w), each such pair
    equally likely; and a substitution sending each of x, y, z to an image
    of length uniform on 1..3 whose symbols are uniform on x, y, z, O, so an
    image word of length L has probability (1/3) * 4**-L.  The image
    identity must hold in V by `decide`.  Images of u and w reach length 9.

    Each variety's draw is two `rng.choices` calls: its pairs, then its
    3 * samples letter images."""
    rng = random.Random(seed)
    words = exhaustive_identity_words(max_length=3)
    # the images are these same 84 words, drawn by their probability
    cum_weights = list(itertools.accumulate(_image_weights(words)))
    failures = 0
    first = None
    for v in Variety:
        pairs = rng.choices(_holding_pairs(v, words), k=samples)
        images = iter(rng.choices(words, cum_weights=cum_weights, k=3 * samples))
        # one iterator zipped thrice: the images of x, y, z, three at a time
        for (u, w), triple in zip(pairs, zip(images, images, images)):
            sub = dict(zip("xyz", triple))
            image = Identity(substitute(u, sub), substitute(w, sub), Mode.IS)
            if not decide(v, image):
                failures += 1
                if first is None:
                    first = f"{v}: {Identity(u, w, Mode.IS)} -> {image}"
    detail = f"samples={samples}/variety failures={failures}"
    if first:
        detail += f" first={first}"
    return CheckResult("substitution-closure", failures == 0, detail)


def _holding_pairs(v: Variety, words) -> list:
    """The ordered pairs (u, w) of the words with key(v, u) == key(v, w)."""
    blocks = {}
    for word in words:
        blocks.setdefault(varieties.key(v, word), []).append(word)
    return [(u, w) for block in blocks.values() for u in block for w in block]


def _image_weights(images) -> list:
    """Weights 4**(3 - len) over image words of length 1..3: proportional to
    (1/3) * 4**-len, the chance of a length uniform on 1..3 and then of each
    of its symbols uniform on four."""
    return [4 ** (3 - len(w)) for w in images]


def invariant_product_law(seed: int, samples: int = 300) -> CheckResult:
    rng = random.Random(seed)
    names = ("trivial", "A", "B", "K", "L", "M", "Z")
    words = exhaustive_identity_words(max_length=3)
    failures = 0
    for _ in range(samples):
        a, b = builtin(rng.choice(names)), builtin(rng.choice(names))
        ident = Identity(rng.choice(words), rng.choice(words), Mode.IS)
        both = satisfies(a, ident).holds and satisfies(b, ident).holds
        if satisfies(models.direct_product(a, b), ident).holds != both:
            failures += 1
    return CheckResult(
        "product-satisfaction-law", failures == 0, f"samples={samples} failures={failures}"
    )


def invariant_batched_oracle_agreement(seed: int, samples: int = 400) -> CheckResult:
    rng = random.Random(seed)
    words = exhaustive_identity_words()
    names = ("A", "B", "K", "L", "M", "Z")
    failures = 0
    for name in names:
        a = builtin(name)
        classes = word_value_classes(a, words)
        for _ in range(samples // len(names)):
            u, w = rng.choice(words), rng.choice(words)
            batched = classes[u] == classes[w]
            if batched != satisfies(a, Identity(u, w, Mode.IS)).holds:
                failures += 1
    return CheckResult(
        "batched-oracle-agreement", failures == 0, f"samples={samples} failures={failures}"
    )


# each order-3 census, one class per word of its table's cells in row-major
# order, taken from the brute-force census of tests/test_enumeration.py
ORDER_THREE_CENSUS = {
    Mode.IS: "000000000 000000001 002002222 011111111 012111212 012112212",
    Mode.IZ: "000000000 000000001 000000010 000000011 000000100 000000101 000000110"
    " 000000111 002002222 011111111 012111212 012112212 012212112 111010111"
    " 111011011 111012212 112012222",
}


def invariant_parallel_determinism() -> CheckResult:
    """Each mode's order-3 census against the one pinned from brute force,
    not against a second walk of the same search.  The name and the detail
    date from a worker pool that is gone; they stay because benchmark gates
    and the pinned verify-paper output read this line."""
    wrong = []
    for mode, pin in ORDER_THREE_CENSUS.items():
        census = enumerate_algebras(3, mode).algebras
        if " ".join("".join(map(str, itertools.chain(*a.table))) for a in census) != pin:
            wrong.append(mode.value)
    detail = "order-3 censuses agree"
    if wrong:
        detail = "order-3 census differs from its pinned one: " + " ".join(wrong)
    return CheckResult("parallel-determinism", not wrong, detail)


def invariant_classification_coincidence() -> CheckResult:
    try:
        counts = classify(enumerate_algebras(4, Mode.IS))
    except AssertionError as exc:
        return CheckResult("classification-coincidence", False, str(exc))
    ok = counts.get(Variety.K) == 1 and counts.get(Variety.L) == 1
    summary = " ".join(f"{v}:{counts[v]}" for v in sorted(counts, key=str))
    return CheckResult("classification-coincidence", ok, summary)


def invariant_checks(seed: int) -> list:
    return [
        invariant_monotonicity(),
        invariant_substitution_closure(seed),
        invariant_product_law(seed),
        invariant_batched_oracle_agreement(seed),
        invariant_parallel_determinism(),
        invariant_classification_coincidence(),
    ]


# ---------------------------------------------------------------------------
# Documented examples, one small assertion each


def _cli_output(argv):
    from . import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def example_checks() -> list:
    """Every documented example, as (label, bool) pairs wrapped in results."""
    lat = build_lattice()
    quo = builtin("BxK_mod_I")
    prod = models.direct_product(builtin("B"), builtin("K"))
    two_elt = lattice_mod.FiniteLattice.from_cover_pairs(("bot", "top"), (("bot", "top"),))
    pentagon = lattice_mod.FiniteLattice.from_cover_pairs(
        "oacbi", (("o", "a"), ("a", "c"), ("c", "i"), ("o", "b"), ("b", "i"))
    )
    n_down = lat.down_set(Variety.N)
    sub_2b = models.subalgebra_generated(builtin("2b"), set())
    rep_b = subdirect_check(builtin("B"))
    rep_m = subdirect_check(builtin("M"))
    is_rules = {r.label: r for r in derivations._axioms(Mode.IS)}
    checks = [
        ("parse plain word", lambda: parse_identity("xyz = xyz").lhs == Word("xyz")),
        ("parse wrapped word", lambda: Word("zOxyzOO").symbols == "zOxyzOO"),
        ("empty word rejected", lambda: _raises(lambda: parse_identity("= x"))),
        ("parse primed zero", lambda: parse_term("0'") == Arrow(ZERO, ZERO)),
        ("parse nested arrows", lambda: str(parse_term("((x>y)>z)")) == "((x>y)>z)"),
        ("unbalanced rejected", lambda: _raises(lambda: parse_term("(x>y"))),
        ("content of xyx", lambda: content(Word("xyx")) == {"x", "y"}),
        ("content of OO", lambda: content(Word("OO")) == frozenset()),
        ("content of wrap", lambda: content(Word("zOxyzOO")) == {"x", "y", "z"}),
        ("los of xyx", lambda: los(Word("xyx")) == Word("yx")),
        ("los of wrap", lambda: los(Word("zOxyzOO")) == Word("xyz")),
        ("los empty marker", lambda: los(Word("OO")) is None),
        ("length of xy", lambda: length(Word("xy")) == 2),
        ("length with O", lambda: length(Word("xO")) == math.inf),
        ("length of xyz", lambda: length(Word("xyz")) == 3),
        ("square in xyxy", lambda: contains_square(Word("xyxy"))),
        ("no square in xyz", lambda: not contains_square(Word("xyz"))),
        ("square in axxb", lambda: contains_square(Word("axxb"))),
        (
            "substitute two letters",
            lambda: substitute(Word("xyO"), {"x": Word("ab"), "y": Word("O")})
            == Word("abOO"),
        ),
        ("substitute to constant", lambda: substitute(Word("xx"), {"x": Word("O")}) == Word("OO")),
        ("identity substitution", lambda: substitute(Word("xyz"), {}) == Word("xyz")),
        ("normalize xyx", lambda: normalize_is(Word("xyx")) == Word("yxO")),
        ("normalize short word", lambda: normalize_is(Word("xy")) == Word("xy")),
        ("normalize OO", lambda: normalize_is(Word("OO")) == Word("O")),
        (
            "SL+ZM basis",
            lambda: [str(i) for i in record(Variety.SL_ZM).basis] == ["xy = yxO"],
        ),
        ("B+K basis", lambda: [str(i) for i in record(Variety.B_K).basis] == ["xO = xx"]),
        ("N generators", lambda: record(Variety.N).generators == ("L", "M")),
        ("decide wrap in IS", lambda: decide(Variety.IS, "xyz = zOxyzOO")),
        ("decide x=xx not in ZM", lambda: not decide(Variety.ZM, "x = xx")),
        (
            "xO=xx separates M from K and B",
            lambda: not decide(Variety.M, "xO = xx")
            and decide(Variety.K, "xO = xx")
            and decide(Variety.B, "xO = xx"),
        ),
        ("Z generates ZM", lambda: varieties.variety_of(builtin("Z")) is Variety.ZM),
        ("quotient generates L", lambda: varieties.variety_of(quo) is Variety.L),
        (
            "trivial algebra is T",
            lambda: varieties.variety_of(builtin("trivial")) is Variety.T,
        ),
        ("2b table row", lambda: builtin("2b").table[0] == (1, 1)),
        ("2s table row", lambda: builtin("2s").table[0] == (0, 1)),
        (
            "B walk efe",
            lambda: builtin("B").table[builtin("B").table[0][1]][0] == 0,
        ),
        (
            "K evaluates xy to ab",
            lambda: models.evaluate(builtin("K"), Word("xy"), {"x": 0, "y": 1}) == 2,
        ),
        (
            "L evaluates yx to zero",
            lambda: models.evaluate(builtin("L"), Word("yx"), {"x": 0, "y": 1}) == 3,
        ),
        (
            "constant evaluates to distinguished",
            lambda: all(
                models.evaluate(builtin(n), Word("O"), {}) == builtin(n).distinguished
                for n in models.BUILTIN_NAMES
            ),
        ),
        ("K commutative", lambda: satisfies(builtin("K"), "xy = yx").holds),
        (
            "L witness a,b",
            lambda: satisfies(builtin("L"), "xy = yx").witness == {"x": 0, "y": 1},
        ),
        (
            "M witness b",
            lambda: satisfies(builtin("M"), "xO = xx").witness == {"x": 1},
        ),
        ("A passes axioms", lambda: models.check_axioms(builtin("A"), Mode.IS).passed),
        (
            "2b fails associativity at (0,0,0)",
            lambda: models.check_axioms(builtin("2b"), Mode.IS).checks[0].witness
            == (0, 0, 0),
        ),
        ("2b passes tree axioms", lambda: models.check_axioms(builtin("2b"), Mode.IZ).passed),
        ("product order 12", lambda: prod.order == 12),
        ("product of (e,a)(f,b)", lambda: prod.table[0][5] == 6),
        ("product distinguished", lambda: prod.distinguished == 11),
        ("quotient order 10", lambda: quo.order == 10),
        ("quotient kills squares", lambda: satisfies(quo, "xx = O").holds),
        (
            "quotient witness pair",
            lambda: satisfies(quo, "xy = yx").witness == {"x": 0, "y": 5},
        ),
        ("2b closure has both elements", lambda: sub_2b.order == 2),
        (
            "K closure of a",
            lambda: models.subalgebra_generated(builtin("K"), {0}).order == 2,
        ),
        (
            "trivial closure",
            lambda: models.subalgebra_generated(builtin("trivial"), set()).order == 1,
        ),
        ("B decomposes", lambda: rep_b.passed and rep_b.nil.order == 1),
        (
            "M decomposes",
            lambda: rep_m.passed
            and rep_m.band.order == 1
            and models.is_isomorphic(rep_m.nil, builtin("M")),
        ),
        ("K decomposes", lambda: subdirect_check(builtin("K")).passed),
        ("join B M is IS", lambda: lat.join(Variety.B, Variety.M) is Variety.IS),
        (
            "join B K equals join B L",
            lambda: lat.join(Variety.B, Variety.K)
            is lat.join(Variety.B, Variety.L)
            is Variety.B_K,
        ),
        (
            "meet SL+N B+K",
            lambda: lat.meet(Variety.SL_N, Variety.B_K) is Variety.SL_L,
        ),
        ("pentagon present", lambda: find_n5(lat) is not None),
        (
            "known pentagon valid",
            lambda: _is_genuine_n5(
                lat,
                (Variety.SL, Variety.SL_M, Variety.B, Variety.SL_N, Variety.IS),
            ),
        ),
        (
            "chain has no pentagon",
            lambda: find_n5(lat.restrict((Variety.T, Variety.SL, Variety.B))) is None,
        ),
        ("nil downset has no pentagon", lambda: find_n5(n_down) is None),
        ("big lattice not distributive", lambda: not is_distributive(lat)[0]),
        ("nil downset distributive", lambda: is_distributive(n_down)[0]),
        ("two-element distributive", lambda: is_distributive(two_elt)[0]),
        ("big lattice zero-distributive", lambda: is_zero_distributive(lat)[0]),
        ("abstract pentagon zero-distributive", lambda: is_zero_distributive(pentagon)[0]),
        ("two-element zero-distributive", lambda: is_zero_distributive(two_elt)[0]),
        ("SL neutral", lambda: Variety.SL in neutral_elements(lat)),
        ("ZM neutral", lambda: Variety.ZM in neutral_elements(lat)),
        (
            "bounds neutral",
            lambda: {Variety.T, Variety.IS} <= neutral_elements(lat),
        ),
        ("atoms SL ZM", lambda: lat.atoms() == {Variety.SL, Variety.ZM}),
        ("nil downset atom", lambda: n_down.atoms() == {Variety.ZM}),
        ("two-element atom", lambda: two_elt.atoms() == {"top"}),
        ("one algebra of order 1", lambda: enumerate_algebras(1, Mode.IS).count == 1),
        (
            "order 2 contains A and Z",
            lambda: {canonical_form(builtin("A")), canonical_form(builtin("Z"))}
            <= {canonical_form(a) for a in enumerate_algebras(2, Mode.IS).algebras},
        ),
        (
            "tree order 2 contains 2s and 2b",
            lambda: {canonical_form(builtin("2s")), canonical_form(builtin("2b"))}
            <= {canonical_form(a) for a in enumerate_algebras(2, Mode.IZ).algebras},
        ),
        (
            "canonical form relabel invariant",
            lambda: canonical_form(builtin("Z"))
            == canonical_form(models.make_algebra([[0, 0], [0, 0]], 0)),
        ),
        (
            "canonical forms separate A and Z",
            lambda: canonical_form(builtin("A")) != canonical_form(builtin("Z")),
        ),
        (
            "canonical form of trivial",
            lambda: canonical_form(builtin("trivial")) == bytes([1, 0]),
        ),
        (
            "classify order 2",
            lambda: classify(enumerate_algebras(2, Mode.IS))
            == {Variety.SL: 1, Variety.ZM: 1},
        ),
        (
            "classify order 1",
            lambda: classify(enumerate_algebras(1, Mode.IS)) == {Variety.T: 1},
        ),
        (
            "shrink three constants",
            lambda: derivations.apply_step(
                Word("xOOO"),
                derivations.Step(
                    "A2", derivations.Direction.L2R, (2, 4), {}, Word("xO")
                ),
                is_rules,
                Mode.IS,
            )
            == Word("xO"),
        ),
        (
            "unwrap defining identity",
            lambda: derivations.apply_step(
                Word("zOxyzOO"),
                derivations.Step(
                    "A1",
                    derivations.Direction.R2L,
                    (1, 7),
                    {v: Word(v) for v in "xyz"},
                    Word("xyz"),
                ),
                is_rules,
                Mode.IS,
            )
            == Word("xyz"),
        ),
        (
            "two constants do not match three",
            lambda: _raises(
                lambda: derivations.apply_step(
                    Word("xOO"),
                    derivations.Step(
                        "A2", derivations.Direction.L2R, (1, 3), {}, Word("O")
                    ),
                    is_rules,
                    Mode.IS,
                )
            ),
        ),
        ("ten or more scripts", lambda: len(shipped_scripts()) >= 10),
        ("all scripts replay", lambda: all(replay(s).passed for s in shipped_scripts())),
        (
            "corrupted script fails",
            lambda: not replay(corrupt_step_substitution(shipped_scripts()[1], 1)).passed,
        ),
        (
            "script goals hold in premise models",
            lambda: all(
                satisfies(a, s.goal).holds
                for s in shipped_scripts()
                for a in _mode_builtins(s.mode)
                if all(satisfies(a, r.identity).holds for r in s.premises)
            ),
        ),
        ("cli check holds", lambda: _cli_output(["check", "IS", "xyz = zOxyzOO"]) == (0, "HOLDS\n")),
        (
            "cli oracle witness",
            lambda: _cli_output(["oracle", "builtin:M", "xO = xx"])
            == (0, "FAILS witness x=b\n"),
        ),
        (
            "cli lattice report",
            lambda: "elements=16 covers=25 modular=false"
            in _cli_output(["lattice"])[1],
        ),
    ]
    return [CheckResult(f"example: {label}", bool(fn())) for label, fn in checks]


def _mode_builtins(mode: Mode):
    names = (
        ("trivial", "A", "B", "K", "L", "M", "Z")
        if mode is Mode.IS
        else ("trivial", "Z", "2s", "2b")
    )
    return [builtin(n) for n in names]


def _raises(fn) -> bool:
    try:
        fn()
    except Exception:
        return True
    return False


# ---------------------------------------------------------------------------


def run_all(seed: int | None = None) -> list:
    """All numbered checks, invariants and examples, in a fixed order."""
    if seed is None:
        seed = seed_from_env()
    results = []
    for idx, fn in enumerate(NUMBERED_CHECKS, start=1):
        res = fn()
        results.append(CheckResult(f"{idx:02d} {res.name}", res.passed, res.detail))
    results.extend(invariant_checks(seed))
    examples = example_checks()
    bad = [r for r in examples if not r.passed]
    results.append(
        CheckResult(
            "documented-examples",
            not bad,
            f"{len(examples)} checks" + (f"; first failure {bad[0].name}" if bad else ""),
        )
    )
    return results
