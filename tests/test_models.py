import itertools
import random
import tracemalloc

import pytest

from varietylab import models
from varietylab.models import (
    AxiomViolationError,
    BUILTIN_NAMES,
    FiniteAlgebra,
    SatResult,
    builtin,
    check_axioms,
    direct_product,
    evaluate,
    is_isomorphic,
    load_algebra,
    make_algebra,
    parse_algebra,
    rees_quotient,
    render_algebra,
    satisfies,
    subalgebra_generated,
    subdirect_check,
    word_value_classes,
)
from varietylab.terms import Mode, Word, parse_identity, parse_term

IS_BUILTINS = ("trivial", "A", "B", "K", "L", "M", "Z", "BxK_mod_I")

# identities provable in every implication semigroup, used as a model-level
# sanity battery (defining identities plus their derived consequences)
DERIVED_IS_IDENTITIES = (
    "xyz = zOxyzOO",
    "OOO = O",
    "OO = O",
    "Ox = xO",
    "xyz = xyzO",
    "xyx = yxO",
    "xxy = xyO",
    "xxyz = xyzO",
    "xyxzx = yzxO",
    "zOxyzOO = xyzO",
    "xyzxyz = xyzO",
)


def test_builtin_unknown():
    with pytest.raises(ValueError):
        builtin("Q")


def test_builtin_tables_2s_2b():
    assert builtin("2b").table[0] == (1, 1)
    assert builtin("2s").table[0] == (0, 1)
    assert builtin("2s").distinguished == 0
    assert builtin("2b").distinguished == 0


def test_builtin_B_walk():
    b = builtin("B")
    e, f = 0, 1
    assert b.table[b.table[e][f]][e] == e  # e*f*e = e


def test_presentations_via_satisfies():
    assert satisfies(builtin("K"), "xy = yx")
    res = satisfies(builtin("L"), "xy = yx")
    assert not res.holds and res.witness == {"x": 0, "y": 1}
    res = satisfies(builtin("M"), "xO = xx")
    assert not res.holds and res.witness == {"x": 1}
    assert builtin("M").element_name(1) == "b"
    assert satisfies(builtin("K"), "xO = xx")
    assert satisfies(builtin("B"), "xO = xx")


def test_evaluate():
    k = builtin("K")
    assert evaluate(k, Word("xy"), {"x": 0, "y": 1}) == 2  # a*b = ab
    l = builtin("L")
    assert evaluate(l, Word("yx"), {"x": 0, "y": 1}) == 3  # b*a = 0
    for name in IS_BUILTINS:
        a = builtin(name)
        assert evaluate(a, Word("O"), {}) == a.distinguished
    assert evaluate(builtin("2b"), parse_term("0'"), {}) == 1
    with pytest.raises(ValueError):
        evaluate(k, Word("xy"), {"x": 0})


def test_check_axioms_is():
    for name in IS_BUILTINS:
        report = check_axioms(builtin(name), Mode.IS)
        assert report.passed, (name, report)
    report = check_axioms(builtin("2b"), Mode.IS)
    assoc = report.checks[0]
    assert not assoc.passed and assoc.witness == {"x": 0, "y": 0, "z": 0}


def test_check_axioms_iz():
    for name in ("2s", "2b", "trivial", "Z"):
        assert check_axioms(builtin(name), Mode.IZ).passed, name


def test_check_axioms_parses_its_axioms_once_per_mode(monkeypatch):
    parsed = []
    parse = models.parse_identity

    def counting_parse(text, mode=Mode.IS):
        parsed.append(text)
        return parse(text, mode)

    monkeypatch.setattr(models, "parse_identity", counting_parse)
    for mode in (Mode.IS, Mode.IZ):
        first = check_axioms(builtin("2b"), mode)
        seen = len(parsed)
        for name in ("trivial", "A", "Z", "2s", "2b"):
            check_axioms(builtin(name), mode)
        assert len(parsed) == seen
        assert check_axioms(builtin("2b"), mode) == first


def test_derived_identities_hold_in_all_is_builtins():
    for name in IS_BUILTINS:
        a = builtin(name)
        for text in DERIVED_IS_IDENTITIES:
            assert satisfies(a, text), (name, text)


def test_direct_product():
    prod = direct_product(builtin("B"), builtin("K"))
    assert prod.order == 12
    # (e,a)*(f,b) = (f,ab): e=0,f=1 in B; a=0,b=1,ab=2 in K
    ea, fb = 0 * 4 + 0, 1 * 4 + 1
    assert prod.table[ea][fb] == 1 * 4 + 2
    assert prod.distinguished == 2 * 4 + 3
    assert prod.element_name(ea) == "(e,a)"


def test_product_preserves_satisfaction():
    rng = random.Random(7)
    names = ("A", "B", "K", "L", "M", "Z", "trivial")
    alphabet = "xyzO"
    for _ in range(120):
        a = builtin(rng.choice(names))
        b = builtin(rng.choice(names))
        u = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
        v = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
        ident = parse_identity(f"{u} = {v}")
        both = satisfies(a, ident).holds and satisfies(b, ident).holds
        assert satisfies(direct_product(a, b), ident).holds == both


def test_rees_quotient():
    prod = direct_product(builtin("B"), builtin("K"))
    ideal = {3, 7, 11}  # (e,0), (f,0), (1,0)
    quo = rees_quotient(prod, ideal)
    assert quo.order == 10
    assert satisfies(quo, "xx = O")
    res = satisfies(quo, "xy = yx")
    assert not res.holds
    # first failing pair is the classes of (e,a) and (f,b)
    assert res.witness == {"x": 0, "y": 5}
    assert quo.element_name(0) == "(e,a)" and quo.element_name(5) == "(f,b)"


def test_builtin_bxk_mod_i_is_pinned():
    # B x K with the ideal B x {0} collapsed to its least element, (e,0)
    a = builtin("BxK_mod_I")
    assert a.table == (
        (3, 2, 3, 3, 3, 6, 3, 3, 2, 3),
        (2, 3, 3, 3, 6, 3, 3, 2, 3, 3),
        (3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
        (3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
        (3, 2, 3, 3, 3, 6, 3, 3, 6, 3),
        (2, 3, 3, 3, 6, 3, 3, 6, 3, 3),
        (3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
        (3, 2, 3, 3, 3, 6, 3, 3, 9, 3),
        (2, 3, 3, 3, 6, 3, 3, 9, 3, 3),
        (3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
    )
    assert a.distinguished == 3 and a.name == "BxK_mod_I"
    assert a.element_names == (
        "(e,a)", "(e,b)", "(e,ab)", "(e,0)", "(f,a)", "(f,b)", "(f,ab)", "(1,a)", "(1,b)", "(1,ab)"
    )


def test_rees_quotient_rejects_non_ideal():
    k = builtin("K")
    with pytest.raises(ValueError, match="^not an ideal: right product of 0 by 0 escapes to 3$"):
        rees_quotient(k, {0})  # {a} is not closed: a*a = 0 escapes
    with pytest.raises(ValueError):
        rees_quotient(k, set())
    with pytest.raises(ValueError, match="^ideal element 7 out of range$"):
        rees_quotient(k, {7})
    with pytest.raises(ValueError, match="^ideal element 3.0 out of range$"):
        rees_quotient(k, {3.0})
    left_escape = "^not an ideal: left product of 1 by 0 escapes to 2$"
    with pytest.raises(ValueError, match=left_escape):
        rees_quotient(builtin("L"), {1, 3})


def test_subalgebra_generated():
    two_b = builtin("2b")
    sub = subalgebra_generated(two_b, set())
    assert sub.order == 2  # 0' = 1 forces both elements
    k = builtin("K")
    sub = subalgebra_generated(k, {0})
    assert sub.order == 2 and sub.element_names == ("a", "0")
    triv = builtin("trivial")
    assert subalgebra_generated(triv, set()).order == 1
    # -1 would alias element 3 as a Python index, 7 and "a" would be no index at all
    for bad in (-1, 7, "a"):
        with pytest.raises(ValueError, match=f"^seed element {bad} out of range$"):
            subalgebra_generated(k, {bad})


def test_subdirect_check_builtins():
    rep = subdirect_check(builtin("B"))
    assert rep.passed
    assert rep.band.order == 3 and rep.nil.order == 1
    rep = subdirect_check(builtin("M"))
    assert rep.passed
    assert rep.band.order == 1
    assert is_isomorphic(rep.nil, builtin("M"))
    assert subdirect_check(builtin("K")).passed
    with pytest.raises(AxiomViolationError):
        subdirect_check(builtin("2b"))


def test_subdirect_check_reports_a_failing_constant_law(monkeypatch):
    # a false law planted among the laws of the constant: in B, e*e = e, not 1
    planted = parse_identity("xx = O")
    monkeypatch.setattr(models, "_CONSTANT_LAWS", (*models._CONSTANT_LAWS, planted))
    rep = subdirect_check(builtin("B"))
    assert not rep.passed
    assert rep.failures == ("constant law xx = O fails at {'x': 0}",)
    # in M, a*a = 0 is the constant and b*b is not
    assert subdirect_check(builtin("M")).failures == ("constant law xx = O fails at {'x': 1}",)


def test_subdirect_check_reports_a_pair_map_that_is_not_injective(monkeypatch):
    # merging M's ab with 0 keeps a congruence, so only the pair map breaks
    quotient_data = models._quotient_data

    def merged(a, ideal):
        kept, cls = quotient_data(a, ideal)
        return kept, {**cls, 3: cls[4]}

    monkeypatch.setattr(models, "_quotient_data", merged)
    assert subdirect_check(builtin("M")).failures == ("pair map not injective: 3 and 4 collide",)


def test_subdirect_check_reports_a_second_component_that_is_no_homomorphism(monkeypatch):
    # a quotient of M whose products are all 0, though a*b, b*a and b*b are not
    monkeypatch.setattr(models, "rees_quotient", lambda a, ideal: make_algebra([[4] * 5] * 5, 4))
    assert subdirect_check(builtin("M")).failures == tuple(
        f"second component not a homomorphism at {pair}" for pair in ("(0,1)", "(1,0)", "(1,1)")
    )


def test_subdirect_check_reports_an_ideal_part_that_is_no_band(monkeypatch):
    monkeypatch.setattr(models, "subalgebra_generated", lambda a, seed: builtin("Z"))
    assert subdirect_check(builtin("B")).failures == ("ideal part is not a band",)


def test_subdirect_check_reports_a_quotient_that_keeps_a_triple_product(monkeypatch):
    # B's quotient is trivial; A agrees with it on the class 0 but 0*0*0 = 0 is not O = 1
    monkeypatch.setattr(models, "rees_quotient", lambda a, ideal: builtin("A"))
    assert subdirect_check(builtin("B")).failures == ("quotient does not kill triple products",)


def test_is_isomorphic():
    z = builtin("Z")
    z_swapped = make_algebra([[0, 0], [0, 0]], 0, "Zs", ["0", "a"])
    assert is_isomorphic(z, z_swapped)
    assert not is_isomorphic(builtin("A"), z)
    assert not is_isomorphic(builtin("A"), builtin("B"))


def test_algebra_file_round_trip(tmp_path):
    for name in BUILTIN_NAMES:
        a = builtin(name)
        text = render_algebra(a)
        back = parse_algebra(text)
        assert back.table == a.table and back.distinguished == a.distinguished
    path = tmp_path / "m.alg"
    path.write_text("# a comment\n" + render_algebra(builtin("M")), encoding="utf-8")
    assert load_algebra(path).table == builtin("M").table


def test_parse_algebra_rejects():
    with pytest.raises(ValueError):
        parse_algebra("size: 2\n0 0\n0 0\n")
    with pytest.raises(ValueError):
        parse_algebra("size: 2\nomega: 0\n0 0\n")
    with pytest.raises(ValueError):
        parse_algebra("size: 2\nomega: 0\n0 0 0\n0 0\n")
    with pytest.raises(ValueError):
        parse_algebra("size: 2\nomega: 3\n0 0\n0 0\n")


def test_parse_algebra_names_the_line():
    # blank and comment lines count: the bad row is line 6 of the text
    text = "# two elements\nsize: 2\nomega: 0\n\n0 1\n1 x\n"
    with pytest.raises(ValueError, match=r"invalid literal .* \(line 6\)$"):
        parse_algebra(text)
    with pytest.raises(ValueError, match=r"row '1 2' has an entry outside 0\.\.1 \(line 4\)$"):
        parse_algebra("size: 2\nomega: 0\n0 1\n1 2\n")
    with pytest.raises(ValueError, match=r"omega 2 .* \(line 2\)$"):
        parse_algebra("size: 2\nomega: 2\n0 1\n1 1\n")
    # a text that ends too soon is reported at its last line
    with pytest.raises(ValueError, match=r"expected 2 table rows, got 1 \(line 4\)$"):
        parse_algebra("size: 2\nomega: 0\n0 1\n# end\n")


def test_table_validation():
    with pytest.raises(ValueError, match="^table entry 2 out of range$"):
        FiniteAlgebra(((0, 2), (0, 0)), 0)
    with pytest.raises(ValueError):
        FiniteAlgebra(((0,), (0,)), 0)
    with pytest.raises(ValueError, match="^algebras have at least one element$"):
        FiniteAlgebra((), 0)
    with pytest.raises(ValueError, match="^distinguished element 1 out of range$"):
        FiniteAlgebra(((0,),), 1)
    # elements are ints: a float entry or constant would pass the range test
    with pytest.raises(ValueError, match="^table entry 0.0 out of range$"):
        make_algebra([[0.0, 1], [1, 1]], 0)
    with pytest.raises(ValueError, match="^distinguished element 0.0 out of range$"):
        make_algebra([[0, 1], [1, 1]], 0.0)
    with pytest.raises(ValueError, match="^element_names length mismatch$"):
        FiniteAlgebra(((0,),), 0, None, ("a", "b"))


def test_satisfies_all_assignments_count():
    # the oracle really sweeps |A|^k assignments
    a = builtin("A")
    seen = []
    ident = parse_identity("xy = yx")
    for values in itertools.product(range(a.order), repeat=2):
        seen.append(values)
    assert len(seen) == 4
    assert satisfies(a, ident)


def test_a_sweep_above_the_assignment_bound_is_refused():
    a = builtin("BxK_mod_I")  # order 10
    # 10^7 assignments, at the bound, are swept; this identity fails at once,
    # in the first block of 10^3 lanes, so no more than that block is held
    tracemalloc.start()
    try:
        assert satisfies(a, "abcdefg = a") == SatResult(False, dict.fromkeys("abcdefg", 0))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    with pytest.raises(ValueError, match=r"^10\^8 assignments to sweep, above 10000000$"):
        satisfies(a, "abcdefgh = abcdefgh")
    # check_axioms sweeps n^3 assignments: 216 is the least order refused
    with pytest.raises(ValueError, match=r"^216\^3 assignments to sweep"):
        check_axioms(make_algebra([[0] * 216] * 216, 0), Mode.IS)
    # word_value_classes keeps the same bound, and refuses before it builds a
    # column: 26 columns of 2^26 byte lanes would take 1.7 GB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^2\^26 assignments to sweep, above 10000000$"):
            word_value_classes(builtin("A"), [Word("x")], tuple("abcdefghijklmnopqrstuvwxyz"))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "n, lanes",
    [(models.LANE_MIN_ORDER - 1, False), (models.LANE_MIN_ORDER, True), (256, True), (257, False)],
)
def test_lane_column_runs_from_the_gate_order_to_256(n, lanes):
    # the join semilattice 0 < 1 < ... < n - 1 with the constant 0; below
    # the gate and above 256, where an element does not fit a byte lane, the
    # loop must answer
    a = make_algebra([[max(i, j) for j in range(n)] for i in range(n)], 0)
    assert satisfies(a, "xO = x") == SatResult(True)
    assert satisfies(a, "xx = O") == SatResult(False, {"x": 1})
    assert satisfies(a, "xy = x") == SatResult(False, {"x": 0, "y": 1})
    assert ("_lane_tables" in vars(a)) == lanes


def test_a_register_program_is_a_hashable_value():
    for ident in (parse_identity("xyz = zOxyzOO"), parse_identity("((x>y)>z) = (x>(y>z))", Mode.IZ)):
        program = models._program(ident)
        assert hash(program) == hash(models._program(ident))
        assert program[0] == ("x", "y", "z")  # its letters


# letters swept as one block, by order, for identities in 3 and in 7 letters:
# none below the gate and above 256, as many as fit 4096 lanes up to order
# 16, and one in between
SWEEP_PATHS = {1: (0, 0), 3: (0, 0), 4: (3, 6), 5: (3, 5), 6: (3, 4), 8: (3, 4),
               9: (3, 3), 16: (3, 3), 17: (1, 1), 256: (1, 1), 257: (0, 0)}


@pytest.mark.parametrize("n", SWEEP_PATHS)
def test_each_order_takes_its_sweep_path(n):
    assert (models._block_width(n, 3), models._block_width(n, 7)) == SWEEP_PATHS[n]
    assert models._block_width(n, 0) == 0
    # the join semilattice again, on two letters so that order 257 is swept
    a = make_algebra([[max(i, j) for j in range(n)] for i in range(n)], 0)
    assert satisfies(a, "xy = yx") == SatResult(True)
    expected = SatResult(True) if n == 1 else SatResult(False, {"x": 0, "y": 1})
    assert satisfies(a, "xy = x") == expected
    assert ("_lane_tables" in vars(a)) == (SWEEP_PATHS[n][0] > 0)
