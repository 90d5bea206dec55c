"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line; the same checks back the CLI's
verify-paper command.
"""

import dataclasses
import re
from collections import Counter

import pytest

from varietylab import enumeration, lattice, models, verify
from varietylab.terms import Mode, parse_identity
from varietylab.varieties import Variety


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_01_lattice_reproduction():
    report(verify.check_01_lattice_reproduction())


def test_criterion_01_reports_the_lattice_builders_verdict(monkeypatch):
    # build_lattice raises; the runner's guard turns that into check 01's FAIL
    expected = lattice.EXPECTED_COVERS
    covers = [(v, w) for v, w in expected if (str(v), str(w)) != ("B+K", "IS")]
    monkeypatch.setattr(lattice, "EXPECTED_COVERS", tuple(covers))
    result = verify.run_check(1)
    assert result.name == "01 check_01_lattice_reproduction"
    assert not result.passed and result.detail == "unexpected cover B+K < IS"
    monkeypatch.setattr(lattice, "EXPECTED_COVERS", expected + ((Variety.T, Variety.IS),))
    with pytest.raises(lattice.LatticeError, match="^missing cover T < IS$"):
        lattice.build_lattice()
    assert verify.run_check(1).detail == "missing cover T < IS"


def test_criterion_02_non_modularity():
    report(verify.check_02_non_modularity())


def test_criterion_03_band_chain_and_nil_downset():
    report(verify.check_03_chain_and_downset())


def test_criterion_04_neutrality():
    report(verify.check_04_neutrality())


def test_criterion_05_atoms():
    report(verify.check_05_atoms())


def test_criterion_06_decision_oracle_equivalence():
    report(verify.check_06_decision_oracle_equivalence())


def test_criterion_07_normal_form_completeness():
    report(verify.check_07_normal_form_completeness())


def test_criterion_08_join_equalities():
    report(verify.check_08_join_equalities())


def test_criterion_09_construction_replay():
    report(verify.check_09_construction_replay())


def test_criterion_10_derivation_replay():
    report(verify.check_10_derivation_replay())


def test_criterion_11_subdirect_and_band_monoid():
    report(verify.check_11_subdirect_decomposition())


def test_criterion_11_budget_times_the_cached_walk(monkeypatch):
    # a census cached by an earlier, slow walk: the call itself is a lookup
    slow = dataclasses.replace(enumeration.enumerate_algebras(4, Mode.IS), elapsed_s=600.0)
    monkeypatch.setattr(enumeration, "_cache", {(4, Mode.IS): slow})
    res = verify.check_11_subdirect_decomposition()
    assert not res.passed and res.detail.endswith("; too slow (600.00s)")


class _SlowClock:
    """A stand-in for the time module whose clock moves 1000 s per reading."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1000.0
        return self.now


@pytest.mark.parametrize(
    "number", [1, 2, 6, 10, 12], ids=lambda n: verify.NUMBERED_CHECKS[n - 1].__name__
)
def test_budget_overrun_fails_and_names_itself(monkeypatch, number):
    monkeypatch.setattr(verify, "time", _SlowClock())
    res = verify.run_check(number)
    assert res.name.startswith(f"{number:02d} ")
    assert not res.passed and res.detail.endswith("; too slow (1000.00s)")


class _FailedReport:
    passed = False


def _k_for_the_quotient(name, builtin=models.builtin):
    return builtin("K" if name == "BxK_mod_I" else name)


@pytest.mark.parametrize(
    "module, name, fake, number, detail",
    [
        (verify, "find_n5", lambda lat: None, 2, "no pentagon found"),
        (verify, "normalize_is", lambda w: w, 7, "pairs=115600 mismatches=7908 first=xO = Ox"),
        (verify, "builtin", _k_for_the_quotient, 9, "order=4; commutative; classified K"),
        (verify, "corrupt_step_substitution", lambda script, idx: script, 10,
         "omega-idempotent survives mutation at step 4;.*"),
        (verify, "subdirect_check", lambda a: _FailedReport(), 11,
         "subdirect decomposition fails at order 1;.*"),
        (models, "is_isomorphic", lambda a, b: False, 12,
         "fixpoint/subalgebra biconditional fails at order 2;.*"),
        (models, "direct_product", lambda a, b: a, None, "samples=300 failures=52"),
    ],
    ids=["02", "07", "09", "10", "11", "12", "product-law"],
)
def test_a_planted_fault_reaches_the_checks_fail_branch(
    monkeypatch, module, name, fake, number, detail
):
    # each fault is caught by the check's own comparison, not by the guard
    monkeypatch.setattr(module, name, fake)
    if number is None:
        res = verify.invariant_product_law(verify.DEFAULT_SEED)
    else:
        res = verify.run_check(number)
        assert "check_" not in res.name  # the guard names a line after the function
    assert not res.passed and re.fullmatch(detail, res.detail), res.detail


def test_checks_without_a_timed_call_are_never_too_slow(monkeypatch):
    # 03 has no budget; 11 judges its cached census walk, not the call
    monkeypatch.setattr(verify, "time", _SlowClock())
    for number in (3, 11):
        res = verify.run_check(number)
        assert res.passed and "too slow" not in res.detail, number


def test_checks_09_11_and_12_parse_nothing_after_a_warm_up(monkeypatch):
    parsed = []
    parse = verify.parse_identity

    def counting_parse(*args):
        parsed.append(args)
        return parse(*args)

    for module in (models, verify):
        monkeypatch.setattr(module, "parse_identity", counting_parse)
    for check in (
        verify.check_09_construction_replay,
        verify.check_11_subdirect_decomposition,
        verify.check_12_tree_mode_models,
    ):
        check()  # warm-up: builds any cached program or census
        parsed.clear()
        assert check().passed
        assert parsed == [], check.__name__


def test_criterion_12_tree_mode_models():
    report(verify.check_12_tree_mode_models())


def test_criterion_12_theorems_hold_at_order_four():
    # one order beyond verify-paper's: all 249 tree-mode algebras of order 4
    assert verify.tree_mode_theorems((4,)) == (249, [])


def test_criterion_12_reports_a_false_theorem(monkeypatch):
    theorems = verify.iz_theorems() + (parse_identity("x = 0", Mode.IZ),)
    monkeypatch.setattr(verify, "iz_theorems", lambda: theorems)
    total, problems = verify.tree_mode_theorems((2,))
    assert total == 3 and problems and all(p == "x = 0 fails at order 2" for p in problems)


def test_criterion_13_zero_distributivity():
    report(verify.check_13_zero_distributivity())


@pytest.fixture(scope="module")
def invariant_results():
    return {r.name: r for r in verify.invariant_checks(verify.seed_from_env())}


@pytest.mark.parametrize(
    "name",
    [
        "order-monotonicity",
        "substitution-closure",
        "product-satisfaction-law",
        "batched-oracle-agreement",
        "parallel-determinism",
        "classification-coincidence",
    ],
)
def test_invariants(name, invariant_results):
    report(invariant_results[name])


def test_parallel_determinism_catches_a_lost_class(monkeypatch):
    census = enumeration._census

    def faulty_census(order, mode):
        algebras, stats = census(order, mode)
        # a planted fault: the order-3 tree-mode walk loses its last class
        return (algebras[:-1] if (order, mode) == (3, Mode.IZ) else algebras), stats

    monkeypatch.setattr(enumeration, "_cache", {})
    monkeypatch.setattr(enumeration, "_census", faulty_census)
    res = verify.invariant_parallel_determinism()
    assert not res.passed and res.detail.endswith(": iz")


def test_batched_oracle_agreement_judges_every_sample(monkeypatch):
    satisfies = verify.satisfies
    calls = []

    def counting_satisfies(a, ident):
        calls.append(id(a))
        return satisfies(a, ident)

    monkeypatch.setattr(verify, "satisfies", counting_satisfies)
    res = verify.invariant_batched_oracle_agreement(verify.DEFAULT_SEED)
    assert res.passed and res.detail == "samples=400 failures=0"
    assert len(calls) == 400
    # every one of the six builtins, in turn
    assert set(calls) == {id(models.builtin(name)) for name in ("A", "B", "K", "L", "M", "Z")}
    assert sorted(Counter(calls).values()) == [66, 66, 67, 67, 67, 67]


def test_batched_oracle_agreement_catches_a_coarsened_class_table(monkeypatch):
    word_value_classes = verify.word_value_classes

    def coarsened(a, words):
        # a planted fault: classes 0 and 1 of each table merge
        return {w: max(c, 1) for w, c in word_value_classes(a, words).items()}

    monkeypatch.setattr(verify, "word_value_classes", coarsened)
    res = verify.invariant_batched_oracle_agreement(verify.DEFAULT_SEED)
    assert not res.passed
    assert int(res.detail.split("failures=")[1]) > 0
