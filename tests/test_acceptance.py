"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line; the same checks back the CLI's
verify-paper command.
"""

import pytest

from varietylab import enumeration, verify
from varietylab.terms import Mode


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, result.detail


def test_criterion_01_lattice_reproduction():
    report(verify.check_01_lattice_reproduction())


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
    report(verify.check_11_subdirect_decomposition(jobs=4))


def test_criterion_11_compares_two_different_walks(monkeypatch):
    walks = []
    census = enumeration._census

    def recording_census(order, mode, jobs):
        walks.append((order, jobs))
        blobs, stats = census(order, mode, jobs)
        # a planted fault: more workers lose the last class
        return (blobs[:-1] if jobs > 1 and faulty else blobs), stats

    monkeypatch.setattr(enumeration, "_cache", {})
    monkeypatch.setattr(enumeration, "_census", recording_census)
    faulty = False
    assert verify.check_11_subdirect_decomposition(1).passed
    assert [walk for walk in walks if walk[0] == 4] == [(4, 1)]
    walks.clear()
    assert verify.check_11_subdirect_decomposition(2).passed
    assert walks == [(4, 2), (4, 1)]
    faulty = True
    res = verify.check_11_subdirect_decomposition(2)
    assert not res.passed and "worker count changes the order-4 census" in res.detail


def test_criterion_11_budget_times_the_cached_walk(monkeypatch):
    # a census cached by an earlier, slow walk: the call itself is a lookup
    blobs, stats = enumeration._census(4, Mode.IS, 1)
    monkeypatch.setattr(enumeration, "_cache", {(4, Mode.IS): (blobs, stats, 600.0)})
    res = verify.check_11_subdirect_decomposition(1)
    assert not res.passed and "order-4 enumeration too slow (600s)" in res.detail


def test_criterion_12_tree_mode_models():
    report(verify.check_12_tree_mode_models())


def test_criterion_12_theorems_hold_at_order_four():
    # one order beyond verify-paper's: all 249 tree-mode algebras of order 4
    assert verify.tree_mode_theorems((4,)) == (249, [])


def test_criterion_12_reports_a_false_theorem(monkeypatch):
    monkeypatch.setattr(verify, "IZ_THEOREMS", verify.IZ_THEOREMS + ("x = 0",))
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
