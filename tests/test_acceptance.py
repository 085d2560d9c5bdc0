"""Acceptance gate: one test per verification criterion.

Each test runs the corresponding check from clanhess.verify, prints a
single PASS/FAIL line (visible with ``pytest -v -s`` and on any failure),
and asserts both the outcome and the stated runtime budget with headroom.
"""

from clanhess import verify


def _run(index: int, check, budget: float) -> None:
    result = check()
    print(verify.format_result(result, index))
    assert result.passed, verify.format_result(result, index)
    assert result.seconds < budget, f"criterion {index} exceeded {budget}s budget"


def test_criterion_1_worked_examples():
    # each frozen example is budgeted at under a second
    _run(1, verify.worked_example_checks, budget=7.0)


def test_criterion_2_irreducible_classification():
    _run(2, verify.irreducibility_checks, budget=60.0)


def test_criterion_3_dimension_formulas():
    _run(3, verify.dimension_checks, budget=10.0)


def test_criterion_4_geometric_oracle():
    _run(4, verify.oracle_checks, budget=120.0)


def test_criterion_5_w_set_bijection():
    _run(5, verify.wset_checks, budget=30.0)


def test_criterion_6_two_sided_order():
    _run(6, verify.two_sided_order_checks, budget=30.0)


def test_criterion_7_monk_products():
    _run(7, verify.monk_checks, budget=60.0)


def test_criterion_8_structural_invariants():
    _run(8, verify.structural_checks, budget=60.0)


def test_every_criterion_is_covered():
    names = [name for name, _, _, _ in verify.CRITERIA]
    assert len(names) == 8 and len(set(names)) == 8
