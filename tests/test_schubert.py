"""Schubert polynomials: divided differences, expansion, Monk products."""

import itertools
import random

import pytest

from clanhess import schubert
from clanhess.clans import dense_clan, enumerate_clans, parse_clan
from clanhess.perms import Permutation, parse_permutation, symmetric_group
from clanhess.schubert import (
    IntPolynomial,
    SchubertExpansion,
    brion_class,
    divisor_product_scan,
    expand_in_schubert_basis,
    is_multiplicity_free,
    monk_product,
    product_oracle,
    schubert_polynomial,
)

x1, x2, x3 = (IntPolynomial.variable(i) for i in (1, 2, 3))


def S(text):
    return schubert_polynomial(parse_permutation(text))


def expansion(*pairs):
    return SchubertExpansion({parse_permutation(t): c for t, c in pairs})


def test_polynomial_arithmetic():
    assert (x1 + x2) - x2 == x1
    assert x1 * x2 == x2 * x1
    assert 3 * x1 - x1 * 3 == IntPolynomial.zero()
    assert IntPolynomial.one() * x3 == x3
    assert (x1 + 1) * (x1 - 1) == x1 * x1 - IntPolynomial.one()
    assert IntPolynomial.monomial((0, 0), 5) == IntPolynomial.monomial((), 5)
    assert x1 != x2
    assert (x1 * x1).degree() == 2
    assert IntPolynomial.zero().degree() == -1
    assert IntPolynomial.zero().leading() is None
    with pytest.raises(ValueError):
        IntPolynomial.variable(0)
    with pytest.raises(ValueError):
        IntPolynomial.monomial((1, -1))


def test_render():
    poly = 3 * x1 * x1 * x2 + x3 - 2 * IntPolynomial.one()
    assert poly.render() == "3*x1^2*x2 + x3 - 2"
    assert IntPolynomial.zero().render() == "0"
    assert (-x1).render() == "-x1"
    assert (x2 - x1).render() == "-x1 + x2"


def test_divided_difference_basics():
    assert x1.divided_difference(1) == IntPolynomial.one()
    assert x2.divided_difference(1) == -IntPolynomial.one()
    assert x3.divided_difference(1) == IntPolynomial.zero()
    assert (x1 * x2).divided_difference(1) == IntPolynomial.zero()  # symmetric
    assert (x1 * x1).divided_difference(1) == x1 + x2
    assert (x1 * x1 * x2).divided_difference(2) == x1 * x1


def _monomials(num_vars, max_degree):
    for exps in itertools.product(range(max_degree + 1), repeat=num_vars):
        if sum(exps) <= max_degree:
            yield IntPolynomial.monomial(exps)


def test_divided_difference_relations_exhaustive():
    """Nilpotence, braid, and commutation on all monomials of degree <= 6
    in four variables."""
    for mono in _monomials(4, 6):
        d1 = mono.divided_difference(1)
        d2 = mono.divided_difference(2)
        d3 = mono.divided_difference(3)
        assert d1.divided_difference(1).is_zero
        assert d2.divided_difference(2).is_zero
        assert d3.divided_difference(3).is_zero
        assert (
            d1.divided_difference(2).divided_difference(1)
            == d2.divided_difference(1).divided_difference(2)
        )
        assert (
            d2.divided_difference(3).divided_difference(2)
            == d3.divided_difference(2).divided_difference(3)
        )
        assert d1.divided_difference(3) == d3.divided_difference(1)


def test_divided_difference_inverts_multiplication_by_the_root():
    """(x_i - x_{i+1}) * d_i f = f - s_i f on every monomial of degree <= 5
    in four variables, s_i swapping x_i and x_{i+1}."""
    for exps in itertools.product(range(6), repeat=4):
        if sum(exps) > 5:
            continue
        mono = IntPolynomial.monomial(exps)
        for i in (1, 2, 3):
            swapped = list(exps)
            swapped[i - 1], swapped[i] = exps[i], exps[i - 1]
            root = IntPolynomial.variable(i) - IntPolynomial.variable(i + 1)
            assert root * mono.divided_difference(i) == mono - IntPolynomial.monomial(swapped)


def test_schubert_polynomial_cache_is_bounded():
    assert schubert_polynomial.cache_info().maxsize is not None


def test_schubert_frozen_values():
    assert schubert_polynomial(Permutation.identity(1)) == IntPolynomial.one()
    assert S("21") == x1
    assert S("132") == x1 + x2
    assert S("312") == x1 * x1
    assert S("231") == x1 * x2
    assert S("321") == x1 * x1 * x2
    for m in range(1, 5):
        total = IntPolynomial.zero()
        for i in range(1, m + 1):
            total = total + IntPolynomial.variable(i)
        assert schubert_polynomial(Permutation.simple(m)) == total


def test_schubert_degree_and_leading():
    for w in symmetric_group(4):
        poly = schubert_polynomial(w)
        assert poly.degree() == w.length()
        exps, coeff = poly.leading()
        assert coeff == 1
        assert Permutation.from_code(exps) == w


def test_schubert_is_stable_under_embedding():
    """Computing from a larger staircase must give the same polynomial."""
    def via_ambient(w, size):
        poly = IntPolynomial.monomial(tuple(range(size - 1, 0, -1)))
        rest = w.embedded(size).inverse() * Permutation.longest(size)
        for i in reversed(rest.reduced_word()):
            poly = poly.divided_difference(i)
        return poly

    for w in symmetric_group(3):
        expected = schubert_polynomial(w)
        for size in (3, 4, 5):
            assert via_ambient(w, size) == expected


def test_schubert_word_independence():
    """The divided-difference string may follow any reduced word."""
    rng = random.Random(11)
    sample = rng.sample(list(symmetric_group(4)), 8)
    for w in sample:
        size = 4
        staircase = IntPolynomial.monomial(tuple(range(size - 1, 0, -1)))
        rest = w.embedded(size).inverse() * Permutation.longest(size)
        results = []
        for word in itertools.islice(rest.all_reduced_words(), 3):
            poly = staircase
            for i in reversed(word):
                poly = poly.divided_difference(i)
            results.append(poly)
        assert all(p == results[0] for p in results)


def test_expand_inverts_schubert():
    for w in symmetric_group(4):
        got = expand_in_schubert_basis(schubert_polynomial(w))
        assert got == SchubertExpansion({w: 1})
    rng = random.Random(5)
    for w in rng.sample(list(symmetric_group(5)), 6):
        got = expand_in_schubert_basis(schubert_polynomial(w))
        assert got == SchubertExpansion({w: 1})


def test_expand_examples():
    assert expand_in_schubert_basis((x1 + x2) * x1) == expansion(
        ("312", 1), ("231", 1)
    )
    assert expand_in_schubert_basis(IntPolynomial.zero()) == SchubertExpansion()
    # an arbitrary integer polynomial also expands (the basis spans everything)
    poly = 2 * x2 * x2 - x3 + 5 * IntPolynomial.one()
    back = IntPolynomial.zero()
    for w, c in expand_in_schubert_basis(poly).items():
        back = back + schubert_polynomial(w) * c
    assert back == poly


def test_expansion_container():
    e = expansion(("312", 1), ("231", 2))
    assert e.items() == [
        (parse_permutation("231"), 2),
        (parse_permutation("312"), 1),
    ]
    assert e.render() == "2 * S[2,3,1] + 1 * S[3,1,2]"
    assert e.render(n=4) == "2 * S[2,3,1,4] + 1 * S[3,1,2,4]"
    assert e.to_json() == {"[2,3,1]": 2, "[3,1,2]": 1}
    assert SchubertExpansion().render() == "0"
    assert expansion(("1", 1)).render() == "1 * S[1]"
    assert not is_multiplicity_free(e)
    assert is_multiplicity_free(expansion(("312", 1)))
    assert e.polynomial() == x1 * x1 + 2 * x1 * x2


def test_brion_class_small():
    assert brion_class(dense_clan(2, 2)) == expansion(("1", 1))
    assert brion_class(parse_clan("+-")) == expansion(("21", 1))
    cls = brion_class(parse_clan("+-+"))
    assert cls == expansion(("231", 1), ("312", 1))
    assert cls.polynomial() == x1 * x1 + x1 * x2


def test_brion_class_with_a_shared_memo():
    # the memo is opaque and may be shared across shapes
    memo: dict = {}
    for p, q in ((3, 3), (4, 3)):
        for clan in enumerate_clans(p, q):
            assert brion_class(clan, memo) == brion_class(clan)


def test_monk_basics():
    assert monk_product(1, expansion(("21", 1))) == expansion(("312", 1))
    assert monk_product(1, expansion(("132", 1))) == expansion(
        ("312", 1), ("231", 1)
    )
    # multiplying the identity class gives the generator itself
    for m in range(1, 4):
        got = monk_product(m, SchubertExpansion({Permutation.identity(1): 1}))
        assert got == SchubertExpansion({Permutation.simple(m): 1})


def test_monk_cohomology_truncates_stable():
    n = 4
    for u in symmetric_group(4):
        for m in range(1, n):
            stable = monk_product(m, SchubertExpansion({u: 1}))
            cut = monk_product(m, SchubertExpansion({u: 1}), n=n)
            expected = {w: c for w, c in stable.coeffs.items() if len(w.key) <= n}
            assert cut == SchubertExpansion(expected)


def test_monk_validation():
    with pytest.raises(ValueError):
        monk_product(0, expansion(("21", 1)))
    with pytest.raises(ValueError):
        monk_product(3, expansion(("21", 1)), n=3)
    with pytest.raises(ValueError):
        monk_product(1, expansion(("4123", 1)), n=3)


def test_monk_matches_polynomial_oracle():
    for u in symmetric_group(3):
        for m in range(1, 4):
            e = SchubertExpansion({u: 1})
            assert monk_product(m, e) == product_oracle(m, e)
    # a two-term class with coefficients
    e = expansion(("231", 1), ("312", 2))
    for m in range(1, 3):
        assert monk_product(m, e) == product_oracle(m, e)


def test_monk_stable_products_multiplicity_free_on_single_terms():
    for u in symmetric_group(3):
        for m in range(1, 4):
            assert is_multiplicity_free(monk_product(m, SchubertExpansion({u: 1})))


def test_divisor_product_scan_reports_the_largest_coefficient_in_scan_order(monkeypatch):
    # a product with a coefficient 3 fails with 3 as its largest coefficient
    clans = enumerate_clans(3, 2)
    real = schubert.monk_product

    def tripled(m, expansion, n=None):
        coeffs = dict(real(m, expansion, n).coeffs)
        if m == 2 and coeffs:
            coeffs[min(coeffs, key=lambda w: w.key)] = 3
        return SchubertExpansion(coeffs)

    monkeypatch.setattr(schubert, "monk_product", tripled)
    failures, products = divisor_product_scan(clans, 3)
    assert products == 165
    expected = [c for c in clans if real(2, brion_class(c), 5).coeffs]
    assert failures == [(c, 2, 3) for c in expected] and expected
