"""Schubert polynomials: divided differences, expansion, Monk products."""

import itertools
import random
import time

import pytest

from clanhess import schubert
from clanhess.clans import dense_clan, enumerate_clans, parse_clan
from clanhess.perms import Permutation, parse_permutation, symmetric_group, trim_fixed_points
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

# every shape p >= q >= 1 with p + q <= 7
SHAPES = [(p, n - p) for n in range(2, 8) for p in range(n - 1, 0, -1) if p >= n - p]


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
    # the public constructor still checks every key; only the kernels skip it
    with pytest.raises(ValueError, match="negative exponent"):
        IntPolynomial({(1, -1): 1})


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


def monk_oracle(m, expansion, n=None):
    """Monk's rule as a scan over every pair of positions j <= m - 1 < k,
    each term trimmed by ``trim_fixed_points`` and built by the validating
    constructor; ``monk_product`` must agree with it."""
    out = {}
    for u, coeff in expansion.coeffs.items():
        top = n if n is not None else max(u.degree, m) + 1
        images = u.key + tuple(range(len(u.key) + 1, top + 1))
        for j in range(m):
            low = images[j]
            high = top + 1  # the least entry above low seen right of j
            for k in range(j + 1, top):
                v = images[k]
                if low < v < high:
                    high = v
                    if k >= m:
                        move = list(images)
                        move[j], move[k] = v, low
                        key = trim_fixed_points(move)
                        out[key] = out.get(key, 0) + coeff
    return SchubertExpansion({Permutation(w): c for w, c in out.items()})


def divisor_scan_oracle(clans, max_m):
    """``divisor_product_scan`` as a loop of ``monk_product`` and
    ``is_multiplicity_free``."""
    memo: dict = {}
    failures = []
    for clan in clans:
        cls = schubert.brion_class(clan, memo)
        for m in range(1, max_m + 1):
            product = monk_product(m, cls, n=clan.n)
            if not is_multiplicity_free(product):
                failures.append((clan, m, max(product.coeffs.values())))
    return failures, len(clans) * max_m


def test_monk_product_matches_the_position_scan_oracle():
    # every class up to p + q = 7: all m in H^*(Fl_n), m up to n + 1 stable
    for p, q in SHAPES:
        n = p + q
        memo: dict = {}
        for clan in enumerate_clans(p, q):
            cls = brion_class(clan, memo)
            for m in range(1, n):
                assert monk_product(m, cls, n) == monk_oracle(m, cls, n), (clan, m)
            for m in range(1, n + 2):
                assert monk_product(m, cls) == monk_oracle(m, cls), (clan, m)


def test_stable_monk_product_is_linear_in_m():
    # positions past the end of u and below m - 1 make no term; scanning
    # them all took time quadratic in m, minutes at this m
    u = Permutation((2, 1))
    t0 = time.perf_counter()
    got = monk_product(100000, SchubertExpansion({u: 1}))
    assert time.perf_counter() - t0 < 5
    assert got == SchubertExpansion({u * Permutation.simple(100000): 1})


def test_divisor_product_scan_matches_the_monk_product_loop(monkeypatch):
    def compare():
        failing = 0
        for p, q in SHAPES:
            clans = enumerate_clans(p, q)
            got = divisor_product_scan(clans, p + q - 1)
            assert got == divisor_scan_oracle(clans, p + q - 1)
            failing += len(got[0])
        return failing

    assert compare() == 0
    # signed classes with coefficients up to 2: the products carry
    # multiplicities and negative coefficients
    real_class, real_terms = schubert.brion_class, schubert._monk_terms

    def signed(clan, cache=None):
        terms = sorted(real_class(clan, cache).coeffs, key=lambda w: w.key)
        return SchubertExpansion({w: (-1) ** i * (1 + (i % 5 == 4)) for i, w in enumerate(terms)})

    with monkeypatch.context() as patch:
        patch.setattr(schubert, "brion_class", signed)
        assert compare()

    # no two terms of these classes reach one product term, so no signing
    # cancels: put a cancelled term (0) and a -1 into the products instead
    def cancelling(m, terms, n):
        out = real_terms(m, terms, n)
        keys = sorted(out)
        if keys:
            out[keys[0]] = 0
        if m % 2 and len(keys) > 1:
            out[keys[-1]] = -1
        return out

    monkeypatch.setattr(schubert, "_monk_terms", cancelling)
    assert compare()


def test_divisor_product_scan_rejects_what_monk_product_rejects():
    clans = enumerate_clans(3, 2)
    with pytest.raises(ValueError) as monk:
        monk_product(5, brion_class(clans[0]), n=5)
    for max_m in (5, 9):
        with pytest.raises(ValueError) as scan:
            divisor_product_scan(clans, max_m)
        assert str(scan.value) == str(monk.value) == "s_5 does not lie in S_5"
    # below 1: -3 once returned a negative product count, and 0 a vacuous scan
    for max_m in (0, -3):
        with pytest.raises(ValueError) as monk:
            monk_product(max_m, brion_class(clans[0]), n=5)
        with pytest.raises(ValueError) as scan:
            divisor_product_scan(clans, max_m)
        assert str(scan.value) == str(monk.value) == f"Monk factor must be S_{{s_m}} with m >= 1: {max_m}"


def test_divisor_product_scan_reports_the_largest_coefficient_in_scan_order(monkeypatch):
    # a product with a coefficient 3 fails with 3 as its largest coefficient
    clans = enumerate_clans(3, 2)
    real = schubert._monk_terms

    def tripled(m, terms, n):
        out = dict(real(m, terms, n))
        if m == 2 and out:
            out[min(out)] = 3
        return out

    monkeypatch.setattr(schubert, "_monk_terms", tripled)
    failures, products = divisor_product_scan(clans, 3)
    assert products == 165
    expected = [c for c in clans if real(2, brion_class(c).coeffs, 5)]
    assert failures == [(c, 2, 3) for c in expected] and expected
