"""One integer rule for every integer the library is handed.

Each entry point reads its integer arguments through ``operator.index`` and
refuses bools (``perms._index`` and ``perms._indices``): a bool, a float and
a str raise ValueError, never TypeError and never a result, and an object
with ``__index__`` gives the same answer as the int it stands for.
"""

import json

import pytest

from clanhess import verify
from clanhess.clans import clan_count, dense_clan, enumerate_clans, gamma_w, interval_clans
from clanhess.flag_oracle import geometric_membership, k_invariance_spotcheck
from clanhess.hessenberg import (
    catalan,
    hess_dimension,
    hess_orbit_report,
    hessenberg_vectors,
    is_hessenberg_vector,
    m_of_w,
    orbit_in_hess,
)
from clanhess.perms import Permutation, symmetric_group
from clanhess.poset import inclusion_poset, members
from clanhess.schubert import IntPolynomial, SchubertExpansion, divisor_product_scan, monk_product, product_oracle
from clanhess.weak_order import factorization_bijection


class Index:
    """An integer that is no int: it converts only through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


_S21 = Permutation((2, 1))
_E = SchubertExpansion({_S21: 1})

# (entry point, call with x in one integer slot, the int that makes the call valid)
ENTRY_POINTS = [
    ("Permutation", lambda x: Permutation((2, x)), 1),
    ("Permutation.from_code", lambda x: Permutation.from_code((x, 0)), 1),
    ("Permutation.identity", Permutation.identity, 2),
    ("Permutation.longest", Permutation.longest, 3),
    ("Permutation.simple i", lambda x: Permutation.simple(x, 3), 1),
    ("Permutation.simple n", lambda x: Permutation.simple(1, x), 3),
    ("Permutation.transposition j", lambda x: Permutation.transposition(x, 3), 1),
    ("Permutation.transposition k", lambda x: Permutation.transposition(1, x), 3),
    ("Permutation.transposition n", lambda x: Permutation.transposition(1, 2, x), 3),
    ("Permutation.from_word letter", lambda x: Permutation.from_word((x, 2)), 1),
    ("Permutation.from_word n", lambda x: Permutation.from_word((1,), x), 3),
    ("symmetric_group", lambda x: list(symmetric_group(x)), 3),
    ("interval_clans q", lambda x: interval_clans(2, x), 2),
    ("dense_clan q", lambda x: dense_clan(2, x), 2),
    ("IntPolynomial exponent", lambda x: IntPolynomial({(0, x): 1}), 1),
    ("IntPolynomial.monomial", lambda x: IntPolynomial.monomial((x,)), 2),
    ("IntPolynomial.variable", IntPolynomial.variable, 2),
    ("IntPolynomial.divided_difference", lambda x: IntPolynomial.monomial((2,)).divided_difference(x), 1),
    ("enumerate_clans p", lambda x: enumerate_clans(x, 1), 2),
    ("enumerate_clans q", lambda x: enumerate_clans(2, x), 1),
    ("clan_count", lambda x: clan_count(x, 2), 3),
    ("gamma_w", lambda x: gamma_w(_S21, x), 3),
    ("m_of_w", lambda x: m_of_w(_S21, x), 2),
    ("hess_dimension", lambda x: hess_dimension(_S21, x), 2),
    ("factorization_bijection", lambda x: factorization_bijection(_S21, x), 2),
    ("InclusionPoset.contained", lambda x: inclusion_poset(1, 1).contained((x, 2)), 1),
    ("InclusionPoset.select", lambda x: inclusion_poset(1, 1).select(x), 0b101),
    ("InclusionPoset.top", lambda x: inclusion_poset(1, 1).top(x), 0b011),
    ("InclusionPoset.maximal", lambda x: inclusion_poset(1, 1).maximal(x), 0b111),
    ("InclusionPoset.down_of", lambda x: inclusion_poset(1, 1).down_of(x), 1),
    ("members", members, 0b10110),
    ("hessenberg_vectors", lambda x: list(hessenberg_vectors(x)), 3),
    ("catalan", catalan, 3),
    ("hess_orbit_report p", lambda x: hess_orbit_report(x, 1, (2, 2)), 1),
    ("hess_orbit_report m", lambda x: hess_orbit_report(1, 1, (x, 2)), 1),
    ("orbit_in_hess", lambda x: orbit_in_hess(enumerate_clans(1, 1)[2], (x, 2)), 2),
    ("geometric_membership", lambda x: geometric_membership(enumerate_clans(1, 1)[2], (x, 2)), 2),
    ("k_invariance_spotcheck", lambda x: k_invariance_spotcheck(enumerate_clans(2, 1)[4], (x, 3, 3), 2), 2),
    ("monk_product m", lambda x: monk_product(x, _E, n=3), 1),
    ("monk_product n", lambda x: monk_product(1, _E, n=x), 3),
    ("monk_product stable m", lambda x: monk_product(x, _E), 2),
    ("product_oracle", lambda x: product_oracle(x, _E), 1),
    ("divisor_product_scan", lambda x: divisor_product_scan(enumerate_clans(2, 1), x), 2),
    ("check_max_total", verify.check_max_total, 2),
]


# (entry point, call with a degree or length n, its value at n = 0): each
# refuses a negative n, where it once read n as 0 or raised math.comb's error
NONNEGATIVE = [
    ("Permutation.identity", Permutation.identity, Permutation(())),
    ("Permutation.longest", Permutation.longest, Permutation(())),
    ("Permutation.from_word-n", lambda n: Permutation.from_word((), n), Permutation(())),
    ("symmetric_group", lambda n: list(symmetric_group(n)), [Permutation(())]),
    ("hessenberg_vectors", lambda n: list(hessenberg_vectors(n)), [()]),
    ("catalan", catalan, 1),
]


@pytest.mark.parametrize("name, call, at_zero", NONNEGATIVE, ids=[row[0] for row in NONNEGATIVE])
def test_a_negative_degree_or_length_is_refused(name, call, at_zero):
    for n in (-1, -3, Index(-2)):
        with pytest.raises(ValueError, match=r" n >= 0, got (-1|-3|Index\(-2\))$"):
            call(n)
    assert call(0) == at_zero


@pytest.mark.parametrize("kind", [lambda good: True, float, str], ids=["bool", "float", "str"])
def test_non_integers_raise_value_error_at_every_entry_point(kind):
    for name, call, good in ENTRY_POINTS:
        bad = kind(good)
        try:
            result = call(bad)
        except ValueError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other error is the failure
            pytest.fail(f"{name}({bad!r}) raised {type(exc).__name__}: {exc}")
        pytest.fail(f"{name}({bad!r}) returned {result!r}")
    # the predicate answers where the others raise
    assert is_hessenberg_vector((kind(1), 2)) is False


def test_index_objects_give_the_int_answer_at_every_entry_point():
    for name, call, good in ENTRY_POINTS:
        assert call(Index(good)) == call(good), name
    assert is_hessenberg_vector((Index(1), Index(2))) is True


def test_index_objects_leave_only_ints_in_results():
    assert {(type(c.p), type(c.q)) for c in enumerate_clans(Index(2), Index(1))} == {(int, int)}
    report = hess_orbit_report(Index(1), Index(1), (Index(2), 2))
    assert json.dumps(report.to_json()) == json.dumps(hess_orbit_report(1, 1, (2, 2)).to_json())
    assert type(verify.check_max_total(Index(4))) is int


def test_a_float_shape_is_refused_not_stored():
    # enumerate_clans(2.0, 1) once returned clans whose p was the float 2.0
    with pytest.raises(ValueError, match=r"need p >= q >= 1, got \(2.0,1\)"):
        enumerate_clans(2.0, 1)
    with pytest.raises(ValueError, match=r"need p >= q >= 1, got \(2.0,1\)"):
        clan_count(2.0, 1)


def test_a_bool_shape_never_reaches_the_poset_cache():
    # True == 1 and hash(True) == hash(1): an untyped cache once stored the
    # poset of (True, True) and answered every later (1,1) call with it,
    # whose clans printed "p": true, "q": true
    inclusion_poset.cache_clear()
    with pytest.raises(ValueError, match=r"need p >= q >= 1, got \(True,True\)"):
        inclusion_poset(True, True)
    with pytest.raises(ValueError, match=r"need p >= q >= 1, got \(True,True\)"):
        hess_orbit_report(True, True, (2, 2))
    data = hess_orbit_report(1, 1, (2, 2)).to_json()
    shapes = {(c["p"], c["q"]) for c in data["contained"] + data["maximal"]}
    assert {tuple(map(type, shape)) for shape in shapes} == {(int, int)}
    assert '"p": true' not in json.dumps(data)
