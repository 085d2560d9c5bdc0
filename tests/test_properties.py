"""Property tests on random inputs beyond the fixed grids.

Every test runs with ``derandomize=True``, so the examples are fixed and a
run is deterministic.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis", reason="hypothesis is in the test extra")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import random  # noqa: E402
from fractions import Fraction  # noqa: E402

from clanhess.clans import enumerate_clans  # noqa: E402
from clanhess.flag_oracle import (  # noqa: E402
    _least_vector,
    flag_representative,
    integer_rank,
    least_hessenberg_vector,
    random_k_element,
)
from clanhess.perms import Permutation  # noqa: E402
from clanhess.schubert import SchubertExpansion, monk_product, product_oracle  # noqa: E402
from clanhess.weak_order import _left_simple  # noqa: E402

FIXED = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def permutations(max_degree):
    return st.integers(0, max_degree).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(Permutation)
    )


@FIXED
@given(permutations(8), st.integers(1, 9))
def test_left_simple_is_the_product_with_s_i(w, i):
    expected = Permutation.simple(i) * w
    assert _left_simple(w.key, i) == expected.key


@FIXED
@given(permutations(8))
def test_key_ignores_trailing_fixed_points(w):
    longer = Permutation(w.images + (len(w.images) + 1,))
    assert longer == w and hash(longer) == hash(w)
    trimmed = w.trimmed()
    assert longer.key == w.key == trimmed.images
    assert trimmed.trimmed() is trimmed


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(permutations(5), st.integers(1, 5))
def test_monk_product_matches_the_polynomial_oracle(u, m):
    single = SchubertExpansion({u: 1})
    stable = monk_product(m, single)
    assert stable == product_oracle(m, single)
    # in H^*(Fl_n) the product keeps exactly the stable terms inside S_n
    n = max(len(u.key), m + 1)
    truncated = {w: c for w, c in stable.coeffs.items() if len(w.key) <= n}
    assert monk_product(m, single, n=n).coeffs == truncated


def fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    mat = [[Fraction(a) for a in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((k for k in range(rank, len(mat)) if mat[k][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for k in range(rank + 1, len(mat)):
            factor = mat[k][c] / mat[rank][c]
            mat[k] = [a - factor * b for a, b in zip(mat[k], mat[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Small integer matrices; a product of a height x k and a k x width
    factor has rank at most k, which makes rank-deficient ones common."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        return [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(height)]
    k = draw(st.integers(0, min(height, width)))
    left = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(height)]
    right = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(k)]
    return [[sum(a * right[t][c] for t, a in enumerate(row)) for c in range(width)] for row in left]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_rank_matches_rational_elimination(rows):
    assert integer_rank(rows) == fraction_rank(rows)


@st.composite
def clans_up_to(draw, max_total):
    n = draw(st.integers(2, max_total))
    q = draw(st.integers(1, n // 2))
    clans = enumerate_clans(n - q, q)
    return clans[draw(st.integers(0, len(clans) - 1))]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(clans_up_to(8), st.integers(0, 2**30))
def test_least_vector_is_k_invariant(clan, seed):
    # g in K = GL_p x GL_q commutes with x, so g moves the flag inside its
    # K-orbit and keeps the least Hessenberg vector
    g = random_k_element(clan.p, clan.q, random.Random(seed))
    n = clan.n
    moved = [
        tuple(sum(g[r][c] * v[c] for c in range(n)) for r in range(n))
        for v in flag_representative(clan).vectors
    ]
    assert _least_vector(moved, clan.p) == least_hessenberg_vector(clan)
