"""Property tests on random inputs beyond the fixed grids.

Every test runs with ``derandomize=True``, so the examples are fixed and a
run is deterministic.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis", reason="hypothesis is in the test extra")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
