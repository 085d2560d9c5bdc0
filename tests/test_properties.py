"""Property tests on random inputs beyond the fixed grids.

Every test runs with ``derandomize=True``, so the examples are fixed and a
run is deterministic.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis", reason="hypothesis is in the test extra")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import json  # noqa: E402
import random  # noqa: E402
from fractions import Fraction  # noqa: E402

from clanhess.clans import (  # noqa: E402
    MINUS,
    PLUS,
    Clan,
    clan_from_json,
    clan_length,
    clan_to_json,
    enumerate_clans,
    inclusion_leq,
    orbit_dimension,
    parse_clan,
    render_clan,
)
from clanhess.flag_oracle import (  # noqa: E402
    _least_vector,
    flag_representative,
    integer_rank,
    least_hessenberg_vector,
    random_k_element,
)
from clanhess.hessenberg import catalan, hessenberg_vectors, is_hessenberg_vector  # noqa: E402
from clanhess.perms import Permutation, parse_permutation, render_permutation  # noqa: E402
from clanhess.poset import InclusionPoset, _key_columns, members  # noqa: E402
from clanhess.schubert import IntPolynomial, SchubertExpansion, _normal, monk_product, product_oracle  # noqa: E402
from clanhess.weak_order import _SWAP, covers_from, w_set  # noqa: E402
from test_clans import clan_length_oracle  # noqa: E402
from test_fast_path import assert_matches_validated_build  # noqa: E402
from test_flag_oracle import least_vector_all_rows, least_vector_rank_oracle  # noqa: E402
from test_integer_rule import Index  # noqa: E402
from test_schubert import monk_oracle  # noqa: E402
from test_weak_order import w_set_oracle  # noqa: E402

FIXED = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def permutations(max_degree):
    return st.integers(0, max_degree).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(Permutation)
    )


@FIXED
@given(permutations(8), st.integers(1, 9))
def test_swap_table_is_the_product_with_s_i(w, i):
    # W-set elements are bytes one-line notation in a fixed S_n
    n = max(w.degree, i + 1)
    expected = Permutation.simple(i) * w
    assert bytes(w.embedded(n).images).translate(_SWAP[i]) == bytes(expected.embedded(n).images)


@FIXED
@given(permutations(8))
def test_key_ignores_trailing_fixed_points(w):
    longer = Permutation(w.images + (len(w.images) + 1,))
    assert longer == w and hash(longer) == hash(w)
    trimmed = w.trimmed()
    assert longer.key == w.key == trimmed.images
    assert trimmed.trimmed() is trimmed


@FIXED
@given(permutations(8), permutations(8), permutations(8))
def test_group_axioms(u, v, w):
    e = Permutation.identity(w.degree)
    assert (u * v) * w == u * (v * w)
    assert e * w == w * e == w
    assert w * w.inverse() == w.inverse() * w == e


@FIXED
@given(permutations(8))
def test_code_and_reduced_word_recover_w(w):
    assert Permutation.from_code(w.code()) == w
    word = w.reduced_word()
    assert len(word) == w.length()
    assert Permutation.from_word(word) == w


def merged_terms(coeffs):
    """SchubertExpansion's former constructor loop, kept as the reference:
    trim each key, sum the coefficients of equal keys, drop zeros."""
    clean = {}
    for w, coeff in coeffs.items():
        if coeff:
            w = w.trimmed()
            clean[w] = clean.get(w, 0) + coeff
    return {w: c for w, c in clean.items() if c}


@FIXED
@given(st.lists(st.tuples(permutations(6), st.integers(0, 3), st.integers(-2, 2)), max_size=6))
def test_expansion_keys_are_trimmed_and_coefficients_nonzero(terms):
    # keys carry trailing fixed points; equal permutations collapse in the dict
    coeffs = {w.embedded(w.degree + extra): c for w, extra, c in terms}
    got = SchubertExpansion(coeffs).coeffs
    assert got == merged_terms(coeffs)
    assert all(w.images == w.key and c for w, c in got.items())
    # input that is already normal is copied as it is, with no trimming,
    # and the copy does not alias the caller's dict
    normal = merged_terms(coeffs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Permutation, "trimmed", None)  # a call would raise
        expansion = SchubertExpansion(normal)
    assert expansion.coeffs == normal and expansion.coeffs is not normal
    expected = dict(normal)
    normal.clear()
    normal[Permutation((2, 1))] = 7
    assert expansion.coeffs == expected


def divided_difference_oracle(poly, i):
    """d_i as the kernel once computed it: each term's padded key, summed and
    trimmed by ``schubert._normal``, the public constructor's route."""
    out = []
    for exps, coeff in poly.terms.items():
        padded = exps + (0,) * max(0, i + 1 - len(exps))
        a, b = padded[i - 1], padded[i]
        lo, hi, sign = (b, a, coeff) if a > b else (a, b, -coeff)
        for j in range(hi - lo):
            out.append((padded[: i - 1] + (lo + j, hi - 1 - j) + padded[i + 1 :], sign))
    return _normal(out)


# keys with trailing zeros, and zero or opposite coefficients, that the constructor merges
polynomials = st.dictionaries(
    st.lists(st.integers(0, 4), max_size=5).map(tuple), st.integers(-3, 3), max_size=8
).map(IntPolynomial)


@FIXED
@given(polynomials, st.integers(1, 6))
@example(IntPolynomial({(2,): 1, (0, 2): 1}), 1)  # x1^2 + x2^2 is symmetric: d_1 cancels it
@example(IntPolynomial({(1,): 2, (1, 0, 0): -2, (0, 1, 0): 1}), 3)  # cancelled at construction
@example(IntPolynomial({(0, 1): 1}), 1)  # the term x1^0 x2^0 left by d_1 trims to ()
def test_divided_difference_matches_the_normalizing_oracle(poly, i):
    got = poly.divided_difference(i)
    assert got.terms == divided_difference_oracle(poly, i)


@FIXED
@given(polynomials, polynomials, st.integers(-3, 3))
def test_arithmetic_gives_normal_terms_without_normalizing(f, g, c):
    # the kernels sum terms unchecked (IntPolynomial._of): each result must
    # already be what the normalizing constructor would store
    for h in (f + g, f - g, -f, f * g, f * c, f.divided_difference(1)):
        assert _normal(h.terms.items()) == h.terms


@st.composite
def monk_factors_and_expansions(draw):
    """m and 1 to 4 distinct terms in S_5 with coefficients in -2..2,
    nonzero: a random term and up to three u with u * t_{jk} = w for one w
    and j <= m < k.  Their products all reach S_w, so terms can cancel."""
    m = draw(st.integers(1, 5))
    w = Permutation(draw(st.permutations(range(1, 6))))
    below = [
        u
        for j in range(1, m + 1)
        for k in range(m + 1, 6)
        if (u := w * Permutation.transposition(j, k, 5)).length() == w.length() - 1
    ]
    terms = list(dict.fromkeys([draw(permutations(5))] + below[:3]))
    signs = st.integers(-2, 2).filter(bool)
    coeffs = draw(st.lists(signs, min_size=len(terms), max_size=len(terms)))
    return m, SchubertExpansion(dict(zip(terms, coeffs)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(monk_factors_and_expansions())
# S_213 * S_s2 and S_132 * S_s2 share the term S_231, which cancels
@example((2, SchubertExpansion({Permutation((2, 1, 3)): 1, Permutation((1, 3, 2)): -1})))
def test_monk_product_matches_the_polynomial_oracle(factor_and_expansion):
    m, expansion = factor_and_expansion
    stable = monk_product(m, expansion)
    assert stable == product_oracle(m, expansion)
    # in H^*(Fl_n) the product keeps exactly the stable terms inside S_n
    n = max(max(len(u.key) for u in expansion.coeffs), m + 1)
    truncated = {w: c for w, c in stable.coeffs.items() if len(w.key) <= n}
    assert monk_product(m, expansion, n=n).coeffs == truncated


@st.composite
def cancelling_monk_expansions(draw):
    """m and a signed expansion in S_6 whose product by S_{s_m} cancels:
    two terms u1, u2 with u1 * t_{ab} = u2 * t_{cd} = w for a <= m < b and
    c <= m < d carry opposite coefficients, so S_w drops out; up to two
    random terms of S_6 ride along."""
    m = draw(st.integers(1, 5))
    w = Permutation(draw(st.permutations(range(1, 7))))
    below = [
        u
        for j in range(1, m + 1)
        for k in range(m + 1, 7)
        if (u := w * Permutation.transposition(j, k, 6)).length() == w.length() - 1
    ]
    hypothesis.assume(len(below) >= 2)
    u1, u2 = draw(st.permutations(below))[:2]
    coeff = draw(st.integers(-3, 3).filter(bool))
    coeffs = {u1: coeff, u2: -coeff}
    for u in draw(st.lists(permutations(6), max_size=2)):
        coeffs.setdefault(u, draw(st.integers(-2, 2).filter(bool)))
    return m, w, SchubertExpansion(coeffs)


@FIXED
@given(cancelling_monk_expansions())
def test_monk_product_drops_cancelled_terms(factor_and_expansion):
    m, w, expansion = factor_and_expansion
    for n in (6, None):
        got = monk_product(m, expansion, n)
        assert got == monk_oracle(m, expansion, n)
        assert 0 not in got.coeffs.values()
        for term in got.coeffs:
            assert_matches_validated_build(term)
    # the two opposite terms cancel at S_w; only a random term brings it back
    assert w not in got.coeffs or len(expansion.coeffs) > 2
    assert got == product_oracle(m, expansion)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.permutations(range(1, 6)), st.integers(1, 5))
def test_stable_monk_terms_match_validated_builds(images, m):
    # monk_product builds its terms without the validating constructor
    expansion = SchubertExpansion({Permutation(images): 1})
    stable = monk_product(m, expansion)
    assert stable == product_oracle(m, expansion)
    for w in stable.coeffs:
        assert_matches_validated_build(w)


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
        for v in flag_representative(clan)
    ]
    assert _least_vector(moved, clan.p) == least_hessenberg_vector(clan)
    assert least_vector_rank_oracle(moved, clan.p) == least_hessenberg_vector(clan)
    assert least_vector_all_rows(moved, clan.p) == least_hessenberg_vector(clan)


@st.composite
def full_rank_bases(draw):
    """A full-rank integer basis of Q^n, n <= 7, with entries up to about
    10**20, and its p.  Half the draws mix a clan's representative flag by
    a unitriangular change of basis, v_j + a combination of v_1, ...,
    v_{j-1}, which keeps every V_j and so the clan's least vector; the rest
    have every entry random, with p in 0..n, where the least vector is
    mostly (n, ..., n)."""
    big = st.integers(-(10**20), 10**20)
    if draw(st.booleans()):
        clan = draw(clans_up_to(7))
        vectors = []
        for v in flag_representative(clan):
            for u in vectors:
                scale = draw(st.sampled_from((0, 1, -1)) | big)
                v = tuple(a + scale * b for a, b in zip(v, u))
            vectors.append(v)
        return vectors, clan.p
    n = draw(st.integers(1, 7))
    vectors = [tuple(draw(st.lists(big, min_size=n, max_size=n))) for _ in range(n)]
    hypothesis.assume(integer_rank(vectors) == n)
    return vectors, draw(st.integers(0, n))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(full_rank_bases())
def test_least_vector_matches_the_rank_oracle_on_large_entries(basis):
    vectors, p = basis
    assert _least_vector(vectors, p) == least_vector_rank_oracle(vectors, p)


@st.composite
def random_clans(draw, max_total):
    """A clan of any shape with p + q <= max_total: pair up the first 2l
    positions of a random order, then place the pluses and the minuses."""
    n = draw(st.integers(2, max_total))
    q = draw(st.integers(1, n // 2))
    p = n - q
    ell = draw(st.integers(0, q))
    order = draw(st.permutations(range(n)))
    symbols = [MINUS] * n
    for k in range(ell):
        symbols[order[2 * k]] = symbols[order[2 * k + 1]] = k + 1
    for pos in order[2 * ell : 2 * ell + p - ell]:
        symbols[pos] = PLUS
    clan = Clan(symbols)
    assert (clan.p, clan.q) == (p, q)
    return clan


@FIXED
@given(random_clans(24))
@example(Clan([*range(1, 11), PLUS, *range(10, 0, -1)]))  # labels >= 10: token form
def test_clan_text_and_json_round_trip(clan):
    assert parse_clan(render_clan(clan), clan.p, clan.q) == clan
    assert parse_clan(render_clan(clan)) == clan
    assert clan_from_json(clan_to_json(clan)) == clan
    assert clan_from_json(json.dumps(clan_to_json(clan))) == clan


@FIXED
@given(permutations(30))
def test_permutation_text_round_trip(w):
    assert parse_permutation(render_permutation(w)) == w
    if 1 <= w.degree <= 9:
        assert parse_permutation("".join(map(str, w.images))) == w


# text near the grammar (signs, brackets, commas, digits and non-decimal
# digit characters such as "²", "٣" and "_"), and any text at all
PARSER_TEXT = st.text(st.sampled_from("+-0123456789²٣_[], x"), max_size=12) | st.text(max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.sampled_from("+-0129²x "), max_size=3),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.sampled_from(["p", "q", "symbols", "x"]), children, max_size=4),
    max_leaves=12,
)
CLAN_OBJECTS = st.fixed_dictionaries({
    "p": st.integers(-1, 6) | JSON_VALUES,
    "q": st.integers(-1, 6) | JSON_VALUES,
    "symbols": st.lists(st.sampled_from(["+", "-", "1", "2", "10", "0", "-1", "²", 1, None, []]), max_size=8)
    | JSON_VALUES,
})


@FIXED
@given(PARSER_TEXT, st.none() | st.integers(-1, 8), st.none() | st.integers(-1, 8))
def test_text_parsers_raise_only_value_error(text, p, q):
    for parse in (lambda: parse_clan(text, p, q), lambda: parse_permutation(text), lambda: clan_from_json(text)):
        try:
            parse()
        except ValueError:
            pass


@FIXED
@given(CLAN_OBJECTS | JSON_VALUES)
def test_clan_from_json_raises_only_value_error(data):
    for value in (data, json.dumps(data)):
        try:
            clan_from_json(value)
        except ValueError:
            pass


@FIXED
@given(random_clans(24))
@example(Clan([*range(1, 13), *range(1, 13)]))  # every pair of arcs crosses
def test_clan_length_matches_the_arc_pair_oracle(clan):
    assert clan_length(clan) == clan_length_oracle(clan)


@FIXED
@given(random_clans(12))
def test_covers_step_by_one_and_refine_inclusion(clan):
    for cov in covers_from(clan):
        assert orbit_dimension(cov.target) == orbit_dimension(clan) + 1
        assert clan_length(cov.target) == clan_length(clan) + 1
        assert inclusion_leq(clan, cov.target)


@FIXED
@given(st.lists(random_clans(7), min_size=1, max_size=12))
def test_one_memo_serves_clans_of_any_shape_in_any_order(clans):
    memo, oracle_memo = {}, {}
    for clan in clans:
        got, expected = w_set(clan, memo), w_set_oracle(clan, oracle_memo)
        assert got == expected
        assert sorted(x.images for x in got) == sorted(x.images for x in expected)


@st.composite
def families_and_masks(draw, max_total):
    """A family of distinct clans of one shape with p + q <= max_total, in
    random order, and a random mask over it."""
    n = draw(st.integers(2, max_total))
    q = draw(st.integers(1, n // 2))
    everything = enumerate_clans(n - q, q)
    family = draw(st.lists(st.sampled_from(everything), min_size=1, max_size=40, unique=True))
    return family, draw(st.integers(0, (1 << len(family)) - 1))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(families_and_masks(8))
def test_maximal_and_covers_match_their_definitions(family_and_mask):
    family, mask = family_and_mask
    poset = InclusionPoset(family)
    size = len(family)
    less = [[i != j and inclusion_leq(a, b) for j, b in enumerate(family)] for i, a in enumerate(family)]
    chosen = [i for i in range(size) if mask >> i & 1]
    assert poset.maximal(mask) == [i for i in chosen if not any(less[i][j] for j in chosen)]
    covers = [
        (i, j)
        for i in range(size)
        for j in range(size)
        if less[i][j] and not any(less[i][k] and less[k][j] for k in range(size))
    ]
    assert poset.covers() == covers


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(families_and_masks(8))
def test_length_shares_and_top_follow_the_orbit_dimension(family_and_mask):
    """The lane-wise length shares sum to ``orbit_dimension`` less its
    constant, on families in any order; ``top`` gives the mask's clans of the
    highest dimension, each maximal in it."""
    family, mask = family_and_mask
    p, q = family[0].p, family[0].q
    *_, shares = _key_columns(family, p + q, q)
    dims = list(map(orbit_dimension, family))
    assert [sum(row) + p * (p - 1) // 2 + q * (q - 1) // 2 for row in zip(*shares)] == dims
    poset = InclusionPoset(family)
    highest = max((dims[i] for i in members(mask)), default=None)
    want = [i for i in members(mask) if dims[i] == highest]
    assert members(poset.top(mask)) == want and set(want) <= set(poset.maximal(mask))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.integers(1, 10))
def test_hessenberg_vectors_rise_strictly_and_number_catalan(n):
    vectors = list(hessenberg_vectors(n))
    assert all(a < b for a, b in zip(vectors, vectors[1:]))
    assert all(is_hessenberg_vector(m, n) for m in vectors)
    assert len(vectors) == catalan(n)


def is_hessenberg_vector_oracle(m, n=None):
    """The named oracle of ``is_hessenberg_vector``: the entry-by-entry loop
    it replaced, which takes exact ints only (no bools, no ``__index__``)."""
    m = tuple(m)
    if n is not None and len(m) != n:
        return False
    size = len(m)
    prev = 1
    for i, v in enumerate(m, 1):
        if isinstance(v, bool) or not (isinstance(v, int) and i <= v <= size and v >= prev):
            return False
        prev = v
    return size > 0


# random tuples, which are rarely Hessenberg vectors, their sorted forms,
# which often come close, and Hessenberg vectors themselves
INT_TUPLES = (
    st.lists(st.integers(-1, 9), max_size=8)
    | st.lists(st.integers(0, 9), max_size=8).map(sorted)
    | st.integers(1, 8).flatmap(lambda n: st.sampled_from(list(hessenberg_vectors(n))))
).map(tuple)


@FIXED
@given(INT_TUPLES, st.none() | st.integers(0, 9))
def test_is_hessenberg_vector_matches_its_oracle_on_ints_and_index_objects(m, n):
    expected = is_hessenberg_vector_oracle(m, n)
    assert is_hessenberg_vector(m, n) is expected
    assert is_hessenberg_vector(tuple(map(Index, m)), n) is expected
    assert is_hessenberg_vector(list(m), n) is expected
