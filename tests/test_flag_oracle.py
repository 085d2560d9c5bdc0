"""Geometric oracle: representative flags, exact ranks, invariance."""

import random

import pytest

from clanhess import flag_oracle
from clanhess.clans import enumerate_clans, parse_clan
from clanhess.flag_oracle import (
    _least_vector,
    _x_image,
    flag_representative,
    geometric_membership,
    integer_rank,
    k_invariance_spotcheck,
    least_hessenberg_vector,
    random_k_element,
)
from clanhess.hessenberg import hessenberg_vectors, orbit_in_hess


def shapes(max_total):
    return [(n - q, q) for n in range(2, max_total + 1) for q in range(1, n // 2 + 1)]


def membership_oracle(vectors, p, m, ranks):
    """One rank test per i: x V_i <= V_{m_i} iff rank(V_{m_i} + x V_i) = m_i.
    ranks memoizes each test by (m_i, i) across the m of one basis."""
    n = len(vectors)
    x_vectors = [_x_image(v, p) for v in vectors]
    for i in range(1, n + 1):
        bound = m[i - 1]
        if bound == n:
            continue
        if (bound, i) not in ranks:
            ranks[bound, i] = integer_rank(list(vectors[:bound]) + x_vectors[:i])
        if ranks[bound, i] != bound:
            return False
    return True


def arc_closure(clan):
    """The least Hessenberg vector whose variety holds the orbit closure:
    entry i is max(i, j over the arcs (i, j)), made nondecreasing."""
    ends = list(range(1, clan.n + 1))
    for i, j in clan.arcs:
        ends[i - 1] = max(ends[i - 1], j)
    out, top = [], 0
    for e in ends:
        top = max(top, e)
        out.append(top)
    return tuple(out)


def unit(n, k, sign=1):
    return tuple(sign if i == k else 0 for i in range(1, n + 1))


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def test_flag_representative_frozen_example():
    basis = flag_representative(parse_clan("+1+-2+21", 5, 3))
    n = 8
    assert basis.vectors == (
        unit(n, 1),
        add(unit(n, 2), unit(n, 8)),
        unit(n, 3),
        unit(n, 6),
        add(unit(n, 4), unit(n, 7)),
        unit(n, 5),
        add(unit(n, 4), unit(n, 7, -1)),
        add(unit(n, 2), unit(n, 8, -1)),
    )


def test_flag_representative_sign_strings():
    basis = flag_representative(parse_clan("++-"))
    assert basis.vectors == (unit(3, 1), unit(3, 2), unit(3, 3))
    basis = flag_representative(parse_clan("-++"))
    assert basis.vectors == (unit(3, 3), unit(3, 1), unit(3, 2))


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([(0, 0), (0, 0)]) == 0
    assert integer_rank([(1, 0), (0, 1)]) == 2
    assert integer_rank([(1, 2), (2, 4), (0, 1)]) == 2
    assert integer_rank([(2, 3, 5), (7, 11, 13)]) == 2
    assert integer_rank([(10**40, 1), (0, 10**40)]) == 2
    # rank drops only on genuinely dependent rows
    assert integer_rank([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 2


def test_representative_is_a_basis():
    for p in range(1, 4):
        for q in range(1, p + 1):
            if p + q > 5:
                continue
            for clan in enumerate_clans(p, q):
                basis = flag_representative(clan)
                assert integer_rank(basis.vectors) == clan.n


def test_membership_matches_pair_criterion_small():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        n = p + q
        for clan in enumerate_clans(p, q):
            for m in hessenberg_vectors(n):
                assert geometric_membership(clan, m) == orbit_in_hess(clan, m)


def test_least_vector_membership_matches_the_rank_oracle():
    for p, q in shapes(6):
        vectors = list(hessenberg_vectors(p + q))
        for clan in enumerate_clans(p, q):
            basis = flag_representative(clan).vectors
            least = least_hessenberg_vector(clan)
            ranks = {}
            for m in vectors:
                want = membership_oracle(basis, p, m, ranks)
                assert all(a <= b for a, b in zip(least, m)) == want


def test_least_vector_is_the_arc_closure():
    for p, q in shapes(8):
        for clan in enumerate_clans(p, q):
            assert least_hessenberg_vector(clan) == arc_closure(clan)


def test_least_vector_tests_each_rank_once(monkeypatch):
    # entry i starts at max(entry i-1, i), every failed test moves up by
    # one, and a search that reaches n stops without a test
    calls = []
    real_rank = flag_oracle.integer_rank

    def counted(rows):
        calls.append(1)
        return real_rank(rows)

    monkeypatch.setattr(flag_oracle, "integer_rank", counted)
    for p, q in shapes(6):
        n = p + q
        for clan in enumerate_clans(p, q):
            calls.clear()
            least = _least_vector(flag_representative(clan).vectors, p)
            expected, prev = 0, 0
            for i, j in enumerate(least, 1):
                expected += j - max(prev, i) + (j < n)
                prev = j
            assert len(calls) == expected < 2 * n


def test_membership_validates_input():
    with pytest.raises(ValueError):
        geometric_membership(parse_clan("11"), (1, 2, 3))


def test_random_k_element_block_structure():
    rng = random.Random(7)
    p, q = 3, 2
    g = random_k_element(p, q, rng)
    assert integer_rank(g) == 5
    for i in range(5):
        for j in range(5):
            if (i < p) != (j < p):
                assert g[i][j] == 0
    # elementary operations keep each block unimodular
    assert abs(_det([row[:p] for row in g[:p]])) == 1
    assert abs(_det([row[p:] for row in g[p:]])) == 1


def _det(mat):
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** c * mat[0][c] * _det([row[:c] + row[c + 1 :] for row in mat[1:]])
        for c in range(len(mat))
    )


def test_k_invariance_spotcheck():
    clan = parse_clan("+1+-2+21", 5, 3)
    assert k_invariance_spotcheck(clan, (1, 8, 8, 8, 8, 8, 8, 8), trials=6, seed=3)
    assert k_invariance_spotcheck(clan, (1, 7, 7, 7, 7, 7, 7, 8), trials=6, seed=3)
    assert k_invariance_spotcheck(parse_clan("1212"), (2, 3, 4, 4), trials=6, seed=5)
