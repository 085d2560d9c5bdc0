"""Geometric oracle: representative flags, exact ranks, invariance."""

import random
from math import gcd

import pytest

from clanhess import flag_oracle
from clanhess.clans import MINUS, PLUS, enumerate_clans, parse_clan
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


def least_vector_rank_oracle(vectors, p):
    """The least-vector search by one rank call per test: entry i starts at
    max(entry i - 1, i), where V_j already holds x v_1, ..., x v_{i-1}, and
    x v_i lies in V_j iff rank(V_j + x v_i) = j."""
    n = len(vectors)
    least = []
    j = 0
    for i, v in enumerate(vectors, 1):
        j = max(j, i)
        while j < n and integer_rank((*vectors[:j], _x_image(v, p))) != j:
            j += 1
        least.append(j)
    return tuple(least)


def least_vector_all_rows(vectors, p):
    """The least-vector search that ranks V_j + x V_i with all i rows of
    x V_i, where ``least_vector_rank_oracle`` ranks V_j + x v_i alone."""
    n = len(vectors)
    x_vectors = [_x_image(v, p) for v in vectors]
    least = []
    j = 0
    for i in range(1, n + 1):
        j = max(j, i)
        while j < n and integer_rank((*vectors[:j], *x_vectors[:i])) != j:
            j += 1
        least.append(j)
    return tuple(least)


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
    n = 8
    assert flag_representative(parse_clan("+1+-2+21", 5, 3)) == (
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
    assert flag_representative(parse_clan("++-")) == (unit(3, 1), unit(3, 2), unit(3, 3))
    assert flag_representative(parse_clan("-++")) == (unit(3, 3), unit(3, 1), unit(3, 2))


def docstring_recipe(clan):
    """The module docstring's recipe read literally, each count taken by
    slicing the prefix it names (positions are 1-based, as there)."""
    c, n, p = clan.symbols, clan.n, clan.p

    def started(prefix):
        return len({s for s in prefix if isinstance(s, int)})

    def completed(prefix):
        labels = [s for s in prefix if isinstance(s, int)]
        return len(labels) - len(set(labels))

    vectors = []
    for i in range(1, n + 1):
        if c[i - 1] == PLUS:
            vectors.append(unit(n, c[:i].count(PLUS) + started(c[: i - 1])))
        elif c[i - 1] == MINUS:
            vectors.append(unit(n, p + c[:i].count(MINUS) + completed(c[: i - 1])))
        else:
            first = c.index(c[i - 1]) + 1
            j = c.index(c[i - 1], first) + 1
            k = started(c[:first])
            r = c[: first - 1].count(PLUS)
            s = c[: j - 1].count(MINUS)
            u = completed(c[:j])
            vectors.append(add(unit(n, k + r), unit(n, p + s + u, 1 if i == first else -1)))
    return tuple(vectors)


def test_flag_representative_is_the_docstring_recipe():
    for p, q in shapes(8):
        for clan in enumerate_clans(p, q):
            assert flag_representative(clan) == docstring_recipe(clan), clan


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
                assert integer_rank(flag_representative(clan)) == clan.n


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
            basis = flag_representative(clan)
            least = least_hessenberg_vector(clan)
            ranks = {}
            for m in vectors:
                want = membership_oracle(basis, p, m, ranks)
                assert all(a <= b for a, b in zip(least, m)) == want


def test_least_vector_is_the_arc_closure():
    for p, q in shapes(8):
        for clan in enumerate_clans(p, q):
            assert least_hessenberg_vector(clan) == arc_closure(clan)


def test_least_vector_matches_the_all_rows_search():
    for p, q in shapes(7):
        for clan in enumerate_clans(p, q):
            basis = flag_representative(clan)
            assert _least_vector(basis, p) == least_vector_all_rows(basis, p), clan


def test_least_vector_matches_the_rank_oracle():
    for p, q in shapes(8):
        for clan in enumerate_clans(p, q):
            basis = flag_representative(clan)
            assert _least_vector(basis, p) == least_vector_rank_oracle(basis, p), clan


def test_least_vector_pushes_each_vector_once(monkeypatch):
    # a flag pushes v_1, ..., v_{n-1} once each, v_k reduced against the k - 1
    # rows before it; entry i's first test reduces x v_i against all j rows,
    # and each later test reduces the same residual against the one row just
    # pushed; every reduction comes out primitive (content 1) or zero
    calls = []
    real_reduce = flag_oracle._reduce

    def counted(v, rows):
        calls.append(len(rows))
        out = real_reduce(v, rows)
        assert gcd(*out) <= 1
        return out

    monkeypatch.setattr(flag_oracle, "_reduce", counted)
    for p, q in shapes(6):
        n = p + q
        for clan in enumerate_clans(p, q):
            calls.clear()
            least = _least_vector(flag_representative(clan), p)
            expected, pushed, prev = [], 0, 0
            for i, j in enumerate(least, 1):
                start = max(prev, i)
                if start < n:
                    expected += range(pushed, start)
                    expected.append(start)
                    for k in range(start, min(j, n - 1)):
                        expected += [k, 1]
                    pushed = max(start, min(j, n - 1))
                prev = j
            assert calls == expected, clan
            assert pushed == n - 1


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


def random_k_element_oracle(p, q, rng, ops=12):
    """random_k_element as it was written with rng.sample and rng.choice:
    the oracle of the randrange draws that replaced them."""
    n = p + q
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for lo, hi in ((0, p), (p, n)):
        if hi - lo < 2:
            continue
        for _ in range(ops):
            i, j = rng.sample(range(lo, hi), 2)
            move = rng.choice(("add", "swap", "negate"))
            if move == "add":
                c = rng.choice((-2, -1, 1, 2))
                g[i] = [a + c * b for a, b in zip(g[i], g[j])]
            elif move == "swap":
                g[i], g[j] = g[j], g[i]
            else:
                g[i] = [-a for a in g[i]]
    return [tuple(row) for row in g]


@pytest.mark.parametrize("p", range(1, 8))
def test_random_k_element_makes_the_draws_of_sample_and_choice(p):
    # the same matrix and the same generator state after it, so every later
    # draw of criterion 4's spot checks is unchanged too
    for q in range(1, 8):
        for seed in range(200):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            assert random_k_element(p, q, rng) == random_k_element_oracle(p, q, oracle_rng), (q, seed)
            assert rng.getstate() == oracle_rng.getstate(), (q, seed)


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


def test_criterion_4_names_each_disagreeing_clan(monkeypatch):
    from clanhess import verify

    pairs = sum(
        len(enumerate_clans(p, q)) * len(list(hessenberg_vectors(p + q))) for p, q in shapes(4)
    )
    assert verify.oracle_checks(max_total=4).detail.startswith(f"{pairs} (clan, m) ")
    # criterion 4 reads the arc ends from the poset kernel, so a kernel that
    # moves the arc (1, 4) of 1+-1 to (1, 3) must fail it; ``contained``
    # itself stays checked against ``orbit_in_hess`` by
    # test_poset.py::test_contained_agrees_with_orbit_in_hess and by criterion 2
    right = verify._key_columns

    def moved(clans, n, q):
        key, ends, shares = right(clans, n, q)
        if (n, q) == (4, 2):
            c = [str(clan) for clan in clans].index("1+-1")
            ends[0] = ends[0][:c] + bytes([3]) + ends[0][c + 1 :]
        return key, ends, shares

    monkeypatch.setattr(verify, "_key_columns", moved)
    result = verify.oracle_checks(max_total=4)
    assert not result.passed
    assert result.detail == "1+-1: least vector (4, 4, 4, 4), arc closure (3, 3, 3, 4)"


def test_criterion_4_lists_the_vectors_once_per_length(monkeypatch):
    # the shapes come by p + q, so the shapes of one length share one list
    from clanhess import verify

    lengths = []

    def counted(n):
        lengths.append(n)
        return hessenberg_vectors(n)

    expected = verify.oracle_checks(max_total=6, seed=3)
    monkeypatch.setattr(verify, "hessenberg_vectors", counted)
    result = verify.oracle_checks(max_total=6, seed=3)
    assert lengths == [2, 3, 4, 5, 6]
    assert result.passed and result.detail == expected.detail
