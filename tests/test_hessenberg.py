"""Hessenberg vectors, orbit membership, and irreducibility classification."""

import pytest

from clanhess.clans import (
    dense_clan,
    enumerate_clans,
    gamma_w,
    inclusion_leq,
    orbit_dimension,
    parse_clan,
    render_clan,
)
from clanhess.flag_oracle import geometric_membership
from clanhess.hessenberg import (
    area,
    catalan,
    classify_irreducibles,
    hess_dimension,
    hess_orbit_report,
    hessenberg_vectors,
    is_hessenberg_vector,
    m_of_w,
    orbit_in_hess,
)
from clanhess.perms import Permutation, avoids, parse_permutation, symmetric_group
from clanhess.poset import inclusion_poset


def test_is_hessenberg_vector():
    assert is_hessenberg_vector((1, 2, 3))
    assert is_hessenberg_vector((3, 3, 3))
    assert is_hessenberg_vector((1, 3, 3), n=3)
    assert not is_hessenberg_vector((1, 3, 3), n=4)
    assert not is_hessenberg_vector((2, 1, 3))  # decreasing
    assert not is_hessenberg_vector((1, 2, 2))  # m_3 < 3
    assert not is_hessenberg_vector((1, 2, 4))  # m_3 > n
    assert not is_hessenberg_vector(())


def test_bool_entries_are_not_hessenberg_vectors():
    # isinstance(True, int) holds, so bools need their own refusal
    for m in ((True, 2), (1, True), (True,), (False, 2)):
        assert not is_hessenberg_vector(m)
    assert is_hessenberg_vector((1, 2)) and is_hessenberg_vector((1,))
    clan = parse_clan("1+1")
    for call in (
        lambda: hess_orbit_report(1, 1, (True, 2)),
        lambda: orbit_in_hess(parse_clan("11"), (True, 2)),
        lambda: geometric_membership(clan, (2, True, 3)),
    ):
        with pytest.raises(ValueError, match="not a Hessenberg vector"):
            call()


def hessenberg_vectors_oracle(n):
    """The named oracle of ``hessenberg_vectors``: the recursive walk that
    extends a nondecreasing prefix by each value from max(last entry, i + 1)
    to n, in increasing order, so the vectors come out lexicographically."""

    def rec(prefix):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        lo = max(prefix[-1] if prefix else 1, i + 1)
        for v in range(lo, n + 1):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


@pytest.mark.parametrize("n", range(13))
def test_successor_walk_equals_the_recursive_oracle(n):
    # n = 12: all 208,012 vectors, the length of criterion 2 at --max-n 12;
    # a negative n is refused (tests/test_integer_rule.py)
    assert list(hessenberg_vectors(n)) == list(hessenberg_vectors_oracle(n))


def test_hessenberg_vector_counts_are_catalan():
    for n in range(1, 8):
        assert sum(1 for _ in hessenberg_vectors(n)) == catalan(n)
    for m in hessenberg_vectors(5):
        assert is_hessenberg_vector(m, 5)


def test_area():
    assert area((1, 2, 3)) == 0
    assert area((3, 3, 3)) == 3
    assert area((5, 5, 6, 6, 6, 6)) == 13


def test_orbit_in_hess_frozen():
    clan = parse_clan("+1+-2+21", 5, 3)
    assert orbit_in_hess(clan, (1, 8, 8, 8, 8, 8, 8, 8))
    assert not orbit_in_hess(clan, (1, 7, 7, 7, 7, 7, 7, 8))


def test_orbit_in_hess_validates():
    clan = parse_clan("11")
    with pytest.raises(ValueError):
        orbit_in_hess(clan, (1, 2, 3))
    with pytest.raises(ValueError):
        orbit_in_hess(clan, (2, 1))


def test_m_of_w_frozen():
    assert m_of_w(parse_permutation("213"), 3) == (5, 5, 6, 6, 6, 6)
    assert m_of_w(parse_permutation("12"), 2) == (3, 4, 4, 4)
    assert m_of_w(parse_permutation("21"), 2) == (4, 4, 4, 4)
    with pytest.raises(ValueError):
        m_of_w(parse_permutation("231"), 3)
    with pytest.raises(ValueError):
        m_of_w(parse_permutation("213"), 2)


def test_m_of_w_matches_dimension_and_orbit():
    for q in range(1, 5):
        for p in range(q, q + 3):
            for w in symmetric_group(q):
                if not avoids(w, Permutation((2, 3, 1))):
                    continue
                m = m_of_w(w, p)
                assert is_hessenberg_vector(m, p + q)
                assert area(m) == hess_dimension(w, p)
                assert hess_dimension(w, p) == orbit_dimension(gamma_w(w, p))


def test_full_hessenberg_vector_is_irreducible_with_dense_component():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        n = p + q
        report = hess_orbit_report(p, q, (n,) * n)
        assert report.contained == enumerate_clans(p, q)
        assert report.maximal == (dense_clan(p, q),)
        assert report.irreducible
        assert report.witness == Permutation.longest(q)
        assert (n,) * n == m_of_w(Permutation.longest(q), p)


def test_minimal_hessenberg_vector_keeps_only_closed_orbits():
    p, q = 2, 2
    report = hess_orbit_report(p, q, (1, 2, 3, 4))
    assert all(not c.arcs for c in report.contained)
    assert len(report.contained) == 6  # C(4,2) sign strings
    assert report.maximal == report.contained  # closed orbits are incomparable
    assert not report.irreducible
    assert report.witness is None


def test_contained_sets_are_lower_ideals_of_the_order():
    for p, q in [(2, 1), (2, 2), (3, 2)]:
        n = p + q
        clans = enumerate_clans(p, q)
        for m in hessenberg_vectors(n):
            inside = {c for c in clans if orbit_in_hess(c, m)}
            for b in inside:
                for a in clans:
                    if inclusion_leq(a, b):
                        assert a in inside


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_irreducible_iff_m_comes_from_231_avoiding_w(p, q):
    classified = classify_irreducibles(p, q)
    assert len(classified) == catalan(q)
    by_m = {m: w for w, m in classified.items()}
    for m in hessenberg_vectors(p + q):
        report = hess_orbit_report(p, q, m)
        assert list(report.maximal) == sorted(report.maximal, key=render_clan)
        if m in by_m:
            w = by_m[m]
            assert report.irreducible
            assert report.witness == w
            assert report.maximal == (gamma_w(w, p),)
            poset = inclusion_poset(p, q)
            assert poset.contained(m) == poset.down[poset.clans.index(gamma_w(w, p))]
        else:
            assert not report.irreducible


def test_report_json():
    report = hess_orbit_report(1, 1, (2, 2))
    data = report.to_json()
    assert data["m"] == [2, 2]
    assert data["irreducible"] is True
    assert data["witness"] == "[1]"
    assert [c["symbols"] for c in data["maximal"]] == [["1", "1"]]
