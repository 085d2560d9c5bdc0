"""Symmetric group basics, checked against brute-force oracles."""

import copy
import itertools
import math
import pickle

import pytest

from clanhess.perms import (
    Permutation,
    avoids,
    bruhat_leq,
    factorization_pairs,
    h_vector,
    parse_permutation,
    phi,
    render_permutation,
    render_word,
    symmetric_group,
    trim_fixed_points,
    weak_order_leq,
)
from clanhess.clans import Clan
from clanhess.schubert import SchubertExpansion, brion_class, monk_product


def brute_inversions(images):
    return sum(
        1
        for i in range(len(images))
        for j in range(i + 1, len(images))
        if images[i] > images[j]
    )


def test_validation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    # entries go through operator.index: no float is truncated, no string parsed
    for images in ((1.5, 2), ("2", "1"), (2.0, 1), (None,)):
        with pytest.raises(ValueError, match="not a permutation of 1..n"):
            Permutation(images)


def test_key_is_the_trimmed_one_line_notation():
    # __post_init__ trims inline; trim_fixed_points is the reference
    for w in symmetric_group(6):
        for extra in range(3):
            images = w.images + tuple(range(7, 7 + extra))
            assert Permutation(images).key == trim_fixed_points(images)


def test_post_init_runs_once_per_permutation(monkeypatch):
    # the benchmark's tracer counts Permutation builds by wrapping __post_init__
    calls = []
    original = Permutation.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    built = [Permutation(w) for w in itertools.permutations(range(1, 5))]
    assert len(calls) == len(built) == 24
    # a Monk product builds its terms from a valid u with no validating
    # build, and the expansion constructor builds none
    expansion = brion_class(Clan("1+2-12"))
    calls.clear()
    product = monk_product(2, expansion, n=6)
    assert calls == [] and product.coeffs
    SchubertExpansion(product.coeffs)
    assert calls == []
    for w in product.coeffs:
        twin = Permutation(w.key)
        assert (w.images, w.key) == (twin.images, twin.key) and w == twin and hash(w) == hash(twin)


def test_copy_and_pickle_round_trips():
    for w in (Permutation(()), Permutation((2, 1, 3)), Permutation((3, 1, 2, 4, 5))):
        for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert twin == w and hash(twin) == hash(w)
            assert (twin.images, twin.key) == (w.images, w.key)


def test_permutations_refuse_assignment_and_deletion():
    w = Permutation((2, 1))
    for name in ("images", "key", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(w, name, (1,))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(w, name)
    assert (w.images, w.key) == ((2, 1), (2, 1))
    with pytest.raises(AttributeError):
        w.__dict__


def test_length_against_inversion_count():
    # oracle: direct inversion count over all index pairs
    for n in range(1, 6):
        for w in symmetric_group(n):
            assert w.length() == brute_inversions(w.images)
    assert Permutation((3, 2, 1, 4)).length() == 3


def test_composition_convention():
    # (x*y)(i) = x(y(i))
    x = Permutation((3, 1, 2))
    y = Permutation((2, 1, 3))
    assert (x * y).images == tuple(x(y(i)) for i in (1, 2, 3))
    # s_i * w swaps values; w * s_i swaps positions
    w = Permutation((2, 4, 1, 3))
    s1 = Permutation.simple(1, 4)
    assert (s1 * w).images == (1, 4, 2, 3)
    assert (w * s1).images == (4, 2, 1, 3)


def test_identity_and_inverse():
    for n in range(1, 5):
        for w in symmetric_group(n):
            assert w * w.inverse() == Permutation.identity(n)
            assert w.inverse() * w == Permutation.identity(n)
            assert w.inverse().length() == w.length()


def test_embedding_preserves_length_and_code_prefix():
    for w in symmetric_group(4):
        big = w.embedded(7)
        assert big.length() == w.length()
        assert big.code() == w.code() + (0, 0, 0)
        assert big == w
        assert hash(big) == hash(w)


def test_code_and_from_code_are_inverse():
    assert Permutation((3, 1, 2)).code() == (2, 0, 0)
    assert Permutation.identity(4).code() == (0, 0, 0, 0)
    assert Permutation.longest(4).code() == (3, 2, 1, 0)
    for n in range(1, 6):
        for w in symmetric_group(n):
            assert Permutation.from_code(w.code()) == w


def test_from_word_and_reduced_word():
    w = Permutation.from_word((1, 2, 1))
    assert w == Permutation((3, 2, 1))
    for n in range(1, 5):
        for w in symmetric_group(n):
            word = w.reduced_word()
            assert len(word) == w.length()
            assert Permutation.from_word(word, n) == w
            # lexicographically smallest among all reduced words
            assert word == min(w.all_reduced_words())


def test_all_reduced_words_of_longest_s3():
    words = set(Permutation.longest(3).all_reduced_words())
    assert words == {(1, 2, 1), (2, 1, 2)}


def test_avoids_catalan_counts():
    # oracle: #{w in S_n avoiding any single degree-3 pattern} = Catalan(n)
    for pattern in (Permutation((2, 3, 1)), Permutation((3, 1, 2))):
        for n in range(1, 7):
            count = sum(1 for w in symmetric_group(n) if avoids(w, pattern))
            assert count == math.comb(2 * n, n) // (n + 1)


def test_avoids_examples_and_inverse_duality():
    assert avoids(Permutation((3, 2, 1, 4)), Permutation((2, 3, 1)))
    assert not avoids(Permutation((4, 1, 2, 3)), Permutation((3, 1, 2)))
    p231 = Permutation((2, 3, 1))
    p312 = Permutation((3, 1, 2))
    for w in symmetric_group(5):
        assert avoids(w, p231) == avoids(w.inverse(), p312)


def test_phi_properties():
    # phi(v) = w0 v^{-1} w0: involution, anti-homomorphism, s_i -> s_{n-i}
    n = 5
    for v in symmetric_group(4):
        v5 = v.embedded(n)
        assert phi(phi(v5, n), n) == v5
        assert phi(v5, n).length() == v5.length()
    for i in range(1, n):
        assert phi(Permutation.simple(i, n), n) == Permutation.simple(n - i, n)
    for u in symmetric_group(3):
        for v in symmetric_group(3):
            lhs = phi((u.embedded(n) * v.embedded(n)), n)
            assert lhs == phi(v, n) * phi(u, n)


def test_phi_reverses_and_complements_reduced_words():
    n = 6
    v = Permutation.from_word((2, 1))
    assert phi(v, n) == Permutation.from_word((5, 4))
    assert phi(v, n).reduced_word() == (5, 4)


def test_phi_degree_mismatch():
    with pytest.raises(ValueError):
        phi(Permutation((5, 1, 2, 3, 4)), 3)


def test_factorization_pairs_against_full_scan():
    # oracle: scan S_q x S_q for products with additive lengths
    for q in range(1, 5):
        for w in symmetric_group(q):
            expected = set()
            for u in symmetric_group(q):
                for v in symmetric_group(q):
                    if u * v == w and u.length() + v.length() == w.length():
                        expected.add((u, v))
            assert set(factorization_pairs(w)) == expected


def test_factorization_pairs_examples():
    e = Permutation.identity(2)
    assert factorization_pairs(e) == frozenset({(e, e)})
    s1 = Permutation.simple(1, 2)
    assert factorization_pairs(s1) == frozenset({(Permutation.identity(2), s1), (s1, Permutation.identity(2))})
    w312 = Permutation((3, 1, 2))
    s2 = Permutation.simple(2, 3)
    s2s1 = Permutation.from_word((2, 1), 3)
    e3 = Permutation.identity(3)
    assert set(factorization_pairs(w312)) == {(e3, s2s1), (s2, Permutation.simple(1, 3)), (s2s1, e3)}


def test_weak_order_examples():
    w = parse_permutation("[5,1,3,2,4]")
    assert weak_order_leq(w, parse_permutation("[5,2,3,1,4]"), "left")
    assert weak_order_leq(w, parse_permutation("[5,3,1,2,4]"), "right")
    assert weak_order_leq(w, w, "two-sided")
    # negative instance: Bruhat-comparable but not two-sided-weak comparable
    x, y = Permutation((3, 2, 1, 4)), Permutation((3, 4, 1, 2))
    assert bruhat_leq(x, y)
    assert not weak_order_leq(x, y, "two-sided")
    with pytest.raises(ValueError):
        weak_order_leq(x, y, "sideways")


def _weak_covers_up(w, mode):
    """The upper covers of w in the weak order of mode, each as a product of
    Permutations: the oracle for the tuple walk of ``weak_order_leq``."""
    n = w.degree
    out = []
    if mode in ("left", "two-sided"):
        out += [Permutation.simple(i, n) * w for i in range(1, n) if w.inverse()(i) < w.inverse()(i + 1)]
    if mode in ("right", "two-sided"):
        out += [w * Permutation.simple(i, n) for i in range(1, n) if w(i) < w(i + 1)]
    return out


def _closure_from_covers(n, mode):
    perms = list(symmetric_group(n))
    index = {w: i for i, w in enumerate(perms)}
    reach = [1 << i for i in range(len(perms))]
    # propagate from longest elements downward: iterate by decreasing length
    for w in sorted(perms, key=lambda u: -u.length()):
        for t in _weak_covers_up(w, mode):
            reach[index[w]] |= reach[index[t]]
    return perms, index, reach


def test_two_sided_weak_order_included_in_bruhat():
    for n in range(1, 6):
        perms, index, reach = _closure_from_covers(n, "two-sided")
        for x in perms:
            for y in perms:
                leq = bool(reach[index[x]] & (1 << index[y]))
                assert leq == weak_order_leq(x, y, "two-sided")
                if leq:
                    assert bruhat_leq(x, y)


@pytest.mark.parametrize("mode", ["left", "right", "two-sided"])
def test_weak_order_leq_matches_the_closure_of_its_covers(mode):
    perms, index, reach = _closure_from_covers(4, mode)
    for x in perms:
        for y in perms:
            assert weak_order_leq(x, y, mode) == bool(reach[index[x]] >> index[y] & 1)
            # mixed degrees: y is embedded in S_5, x in S_4
            assert weak_order_leq(x, y.embedded(5), mode) == weak_order_leq(x, y, mode)
    assert weak_order_leq(Permutation((2, 1)), Permutation((1, 3, 2)), mode) is False
    assert weak_order_leq(Permutation((1,)), Permutation((2, 1, 3)), mode) is True


def test_bruhat_against_subword_oracle():
    # oracle: x <= y iff some reduced word of y has a subword giving x (n = 3)
    for x in symmetric_group(3):
        for y in symmetric_group(3):
            found = False
            for word in y.all_reduced_words():
                for r in range(len(word) + 1):
                    for sub in itertools.combinations(word, r):
                        if Permutation.from_word(sub, 3) == x:
                            found = True
            assert bruhat_leq(x, y) == found


def test_h_vector():
    assert h_vector(Permutation((3, 2, 1, 4))) == (3, 3, 3, 4)
    assert h_vector(Permutation((4, 1, 2, 3))) == (4, 4, 4, 4)
    # 312-free w: length equals sum(h_i - i); the containment case fails it
    w = Permutation((3, 2, 1, 4))
    assert w.length() == sum(h - i for i, h in enumerate(h_vector(w), 1))
    v = Permutation((4, 1, 2, 3))
    assert v.length() == 3
    assert sum(h - i for i, h in enumerate(h_vector(v), 1)) == 6


def test_h_vector_length_identity_for_312_free():
    p312 = Permutation((3, 1, 2))
    for n in range(1, 8):
        for w in symmetric_group(n):
            if avoids(w, p312):
                assert w.length() == sum(h - i for i, h in enumerate(h_vector(w), 1))


def test_parse_render_round_trip():
    for text in ("[3,2,1,4]", "[1]", "[2,1]"):
        assert render_permutation(parse_permutation(text)) == text
    assert parse_permutation("3214") == Permutation((3, 2, 1, 4))
    assert render_permutation(Permutation((2, 1)), 4) == "[2,1,3,4]"
    with pytest.raises(ValueError):
        parse_permutation("[1,2,2]")
    with pytest.raises(ValueError):
        parse_permutation("10")  # compact digits cannot contain 0
    with pytest.raises(ValueError):
        parse_permutation("abc")


def test_render_word():
    assert render_word((1, 2, 1)) == "s1*s2*s1"
    assert render_word(()) == "e"
