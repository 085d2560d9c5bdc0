"""Objects the kernels build without the validating constructors.

``enumerate_clans`` makes its clans, and ``monk_product`` and ``w_set``
their permutations, straight from data they know to be valid.  Each must be
indistinguishable from the object the validating constructor returns for
the same data.
"""

import pickle

from clanhess.clans import Clan, enumerate_clans
from clanhess.perms import Permutation
from clanhess.schubert import brion_class, monk_product
from clanhess.weak_order import w_set

SHAPES = [(p, n - p) for n in range(2, 8) for p in range(n - 1, 0, -1) if p >= n - p]


def assert_matches_validated_build(w) -> None:
    """w is trimmed and equals Permutation(w.images) and its pickle round
    trip in every field, in ``==``, ``hash`` and ``repr``.  The one
    untrimmed element allowed is the identity of S_1, which ``w_set``
    builds through the constructor for the dense clan."""
    assert type(w) is Permutation
    assert w.images == w.key or w.images == (1,)
    for twin in (Permutation(w.images), pickle.loads(pickle.dumps(w))):
        assert (w.images, w.key) == (twin.images, twin.key)
        assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)


def test_enumerated_clans_match_validated_builds():
    for p, q in SHAPES:
        for c in enumerate_clans(p, q):
            twin = Clan(c.symbols)
            assert type(c) is Clan and (c.p, c.q) == (p, q)
            assert (c.symbols, c.p, c.q) == (twin.symbols, twin.p, twin.q)
            assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)


def test_w_set_elements_and_monk_terms_match_validated_builds():
    for p, q in SHAPES:
        n = p + q
        memo: dict = {}
        for c in enumerate_clans(p, q):
            for w in w_set(c, memo):
                assert_matches_validated_build(w)
            expansion = brion_class(c, memo)
            for m in range(1, n):
                for w in monk_product(m, expansion, n).coeffs:
                    assert_matches_validated_build(w)
