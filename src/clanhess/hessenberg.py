"""Semisimple Hessenberg varieties for diag(0^p, 1^q) and their components.

A Hessenberg vector is a nondecreasing m = (m_1, ..., m_n) with m_i >= i;
it cuts out the subvariety of flags V_1 < ... < V_n with x V_i inside
V_{m_i}, here for the diagonal involution-type element x with eigenvalue 0
of multiplicity p and 1 of multiplicity q.  That variety is a union of
K-orbit closures; an orbit closure lies inside it exactly when every pair
(i, j) of its clan satisfies m_i >= j.  The variety is irreducible exactly
when the contained clans form a lower ideal with a single maximal element,
which happens precisely for the vectors m(w) attached to 231-avoiding
permutations w in S_q.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .clans import Clan, as_interval_permutation, clan_to_json
from .perms import Permutation, avoids, h_vector, render_permutation, symmetric_group
from .poset import inclusion_poset

__all__ = [
    "is_hessenberg_vector",
    "hessenberg_vectors",
    "area",
    "orbit_in_hess",
    "HessOrbitReport",
    "hess_orbit_report",
    "m_of_w",
    "hess_dimension",
    "classify_irreducibles",
    "catalan",
]

_PATTERN_231 = Permutation((2, 3, 1))


def is_hessenberg_vector(m, n: int | None = None) -> bool:
    """True iff m is nondecreasing with i <= m_i <= len(m) (and length n).

    >>> is_hessenberg_vector((1, 3, 3))
    True
    >>> is_hessenberg_vector((2, 1, 3))
    False
    """
    m = tuple(m)
    if n is not None and len(m) != n:
        return False
    size = len(m)
    prev = 1
    for i, v in enumerate(m, 1):
        if not (isinstance(v, int) and i <= v <= size and v >= prev):
            return False
        prev = v
    return size > 0


def _hessenberg_vector(m, n: int) -> tuple[int, ...]:
    """m as a tuple; ValueError unless it is a Hessenberg vector of length n."""
    m = tuple(m)
    if not is_hessenberg_vector(m, n):
        raise ValueError(f"not a Hessenberg vector of length {n}: {m!r}")
    return m


def hessenberg_vectors(n: int):
    """Yield all Hessenberg vectors of length n in lexicographic order.

    There are Catalan(n) of them.

    >>> list(hessenberg_vectors(3))
    [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3)]
    """
    def rec(prefix: list[int]):
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


def area(m) -> int:
    """sum(m_i - i); the dimension of the Hessenberg variety when it is
    irreducible.

    >>> area((5, 5, 6, 6, 6, 6))
    13
    """
    return sum(v - i for i, v in enumerate(m, 1))


def orbit_in_hess(clan: Clan, m) -> bool:
    """Whether the orbit closure of the clan lies in the Hessenberg variety:
    every pair (i, j) of the clan must satisfy m_i >= j.

    This tests one clan; ``InclusionPoset.contained`` answers for every
    clan of a shape at once.  This is its named oracle: no library path
    calls it, but the tests compare ``contained`` with it and the
    benchmark's tracer wraps it.

    >>> from .clans import parse_clan
    >>> orbit_in_hess(parse_clan("+1+-2+21"), (1, 8, 8, 8, 8, 8, 8, 8))
    True
    >>> orbit_in_hess(parse_clan("+1+-2+21"), (1, 7, 7, 7, 7, 7, 7, 8))
    False
    """
    m = _hessenberg_vector(m, clan.n)
    return all(m[i - 1] >= j for (i, j) in clan.arcs)


class HessOrbitReport(NamedTuple):
    """Orbit-closure decomposition of one Hessenberg variety."""

    p: int
    q: int
    m: tuple[int, ...]
    contained: tuple[Clan, ...]
    maximal: tuple[Clan, ...]
    irreducible: bool
    witness: Permutation | None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "m": list(self.m),
            "contained": [clan_to_json(c) for c in self.contained],
            "maximal": [clan_to_json(c) for c in self.maximal],
            "irreducible": self.irreducible,
            "witness": (
                render_permutation(self.witness) if self.witness is not None else None
            ),
        }


def hess_orbit_report(p: int, q: int, m) -> HessOrbitReport:
    """Which orbit closures fill the Hessenberg variety of m, its maximal
    ones, and the interval permutation of the unique component if any.

    Raises ValueError if m is not a Hessenberg vector of length p + q.
    """
    m = _hessenberg_vector(m, p + q)
    poset = inclusion_poset(p, q)
    mask = poset._contained(m)
    maximal = tuple(map(poset.clans.__getitem__, poset.maximal(mask)))
    irreducible = len(maximal) == 1
    witness = as_interval_permutation(maximal[0]) if irreducible else None
    return HessOrbitReport(p, q, m, poset.select(mask), maximal, irreducible, witness)


def m_of_w(w: Permutation, p: int) -> tuple[int, ...]:
    """The Hessenberg vector with component closure(Q_{gamma_w}):
    m_i = p + max{w^{-1}(k) : k <= i} for i <= q, and m_i = n beyond.

    Defined for 231-avoiding w only.

    >>> m_of_w(Permutation((2, 1, 3)), 3)
    (5, 5, 6, 6, 6, 6)
    """
    q = w.degree
    n = p + q
    if not 1 <= q <= p:
        raise ValueError(f"need p >= q = deg(w) >= 1, got p={p}, q={q}")
    if not avoids(w, _PATTERN_231):
        raise ValueError(
            f"{render_permutation(w)} contains the pattern 231; "
            "no irreducible Hessenberg vector is attached to it"
        )
    return tuple(p + h for h in h_vector(w.inverse())) + (n,) * p


def hess_dimension(w: Permutation, p: int) -> int:
    """Dimension length(w) + p*q + p(p-1)/2 of the irreducible Hessenberg
    variety of m(w); equals area(m_of_w(w, p)).

    >>> hess_dimension(Permutation((2, 1, 3)), 3)
    13
    """
    m_of_w(w, p)  # validates p >= q >= 1 and 231-avoidance
    q = w.degree
    return w.length() + p * q + p * (p - 1) // 2


def classify_irreducibles(p: int, q: int) -> dict[Permutation, tuple[int, ...]]:
    """The Catalan(q) Hessenberg vectors with irreducible variety, keyed by
    their 231-avoiding witness permutation."""
    out: dict[Permutation, tuple[int, ...]] = {}
    for w in symmetric_group(q):
        if avoids(w, _PATTERN_231):
            out[w] = m_of_w(w, p)
    if len(set(out.values())) != len(out) or len(out) != catalan(q):
        raise AssertionError(f"irreducible classification degenerate at ({p},{q})")
    return out


def catalan(n: int) -> int:
    """The Catalan number C(2n, n)/(n + 1).

    >>> [catalan(k) for k in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    return math.comb(2 * n, n) // (n + 1)

