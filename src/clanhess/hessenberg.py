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

from .clans import Clan, _check_degree, _check_shape, as_interval_permutation, clan_to_json
from .perms import Permutation, _index, _indices, avoids, h_vector, render_permutation, symmetric_group
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
    """True iff m is nondecreasing with i <= m_i <= len(m) (and length n), each entry
    an integer by the library's one rule: through ``operator.index``, never a bool.

    >>> is_hessenberg_vector((1, 3, 3))
    True
    >>> is_hessenberg_vector((2, 1, 3))
    False
    """
    try:
        return bool(_hessenberg_vector(m, n))  # a nonempty tuple
    except ValueError:
        return False


def _hessenberg_vector(m, n: int | None) -> tuple[int, ...]:
    """m as a tuple of ints; ValueError unless it is a Hessenberg vector (of length n)."""
    values = _indices(m) or ()
    size, prev = len(values), 1
    for i, v in enumerate(values, 1):
        if not i <= v <= size or v < prev:
            break
        prev = v
    else:
        if size and n in (None, size):
            return values
    raise ValueError(f"not a Hessenberg vector of length {size if n is None else n}: {m!r}")


def _length(n: int) -> int:
    """n >= 0 as an int by the library's one integer rule (``perms._index``), else ValueError."""
    value = _index(n)
    if value is None or value < 0:
        raise ValueError(f"need an integer n >= 0, got {n!r}")
    return value


def hessenberg_vectors(n: int):
    """Yield all Hessenberg vectors of length n in lexicographic order.

    There are Catalan(n) of them.  The walk starts at (1, 2, ..., n); each
    successor adds one to the last entry m_i below n (m_n = n always) and
    resets every later entry m_k to its least value, max(m_i, k).  A
    negative or non-integer n (``_length``) raises ValueError at the first step.

    >>> list(hessenberg_vectors(3))
    [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3)]
    """
    n = _length(n)
    m = list(range(1, n + 1))
    while n >= 0:
        yield tuple(m)
        i = m.index(n) - 1 if n else -1  # the entries equal to n are a suffix
        if i < 0:
            return
        m[i] += 1
        for k in range(i + 1, n - 1):  # 0-indexed, so the least value is k + 1
            m[k] = max(m[i], k + 1)


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

    Raises ValueError unless p >= q >= 1 and m is a Hessenberg vector of length p + q.
    """
    p, q = _check_shape(p, q)
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
    p, q = _check_degree(w, p)
    if not avoids(w, _PATTERN_231):
        raise ValueError(
            f"{render_permutation(w)} contains the pattern 231; "
            "no irreducible Hessenberg vector is attached to it"
        )
    return tuple(p + h for h in h_vector(w.inverse())) + (p + q,) * p


def hess_dimension(w: Permutation, p: int) -> int:
    """Dimension length(w) + p*q + p(p-1)/2 of the irreducible Hessenberg
    variety of m(w); equals area(m_of_w(w, p)).

    >>> hess_dimension(Permutation((2, 1, 3)), 3)
    13
    """
    m_of_w(w, p)  # validates p >= q >= 1 and 231-avoidance
    p, q = _check_degree(w, p)
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
    """The Catalan number C(2n, n)/(n + 1); ValueError for a negative or
    non-integer n (``_length``).

    >>> [catalan(k) for k in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    n = _length(n)
    return math.comb(2 * n, n) // (n + 1)

