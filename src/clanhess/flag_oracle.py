"""Geometric membership oracle built on explicit flags.

Each clan names a K-orbit of flags; the functions here build the standard
integer basis v_1, ..., v_n of a representative flag and decide the
defining condition x V_i <= V_{m_i} of a Hessenberg variety directly, by
exact rank computations over the integers.  This is deliberately
independent of the combinatorial pair criterion so the two can be checked
against each other.

Both sides of the condition grow with i and with m_i, so a flag has a
least Hessenberg vector: the least nondecreasing m with m_i >= i and
x V_i <= V_{m_i} for every i.  The flag lies in Hess(x, m) exactly when
that vector is <= m in every coordinate.  :func:`least_hessenberg_vector`
finds it with fewer than 2n rank computations, and every membership question
about the flag is then a coordinatewise comparison.

The representative follows the usual recipe.  Writing the clan as c_1 ... c_n
with p >= q and x = diag(0^p, 1^q):

* the k-th plus, at position i, contributes e_{k+l} where l counts the pair
  labels whose first occurrence lies strictly before i;
* the k-th minus, at position i, contributes e_{p+k+l} where l counts the
  pairs completed strictly before i;
* the k-th pair label, with occurrences i < j, contributes
  v_i = e_{k+r} + e_{p+s+u} and v_j = e_{k+r} - e_{p+s+u}, where r counts
  pluses before i, s counts minuses before j, and u counts pairs completed
  within c_1 ... c_j, this one included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .clans import PLUS, Clan
from .hessenberg import is_hessenberg_vector

__all__ = [
    "FlagBasis",
    "flag_representative",
    "integer_rank",
    "least_hessenberg_vector",
    "geometric_membership",
    "random_k_element",
    "k_invariance_spotcheck",
]


@dataclass(frozen=True)
class FlagBasis:
    """An ordered integer basis v_1, ..., v_n spanning a flag."""

    p: int
    q: int
    vectors: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.p + self.q


@lru_cache(maxsize=64)
def flag_representative(clan: Clan) -> FlagBasis:
    """The standard representative flag of the orbit of a clan.

    >>> flag_representative(Clan("11")).vectors
    ((1, 1), (1, -1))
    """
    n, p = clan.n, clan.p
    first: dict[int, int] = {}
    completed_at: list[int] = [0] * (n + 1)  # prefix counts of completed pairs
    started_at: list[int] = [0] * (n + 1)  # prefix counts of started pairs
    plus_at: list[int] = [0] * (n + 1)
    minus_at: list[int] = [0] * (n + 1)
    for i, c in enumerate(clan.symbols, 1):
        completed_at[i] = completed_at[i - 1]
        started_at[i] = started_at[i - 1]
        plus_at[i] = plus_at[i - 1]
        minus_at[i] = minus_at[i - 1]
        if isinstance(c, int):
            if c in first:
                completed_at[i] += 1
            else:
                first[c] = i
                started_at[i] += 1
        elif c == PLUS:
            plus_at[i] += 1
        else:
            minus_at[i] += 1

    vectors: list[tuple[int, ...]] = []
    for i, c in enumerate(clan.symbols, 1):
        vec = [0] * n
        if c == PLUS:
            k = plus_at[i]
            vec[k + started_at[i - 1] - 1] = 1
        elif not isinstance(c, int):
            k = minus_at[i]
            vec[p + k + completed_at[i - 1] - 1] = 1
        else:
            k = c  # canonical labels are numbered by first occurrence
            if first[c] == i:
                j = i + next(
                    off for off, d in enumerate(clan.symbols[i:], 1) if d == c
                )
                sign = 1
            else:
                j = i
                sign = -1
            r = plus_at[first[c] - 1]
            s = minus_at[j - 1]
            u = completed_at[j]
            vec[k + r - 1] = 1
            vec[p + s + u - 1] = sign
        vectors.append(tuple(vec))
    return FlagBasis(p, clan.q, tuple(vectors))


def integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    >>> integer_rank([(1, 2), (2, 4), (0, 1)])
    2
    """
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    height, width = len(mat), len(mat[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(width):
        piv = next((k for k in range(r, height) if mat[k][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pivot = mat[r][c]
        for k in range(r + 1, height):
            factor = mat[k][c]
            row_k, row_r = mat[k], mat[r]
            for j in range(c + 1, width):
                row_k[j] = (row_k[j] * pivot - factor * row_r[j]) // prev
            row_k[c] = 0
        prev = pivot
        rank += 1
        r += 1
        if r == height:
            break
    return rank


def _x_image(vector: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Apply x = diag(0^p, 1^q): zero out the first p coordinates."""
    return (0,) * p + vector[p:]


def _least_vector(vectors, p: int) -> tuple[int, ...]:
    """The least Hessenberg vector of the flag spanned by a basis.

    Entry i is the least j >= i with x V_i <= V_j, that is with
    rank(V_j + x V_i) = j.  Since x V_i grows with i, the search for i
    starts at the answer for i - 1, and j = n needs no test: each rank
    call either moves j up or settles one i, so there are fewer than 2n.
    """
    n = len(vectors)
    x_vectors = [_x_image(v, p) for v in vectors]
    least: list[int] = []
    j = 0
    for i in range(1, n + 1):
        j = max(j, i)
        while j < n and integer_rank((*vectors[:j], *x_vectors[:i])) != j:
            j += 1
        least.append(j)
    return tuple(least)


def least_hessenberg_vector(clan: Clan) -> tuple[int, ...]:
    """The least Hessenberg vector m with x V_i <= V_{m_i} on the
    representative flag of the orbit of a clan.

    >>> least_hessenberg_vector(Clan("11"))
    (2, 2)
    >>> least_hessenberg_vector(Clan("+-"))
    (1, 2)
    """
    return _least_vector(flag_representative(clan).vectors, clan.p)


def _within(least, m) -> bool:
    return all(a <= b for a, b in zip(least, m))


def geometric_membership(clan: Clan, m) -> bool:
    """Whether the representative flag satisfies x V_i <= V_{m_i} for all i,
    that is whether its least Hessenberg vector is <= m.

    >>> geometric_membership(Clan("11"), (1, 2))
    False
    >>> geometric_membership(Clan("11"), (2, 2))
    True
    """
    m = tuple(m)
    if not is_hessenberg_vector(m, clan.n):
        raise ValueError(f"not a Hessenberg vector of length {clan.n}: {m!r}")
    return _within(least_hessenberg_vector(clan), m)


def random_k_element(p: int, q: int, rng: random.Random, ops: int = 12):
    """A random unimodular block-diagonal matrix in GL_p x GL_q, as rows.

    Built from the identity by integer row operations inside each block, so
    the determinant of each block is +-1 by construction.
    """
    n = p + q
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for lo, hi in ((0, p), (p, n)):
        size = hi - lo
        if size < 2:
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


def k_invariance_spotcheck(clan: Clan, m, trials: int = 8, seed: int = 0) -> bool:
    """Transform the representative flag by random elements of K and check
    that the membership answer never changes."""
    m = tuple(m)
    base = geometric_membership(clan, m)
    basis = flag_representative(clan)
    rng = random.Random(seed)
    n, p = clan.n, clan.p
    for _ in range(trials):
        g = random_k_element(p, clan.q, rng)
        moved = [
            tuple(sum(g[r][c] * v[c] for c in range(n)) for r in range(n))
            for v in basis.vectors
        ]
        if _within(_least_vector(moved, p), m) != base:
            return False
    return True


if __name__ == "__main__":
    import doctest

    doctest.testmod()
