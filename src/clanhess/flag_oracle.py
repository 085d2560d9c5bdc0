"""Geometric membership oracle built on explicit flags.

Each clan names a K-orbit of flags; the functions here build the standard
integer basis v_1, ..., v_n of a representative flag and decide the
defining condition x V_i <= V_{m_i} of a Hessenberg variety directly, by
exact fraction-free elimination over the integers.  This is deliberately
independent of the combinatorial pair criterion so the two can be checked
against each other.

Both sides of the condition grow with i and with m_i, so a flag has a
least Hessenberg vector: the least nondecreasing m with m_i >= i and
x V_i <= V_{m_i} for every i.  The flag lies in Hess(x, m) exactly when
that vector is <= m in every coordinate.  :func:`least_hessenberg_vector`
finds it from one echelon basis of the flag, grown one vector at a time,
and every membership question about the flag is then a coordinatewise
comparison.

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

:func:`flag_representative` reads the flag in one left-to-right pass,
keeping these four counts (pluses, minuses, labels started and labels
completed) as it goes; a pair's two vectors are written at its second
occurrence.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd

from .clans import PLUS, Clan
from .hessenberg import _hessenberg_vector

__all__ = [
    "flag_representative",
    "integer_rank",
    "least_hessenberg_vector",
    "geometric_membership",
    "random_k_element",
    "k_invariance_spotcheck",
]


@lru_cache(maxsize=64)
def flag_representative(clan: Clan) -> tuple[tuple[int, ...], ...]:
    """The standard representative flag of the orbit of a clan, as its
    ordered integer basis v_1, ..., v_n.

    >>> flag_representative(Clan("11"))
    ((1, 1), (1, -1))
    """
    n, p = clan.n, clan.p
    rows = [[0] * n for _ in range(n)]
    opened: dict[int, tuple[int, int]] = {}  # label -> (its first row, its plus coordinate)
    pluses = minuses = started = completed = 0  # counted before symbol i; coordinates 0-based
    for i, c in enumerate(clan.symbols):
        if c == PLUS:
            rows[i][pluses + started] = 1
            pluses += 1
        elif not isinstance(c, int):
            rows[i][p + minuses + completed] = 1
            minuses += 1
        elif c not in opened:
            opened[c] = (i, pluses + started)
            started += 1
        else:
            first, a = opened[c]
            completed += 1
            b = p + minuses + completed - 1
            rows[first][a] = rows[first][b] = rows[i][a] = 1
            rows[i][b] = -1
    return tuple(map(tuple, rows))


def integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    The named oracle of the geometric layer: the least-vector search ran one
    rank call per test, and the tests keep that search as the reference for
    the incremental echelon basis of :func:`_least_vector`.

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


def _reduce(v, rows):
    """v reduced against echelon rows (pivot column, row) in order, fraction-free,
    then divided by its content: b v - a row clears v at each pivot."""
    for c, row in rows:
        a = v[c]
        if a:
            b = row[c]
            v = [b * s - a * t for s, t in zip(v, row)]
    g = gcd(*v)
    return [s // g for s in v] if g > 1 else v


def _least_vector(vectors, p: int) -> tuple[int, ...]:
    """The least Hessenberg vector of the flag spanned by a basis.

    Entry i is the least j >= i with x V_i <= V_j.  Since x V_i grows with
    i, the search for i starts at j = max(i, entry i - 1); there V_j already
    holds x v_1, ..., x v_{i-1}, because x V_{i-1} <= V_{entry i - 1} <= V_j.
    So the test is whether x v_i lies in V_j.  j = n needs no test.

    V_j is held as a fraction-free echelon basis, grown one v_j at a time:
    each pushed row is reduced against the earlier rows, so it is zero at
    every earlier pivot, and takes its first nonzero column as its pivot.
    Reducing x v_i against the rows in order clears each pivot in turn and
    keeps the pivots cleared before it, since each later row is zero there.
    A zero residual means x v_i lies in V_j, as the residual is a nonzero
    multiple of x v_i minus a vector of V_j.  A nonzero one means it does
    not: a nonzero combination of the rows is nonzero at the pivot of its
    first row with a nonzero coefficient, where the residual is zero.  When
    the test fails, v_{j+1} is pushed and the same residual is reduced
    against the new row alone; it is still zero at the earlier pivots,
    which the new row is too, so this is the full reduction against V_{j+1}.
    Each row and residual is divided by its content (``math.gcd``), so the
    entries stay exact integers and small.  A flag pushes fewer than n rows.
    """
    n = len(vectors)
    rows: list[tuple[int, list[int]]] = []  # the echelon basis of V_j, as (pivot column, row)

    def push() -> None:
        row = _reduce(vectors[len(rows)], rows)
        rows.append((next(c for c, a in enumerate(row) if a), row))

    least: list[int] = []
    j = 0
    for i, v in enumerate(vectors, 1):
        j = max(j, i)
        if j < n:
            while len(rows) < j:
                push()
            residual = _reduce(_x_image(v, p), rows)
            while any(residual):
                j += 1
                if j == n:
                    break
                push()
                residual = _reduce(residual, rows[-1:])
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
    return _least_vector(flag_representative(clan), clan.p)


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
    m = _hessenberg_vector(m, clan.n)
    return _within(least_hessenberg_vector(clan), m)


def random_k_element(p: int, q: int, rng: random.Random, ops: int = 12):
    """A random unimodular block-diagonal matrix in GL_p x GL_q, as rows.

    Built from the identity by integer row operations inside each block, so
    the determinant of each block is +-1 by construction.

    Each operation draws two distinct rows of the block, the move, and for
    an added multiple its factor.  The draws are those of the former
    ``rng.sample(range(lo, hi), 2)`` and ``rng.choice`` calls, made with
    ``randrange`` alone: for a block of up to 21 rows, CPython's ``sample``
    draws ``randrange(size)``, moves the last row into that place, then
    draws ``randrange(size - 1)``; ``choice`` draws one ``randrange`` of its
    length.  A larger block draws differently from ``sample``, which
    switches to rejection there.
    """
    n = p + q
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for lo, hi in ((0, p), (p, n)):
        size = hi - lo
        if size < 2:
            continue
        for _ in range(ops):
            a = rng.randrange(size)
            b = rng.randrange(size - 1)
            i, j = lo + a, lo + (size - 1 if b == a else b)
            move = rng.randrange(3)
            if move == 0:  # add a multiple of row j
                c = (-2, -1, 1, 2)[rng.randrange(4)]
                g[i] = [x + c * y for x, y in zip(g[i], g[j])]
            elif move == 1:  # swap
                g[i], g[j] = g[j], g[i]
            else:  # negate
                g[i] = [-x for x in g[i]]
    return [tuple(row) for row in g]


def k_invariance_spotcheck(clan: Clan, m, trials: int = 8, seed: int = 0) -> bool:
    """Transform the representative flag by random elements of K and check
    that the membership answer never changes."""
    m = _hessenberg_vector(m, clan.n)
    base = geometric_membership(clan, m)
    basis = flag_representative(clan)
    rng = random.Random(seed)
    n, p = clan.n, clan.p
    for _ in range(trials):
        g = random_k_element(p, clan.q, rng)
        moved = [
            tuple(sum(g[r][c] * v[c] for c in range(n)) for r in range(n))
            for v in basis
        ]
        if _within(_least_vector(moved, p), m) != base:
            return False
    return True

