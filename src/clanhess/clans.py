"""(p,q)-clans and the inclusion order on K-orbit closures.

A (p,q)-clan is a string of n = p+q symbols, each a sign or a natural
number, in which every number used appears exactly twice and
(#pluses) - (#minuses) = p - q.  Clans are stored in canonical form: the
pair labels are 1, ..., ell with first occurrences in increasing order.
Clans index the orbits of K = GL_p x GL_q on the type A flag variety;
the inclusion order below is the closure containment order on orbits.

We require p >= q throughout; a clan with more minuses than pluses is
rejected with a hint to transpose the two signs.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .perms import Permutation, symmetric_group

__all__ = [
    "PLUS",
    "MINUS",
    "Clan",
    "ClanStatistics",
    "parse_clan",
    "render_clan",
    "enumerate_clans",
    "clan_count",
    "statistics",
    "inclusion_leq",
    "clan_length",
    "orbit_dimension",
    "gamma_w",
    "dense_clan",
    "interval_clans",
    "as_interval_permutation",
    "gamma_w_pair_statistic",
    "clan_to_json",
    "clan_from_json",
]

PLUS = "+"
MINUS = "-"


class Clan:
    """A (p,q)-clan in canonical form.

    The constructor relabels the pair labels in order of first appearance
    and validates the input (each label exactly twice, p >= q >= 1), else
    ValueError.  The clans ``enumerate_clans`` generates are canonical by
    construction and skip that check.

    >>> str(Clan(("5", "+", "+", 3, "-", "+", 3, "5", "+")))
    '1++2-+21+'
    >>> Clan((1, 1)).p, Clan((1, 1)).q
    (1, 1)
    """

    __slots__ = ("symbols", "p", "q")

    def __init__(self, symbols) -> None:
        relabel: dict = {}
        out = tuple([
            c if c == PLUS or c == MINUS else relabel.setdefault(c, len(relabel) + 1)
            for c in symbols
        ])
        ell = len(relabel)
        if any(out.count(k) != 2 for k in range(1, ell + 1)):
            raise ValueError(f"every pair label must occur exactly twice: {symbols!r}")
        p, q = ell + out.count(PLUS), ell + out.count(MINUS)
        if q < 1:
            raise ValueError(f"need q >= 1, got (p,q)=({p},{q}): {symbols!r}")
        if p < q:
            raise ValueError(
                f"got (p,q)=({p},{q}) with p < q; transpose the clan "
                f"(swap + and -) to land in the supported p >= q case"
            )
        self.symbols = out
        self.p = p
        self.q = q

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j), i < j, of 1-indexed positions, one per label."""
        first: dict[int, int] = {}
        arcs = []
        for pos, c in enumerate(self.symbols, 1):
            if isinstance(c, int):
                if c in first:
                    arcs.append((first[c], pos))
                else:
                    first[c] = pos
        arcs.sort()
        return tuple(arcs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Clan) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __str__(self) -> str:
        return render_clan(self)

    def __repr__(self) -> str:
        return f"Clan({render_clan(self)!r})"


class ClanStatistics(NamedTuple):
    """The three families of orbit invariants attached to a clan.

    plus_counts[i-1] counts pluses and completed pairs among the first i
    symbols; minus_counts is the minus analogue; pair_matrix[i-1][j-1]
    counts pairs c_s = c_t with s <= i < j < t.
    """

    plus_counts: tuple[int, ...]
    minus_counts: tuple[int, ...]
    pair_matrix: tuple[tuple[int, ...], ...]


def parse_clan(text: str, p: int | None = None, q: int | None = None) -> Clan:
    """Parse compact ("1++2-+21+") or whitespace-separated token form.

    >>> str(parse_clan("5++3-+35+", 6, 3))
    '1++2-+21+'
    """
    text = text.strip()
    tokens = text.split() if any(ch.isspace() for ch in text) else list(text)
    if p is not None and q is not None and len(tokens) != p + q:
        raise ValueError(
            f"clan {text!r} has {len(tokens)} symbols, expected n = p+q = {p + q}"
        )
    symbols: list = []
    for tok in tokens:
        if tok in (PLUS, MINUS):
            symbols.append(tok)
        elif tok.isdigit() and int(tok) > 0:
            symbols.append(int(tok))
        else:
            raise ValueError(f"bad clan symbol {tok!r} in {text!r}")
    clan = Clan(symbols)
    # each bound that is given must match
    if (clan.p if p is None else p, clan.q if q is None else q) != (clan.p, clan.q):
        expected = f"q={q}" if p is None else f"p={p}" if q is None else f"({p},{q}); the sign balance must equal p-q"
        raise ValueError(f"clan {text!r} has signature (p,q)=({clan.p},{clan.q}), expected {expected}")
    return clan


def render_clan(clan: Clan) -> str:
    """Compact form when every symbol is one character, else token form."""
    text = "".join(map(str, clan.symbols))
    return text if len(text) == len(clan.symbols) else " ".join(map(str, clan.symbols))


def _check_shape(p: int, q: int) -> None:
    if not p >= q >= 1:
        raise ValueError(f"need p >= q >= 1, got ({p},{q})")


def enumerate_clans(p: int, q: int) -> tuple[Clan, ...]:
    """All (p,q)-clans, in the text order of ``render_clan``.

    A depth-first walk fills the positions from the left, trying at each
    ``+``, ``-``, the close of each open label from the smallest up, and
    then a new label (a pair uses up one plus and one minus).  The positions
    left always equal the pluses left plus the minuses left plus the open
    labels, so every branch ends in a canonical clan.  Since
    '+' < '-' < '1' < ... < '9', the walk meets the clans in text order
    while every label is one digit; a label of 10 needs q >= 10, where
    clan_count(10, 10) is already 327,504,905,871.

    >>> [str(c) for c in enumerate_clans(1, 1)]
    ['+-', '-+', '11']
    """
    _check_shape(p, q)
    n = p + q
    found = []

    def walk(word: tuple, pluses: int, minuses: int, opened: tuple[int, ...], labels: int) -> None:
        if len(word) == n:
            # word is canonical with signature (p, q): no validation needed
            leaf = object.__new__(Clan)
            leaf.symbols, leaf.p, leaf.q = word, p, q
            found.append(leaf)
            return
        if pluses:
            walk(word + (PLUS,), pluses - 1, minuses, opened, labels)
        if minuses:
            walk(word + (MINUS,), pluses, minuses - 1, opened, labels)
        for k, label in enumerate(opened):
            walk(word + (label,), pluses, minuses, opened[:k] + opened[k + 1 :], labels)
        if pluses and minuses:
            new = labels + 1
            walk(word + (new,), pluses - 1, minuses - 1, opened + (new,), new)

    walk((), p, q, (), 0)
    return tuple(found)


def clan_count(p: int, q: int) -> int:
    """Closed-form count: sum over ell of C(n,2ell)(2ell-1)!!C(n-2ell,p-ell)."""
    _check_shape(p, q)
    n = p + q
    total = 0
    for ell in range(q + 1):
        double_factorial = math.prod(range(1, 2 * ell, 2))
        total += math.comb(n, 2 * ell) * double_factorial * math.comb(n - 2 * ell, p - ell)
    return total


def statistics(clan: Clan) -> ClanStatistics:
    """Compute the sign-counting and pair-counting statistics of a clan.

    >>> statistics(parse_clan("+1+-2+21", 5, 3)).plus_counts
    (1, 1, 2, 2, 2, 3, 4, 5)
    """
    n = clan.n
    arcs = clan.arcs
    plus_counts = []
    minus_counts = []
    pluses = minuses = 0
    for i in range(1, n + 1):
        c = clan.symbols[i - 1]
        if c == PLUS:
            pluses += 1
        elif c == MINUS:
            minuses += 1
        completed = sum(1 for (s, t) in arcs if t <= i)
        plus_counts.append(pluses + completed)
        minus_counts.append(minuses + completed)
    matrix = [[0] * n for _ in range(n)]
    for (s, t) in arcs:
        for i in range(s, t - 1):
            for j in range(i + 1, t):
                matrix[i - 1][j - 1] += 1
    return ClanStatistics(
        tuple(plus_counts), tuple(minus_counts), tuple(tuple(row) for row in matrix)
    )


def inclusion_leq(a: Clan, b: Clan) -> bool:
    """Orbit-closure containment order: O_a lies in the closure of O_b.

    a <= b iff a's sign statistics dominate b's at every position and a's
    pair statistics are dominated by b's at every i < j.  This pairwise
    test is the named oracle of the bitmask engine in ``poset``: no library
    path calls it, but the tests compare the engine with it and the
    benchmark's tracer wraps it.
    """
    if (a.p, a.q) != (b.p, b.q):
        raise ValueError(
            f"shape mismatch: ({a.p},{a.q}) vs ({b.p},{b.q}); "
            "inclusion compares clans of equal signature"
        )
    sa, sb = statistics(a), statistics(b)
    n = a.n
    for i in range(n):
        if sa.plus_counts[i] < sb.plus_counts[i]:
            return False
        if sa.minus_counts[i] < sb.minus_counts[i]:
            return False
    for i in range(n):
        row_a, row_b = sa.pair_matrix[i], sb.pair_matrix[i]
        for j in range(i + 1, n):
            if row_a[j] > row_b[j]:
                return False
    return True


def clan_length(clan: Clan) -> int:
    """Sum over pairs (i,j) of j - i minus the number of pairs (s,t) with
    s < i < t < j; equals the dimension of the orbit part above the base.

    >>> clan_length(parse_clan("1122", 2, 2))
    2
    """
    arcs = clan.arcs
    total = 0
    for (i, j) in arcs:
        inner = sum(1 for (s, t) in arcs if s < i < t < j)
        total += j - i - inner
    return total


def orbit_dimension(clan: Clan) -> int:
    """Dimension of the K-orbit indexed by the clan."""
    p, q = clan.p, clan.q
    return clan_length(clan) + p * (p - 1) // 2 + q * (q - 1) // 2


def gamma_w(w: Permutation, p: int) -> Clan:
    """The interval clan 1..q +..+ w(1)..w(q) attached to w in S_q.

    >>> str(gamma_w(Permutation((2, 1, 3)), 5))
    '123++213'
    """
    q = w.degree
    if p < q:
        raise ValueError(f"need p >= q = deg(w), got p={p}, q={q}")
    symbols: list = list(range(1, q + 1)) + [PLUS] * (p - q) + [w(j) for j in range(1, q + 1)]
    return Clan(symbols)


def dense_clan(p: int, q: int) -> Clan:
    """The unique maximal clan 1..q +..+ q..1 (the dense orbit)."""
    return gamma_w(Permutation.longest(q), p)


def interval_clans(p: int, q: int) -> tuple[Clan, ...]:
    """The q! clans gamma_w, in the text order of ``render_clan``.

    The text of gamma_w is 1..q +..+ w(1)..w(q), and ``symmetric_group``
    yields w in lexicographic order, which is text order for q <= 9.
    """
    return tuple(gamma_w(w, p) for w in symmetric_group(q))


def as_interval_permutation(clan: Clan) -> Permutation | None:
    """Recover w with clan == gamma_w, or None if not of that shape."""
    p, q, n = clan.p, clan.q, clan.n
    head = clan.symbols[:q]
    body = clan.symbols[q:p]
    tail = clan.symbols[p:]
    if head != tuple(range(1, q + 1)) or any(c != PLUS for c in body):
        return None
    if sorted(tail) != list(range(1, q + 1)):
        return None
    return Permutation(tuple(tail))


def gamma_w_pair_statistic(w: Permutation, p: int, i: int, j: int) -> int:
    """Closed form |{k <= i : w^{-1}(k) > j - p}| for the pair statistic of
    gamma_w in the window i in [q], j in {p+1, ..., p+q}.  An oracle: the
    tests compare ``statistics(gamma_w(w, p))`` with it."""
    q = w.degree
    n = p + q
    if not 1 <= i <= q:
        raise ValueError(f"need i in [q] = [{q}], got {i}")
    if not p + 1 <= j <= n:
        raise ValueError(f"need j in [{p + 1},{n}], got {j}")
    inv = w.inverse()
    return sum(1 for k in range(1, i + 1) if inv(k) > j - p)


def clan_to_json(clan: Clan) -> dict:
    return {
        "p": clan.p,
        "q": clan.q,
        "symbols": [str(c) for c in clan.symbols],
    }


def clan_from_json(data: dict | str) -> Clan:
    if isinstance(data, str):
        data = json.loads(data)
    symbols = []
    for tok in data["symbols"]:
        symbols.append(tok if tok in (PLUS, MINUS) else int(tok))
    clan = Clan(symbols)
    if (clan.p, clan.q) != (data["p"], data["q"]):
        raise ValueError(
            f"JSON signature ({data['p']},{data['q']}) does not match "
            f"symbols with ({clan.p},{clan.q})"
        )
    return clan

