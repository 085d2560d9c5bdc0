"""The inclusion order on a family of (p,q)-clans, as bitmask rows.

One kernel does the work: bit-sliced threshold masks.  Given one integer
vector per clan, keep for each coordinate f and value v the bitmask of the
clans whose vector has entry <= v at f.  The clans whose vector is <= x
componentwise are then the AND of one mask per coordinate, so one query
covers the whole family in F big-int operations, not N tuple comparisons.

Three families of vectors feed the kernel:

* the key  plus_counts || minus_counts || (q - pair_matrix[i][j] for i < j).
  By McGovern's statistics criterion (see ``clans.inclusion_leq``), a <= b
  exactly when key(b) <= key(a), so the query at key(a) is the up-set of a;
* the reversed key  n - key: its query at n - key(b) is the down-set of b;
* the arc ends r, with r[i-1] = j for each arc (i, j) of the clan and 0 at
  the other positions.  An orbit closure lies in the Hessenberg variety of
  m exactly when r <= m, so the contained clans are one query at m.

Bit c of every mask stands for ``clans[c]``.  The full ``up`` and ``down``
matrices take about N^2/4 bytes for N clans: 2 MB for the 2,835 clans at
(4,4), 24 MB at (5,4) and about 0.5 GB at (5,5) (515 MB measured), which
fits.  (6,5) would need about 7.5 GB, more than an 8 GB machine has.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from operator import and_

from .clans import MINUS, PLUS, Clan, enumerate_clans

__all__ = ["InclusionPoset", "inclusion_poset", "members"]

_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> bytes:
    """bits[i] = bit i of mask, as the byte 0 or 1, up to its highest set bit.

    Precondition: 0 <= mask <= full, for the family the mask indexes
    (``members``, which has no family, needs only 0 <= mask).  The callers
    check it: bin() of a negative mask starts with a sign, which would read
    as one more set bit, and ``select`` would drop the bits beyond full.

    >>> list(_bits(0b10110))
    [0, 1, 1, 0, 1]
    """
    return bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)


def members(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, in increasing order.

    ``InclusionPoset.select`` gives the clans themselves; this is for
    callers that need the indices.

    >>> members(0b10110)
    [1, 2, 4]
    """
    if mask < 0:
        raise ValueError(f"a mask must be nonnegative, got {mask}")
    bits = _bits(mask)
    return list(compress(range(len(bits)), bits))


def _threshold_masks(columns, top: int) -> list[list[int]]:
    """masks[f][v] = the bitmask of the indices c with columns[f][c] <= v,
    for 0 <= v <= top.  Entries must lie in range(256)."""
    # tables[v] translates each byte x to "1" if x <= v, else to "0"
    tables = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(top + 1)]
    masks = []
    for column in columns:
        # bit c of int(text, 2) is the character at len - 1 - c
        text = bytes(reversed(column))
        masks.append([int(text.translate(table), 2) for table in tables])
    return masks


def _below(masks: list[list[int]], x, full: int) -> int:
    """The bitmask of the indices whose vector is <= x componentwise."""
    return reduce(and_, map(list.__getitem__, masks, x), full)


def _key_and_ends(clan: Clan) -> tuple[tuple[int, ...], list[int]]:
    """The key and the arc ends r of a clan (see the module docstring),
    read straight off its symbols; ``clans.statistics`` is the reference.

    >>> _key_and_ends(Clan("1+-1"))
    ((0, 1, 1, 2, 0, 0, 1, 2, 1, 1, 2, 1, 2, 2), [4, 0, 0, 0])
    """
    n, q = clan.n, clan.q
    ends = [0] * n
    start: dict[int, int] = {}
    plus_counts = []
    minus_counts = []
    pluses = minuses = 0
    for pos, c in enumerate(clan.symbols, 1):
        if c == PLUS:
            pluses += 1
        elif c == MINUS:
            minuses += 1
        elif c in start:
            ends[start[c] - 1] = pos
            # a completed pair counts as both a plus and a minus
            pluses += 1
            minuses += 1
        else:
            start[c] = pos
        plus_counts.append(pluses)
        minus_counts.append(minuses)
    # pairs[i][j] = q - #{arcs (s, t) : s <= i < j < t}: walk i left to
    # right keeping the open ends t > i, then drop them as j passes them
    pairs = []
    open_ends: set[int] = set()
    for i in range(1, n):
        t = ends[i - 1]
        if t:
            open_ends.add(t)
        open_ends.discard(i)
        inside = len(open_ends)
        for j in range(i + 1, n + 1):
            inside -= j in open_ends
            pairs.append(q - inside)
    return tuple(plus_counts) + tuple(minus_counts) + tuple(pairs), ends


class InclusionPoset:
    """The inclusion order restricted to a family of clans of one shape.

    ``up[i]`` has bit j set iff clans[i] <= clans[j], and ``down`` is its
    transpose; both include the diagonal.  ``index`` maps a clan to its bit.

    >>> poset = inclusion_poset(1, 1)
    >>> [str(c) for c in poset.clans], poset.up
    (['+-', '-+', '11'], (5, 6, 4))
    >>> [(str(poset.clans[i]), str(poset.clans[j])) for i, j in poset.covers()]
    [('+-', '11'), ('-+', '11')]
    """

    __slots__ = ("clans", "index", "full", "up", "down", "_arc_ends")

    def __init__(self, clans) -> None:
        self.clans: tuple[Clan, ...] = tuple(clans)
        self.index = {c: i for i, c in enumerate(self.clans)}
        self.full = (1 << len(self.clans)) - 1
        n = self.clans[0].n
        keys = []
        ends = []
        for c in self.clans:
            key, r = _key_and_ends(c)
            keys.append(key)
            ends.append(r)
        # a constant coordinate gives an all-ones mask at every query
        columns = [col for col in zip(*keys) if min(col) != max(col)]
        rows = list(zip(*columns)) or [()] * len(self.clans)
        masks = _threshold_masks(columns, n)
        self.up = tuple(_below(masks, row, self.full) for row in rows)
        masks = _threshold_masks([[n - v for v in col] for col in columns], n)
        self.down = tuple(_below(masks, [n - v for v in row], self.full) for row in rows)
        self._arc_ends = _threshold_masks(zip(*ends), n)

    def contained(self, m) -> int:
        """The bitmask of the clans whose orbit closure lies in the
        Hessenberg variety of m, which must be a Hessenberg vector of
        length n (see ``hessenberg.is_hessenberg_vector``)."""
        return _below(self._arc_ends, m, self.full)

    def _check(self, mask: int) -> None:
        if not 0 <= mask <= self.full:
            size = len(self.clans)
            raise ValueError(f"mask outside this family of {size} clans: need 0 <= mask < 2**{size}")

    def select(self, mask: int) -> tuple[Clan, ...]:
        """The clans in mask, in increasing order of index.

        Precondition, checked: 0 <= mask <= full.  Equal to
        ``tuple(clans[i] for i in members(mask))``, without building an
        index for every clan of the family.

        >>> [str(c) for c in inclusion_poset(1, 1).select(0b101)]
        ['+-', '11']
        """
        self._check(mask)
        return tuple(compress(self.clans, _bits(mask)))

    def maximal(self, mask: int) -> list[int]:
        """The maximal elements of the set of clans in mask, in increasing
        order: the i in mask with up[i] & mask == 1 << i.

        Precondition, checked: 0 <= mask <= full."""
        self._check(mask)
        up, down = self.up, self.down
        out = []
        rest = mask
        while rest:
            # the highest bit is a good guess: clans sort by text, and clans
            # whose text starts with a pair label tend to lie high in the order
            j = rest.bit_length() - 1
            if up[j] & mask == 1 << j:
                out.append(j)
            # nothing below j is maximal: either j is, or something above j
            rest &= ~down[j]
        return out[::-1]

    def covers(self) -> list[tuple[int, int]]:
        """The Hasse covers (i, j), clans[i] < clans[j] with nothing strictly
        between, in increasing order of i, then j."""
        up, down = self.up, self.down
        out = []
        for i, above in enumerate(up):
            rest = above & ~(1 << i)
            while rest:
                # the lowest bit, for the same reason, is a good guess for
                # a minimal element of the strict up-set
                j = (rest & -rest).bit_length() - 1
                if above & down[j] == (1 << i) | (1 << j):
                    out.append((i, j))
                # nothing above j covers i: either j does, or some k < j does
                rest &= ~up[j]
        return out


@lru_cache(maxsize=2)
def inclusion_poset(p: int, q: int) -> InclusionPoset:
    """The inclusion order on all (p,q)-clans, in ``enumerate_clans`` order.

    The cache holds the two most recent shapes, since one poset at (5,5)
    takes about 0.5 GB (515 MB measured); (6,5) would need about 7.5 GB.
    """
    return InclusionPoset(enumerate_clans(p, q))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
