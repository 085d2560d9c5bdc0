"""The inclusion order on a family of (p,q)-clans, as one bitmask row per clan.

One kernel does the work: bit-sliced threshold masks.  Given one integer
vector per clan, keep for each coordinate f and value v the bitmask of the
clans whose vector has entry <= v at f.  The clans whose vector is <= x
componentwise are then the AND of one mask per coordinate, so one query
covers the whole family in F big-int operations, not N tuple comparisons.

Two families of vectors feed the kernel:

* the key  plus_counts || minus_counts || (q - pair_matrix[i][j] for i < j),
  every entry in 0..n.  By McGovern's statistics criterion (see
  ``clans.inclusion_leq``), a <= b exactly when key(b) <= key(a), so the
  build flips each entry x of the key to n - x: then a <= b exactly when
  flipped(a) <= flipped(b), and the down-set of b is one query at flipped(b);
* the arc ends r, with r[i-1] = j for each arc (i, j) of the clan and 0 at
  the other positions.  An orbit closure lies in the Hessenberg variety of
  m exactly when r <= m, so the contained clans are one query at m.

Both are built column by column, never clan by clan (``_key_columns``):
each symbol becomes one byte, column f is one bytes object with byte c
for ``clans[c]``, the arcs are the lanes where two columns hold one
label, and the counts and pair entries are running sums of translated
columns, added lane-wise as integers.

The down-sets read the key through one coordinate per prefix length of
the clan text.  The count at position i is fixed by a clan's first i
symbols and the pair entry (i, j) by its first j; the entries that one
prefix length fixes take few distinct tuples together (481 over the ten
lengths at (5,5), for 54 non-constant entries).  Each length's column
numbers a clan's tuple in order of first occurrence, and its mask at a
number is the AND of the threshold masks at that tuple, so a query ANDs
one mask per prefix length, in any order of the family.

Bit c of every mask stands for ``clans[c]``.  The clans are grouped into
rank layers by orbit dimension.  Every orbit is open in its closure, so
the orbits in the boundary of a closure have smaller dimension
(Humphreys, *Linear Algebraic Groups*, GTM 21, Sec. 8.3): a < b implies
dim(a) < dim(b), the dimension is a strictly monotone rank, and no
gradedness of the order is assumed.  The dimension is Yamamoto's clan
length (Represent. Theory 1, 1997) plus a constant of the shape
(``clans.orbit_dimension``), and ``_key_columns`` reads the length
lane-wise, as one share per arc, with the key.  Clans of equal dimension
are incomparable, so the highest layer that meets a set holds only
maximal clans of it; ``top`` finds it by bisection over the running
unions of the layers, of which there are at most pq + 1.

Costs, for N clans: the build makes O(n^3) passes over columns of N
bytes and one AND of N bits per key entry of each distinct prefix tuple;
the codes take one dictionary step per clan and prefix length, and the
layers one sum of n - 1 shares per clan; a query ANDs at most n masks of
N bits.  The down-sets, N^2/8 bytes, are built on the first read of
``down``, one query per clan; ``down_of`` makes one query without them.
``covers()`` walks only the layers below each clan and stops once the
strict down-set is cleared, which in an order graded by dimension is
after the first of them.  README.md gives measured times.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from functools import lru_cache, reduce
from itertools import accumulate, chain, compress
from operator import and_, attrgetter, or_

from .clans import MINUS, PLUS, Clan, enumerate_clans
from .perms import _index, _indices

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
    """Indices of the set bits of a nonnegative int mask, in increasing order.

    ``InclusionPoset.select`` gives the clans themselves; this is for
    callers that need the indices.

    >>> members(0b10110)
    [1, 2, 4]
    """
    value = _index(mask)
    if value is None or value < 0:
        raise ValueError(f"a mask must be nonnegative, got {mask!r}")
    bits = _bits(value)
    return list(compress(range(len(bits)), bits))


def _threshold_masks(columns, top: int) -> list[list[int]]:
    """masks[f][v] = the bitmask of the indices c with columns[f][c] <= v,
    for 0 <= v <= top.  Each column is a bytes object with entries <= top;
    a mask is read off it only at a value that occurs below its largest."""
    # tables[v] translates each byte x to "1" if x <= v, else to "0"
    tables = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(top + 1)]
    masks = []
    for column in columns:
        # bit c of int(text, 2) is the character at len - 1 - c
        text = column[::-1]
        values = [v for v in range(top + 1) if bytes((v,)) in column]
        row = [0] * values[0]
        # the mask at v holds from v up to the next value that occurs
        for v, end in zip(values, values[1:]):
            row += [int(text.translate(tables[v]), 2)] * (end - v)
        row += [(1 << len(column)) - 1] * (top + 1 - values[-1])
        masks.append(row)
    return masks


def _below(masks: list[list[int]], x, full: int) -> int:
    """The bitmask of the indices whose vector is <= x componentwise."""
    return reduce(and_, map(list.__getitem__, masks, x), full)


# The byte code of each symbol of a clan: a label is its own number, at most
# n/2, below the sign codes; the arc ends, at most n, and the key entries
# stay below 256 for every n up to _MAX_N.
_MAX_N = 252
_PLUS, _MINUS = 253, 254
_CODES = {PLUS: _PLUS, MINUS: _MINUS, **{k: k for k in range(1, _MAX_N // 2 + 1)}}
# translate tables that send the codes named to 1, every other byte to 0
_IS_LABEL = bytes(1 <= x <= _MAX_N // 2 for x in range(256))
_IS_ZERO = bytes(x == 0 for x in range(256))
_IS_SIGN = tuple(bytes(x == sign for x in range(256)) for sign in (_PLUS, _MINUS))


def _lanes(column: bytes) -> int:
    # byte c of the integer is lane c
    return int.from_bytes(column, "little")


def _key_columns(clans, n: int, q: int) -> tuple[list[bytes], list[bytes], list[bytes]]:
    """The key columns, the arc-end columns and the length-share columns of
    a family of (p,q)-clans, n = p + q: byte c of each column is the entry
    of clans[c].  The key is plus_counts || minus_counts || (q -
    pair_matrix[i][j] for i < j), the arc ends r (see the module
    docstring); ``clans.statistics`` is the reference.  Share column i - 1,
    for the positions 1 <= i < n, holds b - i less the arcs (s, t) with
    s < i < t < b where the clan has an arc (i, b), else 0, so a clan's
    shares sum to its ``clans.clan_length``.

    Every final lane (byte c of an integer) lies in 0..n < 256, and the
    lanes of a difference are exact once each of them is, so no sum below
    carries from one lane into the next.

    >>> key, ends, shares = _key_columns([Clan("1+-1"), Clan("+-11"), Clan("1212")], 4, 2)
    >>> [list(c) for c in zip(*key)]
    [[0, 1, 1, 2, 0, 0, 1, 2, 1, 1, 2, 1, 2, 2], [1, 1, 1, 2, 0, 1, 1, 2, 2, 2, 2, 2, 2, 2], [0, 0, 1, 2, 0, 0, 1, 2, 1, 2, 2, 1, 2, 2]]
    >>> [list(c) for c in zip(*ends)], [list(c) for c in zip(*shares)]
    ([[4, 0, 0, 0], [0, 0, 4, 0], [3, 4, 0, 0]], [[3, 0, 0], [0, 0, 1], [2, 1, 0]])
    """
    size = len(clans)
    joined = bytes(map(_CODES.__getitem__, chain.from_iterable(map(attrgetter("symbols"), clans))))
    columns = [joined[pos::n] for pos in range(n)]
    del joined
    codes = list(map(_lanes, columns))
    # lane c of ends[s] is the end t (1-indexed) of the arc of clans[c] that
    # opens at position s + 1, else 0; lane c of closes[t] is 1 where an arc closes
    ends, closes = [0] * n, [0] * n
    for s in range(n - 1):
        opens = _lanes(columns[s].translate(_IS_LABEL))
        for t in range(s + 1, n):
            # the lanes that hold one label at s and t: XOR clears exactly those
            same = _lanes((codes[s] ^ codes[t]).to_bytes(size, "little").translate(_IS_ZERO)) & opens
            ends[s] += (t + 1) * same
            closes[t] += same
    del codes
    key = []
    # a closed pair counts as both a plus and a minus
    for table in _IS_SIGN:
        total = 0
        for column, closed in zip(columns, closes):
            total += _lanes(column.translate(table)) + closed
            key.append(total.to_bytes(size, "little"))
    ends_columns = [x.to_bytes(size, "little") for x in ends]
    # pairs[i][j] = q - #{s <= i : end(s) > j}, one running sum over i per j
    # ends_above[j] sends the arc ends j+1..n to 1, every other byte to 0
    ends_above = [bytes(j + 1) + b"\x01" * (n - j) + bytes(255 - n) for j in range(n + 1)]
    qs = _lanes(bytes([q]) * size)
    crossing = [0] * (n + 1)
    shares = []
    for i in range(1, n):
        column = ends_columns[i - 1]
        # above[k] has a 1 in the lanes whose arc opens at i and ends past i + k
        above = [_lanes(column.translate(ends_above[j])) for j in range(i, n + 1)]
        # the share of an arc (i, b) is b - i less the arcs (s, t) with
        # s < i < t < b, crossing[i] - crossing[b] before row i adds its own;
        # lane by lane through the 0xff masks of the lanes that end at b
        share = _lanes(column) - i * above[0] - (crossing[i] & above[0] * 255)
        for b in range(i + 1, n + 1):
            share += crossing[b] & (above[b - i - 1] - above[b - i]) * 255
        shares.append(share.to_bytes(size, "little"))
        for j in range(i + 1, n + 1):
            crossing[j] += above[j - i]
            key.append((qs - crossing[j]).to_bytes(size, "little"))
    return key, ends_columns, shares


class InclusionPoset:
    """The inclusion order restricted to a family of clans of one shape.

    ``down[j]`` has bit i set iff clans[i] <= clans[j], the diagonal
    included: one query on the flipped key masks (see the module
    docstring), which ``down_of(j)`` makes alone.  All rows are built on
    the first read of ``down``; ``maximal`` and ``covers`` read them in rank
    layers, the clans of equal orbit dimension, and ``top`` reads neither.

    Raises ValueError for an empty family, for clans of more than one shape
    (p,q), for a clan that occurs twice, and for n = p + q > 252, where the
    byte codes run out.

    >>> poset = inclusion_poset(1, 1)
    >>> [str(c) for c in poset.clans], poset.down
    (['+-', '-+', '11'], (1, 2, 7))
    >>> [(str(poset.clans[i]), str(poset.clans[j])) for i, j in poset.covers()]
    [('+-', '11'), ('-+', '11')]
    """

    __slots__ = ("clans", "full", "_down", "_masks", "_columns", "_layers", "_cum", "_arc_ends")

    def __init__(self, clans) -> None:
        self.clans: tuple[Clan, ...] = tuple(clans)
        shapes = set(zip(map(attrgetter("p"), self.clans), map(attrgetter("q"), self.clans)))
        if len(shapes) != 1:
            raise ValueError(f"need a nonempty family of clans of one shape (p,q), got {sorted(shapes)}")
        ((p, q),) = shapes
        if len(set(map(attrgetter("symbols"), self.clans))) != len(self.clans):
            repeated = Counter(self.clans).most_common(1)[0][0]
            raise ValueError(f"need distinct clans, got {repeated} more than once")
        n = p + q
        if n > _MAX_N:
            raise ValueError(f"need n = p + q <= {_MAX_N}, got (p,q)=({p},{q})")
        self.full = (1 << len(self.clans)) - 1
        key, ends, shares = _key_columns(self.clans, n, q)
        # the rank: each clan's length, its orbit dimension less a constant
        lengths = list(map(sum, zip(*shares)))
        del shares
        # x -> n - x makes the key order-preserving (see the module docstring);
        # a constant coordinate gives an all-ones mask at every query, and one
        # is kept only for a family of one clan, so that zip gives it a row;
        # a column is constant when its first byte fills it (bytes.count runs
        # in C, where min and max box every byte: 50 times slower at (6,6))
        flip = bytes(range(n, -1, -1)) + bytes(255 - n)
        # the prefix length that fixes each column: i for the counts at
        # position i, j for the pair entry (i, j)
        depths = [*range(1, n + 1)] * 2 + [j for i in range(1, n) for j in range(i + 1, n + 1)]
        groups: dict[int, list[bytes]] = {}
        for depth, col in zip(depths, key):
            if col.count(col[:1]) != len(col):
                groups.setdefault(depth, []).append(col.translate(flip))
        if not groups:
            groups[1] = key[:1]
        del key  # the flipped copy replaces it; both together raised the (5,5) peak RSS by 2.5 MB
        # one column and one mask list per prefix length (module docstring),
        # which ``_below`` reads as it would read the key columns
        self._columns, self._masks = [], []
        for depth in sorted(groups):
            cols = groups.pop(depth)
            # code[value] numbers each new value as it is first met
            code: defaultdict = defaultdict()
            code.default_factory = code.__len__
            self._columns.append(array("I", map(code.__getitem__, zip(*cols))))
            thresholds = _threshold_masks(cols, n)
            self._masks.append([_below(thresholds, value, self.full) for value in code])
        self._down = None
        # one bitmap per length, each filled bit by bit and read as an integer
        # once, so the layers cost linear time in the number of clans
        bitmaps = {length: bytearray((len(lengths) + 7) >> 3) for length in set(lengths)}
        for c, length in enumerate(lengths):
            bitmaps[length][c >> 3] |= 1 << (c & 7)
        # the rank layers from the top of the order down, and their running unions
        self._layers = [int.from_bytes(bitmaps[rank], "little") for rank in sorted(bitmaps, reverse=True)]
        self._cum = list(accumulate(self._layers, or_))
        self._arc_ends = _threshold_masks(ends, n)

    @property
    def down(self) -> tuple[int, ...]:
        """All down-sets, built on the first read: N^2/8 bytes for N clans."""
        if self._down is None:
            masks, full = self._masks, self.full
            self._down = tuple(_below(masks, row, full) for row in zip(*self._columns))
        return self._down

    def down_of(self, j: int) -> int:
        """down[j], the down-set of clans[j], as one query that reads no row.

        Precondition, checked: j is an integer by the library's one rule
        (``perms._index``) with 0 <= j < len(clans), else ValueError."""
        value = _index(j)
        if value is None or not 0 <= value < len(self.clans):
            raise ValueError(f"need a clan index in 0..{len(self.clans) - 1}, got {j!r}")
        return self._down_of(value)

    def _down_of(self, j: int) -> int:
        # down_of(j) for an index that the caller has validated
        return _below(self._masks, [column[j] for column in self._columns], self.full)

    def top(self, mask: int) -> int:
        """The clans of mask of the highest orbit dimension among its clans,
        each maximal in mask, as a bitmask; 0 for the empty mask.

        Precondition, checked: 0 <= mask <= full."""
        mask = self._check(mask)
        # mask & cum[k] is 0 above the first union that meets mask, and >= 1 from it on
        return mask and mask & self._cum[bisect_left(self._cum, 1, key=mask.__and__)]

    def contained(self, m) -> int:
        """The bitmask of the clans whose arc ends are <= m componentwise:
        for a Hessenberg vector m, those whose orbit closure lies in its
        Hessenberg variety.  The one check is that m has n entries in 0..n,
        each an integer by the library's one rule (``operator.index``, never a
        bool: ``perms._indices``), else ValueError; ``hess_orbit_report`` checks
        the stricter ``hessenberg.is_hessenberg_vector`` before ``_contained``."""
        n = len(self._arc_ends)
        values = _indices(m)
        if values is None or len(values) != n or min(values) < 0 or max(values) > n:
            raise ValueError(f"need a vector of {n} entries in 0..{n}, got {m!r}")
        return self._contained(values)

    def _contained(self, m) -> int:
        # contained(m) for an m that the caller has validated
        return _below(self._arc_ends, m, self.full)

    def _check(self, mask: int) -> int:
        # mask as an int, if it is one (not a bool) in 0..full
        value = _index(mask)
        if value is None or not 0 <= value <= self.full:
            size = len(self.clans)
            raise ValueError(f"mask outside this family of {size} clans: need 0 <= mask < 2**{size}")
        return value

    def select(self, mask: int) -> tuple[Clan, ...]:
        """The clans in mask, in increasing order of index.

        Precondition, checked: 0 <= mask <= full.  Equal to
        ``tuple(clans[i] for i in members(mask))``, without building an
        index for every clan of the family.

        >>> [str(c) for c in inclusion_poset(1, 1).select(0b101)]
        ['+-', '11']
        """
        return tuple(compress(self.clans, _bits(self._check(mask))))

    def maximal(self, mask: int) -> list[int]:
        """The maximal elements of the set of clans in mask, in increasing
        order.  A clan still in the set when the walk down the rank layers
        reaches it is maximal; keeping it clears its down-set.

        Precondition, checked: 0 <= mask <= full."""
        return sorted(self._maximal_in(self._check(mask), self._layers))

    def _maximal_in(self, mask: int, layers) -> list[int]:
        # the walk of ``maximal`` over the given layers, which must hold every clan in mask
        down = self.down
        out = []
        for layer in layers:
            if not mask:  # every clan left has been cleared by a maximal one above it
                break
            found = mask & layer
            while found:
                j = found.bit_length() - 1
                found ^= 1 << j
                out.append(j)
                mask &= ~down[j]
        return out

    def covers(self) -> list[tuple[int, int]]:
        """The Hasse covers (i, j), clans[i] < clans[j] with nothing strictly
        between, in increasing order of i, then j: the lower covers of j
        are the maximal elements of its strict down-set, which lies in the
        layers below j's."""
        down, layers = self.down, self._layers
        out = []
        for k, layer in enumerate(layers):
            below = layers[k + 1 :]
            for j in members(layer):
                out += ((i, j) for i in self._maximal_in(down[j] ^ 1 << j, below))
        out.sort()
        return out


@lru_cache(maxsize=2, typed=True)
def inclusion_poset(p: int, q: int) -> InclusionPoset:
    """The inclusion order on all (p,q)-clans, in ``enumerate_clans`` order,
    so in the text order of ``clans.render_clan``.  The cache holds the
    two most recent shapes, typed: a bool or float shape misses it, and ``enumerate_clans`` refuses it."""
    return InclusionPoset(enumerate_clans(p, q))
