"""Exact combinatorics of the symmetric group.

Permutations are written in one-line notation ``w(1) ... w(n)`` with values
in ``[n] = {1, ..., n}``.  Composition acts on the left, ``(x*y)(i) =
x(y(i))``, so ``s_i * w`` swaps the values i, i+1 of w and ``w * s_i`` swaps
the entries in positions i, i+1.  A permutation is silently identified with
its image in any larger symmetric group (all values above the degree are
fixed), so equality and hashing ignore trailing fixed points.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, combinations, permutations
from operator import index, le

__all__ = [
    "Permutation",
    "trim_fixed_points",
    "symmetric_group",
    "avoids",
    "phi",
    "factorization_pairs",
    "weak_order_leq",
    "bruhat_leq",
    "h_vector",
    "parse_permutation",
    "render_permutation",
    "render_word",
]


class Permutation:
    """A permutation of [n] in one-line notation.

    The constructor validates its input: each entry must be an integer by
    the library's one rule (``_index``) and the entries must be 1..n in some
    order, else ValueError.  Results that a kernel derives from already-valid
    permutations (products, Monk product terms, W-set elements) skip that check.

    >>> w = Permutation((3, 1, 2))
    >>> w(1), w(2), w(17)
    (3, 1, 17)
    >>> w * Permutation((2, 1))
    Permutation((1, 3, 2))
    >>> w.inverse()
    Permutation((2, 3, 1))
    >>> Permutation((3, 1, 2)) == Permutation((3, 1, 2, 4))
    True
    """

    # images: the one-line notation; key: the same with trailing fixed points
    # removed, set once by __post_init__; equality and hashing read it
    __slots__ = ("images", "key")

    def __init__(self, images) -> None:
        _set_images(self, images)
        self.__post_init__()

    def __post_init__(self) -> None:
        images = _indices(self.images)
        if images is None or sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {self.images!r}")
        _set_images(self, images)
        _set_key(self, trim_fixed_points(images))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Permutation is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Permutation is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), (self.images,)

    # -- construction -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, _degree(n) + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The longest element w0 = n, n-1, ..., 1 of S_n."""
        return cls(tuple(range(_degree(n), 0, -1)))

    @classmethod
    def simple(cls, i: int, n: int | None = None) -> "Permutation":
        """The simple transposition s_i exchanging i and i+1."""
        value = _index(i)
        if value is None or value < 1:
            raise ValueError(f"simple reflection index must be >= 1: {i!r}")
        return cls.transposition(value, value + 1, n)

    @classmethod
    def transposition(cls, j: int, k: int, n: int | None = None) -> "Permutation":
        values = _indices((j, k) if n is None else (j, k, n))
        if values is None:
            raise ValueError(f"bad transposition ({j!r},{k!r}) in S_{n!r}: need integers")
        j, k, n = values if n is not None else (*values, max(values))
        if not 1 <= j < k <= n:
            raise ValueError(f"bad transposition ({j},{k}) in S_{n}")
        images = list(range(1, n + 1))
        images[j - 1], images[k - 1] = k, j
        return cls(tuple(images))

    @classmethod
    def from_word(cls, letters: tuple[int, ...] | list[int], n: int | None = None) -> "Permutation":
        """Product s_{i1} * s_{i2} * ... * s_{il} of simple reflections.

        >>> Permutation.from_word((2, 1))
        Permutation((3, 1, 2))
        """
        word = _indices(letters)
        if word is None:
            raise ValueError(f"need a word of integer letters, got {letters!r}")
        n = max(word, default=0) + 1 if n is None else _degree(n)
        images = list(range(1, max(n, 1) + 1))
        for i in word:
            if i < 1:
                raise ValueError(f"simple reflection index must be >= 1: {i}")
            if i >= n:
                raise ValueError(f"bad transposition ({i},{i + 1}) in S_{n}")
            images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @classmethod
    def from_code(cls, code: tuple[int, ...] | list[int]) -> "Permutation":
        """Inverse of :meth:`code`: build w with the given Lehmer code.

        >>> Permutation.from_code((2,))
        Permutation((3, 1, 2))
        """
        values = _indices(code)
        if values is None:
            raise ValueError(f"invalid Lehmer code: {code!r}")
        n = max([len(values)] + [c + i + 1 for i, c in enumerate(values)])
        remaining = list(range(1, n + 1))
        images = []
        for c in values:
            if not 0 <= c < len(remaining):
                raise ValueError(f"invalid Lehmer code: {values!r}")
            images.append(remaining.pop(c))
        return cls(tuple(images + remaining))  # zeros pad the code to n: the rest, in order

    # -- identification across degrees --------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def degree(self) -> int:
        return len(self.images)

    def trimmed(self) -> "Permutation":
        return self if len(self.key) == len(self.images) else Permutation(self.key)

    def embedded(self, n: int) -> "Permutation":
        """The same permutation regarded as an element of S_n."""
        if n < len(self.key):
            raise ValueError(f"cannot embed degree-{len(self.key)} permutation in S_{n}")
        return Permutation(self.images[:n] + tuple(range(len(self.images) + 1, n + 1)))

    # -- group operations ----------------------------------------------------

    def __call__(self, i: int) -> int:
        if i < 1:
            raise ValueError(f"permutations act on positive integers: {i}")
        return self.images[i - 1] if i <= len(self.images) else i

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        # x(y(i)) on one-line tuples: x padded to the larger degree, read at
        # y(i) - 1 (a 0 in front shifts the index), then x's entries past y
        x, y = self.images, other.images
        x = (0,) + x + tuple(range(len(x) + 1, len(y) + 1))
        images = tuple(map(x.__getitem__, y)) + x[len(y) + 1 :]
        w = object.__new__(Permutation)
        _set_images(w, images)
        _set_key(w, trim_fixed_points(images))
        return w

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for i, v in enumerate(self.images, 1):
            images[v - 1] = i
        return Permutation(tuple(images))

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"

    # -- classical statistics -------------------------------------------------

    def length(self) -> int:
        """Number of inversions, the sum of the Lehmer code.

        >>> Permutation((3, 2, 1, 4)).length()
        3
        """
        return sum(self.code())

    def code(self) -> tuple[int, ...]:
        """Lehmer code: entry i counts j > i with w(j) < w(i), by bisection
        right to left among the entries back to the last cut, a position i
        whose entries from i on are exactly i..n, which no inversion crosses.

        >>> Permutation((3, 1, 2)).code()
        (2, 0, 0)
        """
        seen: list[int] = []
        code = []
        i = len(self.images)
        for v in reversed(self.images):
            pos = bisect_left(seen, v)
            code.append(pos)
            seen.insert(pos, v)
            if seen[0] == i:
                seen = []
            i -= 1
        return tuple(reversed(code))

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically smallest reduced word for w, in one pass over the
        positions of the values: where i+1 sits left of i, swap them (s_i * w)
        and step back one, as no smaller left descent can appear.

        >>> Permutation((1, 2, 3, 6, 5, 4)).reduced_word()
        (4, 5, 4)
        """
        at = [0] * len(self.images)
        for a, v in enumerate(self.images):
            at[v - 1] = a
        word = []
        i = 1
        while i < len(at):
            if at[i - 1] > at[i]:
                at[i - 1], at[i] = at[i], at[i - 1]
                word.append(i)
                i = max(i - 1, 1)
            else:
                i += 1
        return tuple(word)

    def all_reduced_words(self):
        """Yield every reduced word of w, in lexicographic order.  An oracle:
        the tests check ``reduced_word`` and the Schubert polynomials with it."""
        if not self.key:
            yield ()
            return
        inv = self.inverse().images
        for i in range(1, len(inv)):
            if inv[i - 1] > inv[i]:
                for rest in (Permutation.simple(i) * self).all_reduced_words():
                    yield (i,) + rest


def _index(x) -> int | None:
    """x through ``operator.index``, or None for a bool or a non-integer: the library's one
    integer rule, for every integer argument; each caller raises ValueError on None."""
    try:
        return None if type(x) is bool else index(x)
    except TypeError:
        return None


def _degree(n) -> int:
    """``_index(n)`` for the degree n >= 0 of S_n, else ValueError."""
    value = _index(n)
    if value is None or value < 0:
        raise ValueError(f"need an integer degree n >= 0, got {n!r}")
    return value


def _indices(xs) -> tuple[int, ...] | None:
    """``_index`` of every entry of xs as a tuple, or None if xs is not iterable or one
    entry fails: one pass in C, with no Python call per entry.
    ``operator.index`` turns a bool into an int, so bools are refused by type."""
    try:
        entries = tuple(xs)
        values = tuple(map(index, entries))
    except TypeError:
        return None
    return None if bool in map(type, entries) else values


# the slot setters, bound once: Permutation.__setattr__ refuses assignment, so the
# constructor, __mul__ and _from_key (per Monk term and W-set element) set the slots with these
_set_images = Permutation.images.__set__
_set_key = Permutation.key.__set__


def _from_key(key: tuple[int, ...]) -> Permutation:
    """``Permutation(key)`` without the validating constructor, for a tuple
    of ints the caller knows to be a permutation of 1..len(key) with no
    trailing fixed point; ``images`` and ``key`` are both that tuple."""
    w = object.__new__(Permutation)
    _set_images(w, key)
    _set_key(w, key)
    return w


def _from_images(images: tuple[int, ...]) -> Permutation:
    """``Permutation(images)`` without the validating constructor, for a tuple
    of ints the caller knows to be a permutation of 1..len(images)."""
    w = object.__new__(Permutation)
    _set_images(w, images)
    _set_key(w, trim_fixed_points(images))
    return w


def trim_fixed_points(images) -> tuple[int, ...]:
    """One-line notation with the trailing fixed points removed, the form
    in which equal permutations of different degrees coincide.

    >>> trim_fixed_points([2, 1, 3, 4])
    (2, 1)
    """
    end = len(images)
    while end and images[end - 1] == end:
        end -= 1
    return tuple(images[:end])


def symmetric_group(n: int):
    """An iterator over all of S_n in lexicographic one-line order; n is
    checked on the call, not on the first step."""
    return map(Permutation, permutations(range(1, _degree(n) + 1)))


def avoids(w: Permutation, pattern: Permutation) -> bool:
    """True iff no subsequence of w is order-isomorphic to the pattern.

    >>> avoids(Permutation((3, 2, 1, 4)), Permutation((2, 3, 1)))
    True
    >>> avoids(Permutation((4, 1, 2, 3)), Permutation((3, 1, 2)))
    False
    """
    target = pattern.images
    for vals in combinations(w.images, len(target)):
        order = sorted(vals)
        if tuple(order.index(v) + 1 for v in vals) == target:
            return False
    return True


def phi(v: Permutation, n: int) -> Permutation:
    """The anti-automorphism w0 * v^{-1} * w0 of S_n.

    Sends s_i to s_{n-i}; reverses reduced words letter-wise.

    >>> phi(Permutation.from_word((2, 1)), 6) == Permutation.from_word((5, 4))
    True
    """
    if len(v.key) > n:
        raise ValueError(f"degree mismatch: {v!r} does not lie in S_{n}")
    w0 = Permutation.longest(n)
    return w0 * v.inverse() * w0


def factorization_pairs(w: Permutation) -> frozenset[tuple[Permutation, Permutation]]:
    """All pairs (u, v) with w = u*v and length(w) = length(u) + length(v).

    The first factors are the lower interval [e, w] of the right weak order,
    walked down from w's one-line tuple by undoing right descents (a swap of
    the entries at positions a, a+1 where w(a) > w(a+1)), and v = u^{-1} w.
    Both factors have w's degree.  The walk makes O(q |[e, w]_R|) steps on
    tuples of length q = deg(w).

    >>> sorted(len(p) for p in [factorization_pairs(Permutation((1, 2)))])
    [1]
    """
    top = w.images
    interval = {top}
    stack = [top]
    while stack:
        x = stack.pop()
        for a in range(1, len(x)):
            if x[a - 1] > x[a]:
                y = x[: a - 1] + (x[a], x[a - 1]) + x[a + 1 :]
                if y not in interval:
                    interval.add(y)
                    stack.append(y)
    # u^{-1}(k) is the position of k in u, read in the tuple (0,) + u
    return frozenset(
        (_from_images(u), _from_images(tuple(map(((0,) + u).index, top)))) for u in interval
    )


_WEAK_MODES = ("left", "right", "two-sided")


def weak_order_leq(x: Permutation, y: Permutation, mode: str = "two-sided") -> bool:
    """Compare in the left, right, or two-sided weak order on S_n.

    The two-sided order is generated by both kinds of covers; each cover
    raises length by exactly 1, so the search runs level by level over
    one-line tuples.  A left cover s_i * u swaps the values i and i+1 of u,
    a right cover u * s_i the entries at positions i and i+1.

    >>> weak_order_leq(parse_permutation("[5,1,3,2,4]"), parse_permutation("[5,3,1,2,4]"), "right")
    True
    """
    if mode not in _WEAK_MODES:
        raise ValueError(f"unknown weak order mode: {mode!r}")
    n = max(x.degree, y.degree)
    x, y = x.embedded(n), y.embedded(n)
    steps = y.length() - x.length()
    if steps < 0:
        return False
    left, right = mode != "right", mode != "left"
    frontier = {x.images}
    for _ in range(steps):
        level = set()
        for u in frontier:
            if left:
                at = [0] * (n + 1)
                for a, v in enumerate(u):
                    at[v] = a
                for v in range(1, n):
                    a, b = at[v], at[v + 1]
                    if a < b:
                        level.add(u[:a] + (v + 1,) + u[a + 1 : b] + (v,) + u[b + 1 :])
            if right:
                for a in range(n - 1):
                    if u[a] < u[a + 1]:
                        level.add(u[:a] + (u[a + 1], u[a]) + u[a + 2 :])
        frontier = level
    return y.images in frontier


def bruhat_leq(x: Permutation, y: Permutation) -> bool:
    """Bruhat order via Ehresmann's tableau criterion (Bjorner-Brenti, 2.6):
    x <= y iff for each i the sorted first i entries of x lie entrywise at or
    below those of y."""
    n = max(x.degree, y.degree)
    xi, yi = x.embedded(n).images, y.embedded(n).images
    return all(all(map(le, sorted(xi[:i]), sorted(yi[:i]))) for i in range(1, n))


def h_vector(w: Permutation) -> tuple[int, ...]:
    """Running maxima (max{w(k) : k <= i})_i of the one-line notation.

    >>> h_vector(Permutation((3, 2, 1, 4)))
    (3, 3, 3, 4)
    """
    return tuple(accumulate(w.images, max))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, either "[3,2,1,4]" or compact digits "3214"."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        parts = [s.strip() for s in body.split(",")] if body else []
    else:
        parts = list(text) or [text]  # "" is no compact permutation
    if not all(map(str.isdecimal, parts)):
        raise ValueError(f"bad permutation {text!r}: expected [3,2,1] or compact digits")
    try:
        return Permutation(tuple(map(int, parts)))
    except ValueError as exc:
        raise ValueError(f"bad permutation {text!r}: {exc}") from None


def render_permutation(w: Permutation, n: int | None = None) -> str:
    images = w.embedded(n).images if n is not None else w.images
    return "[" + ",".join(str(v) for v in images) + "]"


def render_word(word: tuple[int, ...]) -> str:
    """Render a word in simple reflections, e.g. (1, 2, 1) -> "s1*s2*s1"."""
    return "*".join(f"s{i}" for i in word) if word else "e"

