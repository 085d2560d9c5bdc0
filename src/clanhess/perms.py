"""Exact combinatorics of the symmetric group.

Permutations are written in one-line notation ``w(1) ... w(n)`` with values
in ``[n] = {1, ..., n}``.  Composition acts on the left, ``(x*y)(i) =
x(y(i))``, so ``s_i * w`` swaps the values i, i+1 of w and ``w * s_i`` swaps
the entries in positions i, i+1.  A permutation is silently identified with
its image in any larger symmetric group (all values above the degree are
fixed), so equality and hashing ignore trailing fixed points.
"""

from __future__ import annotations

import itertools
from operator import index

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

# Permutation.__setattr__ refuses assignment; its constructor sets the slots through this
_setattr = object.__setattr__


class Permutation:
    """A permutation of [n] in one-line notation.

    The constructor validates its input: each entry must be an integer
    (``operator.index``) and the entries must be 1..n in some order, else
    ValueError.  Results that a kernel derives from already-valid
    permutations (Monk product terms, W-set elements) skip that check.

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
        _setattr(self, "images", images)
        self.__post_init__()

    def __post_init__(self) -> None:
        try:
            images = tuple(map(index, self.images))
        except TypeError:
            raise ValueError(f"not a permutation of 1..n: {self.images!r}") from None
        _setattr(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..n: {images!r}")
        _setattr(self, "key", trim_fixed_points(images))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Permutation is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Permutation is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), (self.images,)

    # -- construction -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The longest element w0 = n, n-1, ..., 1 of S_n."""
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def simple(cls, i: int, n: int | None = None) -> "Permutation":
        """The simple transposition s_i exchanging i and i+1."""
        if i < 1:
            raise ValueError(f"simple reflection index must be >= 1: {i}")
        return cls.transposition(i, i + 1, n)

    @classmethod
    def transposition(cls, j: int, k: int, n: int | None = None) -> "Permutation":
        if n is None:
            n = max(j, k)
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
        if n is None:
            n = max(letters, default=0) + 1
        acc = cls.identity(max(n, 1))
        for i in letters:
            acc = acc * cls.simple(i, n)
        return acc

    @classmethod
    def from_code(cls, code: tuple[int, ...] | list[int]) -> "Permutation":
        """Inverse of :meth:`code`: build w with the given Lehmer code.

        >>> Permutation.from_code((2,))
        Permutation((3, 1, 2))
        """
        code = list(code)
        n = max([len(code)] + [c + i + 1 for i, c in enumerate(code)])
        code += [0] * (n - len(code))
        remaining = list(range(1, n + 1))
        images = []
        for c in code:
            if c >= len(remaining):
                raise ValueError(f"invalid Lehmer code: {tuple(code)!r}")
            images.append(remaining.pop(c))
        return cls(tuple(images))

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
        n = max(self.degree, other.degree)
        return Permutation(tuple(self(other(i)) for i in range(1, n + 1)))

    def inverse(self) -> "Permutation":
        images = [0] * len(self.images)
        for i, v in enumerate(self.images, 1):
            images[v - 1] = i
        return Permutation(tuple(images))

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"

    # -- classical statistics -------------------------------------------------

    def length(self) -> int:
        """Number of inversions.

        >>> Permutation((3, 2, 1, 4)).length()
        3
        """
        key = self.key
        return sum(
            1
            for i in range(len(key))
            for j in range(i + 1, len(key))
            if key[i] > key[j]
        )

    def code(self) -> tuple[int, ...]:
        """Lehmer code: entry i counts j > i with w(j) < w(i).

        >>> Permutation((3, 1, 2)).code()
        (2, 0, 0)
        """
        images = self.images
        return tuple(
            sum(1 for j in range(i + 1, len(images)) if images[j] < images[i])
            for i in range(len(images))
        )

    def left_descents(self) -> tuple[int, ...]:
        """Letters i with length(s_i * w) < length(w)."""
        inv = self.inverse().images
        return tuple(i for i in range(1, len(inv)) if inv[i - 1] > inv[i])

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically smallest reduced word for w.

        >>> Permutation((1, 2, 3, 6, 5, 4)).reduced_word()
        (4, 5, 4)
        """
        word = []
        cur = self.trimmed()
        while cur.key:
            i = cur.left_descents()[0]
            word.append(i)
            cur = (Permutation.simple(i) * cur).trimmed()
        return tuple(word)

    def all_reduced_words(self):
        """Yield every reduced word of w, in lexicographic order.  An oracle:
        the tests check ``reduced_word`` and the Schubert polynomials with it."""
        if not self.key:
            yield ()
            return
        for i in self.left_descents():
            for rest in (Permutation.simple(i) * self).all_reduced_words():
                yield (i,) + rest


def _from_key(key: tuple[int, ...]) -> Permutation:
    """``Permutation(key)`` without the validating constructor, for a tuple
    of ints the caller knows to be a permutation of 1..len(key) with no
    trailing fixed point; ``images`` and ``key`` are both that tuple."""
    w = object.__new__(Permutation)
    _setattr(w, "images", key)
    _setattr(w, "key", key)
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
    """Yield all of S_n in lexicographic one-line order."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def avoids(w: Permutation, pattern: Permutation) -> bool:
    """True iff no subsequence of w is order-isomorphic to the pattern.

    >>> avoids(Permutation((3, 2, 1, 4)), Permutation((2, 3, 1)))
    True
    >>> avoids(Permutation((4, 1, 2, 3)), Permutation((3, 1, 2)))
    False
    """
    images = w.images
    target = pattern.images
    d = len(target)
    for idxs in itertools.combinations(range(len(images)), d):
        vals = [images[i] for i in idxs]
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

    Both factors range over the symmetric group of w's degree.

    >>> sorted(len(p) for p in [factorization_pairs(Permutation((1, 2)))])
    [1]
    """
    lw = w.length()
    pairs = set()
    for u in symmetric_group(w.degree):
        lu = u.length()
        if lu > lw:
            continue
        v = u.inverse() * w
        if lu + v.length() == lw:
            pairs.add((u, v))
    return frozenset(pairs)


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
    """Bruhat order via the rank-matrix criterion.

    x <= y iff |{a <= i : x(a) <= j}| >= |{a <= i : y(a) <= j}| for all i, j.
    """
    n = max(x.degree, y.degree)
    xi, yi = x.embedded(n).images, y.embedded(n).images
    for i in range(1, n):
        rx = ry = 0
        xcount = [0] * (n + 1)
        ycount = [0] * (n + 1)
        for a in range(i):
            xcount[xi[a]] = 1
            ycount[yi[a]] = 1
        for j in range(1, n):
            rx += xcount[j]
            ry += ycount[j]
            if rx < ry:
                return False
    return True


def h_vector(w: Permutation) -> tuple[int, ...]:
    """Running maxima (max{w(k) : k <= i})_i of the one-line notation.

    >>> h_vector(Permutation((3, 2, 1, 4)))
    (3, 3, 3, 4)
    """
    out = []
    cur = 0
    for v in w.images:
        cur = max(cur, v)
        out.append(cur)
    return tuple(out)


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, either "[3,2,1,4]" or compact digits "3214"."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1].strip()
        parts = [s.strip() for s in body.split(",")] if body else []
        try:
            return Permutation(tuple(int(s) for s in parts))
        except ValueError as exc:
            raise ValueError(f"bad permutation {text!r}: {exc}") from None
    if text and all(ch.isdigit() and ch != "0" for ch in text):
        return Permutation(tuple(int(ch) for ch in text))
    raise ValueError(f"bad permutation {text!r}: expected [3,2,1] or compact digits")


def render_permutation(w: Permutation, n: int | None = None) -> str:
    images = w.embedded(n).images if n is not None else w.images
    return "[" + ",".join(str(v) for v in images) + "]"


def render_word(word: tuple[int, ...]) -> str:
    """Render a word in simple reflections, e.g. (1, 2, 1) -> "s1*s2*s1"."""
    return "*".join(f"s{i}" for i in word) if word else "e"

