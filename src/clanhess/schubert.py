"""Schubert polynomials, basis expansion, and Monk products.

Everything is exact integer arithmetic on sparse polynomials in x1, x2, ...
Schubert polynomials are produced by divided differences from the staircase
monomial; cohomology classes of orbit closures expand multiplicity-freely
in this basis with index set the W-set of the clan, and products with the
degree-one classes S_{s_m} follow Monk's rule.  The combinatorial rule and
the polynomial arithmetic are implemented separately so each can audit the
other.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, zip_longest

from .clans import Clan
from .perms import Permutation, _from_key, render_permutation, trim_fixed_points
from .weak_order import w_set

__all__ = [
    "IntPolynomial",
    "schubert_polynomial",
    "SchubertExpansion",
    "expand_in_schubert_basis",
    "brion_class",
    "monk_product",
    "product_oracle",
    "is_multiplicity_free",
    "divisor_product_scan",
]


def _normal(pairs) -> dict[tuple[int, ...], int]:
    """Sum (exponents, coefficient) pairs by exponents with trailing zeros
    trimmed, dropping zero terms."""
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in pairs:
        if min(exps, default=0) < 0:
            raise ValueError(f"negative exponent in {exps!r}")
        end = len(exps)
        while end and exps[end - 1] == 0:
            end -= 1
        key = tuple(exps[:end])
        out[key] = total = out.get(key, 0) + coeff
        if not total:
            del out[key]
    return out


class IntPolynomial:
    """A polynomial over the integers in variables x1, x2, ...

    Terms are stored sparsely as {exponent tuple: coefficient} with
    trailing zeros trimmed from the exponent tuples, so equal monomials in
    different numbers of variables coincide.

    >>> x1, x2 = IntPolynomial.variable(1), IntPolynomial.variable(2)
    >>> ((x1 + x2) * x1).render()
    'x1^2 + x1*x2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None) -> None:
        self.terms = _normal((terms or {}).items())

    @classmethod
    def _of(cls, pairs) -> "IntPolynomial":
        """The polynomial summing (exponents, coefficient) pairs, normalized once."""
        poly = cls.__new__(cls)
        poly.terms = _normal(pairs)
        return poly

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls({(): 1})

    @classmethod
    def variable(cls, i: int) -> "IntPolynomial":
        if i < 1:
            raise ValueError(f"variables are x1, x2, ...: got index {i}")
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exps, coeff: int = 1) -> "IntPolynomial":
        return cls({tuple(exps): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPolynomial({(): other})
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial({(): other})
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial._of(chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._of((e, -c) for e, c in self.terms.items())

    def __sub__(self, other) -> "IntPolynomial":
        return self + (-other if isinstance(other, IntPolynomial) else -1 * other)

    def __rsub__(self, other) -> "IntPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial._of((e, c * other) for e, c in self.terms.items())
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial._of(
            (tuple(a + b for a, b in zip_longest(ea, eb, fillvalue=0)), ca * cb)
            for ea, ca in self.terms.items()
            for eb, cb in other.terms.items()
        )

    __rmul__ = __mul__

    def divided_difference(self, i: int) -> "IntPolynomial":
        """The operator (f - s_i f) / (x_i - x_{i+1}), exact on each term.

        >>> IntPolynomial.monomial((2,)).divided_difference(1).render()
        'x1 + x2'
        """
        if i < 1:
            raise ValueError(f"divided difference needs i >= 1: {i}")
        out = []
        for exps, coeff in self.terms.items():
            padded = exps + (0,) * max(0, i + 1 - len(exps))
            a, b = padded[i - 1], padded[i]
            lo, hi, sign = (b, a, coeff) if a > b else (a, b, -coeff)
            for j in range(hi - lo):
                out.append((padded[: i - 1] + (lo + j, hi - 1 - j) + padded[i + 1 :], sign))
        return IntPolynomial._of(out)

    def leading(self) -> tuple[tuple[int, ...], int] | None:
        """The lexicographically smallest monomial and its coefficient.

        This is the monomial that leads the triangularity with the Schubert
        basis: for S_w it is x^code(w) with coefficient 1, since every
        other monomial arises from the code by moves x^a -> x^(a+e_i-e_j)
        with i < j, each of which is a lex increase.
        """
        if not self.terms:
            return None
        exps = min(self.terms)
        return exps, self.terms[exps]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def render(self) -> str:
        """Human form, e.g. '3*x1^2*x2 + x3 - 2'."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-v for v in e))):
            coeff = self.terms[exps]
            factors = [
                f"x{k}" if e == 1 else f"x{k}^{e}"
                for k, e in enumerate(exps, 1)
                if e
            ]
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial<{self.render()}>"


# bounded; `verify all` builds 102 distinct polynomials
@lru_cache(maxsize=128)
def schubert_polynomial(w: Permutation) -> IntPolynomial:
    """The Schubert polynomial of w, by divided differences down from the
    staircase monomial of the longest element.

    >>> schubert_polynomial(Permutation((3, 1, 2))).render()
    'x1^2'
    >>> schubert_polynomial(Permutation((2, 3, 1))).render()
    'x1*x2'
    """
    w = w.trimmed()
    size = max(len(w.key), 1)
    poly = IntPolynomial.monomial(tuple(range(size - 1, 0, -1)))
    rest = w.inverse() * Permutation.longest(size)
    for i in reversed(rest.reduced_word()):
        poly = poly.divided_difference(i)
    return poly


def _is_normal(coeffs: dict) -> bool:
    """True when no coefficient is zero and every key is already trimmed,
    as in every expansion that brion_class and monk_product build."""
    if 0 in coeffs.values():
        return False
    for w in coeffs:
        if len(w.key) != len(w.images):
            return False
    return True


class SchubertExpansion:
    """An integer combination of Schubert polynomials, keyed by permutation:
    the keys are trimmed and distinct, and no coefficient is zero.

    >>> SchubertExpansion({Permutation((3, 1, 2)): 1}).render()
    '1 * S[3,1,2]'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None) -> None:
        coeffs = coeffs or {}
        if _is_normal(coeffs):
            # a C-level copy: it reuses the stored hashes, and the caller's
            # dict stays the caller's
            self.coeffs = dict(coeffs)
        else:
            # keys are distinct under Permutation equality, so no two terms merge
            self.coeffs = {w.trimmed(): c for w, c in coeffs.items() if c}

    def items(self) -> list[tuple[Permutation, int]]:
        """Terms sorted by length, then by one-line notation."""
        return sorted(self.coeffs.items(), key=lambda wc: (wc[0].length(), wc[0].key))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SchubertExpansion) and self.coeffs == other.coeffs

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def polynomial(self) -> IntPolynomial:
        total = IntPolynomial.zero()
        for w, coeff in self.coeffs.items():
            total = total + schubert_polynomial(w) * coeff
        return total

    def render(self, n: int | None = None) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w, coeff in self.items():
            shown = w if n is None else w.embedded(n)
            if n is None and not w.key:
                shown = w.embedded(1)
            parts.append(f"{coeff} * S{render_permutation(shown)}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            render_permutation(w if w.key else w.embedded(1)): coeff
            for w, coeff in self.items()
        }

    def __repr__(self) -> str:
        return f"SchubertExpansion<{self.render()}>"


def expand_in_schubert_basis(poly: IntPolynomial) -> SchubertExpansion:
    """Write a polynomial in the Schubert basis by peeling leading terms.

    Schubert polynomials are a basis of the whole polynomial ring, lex
    unitriangular against monomials: the minimal monomial of S_w is
    x^code(w) with coefficient 1.  Subtracting coeff * S_{from_code(lead)}
    therefore cancels the current minimal monomial and introduces only lex
    larger ones, so the loop terminates with the unique expansion.
    """
    coeffs: dict[Permutation, int] = {}
    residual = poly
    guard = 0
    limit = 10000 + 100 * len(poly.terms)
    while not residual.is_zero:
        guard += 1
        if guard > limit:
            raise RuntimeError("expansion did not terminate; triangularity broken?")
        lead, coeff = residual.leading()
        w = Permutation.from_code(lead)
        coeffs[w] = coeffs.get(w, 0) + coeff
        residual = residual - schubert_polynomial(w) * coeff
        new = residual.leading()
        if new is not None and new[0] <= lead:
            raise RuntimeError("leading term did not advance; basis expansion broken")
    return SchubertExpansion(coeffs)


def brion_class(clan: Clan, _cache: dict | None = None) -> SchubertExpansion:
    """The cohomology class of the orbit closure: sum of S_x over the W-set,
    every coefficient equal to one.  ``_cache`` is ``w_set``'s memo."""
    return SchubertExpansion(dict.fromkeys(w_set(clan, _cache), 1))


def monk_product(m: int, expansion: SchubertExpansion, n: int | None = None) -> SchubertExpansion:
    """Multiply by S_{s_m} using Monk's rule.

    With n given, work in H^*(Fl_n): transpositions t_{jk} stay within
    j <= m < k <= n.  With n = None compute the stable product, where k
    ranges far enough that every term with length(u t_{jk}) = length(u)+1
    is collected.

    >>> e = SchubertExpansion({Permutation((2, 1)): 1})
    >>> monk_product(1, e).render()
    '1 * S[3,1,2]'
    """
    if m < 1:
        raise ValueError(f"Monk factor must be S_{{s_m}} with m >= 1: {m}")
    if n is not None and m > n - 1:
        raise ValueError(f"s_{m} does not lie in S_{n}")
    out: dict[tuple[int, ...], int] = {}  # trimmed one-line notation -> coeff
    for u, coeff in expansion.coeffs.items():
        if n is not None and len(u.key) > n:
            raise ValueError(
                f"term {render_permutation(u)} does not lie in S_{n}"
            )
        top = n if n is not None else max(u.degree, m) + 1
        images = u.key + tuple(range(len(u.key) + 1, top + 1))
        # 0-indexed positions j <= m - 1 < k; u * t_{j+1,k+1} swaps the two
        # entries and is a term when u(j) < u(k) with no entry between them
        # in value at a position between them
        for j in range(m):
            low = images[j]
            high = top + 1  # the least entry above low seen right of j
            for k in range(j + 1, top):
                v = images[k]
                if low < v < high:
                    high = v
                    if k >= m:
                        move = list(images)
                        move[j], move[k] = v, low
                        key = trim_fixed_points(move)
                        out[key] = out.get(key, 0) + coeff
    # each term swaps two entries of a valid u, so it needs no validation
    return SchubertExpansion({_from_key(w): c for w, c in out.items()})


def product_oracle(m: int, expansion: SchubertExpansion) -> SchubertExpansion:
    """The same product computed with no combinatorics: multiply the actual
    polynomials and expand the result back in the Schubert basis."""
    if m < 1:
        raise ValueError(f"Monk factor must be S_{{s_m}} with m >= 1: {m}")
    product = schubert_polynomial(Permutation.simple(m)) * expansion.polynomial()
    return expand_in_schubert_basis(product)


def is_multiplicity_free(expansion: SchubertExpansion) -> bool:
    """True when every Schubert coefficient equals one."""
    return all(coeff == 1 for coeff in expansion.coeffs.values())


def divisor_product_scan(clans: tuple[Clan, ...], max_m: int) -> tuple[list[tuple[Clan, int, int]], int]:
    """Multiply the class of each clan by S_{s_m} in H^*(Fl_n), n = p + q,
    for 1 <= m <= max_m, and decide each product with ``is_multiplicity_free``.

    Returns the failing products as (clan, m, largest coefficient), in scan
    order, and the number of products.  One ``w_set`` memo serves the call.
    """
    cache: dict = {}
    failures = []
    for clan in clans:
        expansion = brion_class(clan, cache)
        for m in range(1, max_m + 1):
            product = monk_product(m, expansion, n=clan.n)
            if not is_multiplicity_free(product):
                failures.append((clan, m, max(product.coeffs.values())))
    return failures, len(clans) * max_m
