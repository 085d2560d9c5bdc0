"""Executable verification suite for the whole package.

Every headline guarantee has one check function here, each returning a
single :class:`CheckResult`:

1. ``worked_example_checks``   -- the worked examples are reproduced exactly:
   the statistics triple and flag representative of ``+1+-2+21``, three
   frozen W-sets, the labeled cover graph on the six interval clans at
   ``p = q = 3``, and the five Monk product lists at ``p = 3``.
2. ``irreducibility_checks``   -- exhaustively over every shape with
   ``p + q <= 7`` and every Hessenberg vector: the variety is irreducible
   exactly when ``m = m(w)`` for a 231-avoiding ``w``, there are Catalan(q)
   such vectors, and the contained clans form the lower ideal of
   ``gamma_w``.
3. ``dimension_checks``        -- ``l(w) + pq + p(p-1)/2``, the area of
   ``m(w)``, and the orbit dimension of ``gamma_w`` agree exactly.
4. ``oracle_checks``           -- the geometric rank-condition membership
   oracle (each representative flag's least Hessenberg vector) agrees with
   the arc criterion (the arc ends behind ``InclusionPoset.contained``) at
   every Hessenberg vector, one comparison per clan, for every clan with
   ``p + q <= 6`` by default; plus randomized K-invariance spot checks.
5. ``wset_checks``             -- the recursive W-set equals the image of
   the length-additive factorization bijection, with matching cardinality.
6. ``two_sided_order_checks``  -- the labeled interval graph matches the
   two-sided weak order cover-for-cover, and the order is strictly finer
   than Bruhat order on a frozen instance.
7. ``monk_checks``             -- every Monk product of a divisor class
   with an interval-clan class is a 0/1 combination (the scan behind
   ``scan multfree``), and the stable Monk rule agrees with honest
   polynomial multiplication on all of S4.
8. ``structural_checks``       -- cover relations refine inclusion order
   (``p + q <= 7``), inclusion is a partial order graded by orbit dimension
   (every Hasse cover is a unit step; ``p + q <= 8``, in one pass over the
   rows by ``_graded_order``, which also names each clan whose row fails,
   with no Hasse-cover walk), clan counts match the closed form up to
   ``n = 9``, divided differences satisfy the nilpotence/braid/commutation
   relations, and Schubert expansion inverts Schubert construction.

Run everything with ``clanhess verify all`` or via :func:`run_all`.
``CRITERIA`` is the table the CLI reads, so a new criterion is one row.
"""

from __future__ import annotations

import random
import time
from itertools import accumulate, product
from typing import NamedTuple

from .clans import (
    _clan_words,
    as_interval_permutation,
    clan_count,
    enumerate_clans,
    gamma_w,
    interval_clans,
    orbit_dimension,
    parse_clan,
    render_clan,
    statistics,
)
from .flag_oracle import (
    flag_representative,
    k_invariance_spotcheck,
    least_hessenberg_vector,
)
from .hessenberg import (
    area,
    classify_irreducibles,
    hess_dimension,
    hessenberg_vectors,
    m_of_w,
)
from .perms import (
    Permutation,
    _index,
    avoids,
    bruhat_leq,
    render_permutation,
    symmetric_group,
    weak_order_leq,
)
from .poset import InclusionPoset, _key_columns, inclusion_poset, members
from .schubert import (
    IntPolynomial,
    SchubertExpansion,
    brion_class,
    divisor_product_scan,
    expand_in_schubert_basis,
    is_multiplicity_free,
    monk_product,
    product_oracle,
    schubert_polynomial,
)
from .weak_order import MOVE_TYPES, _moves_by_target, build_graph, factorization_bijection, interval_iso_check, w_set


class CheckResult(NamedTuple):
    """Outcome of one verification criterion."""

    name: str
    passed: bool
    detail: str
    seconds: float


def _shapes(max_total: int) -> list[tuple[int, int]]:
    """Every shape (p, q) with p >= q >= 1 and p + q <= max_total, by p + q, then q."""
    return [(n - q, q) for n in range(2, max_total + 1) for q in range(1, n // 2 + 1)]


# the desk grid of criteria 3, 5, 6 and 7: q <= 4 and q <= p <= q + 2
_DESK_SHAPES = tuple((p, q) for q in range(1, 5) for p in range(q, q + 3))


def _finish(name: str, problems: list[str], detail: str, t0: float) -> CheckResult:
    if problems:
        shown = "; ".join(problems[:3])
        if len(problems) > 3:
            shown += f"; +{len(problems) - 3} more"
        return CheckResult(name, False, shown, time.perf_counter() - t0)
    return CheckResult(name, True, detail, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criterion 1: worked examples
# ---------------------------------------------------------------------------

_WORKED_PLUS = (1, 1, 2, 2, 2, 3, 4, 5)
_WORKED_MINUS = (0, 0, 0, 1, 1, 1, 2, 3)
_WORKED_PAIRS = (
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 1, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 0, 2, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0),
)
_WORKED_FLAG = (
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, 0),
    (0, 1, 0, 0, 0, 0, 0, -1),
)

_WSET_213_AT_33 = {(2, 1), (2, 5), (5, 4)}
_WSET_123_AT_33 = {(1, 2, 1), (4, 5, 4), (1, 2, 5), (2, 1, 4), (1, 5, 4), (2, 4, 5)}
_WSET_3214_AT_44 = {(3, 2, 1), (3, 2, 7), (3, 7, 6), (7, 6, 5)}

_INTERVAL_FIGURE_33 = {
    ("123123", "123213"): (1, 4),
    ("123123", "123132"): (2, 5),
    ("123213", "123312"): (2,),
    ("123213", "123231"): (5,),
    ("123132", "123231"): (1,),
    ("123132", "123312"): (4,),
    ("123231", "123321"): (2, 4),
    ("123312", "123321"): (1, 5),
}

# Reference lists for S_{s_m} * S(gamma_123) at p = 3, n = 6, one digit
# per letter (so "3121" is s3*s1*s2*s1).  The m = 3 reference omits two
# terms the product provably contains, and the m = 4 reference has
# s1*s4*s5*s4 where the product contains s2*s4*s5*s4; both corrections are
# confirmed below against an independent oracle (multiply the actual
# polynomials, re-expand in the basis) and are re-derivable by hand from
# the transposition rule: s1*s2*s1 -> t_{1,4} and s2*s4*s5 -> t_{2,4}
# produce the missing m = 3 terms.
_REFERENCE_MONK_WORDS = {
    1: ("3121", "1454", "1215", "4321", "3214", "2154", "2145", "1245"),
    2: ("3121", "2312", "2454", "3125", "4321", "3214", "1214", "2154", "1254", "1245", "4532", "3245"),
    3: ("2132", "1213", "4543", "4354", "3454", "3125", "1235", "4321", "3421", "4213", "2134", "5413", "3154", "3245", "2453", "2345"),
    4: ("4121", "4534", "3454", "1254", "1245", "3214", "2134", "2154", "3154", "3245", "2345", "1454"),
    5: ("3454", "5121", "1245", "2154", "2145", "1454", "3245", "2345"),
}
_MONK_MISSING_TERMS = {3: ("1321", "4325")}
_MONK_REPLACED_TERMS = {4: {"1454": "2454"}}


def corrected_monk_lists() -> dict[int, frozenset[Permutation]]:
    """The five divisor products at ``p = 3`` with the two list corrections
    applied (used by the worked-example check)."""
    out: dict[int, frozenset[Permutation]] = {}
    for m, words in _REFERENCE_MONK_WORDS.items():
        replaced = _MONK_REPLACED_TERMS.get(m, {})
        fixed = [replaced.get(w, w) for w in words]
        fixed.extend(_MONK_MISSING_TERMS.get(m, ()))
        out[m] = frozenset(Permutation.from_word(tuple(map(int, w))) for w in fixed)
    return out


def _stable_truncated(m: int, cls: SchubertExpansion, n: int) -> SchubertExpansion:
    stable = monk_product(m, cls)
    return SchubertExpansion({w: c for w, c in stable.coeffs.items() if len(w.key) <= n})


def worked_example_checks() -> CheckResult:
    """Criterion 1: frozen worked examples, each subcheck well under a second."""
    t0 = time.perf_counter()
    problems: list[str] = []

    clan = parse_clan("+1+-2+21", 5, 3)
    st = statistics(clan)
    if st.plus_counts != _WORKED_PLUS or st.minus_counts != _WORKED_MINUS:
        problems.append("sign-count statistics of +1+-2+21 do not match")
    if st.pair_matrix != _WORKED_PAIRS:
        problems.append("pair statistics of +1+-2+21 do not match")

    if flag_representative(clan) != _WORKED_FLAG:
        problems.append("flag representative of +1+-2+21 does not match")

    wset_cases = [
        ("gamma_213 at (3,3)", gamma_w(Permutation((2, 1, 3)), 3), _WSET_213_AT_33),
        ("gamma_123 at (3,3)", gamma_w(Permutation((1, 2, 3)), 3), _WSET_123_AT_33),
        ("gamma_3214 at (4,4)", gamma_w(Permutation((3, 2, 1, 4)), 4), _WSET_3214_AT_44),
    ]
    for label, g, words in wset_cases:
        if w_set(g) != frozenset(map(Permutation.from_word, words)):
            problems.append(f"W-set of {label} does not match")

    graph = build_graph(3, 3, interval_only=True)
    got_edges = {(render_clan(c.source), render_clan(c.target)): c.labels for c in graph.covers}
    if got_edges != _INTERVAL_FIGURE_33:
        problems.append("labeled interval cover graph at (3,3) does not match")

    cls = brion_class(gamma_w(Permutation((1, 2, 3)), 3))
    expected_lists = corrected_monk_lists()
    for m in range(1, 6):
        got = monk_product(m, cls, n=6)
        if not is_multiplicity_free(got):
            problems.append(f"divisor product m={m} is not a 0/1 sum")
        if frozenset(got.coeffs) != expected_lists[m]:
            problems.append(f"divisor product m={m} does not match the corrected list")
        # independent cross-checks: plain polynomial arithmetic, then the
        # stable rule truncated back to n = 6
        if monk_product(m, cls) != product_oracle(m, cls):
            problems.append(f"stable rule disagrees with polynomial oracle at m={m}")
        if got != _stable_truncated(m, cls, 6):
            problems.append(f"truncated stable product disagrees at m={m}")

    corrections = sum(len(v) for v in _MONK_MISSING_TERMS.values()) + sum(
        len(v) for v in _MONK_REPLACED_TERMS.values()
    )
    detail = (
        "statistics triple, flag representative, 3 W-sets, labeled (3,3) "
        f"interval graph, and 5 divisor-product lists reproduced "
        f"({corrections} documented list corrections, oracle-confirmed)"
    )
    return _finish("worked-examples", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 2: irreducibility classification
# ---------------------------------------------------------------------------


def check_max_total(max_total: int, name: str = "max_total") -> int:
    """max_total as an int; ValueError for a bound p + q <= max_total that leaves no shape to scan."""
    value = _index(max_total)
    if value is None or value < 2:
        raise ValueError(f"{name} must be at least 2, the p + q of the smallest shape (1,1), got {max_total!r}")
    return value


CLASSIFICATION_MAX_TOTAL = 7  # criterion 2's default bound on p + q


def irreducibility_checks(max_total: int = CLASSIFICATION_MAX_TOTAL) -> CheckResult:
    """Criterion 2: exhaustive irreducibility classification for 2 <= p + q <= max_total."""
    max_total = check_max_total(max_total)
    t0 = time.perf_counter()
    problems: list[str] = []
    shapes = _shapes(max_total)
    vectors_checked = 0
    for p, q in shapes:
        try:
            table = classify_irreducibles(p, q)  # raises if not Catalan(q), distinct
        except AssertionError as exc:
            problems.append(f"({p},{q}): classify_irreducibles failed: {exc}")
            continue
        witness_by_m = {m: w for w, m in table.items()}
        poset = inclusion_poset(p, q)
        for m in hessenberg_vectors(p + q):
            vectors_checked += 1
            mask = poset._contained(m)  # m is a Hessenberg vector of the walk
            # the clans of the top layer of mask are maximal in it, so mask has one
            # maximal clan j exactly when j is alone there and its down-set holds mask
            top = poset.top(mask)
            j = top.bit_length() - 1
            below = poset._down_of(j) if top.bit_count() == 1 else 0  # j indexes a clan of mask
            irreducible = mask | below == below
            want = m in witness_by_m
            if irreducible != want:
                problems.append(f"({p},{q}) m={m}: irreducible={irreducible}, expected {want}")
                continue
            if want:
                w = witness_by_m[m]
                if as_interval_permutation(poset.clans[j]) != w:
                    problems.append(f"({p},{q}) m={m}: wrong witness")
                if poset.clans[j] != gamma_w(w, p):
                    problems.append(f"({p},{q}) m={m}: component is not gamma_w")
                if below != mask:
                    problems.append(f"({p},{q}) m={m}: contained set is not the lower ideal")
    detail = (
        f"{len(shapes)} shapes, {vectors_checked} Hessenberg vectors: irreducible "
        "iff m = m(w) for 231-avoiding w, Catalan counts, unique component "
        "gamma_w, contained sets are lower ideals"
    )
    return _finish("irreducible-classification", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 3: dimension formulas
# ---------------------------------------------------------------------------


def dimension_checks() -> CheckResult:
    """Criterion 3: l(w) + pq + p(p-1)/2 = area(m(w)) = dim of the dense orbit."""
    t0 = time.perf_counter()
    problems: list[str] = []
    pattern = Permutation((2, 3, 1))
    checked = 0
    for p, q in _DESK_SHAPES:
        for w in symmetric_group(q):
            if not avoids(w, pattern):
                continue
            checked += 1
            values = {
                "hess_dimension": hess_dimension(w, p),
                "area": area(m_of_w(w, p)),
                "orbit_dimension": orbit_dimension(gamma_w(w, p)),
            }
            if len(set(values.values())) != 1:
                problems.append(f"({p},{q}) w={render_permutation(w, q)}: {values}")
    detail = f"{checked} (w, p) pairs: length formula = area = orbit dimension exactly"
    return _finish("dimension-formulas", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 4: geometric membership oracle
# ---------------------------------------------------------------------------


ORACLE_MAX_TOTAL = 6  # criterion 4's default bound on p + q


def oracle_checks(max_total: int = ORACLE_MAX_TOTAL, seed: int = 0) -> CheckResult:
    """Criterion 4: for every clan with p + q <= max_total and every
    Hessenberg vector m, rank-condition membership (the representative
    flag's least Hessenberg vector is <= m) equals the arc criterion (the
    arc ends r, read from ``poset._key_columns`` as ``contained`` reads
    them, are <= m); plus randomized K-invariance spot checks.  Below 2,
    ValueError.

    The scan over m is one comparison per clan, least vector == h with
    h_i = max(i, r_1, ..., r_i), since for Hessenberg m: (a) the flag lies
    in Hess(x, m) iff its least vector is <= m (``flag_oracle`` docstring);
    (b) r <= m iff h <= m, as m is nondecreasing with m_i >= i; (c) two
    Hessenberg vectors that bound the same set of Hessenberg m are equal
    (take m to be each).  A failing clan is named with both vectors."""
    max_total = check_max_total(max_total)
    t0 = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(seed)
    agreements = 0
    spotchecks = 0
    vectors: list[tuple[int, ...]] = []
    for p, q in _shapes(max_total):  # by p + q, so one list of vectors per length
        n = p + q
        clans = enumerate_clans(p, q)
        if not vectors or len(vectors[0]) != n:
            vectors = list(hessenberg_vectors(n))
        _, ends, _ = _key_columns(clans, n, q)
        for clan, r in zip(clans, zip(*ends)):
            h = tuple(accumulate(map(max, range(1, n + 1), r), max))
            least = least_hessenberg_vector(clan)
            if least != h:
                problems.append(f"{render_clan(clan)}: least vector {least}, arc closure {h}")
        agreements += len(clans) * len(vectors)
        for clan in rng.sample(clans, min(3, len(clans))):
            for m in rng.sample(vectors, min(2, len(vectors))):
                spotchecks += 1
                if not k_invariance_spotcheck(clan, m, trials=4, seed=rng.randrange(2**30)):
                    problems.append(f"K-invariance failed for {render_clan(clan)} m={m}")
    detail = (
        f"{agreements} (clan, m) membership agreements across p + q <= {max_total}, "
        f"{spotchecks} K-invariance spot checks"
    )
    return _finish("geometric-oracle", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 5: W-sets via the factorization bijection
# ---------------------------------------------------------------------------


def wset_checks() -> CheckResult:
    """Criterion 5: W(gamma_w) = { u * phi(v) } over length-additive
    factorizations of w * w0, with matching cardinalities."""
    t0 = time.perf_counter()
    problems: list[str] = []
    checked = 0
    for p, q in _DESK_SHAPES:
        cache: dict = {}
        for w in symmetric_group(q):
            checked += 1
            ws = w_set(gamma_w(w, p), cache)
            bijection = factorization_bijection(w, p)
            if ws != set(bijection.values()):
                problems.append(f"({p},{q}) w={render_permutation(w, q)}: W-set != bijection image")
            if len(ws) != len(bijection):
                problems.append(f"({p},{q}) w={render_permutation(w, q)}: |W| = {len(ws)} != {len(bijection)} factorizations")
    detail = f"{checked} (w, p) pairs: recursive W-set = bijection image, cardinalities match"
    return _finish("w-set-bijection", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 6: two-sided weak order comparison
# ---------------------------------------------------------------------------


def two_sided_order_checks() -> CheckResult:
    """Criterion 6: the labeled interval graph is isomorphic to two-sided
    weak order, which is strictly finer than Bruhat order."""
    t0 = time.perf_counter()
    problems: list[str] = []
    for p, q in _DESK_SHAPES:
        if not interval_iso_check(p, q):
            problems.append(f"({p},{q}): interval graph != weak order")
    x = Permutation((3, 2, 1, 4))
    y = Permutation((3, 4, 1, 2))
    if x != Permutation.from_word((1, 2, 1)) or y != Permutation.from_word((2, 1, 3, 2)):
        problems.append("frozen strictness instance mislabeled")
    if not bruhat_leq(x, y):
        problems.append("expected 3214 <= 3412 in Bruhat order")
    if weak_order_leq(x, y, mode="two-sided"):
        problems.append("expected 3214 !<= 3412 in two-sided weak order")
    detail = (
        f"{len(_DESK_SHAPES)} interval graphs isomorphic to two-sided weak order with "
        "matching labels; 3214 vs 3412 separates Bruhat from two-sided weak order"
    )
    return _finish("two-sided-order", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 7: Monk products
# ---------------------------------------------------------------------------


def monk_checks() -> CheckResult:
    """Criterion 7: divisor times orbit-closure class is multiplicity-free in
    cohomology, by the ``divisor_product_scan`` that ``scan multfree`` runs;
    the stable rule equals polynomial multiplication on S4."""
    t0 = time.perf_counter()
    problems: list[str] = []
    products = 0
    for p, q in _DESK_SHAPES:
        failures, count = divisor_product_scan(interval_clans(p, q), p + q - 1)
        products += count
        for clan, m, _ in failures:
            w = render_permutation(as_interval_permutation(clan), q)
            problems.append(f"({p},{q}) w={w} m={m}: coefficients not all 1")
    oracle_products = 0
    for u in symmetric_group(4):
        single = SchubertExpansion({u: 1})
        for m in range(1, 5):
            oracle_products += 1
            if monk_product(m, single) != product_oracle(m, single):
                problems.append(f"u={render_permutation(u, 4)} m={m}: stable rule != polynomial oracle")
    detail = (
        f"{products} divisor products multiplicity-free; stable rule = "
        f"polynomial oracle on {oracle_products} S4 products"
    )
    return _finish("monk-products", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 8: structural invariants
# ---------------------------------------------------------------------------


def _divided_difference_relations(problems: list[str]) -> int:
    """Nilpotence, braid, and commutation for the divided differences,
    exhaustively on monomials of degree <= 6 in 4 variables: six relation
    instances per exponent vector, counted and reported for each of the
    462 vectors of the totals 0..6, though each total repeats the lower
    degrees, so only 210 monomials are distinct and each is computed once;
    d_1 f, d_2 f and d_3 f are shared by its relations."""
    checked = 0
    lines: dict[tuple[int, ...], list[str]] = {}
    for exps in (e for total in range(7) for e in product(range(total + 1), repeat=4) if sum(e) <= total):
        checked += 6
        if exps not in lines:
            lines[exps] = _relation_failures(exps)
        problems += lines[exps]
    return checked


def _relation_failures(exps: tuple[int, ...]) -> list[str]:
    """The failure lines of the six relation instances on the monomial x^exps, in order."""
    failures = []
    poly = IntPolynomial.monomial(exps)
    d = {i: poly.divided_difference(i) for i in range(1, 4)}
    for i in range(1, 4):
        if not d[i].divided_difference(i).is_zero:
            failures.append(f"d_{i}^2 != 0 on x^{exps}")
    for i in range(1, 3):
        lhs = d[i].divided_difference(i + 1).divided_difference(i)
        rhs = d[i + 1].divided_difference(i).divided_difference(i + 1)
        if lhs != rhs:
            failures.append(f"braid relation fails at i={i} on x^{exps}")
    if d[1].divided_difference(3) != d[3].divided_difference(1):
        failures.append(f"commutation fails on x^{exps}")
    return failures


def _graded_order(poset: InclusionPoset, down, dims) -> tuple[int, list[str]]:
    """Whether the rows ``down`` of ``poset`` form a partial order graded by
    ``dims`` (every Hasse cover a unit step) that keeps the rank layering,
    in one pass over the rows, with no ``covers()`` walk: the problem
    lines, [] when the order passes, after the number of Hasse covers,
    which counts only when there is no problem.  For each clan j, of
    dimension d in rank layer k, it checks that

    (1) row j meets the layers at or above k (``poset._cum[k]``) only in j;
    (2) row j is j's bit OR'd with the rows of its members of dimension d - 1.

    By induction up the rank layers, rows that pass form such an order.
    Row j holds j and otherwise only clans of lower layers, by (1), so
    i <= j <= i forces i = j.  For transitivity, a member i != j of row j
    lies by (2) in the row of a member i' of dimension d - 1 in a lower
    layer, whose row holds the row of i by induction; row j holds row i'
    by (2), so it holds row i too.  By induction as well, i has dimension
    at most that of i', d - 1.  So a Hasse cover i < j is such an i'
    itself, as nothing lies strictly between, and steps the dimension by
    exactly 1.  Conversely, in an order that keeps the layering, (1)
    holds, and if its Hasse covers are unit steps, each member i != j of
    row j lies below a lower cover of j, of dimension d - 1, so (2) holds.
    In an accepted order the members of dimension d - 1 in (2) are the
    lower covers of j, since a clan strictly between would have a
    dimension strictly between d - 1 and d, so their count, summed over j,
    is the number of Hasse covers.

    Each failing clan j gets one line, which names j and, at the first
    check it fails, the least witness i: j is missing from its own row;
    i is in row j but not in a lower layer (1); i is in row j but in the
    row of no member of dimension d - 1 (2, not graded); or i is in the
    row of such a member but not in row j (2, not transitive)."""
    clans = poset.clans
    shape = f"({clans[0].p},{clans[0].q})"

    def least(mask: int) -> str:
        return render_clan(clans[(mask & -mask).bit_length() - 1])

    by_dim: dict[int, int] = {}
    for j, d in enumerate(dims):
        by_dim[d] = by_dim.get(d, 0) | 1 << j
    hasse, problems = 0, []
    for layer, cum in zip(poset._layers, poset._cum):
        for j in members(layer):
            bit, row, d = 1 << j, down[j], dims[j]
            closure = bit
            if row & cum == bit:
                # the members of dimension d - 1, one at a time, highest first
                found = row & by_dim.get(d - 1, 0)
                while found:
                    i = found.bit_length() - 1
                    found ^= 1 << i
                    closure |= down[i]
                    hasse += 1
                if closure == row:
                    continue
            name = render_clan(clans[j])
            if not row & bit:
                fault = f"misses {name} (not reflexive)"
            elif row & cum != bit:
                fault = f"holds {least(row & cum ^ bit)}, which is not in a lower rank layer"
            elif row & ~closure:
                fault = f"holds {least(row & ~closure)}, which is in the row of no member of dimension {d - 1}"
                fault += " (not graded)"
            else:
                fault = f"misses {least(closure & ~row)}, which is in the row of a member of dimension {d - 1}"
                fault += " (not transitive)"
            problems.append(f"{shape}: the row of {name} {fault}")
    return hasse, problems


def structural_checks() -> CheckResult:
    """Criterion 8: order-theoretic and algebraic invariants of the machinery.

    At each shape with p + q <= 8, ``_graded_order`` checks in one pass
    that the inclusion rows form a partial order graded by orbit dimension,
    and names each clan whose row fails.  At p + q <= 7 every weak cover
    must also be an inclusion with a unit step and known move types: the
    covers of ``covers_from``, read off the move kernel grouped by target
    (``weak_order._moves_by_target``, which ``covers_from`` also reads),
    with no ``LabeledCover`` built and no target rendered."""
    t0 = time.perf_counter()
    problems: list[str] = []

    covers_checked = 0
    poset_nodes = 0
    move_types = frozenset(MOVE_TYPES)
    shapes = _shapes(9)
    for p, q in shapes:
        # p + q = 9 only counts its clans: the walk's words, with no Clan built
        clans = enumerate_clans(p, q) if p + q <= 8 else _clan_words(p, q)
        if len(clans) != clan_count(p, q):
            problems.append(f"({p},{q}): enumeration count != closed form")
        if p + q > 8:
            continue
        poset = InclusionPoset(clans)
        down = poset.down
        dims = [orbit_dimension(c) for c in clans]
        problems += _graded_order(poset, down, dims)[1]
        if p + q <= 7:
            index = {c.symbols: i for i, c in enumerate(clans)}
            for i, clan in enumerate(clans):
                by_target = _moves_by_target(clan.symbols)
                # the weak covers of clan i by the index of their target:
                # the text order of the targets, which ``covers_from`` keeps
                for j, moves in sorted(zip(map(index.__getitem__, by_target), by_target.values())):
                    covers_checked += 1
                    if not (down[j] >> i) & 1:
                        problems.append(f"cover not an inclusion: {render_clan(clan)}")
                    if dims[j] != dims[i] + 1:
                        problems.append(f"cover dimension step != 1 at {render_clan(clan)}")
                    if not move_types.issuperset(move for _, move in moves):
                        problems.append(f"unknown move type at {render_clan(clan)}")
            poset_nodes += len(clans)

    relations = _divided_difference_relations(problems)

    expansions = 0
    for w in symmetric_group(4):
        expansions += 1
        if expand_in_schubert_basis(schubert_polynomial(w)).coeffs != {w.trimmed(): 1}:
            problems.append(f"expand(schubert({render_permutation(w, 4)})) != {{w: 1}}")

    detail = (
        f"{covers_checked} covers refine inclusion with unit dimension step; "
        f"partial-order axioms on {poset_nodes} poset nodes (p + q <= 7); "
        f"{len(shapes)} clan counts match the closed form (p + q <= 9); "
        f"{relations} divided-difference relation instances; "
        f"expansion inverts construction on {expansions} S4 polynomials"
    )
    return _finish("structural-invariants", problems, detail, t0)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

# one row per criterion: its name, the ``clanhess verify`` target that runs it
# alone (None: only ``verify all``), its check, and the keywords of the check
# that ``--max-n`` (max_total) and ``--seed`` (seed) reach
CRITERIA: tuple[tuple[str, str | None, object, tuple[str, ...]], ...] = (
    ("worked-examples", None, worked_example_checks, ()),
    ("irreducible-classification", "irreducible", irreducibility_checks, ("max_total",)),
    ("dimension-formulas", None, dimension_checks, ()),
    ("geometric-oracle", "oracle", oracle_checks, ("max_total", "seed")),
    ("w-set-bijection", "wsets", wset_checks, ()),
    ("two-sided-order", None, two_sided_order_checks, ()),
    ("monk-products", "monk", monk_checks, ()),
    ("structural-invariants", None, structural_checks, ()),
)


def format_result(result: CheckResult, index: int) -> str:
    tag = "PASS" if result.passed else "FAIL"
    return f"{tag} criterion {index} ({result.name}): {result.detail} [{result.seconds:.2f}s]"


def run_all() -> list[CheckResult]:
    """Run every criterion in order and return the results."""
    return [check() for _, _, check, _ in CRITERIA]
