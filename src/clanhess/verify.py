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
   the arc criterion (``InclusionPoset.contained``, one whole shape per
   vector) on every (clan, vector) pair with ``p + q <= 6``, plus
   randomized K-invariance spot checks.
5. ``wset_checks``             -- the recursive W-set equals the image of
   the length-additive factorization bijection, with matching cardinality.
6. ``two_sided_order_checks``  -- the labeled interval graph matches the
   two-sided weak order cover-for-cover, and the order is strictly finer
   than Bruhat order on a frozen instance.
7. ``monk_checks``             -- every Monk product of a divisor class
   with an interval-clan class is a 0/1 combination (the scan behind
   ``scan multfree``), and the stable Monk rule agrees with honest
   polynomial multiplication on all of S4.
8. ``structural_checks``       -- cover relations refine inclusion order,
   inclusion is a partial order (``p + q <= 7``) graded by orbit dimension
   (every Hasse cover is a unit step, ``p + q <= 8``; a failure is named in
   the result, a pass is not), clan counts match the closed form up to
   ``n = 9``, divided differences satisfy the nilpotence/braid/commutation
   relations, and Schubert expansion inverts Schubert construction.

Run everything with ``clanhess verify all`` or via :func:`run_all`.
``CRITERIA`` is the table the CLI reads, so a new criterion is one row.
"""

from __future__ import annotations

import random
import time
from itertools import product
from operator import le
from typing import NamedTuple

from .clans import (
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
    avoids,
    bruhat_leq,
    symmetric_group,
    weak_order_leq,
)
from .poset import InclusionPoset, inclusion_poset, members
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
from .weak_order import MOVE_TYPES, build_graph, covers_from, factorization_bijection, interval_iso_check, w_set


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


def check_max_total(max_total: int, name: str = "max_total") -> None:
    """Reject a bound p + q <= max_total that leaves no shape to scan."""
    if max_total < 2:
        raise ValueError(f"{name} must be at least 2, the p + q of the smallest shape (1,1), got {max_total}")


CLASSIFICATION_MAX_TOTAL = 7  # criterion 2's default bound on p + q


def irreducibility_checks(max_total: int = CLASSIFICATION_MAX_TOTAL) -> CheckResult:
    """Criterion 2: exhaustive irreducibility classification for 2 <= p + q <= max_total."""
    check_max_total(max_total)
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
            mask = poset.contained(m)
            # the clans of the top layer of mask are maximal in it, so mask has one
            # maximal clan j exactly when j is alone there and its down-set holds mask
            top = poset.top(mask)
            j = top.bit_length() - 1
            below = poset.down_of(j) if top.bit_count() == 1 else 0
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
                problems.append(f"({p},{q}) w={w.key}: {values}")
    detail = f"{checked} (w, p) pairs: length formula = area = orbit dimension exactly"
    return _finish("dimension-formulas", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 4: geometric membership oracle
# ---------------------------------------------------------------------------


ORACLE_MAX_TOTAL = 6  # rank scans above this p + q are out of the supported envelope


def oracle_checks(max_total: int = ORACLE_MAX_TOTAL, seed: int = 0) -> CheckResult:
    """Criterion 4: rank-condition membership (the representative flag's
    least Hessenberg vector is <= m) equals the arc criterion, plus randomized
    K-invariance spot checks of the flag representatives.  For each m, the
    clans whose least vector is <= m are compared as one mask with the shape's
    ``contained(m)``, and each disagreeing clan is named.  A max_total above
    ORACLE_MAX_TOTAL is clamped, and the result says so; below 2, ValueError."""
    check_max_total(max_total)
    t0 = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(seed)
    agreements = 0
    spotchecks = 0
    scanned = min(max_total, ORACLE_MAX_TOTAL)
    for p, q in _shapes(scanned):
        poset = inclusion_poset(p, q)
        clans = poset.clans
        vectors = list(hessenberg_vectors(p + q))
        leasts = [least_hessenberg_vector(clan) for clan in clans]
        for m in vectors:
            geo = sum(1 << c for c, least in enumerate(leasts) if all(map(le, least, m)))
            comb = poset.contained(m)
            for c in members(geo ^ comb):
                problems.append(
                    f"{render_clan(clans[c])} m={m}: "
                    f"geometric={bool(geo >> c & 1)} arc={bool(comb >> c & 1)}"
                )
            agreements += len(clans)
        for clan in rng.sample(list(clans), min(3, len(clans))):
            for m in rng.sample(vectors, min(2, len(vectors))):
                spotchecks += 1
                if not k_invariance_spotcheck(clan, m, trials=4, seed=rng.randrange(2**30)):
                    problems.append(f"K-invariance failed for {render_clan(clan)} m={m}")
    clamp = ""
    if scanned < max_total:
        clamp = f" (p + q <= {max_total} requested, clamped to {scanned})"
    detail = (
        f"{agreements} (clan, m) membership agreements across p + q <= {scanned}{clamp}, "
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
                problems.append(f"({p},{q}) w={w.key}: W-set != bijection image")
            if len(ws) != len(bijection):
                problems.append(f"({p},{q}) w={w.key}: |W| = {len(ws)} != {len(bijection)} factorizations")
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
            problems.append(f"({p},{q}) w={as_interval_permutation(clan).key} m={m}: coefficients not all 1")
    oracle_products = 0
    for u in symmetric_group(4):
        single = SchubertExpansion({u: 1})
        for m in range(1, 5):
            oracle_products += 1
            if monk_product(m, single) != product_oracle(m, single):
                problems.append(f"u={u.key} m={m}: stable rule != polynomial oracle")
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
    exhaustively on monomials of degree <= 6 in 4 variables."""
    checked = 0
    # each total repeats the lower degrees: 462 vectors over 210 monomials
    monomials = (
        e for total in range(7) for e in product(range(total + 1), repeat=4) if sum(e) <= total
    )
    for exps in monomials:
        poly = IntPolynomial.monomial(exps)
        for i in range(1, 4):
            checked += 1
            if not poly.divided_difference(i).divided_difference(i).is_zero:
                problems.append(f"d_{i}^2 != 0 on x^{exps}")
        for i in range(1, 3):
            checked += 1
            lhs = poly.divided_difference(i).divided_difference(i + 1).divided_difference(i)
            rhs = poly.divided_difference(i + 1).divided_difference(i).divided_difference(i + 1)
            if lhs != rhs:
                problems.append(f"braid relation fails at i={i} on x^{exps}")
        checked += 1
        if poly.divided_difference(1).divided_difference(3) != poly.divided_difference(3).divided_difference(1):
            problems.append(f"commutation fails on x^{exps}")
    return checked


def structural_checks() -> CheckResult:
    """Criterion 8: order-theoretic and algebraic invariants of the machinery."""
    t0 = time.perf_counter()
    problems: list[str] = []

    covers_checked = 0
    poset_nodes = 0
    shapes = _shapes(9)
    for p, q in shapes:
        clans = enumerate_clans(p, q)
        if len(clans) != clan_count(p, q):
            problems.append(f"({p},{q}): enumeration count != closed form")
        if p + q > 8:
            continue
        poset = InclusionPoset(clans)
        down = poset.down
        dims = [orbit_dimension(c) for c in clans]
        # gradedness: every Hasse cover of inclusion raises the dimension by 1
        for i, j in poset.covers():
            if dims[j] != dims[i] + 1:
                problems.append(
                    f"inclusion cover {render_clan(clans[i])} < {render_clan(clans[j])} "
                    f"has dimension step {dims[j] - dims[i]}"
                )
        if p + q > 7:
            continue
        index = {c: i for i, c in enumerate(clans)}
        for clan in clans:
            for cov in covers_from(clan):
                covers_checked += 1
                i, j = index[cov.source], index[cov.target]
                if not (down[j] >> i) & 1:
                    problems.append(f"cover not an inclusion: {render_clan(cov.source)}")
                if dims[j] != dims[i] + 1:
                    problems.append(f"cover dimension step != 1 at {render_clan(cov.source)}")
                if set(cov.move_types) - set(MOVE_TYPES):
                    problems.append(f"unknown move type at {render_clan(cov.source)}")
        poset_nodes += len(clans)
        for i, below in enumerate(down):
            if not (below >> i) & 1:
                problems.append(f"({p},{q}): inclusion not reflexive")
            for j in members(below & ~(1 << i)):
                if (down[j] >> i) & 1 or down[j] & ~below:
                    problems.append(f"({p},{q}): inclusion not antisymmetric or not transitive at {i},{j}")
                    break

    relations = _divided_difference_relations(problems)

    expansions = 0
    for w in symmetric_group(4):
        expansions += 1
        if expand_in_schubert_basis(schubert_polynomial(w)).coeffs != {w.trimmed(): 1}:
            problems.append(f"expand(schubert({w.key})) != {{w: 1}}")

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
