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
   the arc criterion on every (clan, vector) pair with ``p + q <= 6``, plus
   randomized K-invariance spot checks.
5. ``wset_checks``             -- the recursive W-set equals the image of
   the length-additive factorization bijection, with matching cardinality.
6. ``two_sided_order_checks``  -- the labeled interval graph matches the
   two-sided weak order cover-for-cover, and the order is strictly finer
   than Bruhat order on a frozen instance.
7. ``monk_checks``             -- every Monk product of a divisor class
   with an orbit-closure class is a 0/1 combination, and the stable Monk
   rule agrees with honest polynomial multiplication on all of S4.
8. ``structural_checks``       -- cover relations refine inclusion order,
   inclusion is a partial order (``p + q <= 7``) graded by orbit dimension
   (every Hasse cover is a unit step, ``p + q <= 8``; a failure is named in
   the result, a pass is not), clan counts match the closed form up to
   ``n = 9``, divided differences satisfy the nilpotence/braid/commutation
   relations, and Schubert expansion inverts Schubert construction.

Run everything with ``clanhess verify all`` or via :func:`run_all`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .clans import (
    clan_count,
    clan_length,
    enumerate_clans,
    gamma_w,
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
    catalan,
    classify_irreducibles,
    hess_dimension,
    hess_orbit_report,
    hessenberg_vectors,
    lower_ideal_check,
    m_of_w,
    orbit_in_hess,
)
from .perms import (
    Permutation,
    avoids,
    bruhat_leq,
    factorization_pairs,
    symmetric_group,
    weak_order_leq,
)
from .poset import inclusion_poset
from .schubert import (
    IntPolynomial,
    SchubertExpansion,
    brion_class,
    expand_in_schubert_basis,
    is_multiplicity_free,
    monk_product,
    product_oracle,
    schubert_polynomial,
)
from .weak_order import MOVE_TYPES, build_graph, covers_from, interval_iso_check, w_set, w_set_via_bijection


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification criterion."""

    name: str
    passed: bool
    detail: str
    seconds: float


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


def _word_perm(digits: str) -> Permutation:
    return Permutation.from_word(tuple(int(ch) for ch in digits))


def _word_set(words) -> frozenset[Permutation]:
    return frozenset(Permutation.from_word(w) for w in words)


def corrected_monk_lists() -> dict[int, frozenset[Permutation]]:
    """The five divisor products at ``p = 3`` with the two list corrections
    applied (used both by the worked-example check and the CLI)."""
    out: dict[int, frozenset[Permutation]] = {}
    for m, words in _REFERENCE_MONK_WORDS.items():
        replaced = _MONK_REPLACED_TERMS.get(m, {})
        fixed = [replaced.get(w, w) for w in words]
        fixed.extend(_MONK_MISSING_TERMS.get(m, ()))
        out[m] = frozenset(_word_perm(w) for w in fixed)
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

    basis = flag_representative(clan)
    if basis.vectors != _WORKED_FLAG:
        problems.append("flag representative of +1+-2+21 does not match")

    wset_cases = [
        ("gamma_213 at (3,3)", gamma_w(Permutation((2, 1, 3)), 3), _WSET_213_AT_33),
        ("gamma_123 at (3,3)", gamma_w(Permutation((1, 2, 3)), 3), _WSET_123_AT_33),
        ("gamma_3214 at (4,4)", gamma_w(Permutation((3, 2, 1, 4)), 4), _WSET_3214_AT_44),
    ]
    for label, g, words in wset_cases:
        if w_set(g) != _word_set(words):
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


def irreducibility_checks(max_total: int = 7) -> CheckResult:
    """Criterion 2: exhaustive irreducibility classification for p + q <= max_total."""
    t0 = time.perf_counter()
    problems: list[str] = []
    shapes = 0
    vectors_checked = 0
    for n in range(2, max_total + 1):
        for q in range(1, n // 2 + 1):
            p = n - q
            shapes += 1
            table = classify_irreducibles(p, q)  # raises if not Catalan(q), distinct
            witness_by_m = {m: w for w, m in table.items()}
            if len(witness_by_m) != catalan(q):
                problems.append(f"({p},{q}): classification size is not Catalan({q})")
            for m in hessenberg_vectors(n):
                vectors_checked += 1
                rep = hess_orbit_report(p, q, m)
                want = m in witness_by_m
                if rep.irreducible != want:
                    problems.append(f"({p},{q}) m={m}: irreducible={rep.irreducible}, expected {want}")
                    continue
                if want:
                    w = witness_by_m[m]
                    if rep.witness != w:
                        problems.append(f"({p},{q}) m={m}: wrong witness")
                    if rep.maximal != (gamma_w(w, p),):
                        problems.append(f"({p},{q}) m={m}: component is not gamma_w")
                    if not lower_ideal_check(w, p):
                        problems.append(f"({p},{q}) m={m}: contained set is not the lower ideal")
    detail = (
        f"{shapes} shapes, {vectors_checked} Hessenberg vectors: irreducible "
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
    for q in range(1, 5):
        for p in range(q, q + 3):
            for w in symmetric_group(q):
                if not avoids(w, pattern):
                    continue
                checked += 1
                closed_form = w.length() + p * q + p * (p - 1) // 2
                values = {
                    "closed form": closed_form,
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
    least Hessenberg vector is <= m) equals the arc criterion, plus
    randomized K-invariance spot checks of the flag representatives.  A
    max_total above ORACLE_MAX_TOTAL is clamped, and the result says so."""
    t0 = time.perf_counter()
    problems: list[str] = []
    rng = random.Random(seed)
    agreements = 0
    spotchecks = 0
    scanned = min(max_total, ORACLE_MAX_TOTAL)
    for n in range(2, scanned + 1):
        for q in range(1, n // 2 + 1):
            p = n - q
            clans = enumerate_clans(p, q)
            vectors = list(hessenberg_vectors(n))
            for clan in clans:
                least = least_hessenberg_vector(clan)
                for m in vectors:
                    geo = all(a <= b for a, b in zip(least, m))
                    comb = orbit_in_hess(clan, m)
                    if geo != comb:
                        problems.append(f"{render_clan(clan)} m={m}: geometric={geo} arc={comb}")
                    agreements += 1
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
    for q in range(1, 5):
        for p in range(q, q + 3):
            cache: dict = {}
            for w in symmetric_group(q):
                checked += 1
                ws = w_set(gamma_w(w, p), cache)
                expected = w_set_via_bijection(w, p)
                if ws != expected:
                    problems.append(f"({p},{q}) w={w.key}: W-set != bijection image")
                pairs = factorization_pairs(w * Permutation.longest(q))
                if len(ws) != len(pairs):
                    problems.append(f"({p},{q}) w={w.key}: |W| = {len(ws)} != {len(pairs)} factorizations")
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
    shapes = 0
    for q in range(1, 5):
        for p in range(q, q + 3):
            shapes += 1
            try:
                if not interval_iso_check(p, q):
                    problems.append(f"({p},{q}): interval graph != weak order")
            except AssertionError as exc:
                problems.append(f"({p},{q}): {exc}")
    x = Permutation((3, 2, 1, 4))
    y = Permutation((3, 4, 1, 2))
    if x != Permutation.from_word((1, 2, 1)) or y != Permutation.from_word((2, 1, 3, 2)):
        problems.append("frozen strictness instance mislabeled")
    if not bruhat_leq(x, y):
        problems.append("expected 3214 <= 3412 in Bruhat order")
    if weak_order_leq(x, y, mode="two-sided"):
        problems.append("expected 3214 !<= 3412 in two-sided weak order")
    detail = (
        f"{shapes} interval graphs isomorphic to two-sided weak order with "
        "matching labels; 3214 vs 3412 separates Bruhat from two-sided weak order"
    )
    return _finish("two-sided-order", problems, detail, t0)


# ---------------------------------------------------------------------------
# criterion 7: Monk products
# ---------------------------------------------------------------------------


def monk_checks() -> CheckResult:
    """Criterion 7: divisor times orbit-closure class is multiplicity-free in
    cohomology; the stable rule equals polynomial multiplication on S4."""
    t0 = time.perf_counter()
    problems: list[str] = []
    products = 0
    for q in range(1, 5):
        for p in range(q, q + 3):
            n = p + q
            for w in symmetric_group(q):
                cls = brion_class(gamma_w(w, p))
                for m in range(1, n):
                    products += 1
                    got = monk_product(m, cls, n=n)
                    if not is_multiplicity_free(got):
                        problems.append(f"({p},{q}) w={w.key} m={m}: coefficients not all 1")
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

    def monomials(nvars: int, max_deg: int):
        def rec(prefix, remaining, slots):
            if slots == 0:
                yield tuple(prefix)
                return
            for d in range(remaining + 1):
                yield from rec(prefix + [d], remaining - d, slots - 1)

        for total in range(max_deg + 1):
            yield from rec([], total, nvars)

    checked = 0
    for exps in monomials(4, 6):
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
    counts_checked = 0
    for n in range(2, 9):
        for q in range(1, n // 2 + 1):
            p = n - q
            poset = inclusion_poset(p, q)
            clans, index, up, down = poset.clans, poset.index, poset.up, poset.down
            counts_checked += 1
            if len(clans) != clan_count(p, q):
                problems.append(f"({p},{q}): enumeration count != closed form")
            dims = [orbit_dimension(c) for c in clans]
            # gradedness: every Hasse cover of inclusion raises the dimension by 1
            for i, j in poset.covers():
                if dims[j] != dims[i] + 1:
                    problems.append(
                        f"inclusion cover {render_clan(clans[i])} < {render_clan(clans[j])} "
                        f"has dimension step {dims[j] - dims[i]}"
                    )
            if n > 7:
                continue
            for clan in clans:
                for cov in covers_from(clan):
                    covers_checked += 1
                    i, j = index[cov.source], index[cov.target]
                    if not (up[i] >> j) & 1:
                        problems.append(f"cover not an inclusion: {render_clan(cov.source)}")
                    if dims[j] != dims[i] + 1:
                        problems.append(f"cover dimension step != 1 at {render_clan(cov.source)}")
                    if clan_length(cov.target) != clan_length(cov.source) + 1:
                        problems.append(f"cover length step != 1 at {render_clan(cov.source)}")
                    if set(cov.move_types) - set(MOVE_TYPES):
                        problems.append(f"unknown move type at {render_clan(cov.source)}")
            poset_nodes += len(clans)
            for i in range(len(clans)):
                if not (up[i] >> i) & 1:
                    problems.append(f"({p},{q}): inclusion not reflexive")
                if up[i] & down[i] != 1 << i:
                    problems.append(f"({p},{q}): inclusion not antisymmetric")
                rest = up[i] & ~(1 << i)
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    if up[j] & up[i] != up[j]:
                        problems.append(f"({p},{q}): inclusion not transitive at {i},{j}")
                        break

    for q in range(1, 5):
        p = 9 - q
        counts_checked += 1
        if len(enumerate_clans(p, q)) != clan_count(p, q):
            problems.append(f"({p},{q}): enumeration count != closed form")

    relations = _divided_difference_relations(problems)

    expansions = 0
    for w in symmetric_group(4):
        expansions += 1
        if expand_in_schubert_basis(schubert_polynomial(w)).coeffs != {w.trimmed(): 1}:
            problems.append(f"expand(schubert({w.key})) != {{w: 1}}")

    detail = (
        f"{covers_checked} covers refine inclusion with unit dimension step; "
        f"partial-order axioms on {poset_nodes} poset nodes (p + q <= 7); "
        f"{counts_checked} clan counts match the closed form (p + q <= 9); "
        f"{relations} divided-difference relation instances; "
        f"expansion inverts construction on {expansions} S4 polynomials"
    )
    return _finish("structural-invariants", problems, detail, t0)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

CRITERIA: tuple[tuple[str, object], ...] = (
    ("worked-examples", worked_example_checks),
    ("irreducible-classification", irreducibility_checks),
    ("dimension-formulas", dimension_checks),
    ("geometric-oracle", oracle_checks),
    ("w-set-bijection", wset_checks),
    ("two-sided-order", two_sided_order_checks),
    ("monk-products", monk_checks),
    ("structural-invariants", structural_checks),
)


def format_result(result: CheckResult, index: int | None = None) -> str:
    tag = "PASS" if result.passed else "FAIL"
    label = f"criterion {index} ({result.name})" if index is not None else result.name
    return f"{tag} {label}: {result.detail} [{result.seconds:.2f}s]"


def run_all() -> list[CheckResult]:
    """Run every criterion in order and return the results."""
    return [check() for _, check in CRITERIA]
