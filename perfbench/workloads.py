"""The benchmark's in-process workloads.

Each workload function builds its inputs from a seed (the set-up) and
returns the body: library calls, each timed through ``Result.call``, then
checks of the outputs against facts that do not come from the timed code
path.  Canonical output lines are formed outside the timed calls; run.py
compares their sorted sha256 digest with the one recorded at the seed
commit (``expected.json``).

The seed only shuffles the op order, so the set of outputs, and with it the
digest, is the same for every seed.
"""

from __future__ import annotations

import functools
import hashlib
import random

import clanhess as ch
from refclock import clock

# (p, q) per workload: "full" is the measured shape, "tiny" the self-test one
SHAPES = {
    "hess-sweep": {"full": (5, 3), "tiny": (3, 2)},
    "wset-table": {"full": (5, 4), "tiny": (3, 3)},
    "monk-scan": {"full": (5, 3), "tiny": (3, 2)},
}


def class_of(wset):
    """The Schubert expansion brion_class builds from a W-set (every
    coefficient 1).  brion_class itself takes no memo, so calling it per
    clan would recompute each W-set from scratch; the workloads build the
    class from the shared memo instead.  The traced run spans this call as
    ``schubert.brion_class``."""
    return ch.SchubertExpansion(dict.fromkeys(wset, 1))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key(w) -> str:
    return ",".join(map(str, w.key))


class Result:
    """What one body run produced: timings, outputs and failures."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float, bool]] = []  # (start, end, is_op)
        self.lines: list[str] = []  # canonical outputs, one per op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, fn, *args, op: bool = True, **kwargs):
        """Time one library call; op=False keeps it out of the op latencies
        (it still counts in wall_s)."""
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.calls.append((t0, clock(), op))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def to_json(self, sampler) -> dict:
        norm = [(sampler.normalize(t0, t1), op) for t0, t1, op in self.calls]
        return {
            "wall_s": sum(d for d, _ in norm),
            "raw_wall_s": sum(t1 - t0 for t0, t1, _ in self.calls),
            "ops_ms": [d * 1e3 for d, op in norm if op],
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "digest": _sha("\n".join(sorted(self.lines))),
        }


def hess_sweep(seed: int, shape: str):
    """hess_orbit_report(p, q, m) for every Hessenberg vector m of length
    p + q.  The first op builds the inclusion poset (cold) and is left out
    of the op latencies; the rest are warm queries."""
    p, q = SHAPES["hess-sweep"][shape]
    vectors = list(ch.hessenberg_vectors(p + q))
    random.Random(seed).shuffle(vectors)

    def body(res: Result) -> None:
        render = functools.cache(str)  # reports share the poset's clans
        seen = []
        for k, m in enumerate(vectors):
            res.attempted += 1
            try:
                rep = res.call(ch.hess_orbit_report, p, q, m, op=k > 0)
            except Exception as exc:  # an op that raises is a failed op
                res.fail(f"m={m}: {exc!r}")
                continue
            contained = _sha(" ".join(sorted(map(render, rep.contained))))
            maximal = sorted(map(render, rep.maximal))
            witness = _key(rep.witness) if rep.witness is not None else "-"
            res.lines.append(
                f"{m} {len(rep.contained)} {contained} {maximal} {rep.irreducible} {witness}"
            )
            seen.append((m, rep.irreducible, rep.maximal, rep.witness))

        # irreducible <=> m = m(w) for a 231-avoiding w (classify_irreducibles
        # computes m(w) by pattern avoidance, not from the poset)
        expected = {m: w for w, m in ch.classify_irreducibles(p, q).items()}
        irreducible = 0
        for m, irr, maximal, witness in seen:
            w = expected.get(m)
            if irr != (w is not None):
                res.fail(f"m={m}: irreducible={irr}, expected {w is not None}")
            elif w is not None and (witness != w or maximal != (ch.gamma_w(w, p),)):
                res.fail(f"m={m}: component is not gamma_{_key(w)}")
            irreducible += irr
        res.attempted += 1
        if irreducible != ch.catalan(q):
            res.fail(f"{irreducible} irreducible vectors, expected Catalan({q})")

    return body


def wset_table(seed: int, shape: str):
    """w_set of every clan with one shared memo, in seed order, then the
    class of each clan from its W-set.  The class builds are the ops whose
    latency is reported: they are independent, while the W-set calls share
    the memo."""
    p, q = SHAPES["wset-table"][shape]
    order = list(range(ch.clan_count(p, q)))
    random.Random(seed).shuffle(order)

    def body(res: Result) -> None:
        clans = res.call(ch.enumerate_clans, p, q, op=False)
        memo: dict = {}
        wsets: dict = {}
        for i in order:
            res.attempted += 1
            try:
                wsets[i] = res.call(ch.w_set, clans[i], memo, op=False)
            except Exception as exc:
                res.fail(f"w_set({clans[i]}): {exc!r}")
        for i in order:
            if i not in wsets:
                continue
            cls = res.call(class_of, wsets[i])
            terms = sorted(_key(w) + ":" + str(c) for w, c in cls.coeffs.items())
            res.lines.append(f"{clans[i]} {' '.join(terms)}")

        index = {c: i for i, c in enumerate(clans)}
        for w in ch.symmetric_group(q):
            i = index[ch.gamma_w(w, p)]
            if i in wsets and wsets[i] != ch.w_set_via_bijection(w, p):
                res.fail(f"w_set(gamma_{_key(w)}) differs from the bijection image")

    return body


def monk_scan(seed: int, shape: str):
    """The ``scan multfree`` job in-process: the class of every clan, then
    monk_product(m, class, n) for m = 1..n-1, each checked for
    multiplicity-freeness.  The products, in seed order, are the ops."""
    p, q = SHAPES["monk-scan"][shape]
    n = p + q
    rng = random.Random(seed)
    order = list(range(ch.clan_count(p, q)))
    rng.shuffle(order)
    products = [(i, m) for i in order for m in range(1, n)]
    rng.shuffle(products)

    def body(res: Result) -> None:
        clans = res.call(ch.enumerate_clans, p, q, op=False)
        memo: dict = {}
        classes: dict = {}
        for i in order:
            try:
                classes[i] = res.call(class_of, res.call(ch.w_set, clans[i], memo, op=False), op=False)
            except Exception as exc:  # its products count as the failed ops
                classes[i] = exc
        for i, m in products:
            res.attempted += 1
            if isinstance(classes[i], Exception):
                res.fail(f"class of {clans[i]}: {classes[i]!r}")
                continue
            try:
                product = res.call(ch.monk_product, m, classes[i], n=n)
            except Exception as exc:
                res.fail(f"monk {m} at {clans[i]}: {exc!r}")
                continue
            coeffs = product.coeffs
            if any(c != 1 for c in coeffs.values()):
                res.fail(f"monk {m} at {clans[i]}: multiplicity >= 2")
            terms = " ".join(sorted(_key(w) + ":" + str(c) for w, c in coeffs.items()))
            res.lines.append(f"{clans[i]} {m} {len(coeffs)} {_sha(terms)}")

    return body


WORKLOADS = {
    "hess-sweep": hess_sweep,
    "wset-table": wset_table,
    "monk-scan": monk_scan,
}
