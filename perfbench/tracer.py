"""Timing and counting wrappers installed around clanhess's public entry points.

Nothing under ``src/`` knows about this module.  ``install`` replaces each
traced function in every ``clanhess`` module namespace that binds it, since
``from .clans import statistics`` copies the binding and patching ``clans``
alone would miss the calls made from ``hessenberg`` or ``verify``.

A timed call records a span ``(id, parent_id, name, start, end)``; spans stay
in memory and ``Tracer.dump`` writes them out when the traced process ends.
Aggregates are exact for every call.  Only the first ``SPAN_CAP`` spans of
each name are kept, because hot entry points such as ``Permutation.__mul__``
run millions of times.  Self time is a span's duration minus the time its
child spans cover; it is computed on exit from the span stack, which is
exact for serial code.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter

SPAN_CAP = 2000  # spans kept per name


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child_seconds, span_id]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped: dict[str, int] = {}
        self.cells: dict[str, list] = {}  # bare call counters
        self._next_id = 0

    def enter(self) -> tuple[list, float]:
        self._next_id += 1
        frame = [0.0, self._next_id]
        self.stack.append(frame)
        return frame, clock()

    def exit(self, frame: list, start: float, name: str) -> None:
        end = clock()
        self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[0] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[0]
        if st[0] <= SPAN_CAP:
            self.spans.append(
                (frame[1], parent[1] if parent is not None else 0, name, start, end)
            )
        else:
            self.dropped[name] = self.dropped.get(name, 0) + 1

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def timed(self, fn, name: str, measure=None):
        """Wrap fn in a span; measure, if given, is called with every result."""
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            frame, start = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, start, name)
            if measure is not None:
                measure(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, key: str):
        """Wrap fn with a bare call counter: no span, no clock read."""
        cell = self.cells[key] = [0]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def flat(self) -> dict[str, float]:
        """Every aggregate as a flat metric dict: <span>_calls, <span>_s
        (self time), and the plain counters."""
        out: dict[str, float] = {}
        for name, (calls, _total, self_s) in self.stats.items():
            out[name + "_calls"] = calls
            out[name + "_s"] = self_s
        out.update(self.counts)
        for key, cell in self.cells.items():
            out[key] = cell[0]
        return out

    def dump(self, path: str, extra: dict) -> None:
        data = dict(extra)
        data["aggregates"] = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(self.stats.items())
        }
        data["counts"] = self.flat()
        data["spans_dropped"] = self.dropped
        data["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


# (module, attribute, span name, measured counter) for each timed entry point
TIMED = (
    ("clans", "enumerate_clans", "clans.enumerate", None),
    ("clans", "statistics", "clans.statistics", None),
    ("clans", "inclusion_leq", "clans.inclusion_leq", None),
    ("hessenberg", "orbit_in_hess", "hessenberg.orbit_in_hess", None),
    ("weak_order", "covers_from", "weak_order.covers_from", None),
    ("weak_order", "w_set", "weak_order.w_set", "weak_order.w_set_elements"),
    ("weak_order", "build_graph", "weak_order.build_graph", None),
    ("schubert", "monk_product", "schubert.monk_product", "schubert.monk_terms"),
    ("schubert", "brion_class", "schubert.brion_class", None),
    ("schubert", "product_oracle", "schubert.product_oracle", None),
    ("schubert", "expand_in_schubert_basis", "schubert.expand", None),
    ("flag_oracle", "geometric_membership", "flag_oracle.geometric_membership", None),
    ("flag_oracle", "integer_rank", "flag_oracle.integer_rank", None),
)

# lru_cache'd entry points, read through cache_info() instead of wrapped
CACHED = (
    ("schubert", "schubert_polynomial"),
    ("flag_oracle", "flag_representative"),
)


def _size(result) -> int:
    coeffs = getattr(result, "coeffs", None)
    return len(coeffs if coeffs is not None else result)


def _rebind(modules, orig, wrapped) -> int:
    bound = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)
                bound += 1
    return bound


def install(tracer: Tracer):
    """Wrap every traced entry point; return a function that reads the
    lru_cache hit and miss counts accumulated since install."""
    import clanhess  # noqa: F401  (imports every library module)
    import clanhess.cli  # noqa: F401

    modules = [m for k, m in sys.modules.items() if k == "clanhess" or k.startswith("clanhess.")]
    for modname, attr, name, counter in TIMED:
        orig = getattr(sys.modules["clanhess." + modname], attr)
        measure = None
        if counter is not None:
            measure = lambda result, key=counter: tracer.add(key, _size(result))
        if not _rebind(modules, orig, tracer.timed(orig, name, measure)):
            raise RuntimeError(f"no module binds clanhess.{modname}.{attr}")

    # hess_orbit_report: the first call per shape in a process builds the
    # inclusion poset (cold); later calls only query it (warm)
    orig_report = sys.modules["clanhess.hessenberg"].hess_orbit_report
    seen: set = set()

    def report(p, q, m):
        name = "hessenberg.report_warm" if (p, q) in seen else "hessenberg.report_cold"
        seen.add((p, q))
        frame, start = tracer.enter()
        try:
            return orig_report(p, q, m)
        finally:
            tracer.exit(frame, start, name)

    _rebind(modules, orig_report, report)

    from clanhess.clans import Clan
    from clanhess.perms import Permutation

    Clan.__init__ = tracer.counted(Clan.__init__, "clans.clan_inits")
    Clan.arcs = property(tracer.counted(Clan.arcs.fget, "clans.arcs_calls"))
    Permutation.__post_init__ = tracer.counted(Permutation.__post_init__, "perms.perm_inits")
    Permutation.__mul__ = tracer.timed(Permutation.__mul__, "perms.mul")

    caches = [
        (f"{modname}.{attr}", getattr(sys.modules["clanhess." + modname], attr))
        for modname, attr in CACHED
    ]
    start = {key: fn.cache_info() for key, fn in caches}

    def cache_counts() -> dict[str, int]:
        out = {}
        for key, fn in caches:
            info = fn.cache_info()
            out[key + "_hits"] = info.hits - start[key].hits
            out[key + "_misses"] = info.misses - start[key].misses
        return out

    return cache_counts
