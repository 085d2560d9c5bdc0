"""The weak order on clans and the W-sets that expand orbit-closure classes.

Covers are generated by local moves on the charged-matching picture of a
clan, always at a pair of adjacent vertices (i, i+1):

* IA1 / IA2 -- switch the endpoint of a strand with an adjacent charge so
  that the strand gets longer;
* IB  -- turn two disjoint strands ending/starting at i, i+1 into a
  crossing;
* IC1 / IC2 -- uncross two crossing strands at consecutive left (IC1) or
  right (IC2) endpoints, producing a nested pair;
* II  -- replace adjacent opposite charges by a length-one strand.

At most one move applies at a given position pair.  A cover carries the
label s_i of the position where the move happened; several labels can point
at the same target clan.  Following labels along any path up to the dense
clan and multiplying the corresponding simple reflections yields the W-set
of a clan, whose elements index the Schubert classes in the expansion of
the orbit-closure cohomology class.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import NamedTuple

from .clans import (
    Clan,
    dense_clan,
    enumerate_clans,
    gamma_w,
    interval_clans,
    render_clan,
)
from .perms import Permutation, _from_key, factorization_pairs, phi, symmetric_group, trim_fixed_points

__all__ = [
    "LabeledCover",
    "WeakOrderGraph",
    "covers_from",
    "build_graph",
    "w_set",
    "w_set_via_bijection",
    "factorization_bijection",
    "interval_iso_check",
    "graph_to_dot",
    "graph_to_json",
]

MOVE_TYPES = ("IA1", "IA2", "IB", "IC1", "IC2", "II")


class LabeledCover(NamedTuple):
    """A covering relation source < target with its move labels.

    labels[k] is a position i, meaning the move happened at (i, i+1) and
    the cover is labeled by the simple reflection s_i; move_types[k] names
    the move that produced it.
    """

    source: Clan
    target: Clan
    labels: tuple[int, ...]
    move_types: tuple[str, ...]


def _moves(symbols: tuple):
    """Yield (target, i, move_type) for every move at positions (i, i+1).

    symbols is a canonical clan symbol tuple and so is each target.  The
    work runs on the mate array: mate[a] is the 0-indexed partner of a
    paired position and -1 at a sign.  Every move but II and IC1 swaps the
    symbols at i and i+1 and keeps first occurrences in order; IC1 swaps
    the far ends instead; II inserts a new label at i.
    """
    n = len(symbols)
    mate = [-1] * n
    first: dict[int, int] = {}
    for pos, c in enumerate(symbols):
        if isinstance(c, int):
            if c in first:
                j = first[c]
                mate[j], mate[pos] = pos, j
            else:
                first[c] = pos
    for a in range(n - 1):
        b = a + 1
        j, k = mate[a], mate[b]
        if j < 0 and k < 0:  # two signs
            if symbols[a] == symbols[b]:
                continue
            # canonical labels: the ones first seen before a are 1..label-1
            label = max((c for c in symbols[:a] if isinstance(c, int)), default=0) + 1
            out = [c + 1 if isinstance(c, int) and c >= label else c for c in symbols]
            out[a] = out[b] = label
            yield tuple(out), b, "II"
            continue
        if j < 0:  # a sign, then an arc end at b
            if k < b:
                continue
            move = "IA2"
        elif k < 0:  # an arc end at a, then a sign
            if j > a:
                continue
            move = "IA1"
        elif j < a < b < k:
            move = "IB"
        elif j < k < a:
            move = "IC2"
        elif b < j < k:
            out = list(symbols)
            out[j], out[k] = out[k], out[j]
            yield tuple(out), b, "IC1"
            continue
        else:  # the arc (a, b) itself, or nested or crossing the wrong way
            continue
        out = list(symbols)
        out[a], out[b] = out[b], out[a]
        yield tuple(out), b, move


def covers_from(clan: Clan) -> tuple[LabeledCover, ...]:
    """All weak-order covers of a clan, merged by target."""
    by_target: dict[tuple, list[tuple[int, str]]] = {}
    for target, i, move in _moves(clan.symbols):
        by_target.setdefault(target, []).append((i, move))
    covers = [
        LabeledCover(
            clan,
            Clan(target),
            tuple(i for i, _ in moves),
            tuple(mv for _, mv in moves),
        )
        for target, moves in by_target.items()
    ]
    covers.sort(key=lambda cov: render_clan(cov.target))
    return tuple(covers)


class WeakOrderGraph(NamedTuple):
    """The labeled cover digraph of the weak order on (p,q)-clans."""

    p: int
    q: int
    interval_only: bool
    nodes: tuple[Clan, ...]
    covers: tuple[LabeledCover, ...]


def build_graph(p: int, q: int, interval_only: bool = False) -> WeakOrderGraph:
    """Cover digraph on all (p,q)-clans, or on the q! interval clans only."""
    nodes = interval_clans(p, q) if interval_only else enumerate_clans(p, q)
    node_set = set(nodes)
    covers: list[LabeledCover] = []
    for clan in nodes:
        for cov in covers_from(clan):
            if cov.target not in node_set:
                raise RuntimeError(
                    f"cover leaves the node set: {clan} -> {cov.target}"
                )
            covers.append(cov)
    return WeakOrderGraph(p, q, interval_only, nodes, tuple(covers))


# n = p + q up to which W-set elements fit bytes one-line notation
W_SET_MAX_N = 254
# _SWAP[i] is the bytes.translate table that swaps the values i and i+1
_SWAP = [bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i))) for i in range(W_SET_MAX_N)]


def w_set(clan: Clan, _cache: dict | None = None) -> frozenset[Permutation]:
    """All products s_{i1} * ... * s_{il} over label sequences of paths from
    the clan up to the dense clan.

    The recursion runs on clan symbol tuples and keeps each W-set element
    as the bytes one-line notation of S_{p+q}, so ``s_i * x`` is
    ``x.translate(_SWAP[i])`` and a whole set is mapped without a Python
    frame per element.  Each distinct element is built as a trimmed
    ``Permutation`` once per shape, and every returned set shares those
    objects.  ``_cache`` is an opaque memo that calls on clans of any shape
    may share; it holds the bytes sets by symbol tuple and, per shape, the
    dense clan and the table from elements to their ``Permutation``s, never
    the returned frozensets.  p + q above ``W_SET_MAX_N`` is a ValueError.

    >>> sorted(w.reduced_word() for w in w_set(Clan("+-")))
    [(1,)]
    """
    n = clan.n
    if n > W_SET_MAX_N:
        raise ValueError(f"w_set supports p + q <= {W_SET_MAX_N}, got p + q = {n}")
    cache: dict = _cache if _cache is not None else {}
    # never a symbol tuple, whose entries are ints and signs
    shape_key = ("shape", clan.p, clan.q)
    shape = cache.get(shape_key)
    identity = bytes(range(1, n + 1))
    if shape is None:
        # the dense clan's symbols; one bytes object per distinct element,
        # which all the memo's sets share; each returned element's Permutation
        shape = (dense_clan(clan.p, clan.q).symbols, {}, {})
        cache[shape_key] = shape
    dense, distinct, table = shape

    def rec(symbols: tuple) -> frozenset[bytes]:
        got = cache.get(symbols)
        if got is not None:
            return got
        acc: set[bytes] = set()
        for target, i, _ in _moves(symbols):
            acc.update(map(bytes.translate, rec(target), repeat(_SWAP[i])))
        if acc:
            result = frozenset(map(distinct.setdefault, acc, acc))
        elif symbols == dense:
            result = frozenset({identity})
        else:
            raise RuntimeError(f"non-dense clan with no covers: {Clan(symbols)}")
        cache[symbols] = result
        return result

    elements = rec(clan.symbols)
    for x in elements.difference(table):
        # x is a translate of the identity, so it needs no validation
        table[x] = _from_key(trim_fixed_points(x))
    return frozenset(map(table.__getitem__, elements))


def factorization_bijection(w: Permutation, p: int) -> dict[tuple[Permutation, Permutation], Permutation]:
    """The map (u, v) -> u * phi(v), phi in S_{p+q}, on the length-additive
    factorizations w*y0 = u*v; its image is the W-set of gamma_w."""
    q = w.degree
    if not 1 <= q <= p:
        raise ValueError(f"need p >= q = deg(w) >= 1, got p={p}, q={q}")
    return {(u, v): u * phi(v, p + q) for u, v in factorization_pairs(w * Permutation.longest(q))}


def w_set_via_bijection(w: Permutation, p: int) -> frozenset[Permutation]:
    """W-set of gamma_w as the image of ``factorization_bijection``."""
    return frozenset(factorization_bijection(w, p).values())


def interval_iso_check(p: int, q: int) -> bool:
    """Verify that w -> gamma_w is an isomorphism from the two-sided weak
    order on S_q onto the interval clans, cover for cover, with left covers
    by s_i turning into IC1 moves labeled s_i and right covers by s_i into
    IC2 moves labeled s_{i+p}."""
    for w in symmetric_group(q):
        expected: dict[Clan, set[tuple[int, str]]] = {}
        inv = w.inverse()
        for i in range(1, q):
            if inv(i) < inv(i + 1):
                target = gamma_w(Permutation.simple(i, q) * w, p)
                expected.setdefault(target, set()).add((i, "IC1"))
            if w(i) < w(i + 1):
                target = gamma_w(w * Permutation.simple(i, q), p)
                expected.setdefault(target, set()).add((i + p, "IC2"))
        got: dict[Clan, set[tuple[int, str]]] = {}
        for cov in covers_from(gamma_w(w, p)):
            got[cov.target] = set(zip(cov.labels, cov.move_types))
        if got != expected:
            return False
    return True


def graph_to_dot(graph: WeakOrderGraph) -> str:
    lines = ["digraph weak_order {"]
    for node in graph.nodes:
        lines.append(f'  "{render_clan(node)}";')
    for cov in graph.covers:
        label = ",".join(f"s{i}" for i in cov.labels)
        lines.append(
            f'  "{render_clan(cov.source)}" -> "{render_clan(cov.target)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(graph: WeakOrderGraph) -> str:
    data = {
        "p": graph.p,
        "q": graph.q,
        "interval": graph.interval_only,
        "nodes": [render_clan(c) for c in graph.nodes],
        "covers": [
            {
                "source": render_clan(cov.source),
                "target": render_clan(cov.target),
                "labels": list(cov.labels),
                "move_types": list(cov.move_types),
            }
            for cov in graph.covers
        ],
    }
    return json.dumps(data, indent=2)

