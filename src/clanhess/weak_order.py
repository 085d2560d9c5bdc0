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
import re
from typing import NamedTuple

from .clans import (
    Clan,
    _check_degree,
    _from_symbols,
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


def _moves_by_target(symbols: tuple) -> dict[tuple, list[tuple[int, str]]]:
    """The moves of ``_moves(symbols)`` grouped by target symbol tuple: the
    (i, move_type) pairs of each target, in the order of ``_moves``."""
    by_target: dict[tuple, list[tuple[int, str]]] = {}
    for target, i, move in _moves(symbols):
        by_target.setdefault(target, []).append((i, move))
    return by_target


def _covers(clan: Clan, target_of, pairs: dict) -> list[LabeledCover]:
    """The covers of a clan merged by target, sorted by target name;
    ``target_of`` maps each target's symbol tuple to its ``Clan``, and
    ``pairs`` holds one (labels, move_types) tuple pair per distinct pair,
    for every cover built with it to share."""
    covers = []
    for target, moves in _moves_by_target(clan.symbols).items():
        # zip(*moves) splits the (i, move) pairs into the labels and the move types
        pair = tuple(zip(*moves))
        covers.append(LabeledCover(clan, target_of(target), *pairs.setdefault(pair, pair)))
    covers.sort(key=lambda cov: render_clan(cov.target))
    return covers


def covers_from(clan: Clan) -> tuple[LabeledCover, ...]:
    """All weak-order covers of a clan, merged by target."""
    p, q = clan.p, clan.q
    # each target is canonical with the clan's signature: no validation needed
    return tuple(_covers(clan, lambda target: _from_symbols(target, p, q), {}))


class WeakOrderGraph(NamedTuple):
    """The labeled cover digraph of the weak order on (p,q)-clans."""

    p: int
    q: int
    interval_only: bool
    nodes: tuple[Clan, ...]
    covers: tuple[LabeledCover, ...]


def build_graph(p: int, q: int, interval_only: bool = False) -> WeakOrderGraph:
    """Cover digraph on all (p,q)-clans, or on the q! interval clans only.

    Every cover's source and target are the node objects themselves, and
    covers with equal labels and move types share those two tuples."""
    nodes = interval_clans(p, q) if interval_only else enumerate_clans(p, q)
    by_symbols = {clan.symbols: clan for clan in nodes}
    pairs: dict = {}  # 47 distinct (labels, move_types) pairs at (4,4), 72 at (5,5)
    covers: list[LabeledCover] = []
    for clan in nodes:
        try:
            covers += _covers(clan, by_symbols.__getitem__, pairs)
        except KeyError as exc:
            target = _from_symbols(exc.args[0], p, q)
            raise RuntimeError(f"cover leaves the node set: {clan} -> {target}") from None
    return WeakOrderGraph(p, q, interval_only, nodes, tuple(covers))


# n = p + q up to which W-set elements fit bytes one-line notation
W_SET_MAX_N = 254
# _SWAP[i] is the bytes.translate table that swaps the values i and i+1
_SWAP = [bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i))) for i in range(W_SET_MAX_N)]
_SPLIT: dict = {}  # n -> findall of a blob's n-byte words; re.S, or "." would skip the byte 10


def w_set(clan: Clan, _cache: dict | None = None) -> frozenset[Permutation]:
    """All products s_{i1} * ... * s_{il} over label sequences of paths from
    the clan up to the dense clan.

    The recursion runs on clan symbol tuples and keeps each W-set as one
    ``bytes`` blob: its distinct elements in the n-byte one-line notation
    of S_n, n = p + q, concatenated.  So ``s_i * W`` is one
    ``blob.translate(_SWAP[i])`` for a whole set, and the union over a
    clan's covers is a set of the words split back out of the translated
    blobs, joined into a new blob.  ``_cache`` is an opaque memo that calls
    on clans of any shape may share: it holds the blobs by clan symbol
    tuple, plus one table from word to ``Permutation`` for all shapes
    (under the key None), never the returned frozensets.  Each distinct
    element is built as a trimmed ``Permutation`` once, and every returned
    set shares those objects; words of different n differ in length, so
    they never collide.  p + q above ``W_SET_MAX_N`` is a ValueError.

    >>> sorted(w.reduced_word() for w in w_set(Clan("+-")))
    [(1,)]
    """
    n = clan.n
    if n > W_SET_MAX_N:
        raise ValueError(f"w_set supports p + q <= {W_SET_MAX_N}, got p + q = {n}")
    cache: dict = _cache if _cache is not None else {}
    table = cache.setdefault(None, {})
    split = _SPLIT.get(n) or _SPLIT.setdefault(n, re.compile(b".{%d}" % n, re.S).findall)

    def rec(symbols: tuple) -> bytes:
        got = cache.get(symbols)
        if got is not None:
            return got
        acc: set[bytes] = set()
        for target, i, _ in _moves(symbols):
            acc.update(split(rec(target).translate(_SWAP[i])))
        if acc:
            result = b"".join(acc)
        elif symbols == dense_clan(clan.p, clan.q).symbols:
            result = bytes(range(1, n + 1))
        else:
            raise RuntimeError(f"non-dense clan with no covers: {Clan(symbols)}")
        cache[symbols] = result
        return result

    words = split(rec(clan.symbols))
    for x in set(words).difference(table):
        # x is a translate of the identity, so it needs no validation
        table[x] = _from_key(trim_fixed_points(x))
    return frozenset(map(table.__getitem__, words))


def factorization_bijection(w: Permutation, p: int) -> dict[tuple[Permutation, Permutation], Permutation]:
    """The map (u, v) -> u * phi(v), phi in S_{p+q}, on the length-additive
    factorizations w*y0 = u*v; its image is the W-set of gamma_w."""
    p, q = _check_degree(w, p)
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


def _quoted_names(graph: WeakOrderGraph) -> dict[tuple, str]:
    """``json.dumps(render_clan(node))`` by symbol tuple, once per node.

    A clan name holds only digits, signs and spaces, so the JSON string is
    also the name DOT quotes."""
    return {node.symbols: json.dumps(render_clan(node)) for node in graph.nodes}


def graph_to_dot(graph: WeakOrderGraph) -> str:
    names = _quoted_names(graph)
    lines = ["digraph weak_order {"]
    for node in graph.nodes:
        lines.append(f"  {names[node.symbols]};")
    for cov in graph.covers:
        label = ",".join(f"s{i}" for i in cov.labels)
        lines.append(f'  {names[cov.source.symbols]} -> {names[cov.target.symbols]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def _json_array(items: list[str], depth: int, head: str = "", tail: str = "") -> str:
    """head, a JSON array of the encoded items laid out as ``indent=2``
    lays it out at the given nesting depth, and tail, in one join.  The
    first and last items take head and tail in place."""
    if not items:
        return head + "[]" + tail
    pad = "\n" + "  " * depth
    items[0] = head + "[" + pad + "  " + items[0]
    items[-1] += pad + "]" + tail
    return ("," + pad + "  ").join(items)


def graph_to_json(graph: WeakOrderGraph) -> str:
    """The graph as JSON text, exactly ``json.dumps(data, indent=2)`` of

        data = {"p": p, "q": q, "interval": interval_only,
                "nodes": [render_clan(node), ...],
                "covers": [{"source": render_clan(source),
                            "target": render_clan(target),
                            "labels": [i, ...],
                            "move_types": [move_type, ...]}, ...]}

    with nodes and covers in graph order, and every cover endpoint a node.
    The text is written from pieces, not by ``json.dumps``, whose
    ``indent`` forces the pure-Python encoder and a chunk string per token:
    each node name is encoded once, and so is each distinct pair of labels
    and move types (72 at (5,5)); each cover is one fixed-layout block; one
    join makes the text.
    """
    names = _quoted_names(graph)
    # the end of a cover's block, by (labels, move_types)
    ends: dict[tuple, str] = {}
    blocks = []
    for source, target, labels, move_types in graph.covers:
        end = ends.get((labels, move_types))
        if end is None:
            end = ends[labels, move_types] = (
                f',\n      "labels": {_json_array(list(map(json.dumps, labels)), 3)},'
                f'\n      "move_types": {_json_array(list(map(json.dumps, move_types)), 3)}\n    }}'
            )
        blocks.append(f'{{\n      "source": {names[source.symbols]},\n      "target": {names[target.symbols]}{end}')
    head = (
        f'{{\n  "p": {json.dumps(graph.p)},\n  "q": {json.dumps(graph.q)},'
        f'\n  "interval": {json.dumps(graph.interval_only)},\n  "nodes": '
    )
    head = _json_array([names[node.symbols] for node in graph.nodes], 1, head, ',\n  "covers": ')
    return _json_array(blocks, 1, head, "\n}")
