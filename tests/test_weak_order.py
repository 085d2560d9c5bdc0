"""Weak order moves, cover graphs, and W-sets.

The small graphs asserted here were enumerated by hand directly from the
move definitions; W-set values were computed by hand from the recursion and
cross-checked against the length-additive-factorization description.
"""

import json

import pytest

from clanhess.clans import (
    Clan,
    clan_length,
    dense_clan,
    enumerate_clans,
    gamma_w,
    inclusion_leq,
    interval_clans,
    orbit_dimension,
    parse_clan,
    render_clan,
)
from clanhess.perms import Permutation, factorization_pairs, parse_permutation, phi, symmetric_group
from clanhess.weak_order import (
    MOVE_TYPES,
    LabeledCover,
    build_graph,
    covers_from,
    factorization_bijection,
    graph_to_dot,
    graph_to_json,
    interval_iso_check,
    w_set,
    w_set_via_bijection,
)

SHAPES_UP_TO = {
    top: [(n - q, q) for n in range(2, top + 1) for q in range(1, n // 2 + 1)]
    for top in (7, 8)
}


def words(ws):
    return sorted(w.reduced_word() for w in ws)


def _move_at(partner, charge, i):
    """Apply the unique move at positions (i, i+1) if one exists, on the
    arc set and the charges.  Returns (new_arcs, new_charges, move_type) or
    None.  partner maps each matched position to its mate; charge maps
    signed positions to +/-."""
    a, b = i, i + 1
    arcs = {tuple(sorted((x, y))) for x, y in partner.items() if x < y}

    def rebuilt(drop, add, charge_updates):
        new_arcs = (arcs - set(drop)) | set(add)
        new_charge = {pos: sgn for pos, sgn in charge.items() if pos not in (a, b)}
        new_charge.update(charge_updates)
        return new_arcs, new_charge

    if a in charge and b in charge:
        if charge[a] != charge[b]:
            return rebuilt((), [(a, b)], {}) + ("II",)
        return None
    if a in partner and b in charge:
        j = partner[a]
        if j < a:
            return rebuilt([(j, a)], [(j, b)], {a: charge[b]}) + ("IA1",)
        return None
    if a in charge and b in partner:
        k = partner[b]
        if k > b:
            return rebuilt([(b, k)], [(a, k)], {b: charge[a]}) + ("IA2",)
        return None
    if a in partner and b in partner and partner[a] != b:
        j, k = partner[a], partner[b]
        if j < a and k > b:
            return rebuilt([(j, a), (b, k)], [(j, b), (a, k)], {}) + ("IB",)
        if j > b and k > b and j < k:
            return rebuilt([(a, j), (b, k)], [(a, k), (b, j)], {}) + ("IC1",)
        if j < a and k < a and j < k:
            return rebuilt([(j, a), (k, b)], [(k, a), (j, b)], {}) + ("IC2",)
        return None
    return None


def covers_oracle(clan):
    """The covers of a clan, one move at a time on the charged matching."""
    partner = {}
    for (i, j) in clan.arcs:
        partner[i] = j
        partner[j] = i
    charge = {pos: c for pos, c in enumerate(clan.symbols, 1) if not isinstance(c, int)}
    by_target = {}
    for i in range(1, clan.n):
        hit = _move_at(partner, charge, i)
        if hit is None:
            continue
        new_arcs, new_charge, move = hit
        symbols = [None] * clan.n
        for pos, sgn in new_charge.items():
            symbols[pos - 1] = sgn
        for label, (x, y) in enumerate(sorted(new_arcs), 1):
            symbols[x - 1] = symbols[y - 1] = label
        by_target.setdefault(Clan(symbols), []).append((i, move))
    covers = []
    for target in sorted(by_target, key=render_clan):
        moves = sorted(by_target[target])
        covers.append(
            LabeledCover(
                clan,
                target,
                tuple(i for i, _ in moves),
                tuple(mv for _, mv in moves),
            )
        )
    return tuple(covers)


def w_set_oracle(clan, cache):
    """The W-set recursion on Permutation products over the oracle covers."""
    got = cache.get(clan)
    if got is not None:
        return got
    covers = covers_oracle(clan)
    if not covers:
        assert clan == dense_clan(clan.p, clan.q)
        # the identity in trimmed one-line notation, as w_set builds it
        result = frozenset({Permutation(())})
    else:
        acc = set()
        for cov in covers:
            sub = w_set_oracle(cov.target, cache)
            for i in cov.labels:
                acc.update(Permutation.simple(i) * x for x in sub)
        result = frozenset(acc)
    cache[clan] = result
    return result


@pytest.mark.parametrize("p,q", SHAPES_UP_TO[8])
def test_covers_match_the_oracle(p, q):
    for clan in enumerate_clans(p, q):
        assert covers_from(clan) == covers_oracle(clan)


@pytest.mark.parametrize("p,q", SHAPES_UP_TO[7])
def test_w_sets_match_the_oracle(p, q):
    cache, oracle_cache = {}, {}
    for clan in enumerate_clans(p, q):
        got = w_set(clan, cache)
        expected = w_set_oracle(clan, oracle_cache)
        assert got == expected
        # the elements also carry the oracle's one-line notation
        assert sorted(x.images for x in got) == sorted(x.images for x in expected)


def test_one_memo_shares_equal_elements():
    cache = {}
    seen = {}
    for clan in enumerate_clans(3, 2):
        for x in w_set(clan, cache):
            assert seen.setdefault(x, x) is x


def test_one_memo_serves_two_shapes_of_equal_size():
    shared = {}
    for p, q in [(3, 2), (4, 1), (3, 2)]:
        alone = {}
        for clan in enumerate_clans(p, q):
            got, expected = w_set(clan, shared), w_set(clan, alone)
            assert got == expected
            assert sorted(x.images for x in got) == sorted(x.images for x in expected)


def test_w_set_size_envelope():
    # the bytes one-line notation holds n <= 254, checked before any work
    top = dense_clan(127, 127)
    assert w_set(top) == {Permutation.identity(1)}
    with pytest.raises(ValueError, match=r"p \+ q <= 254, got p \+ q = 256"):
        w_set(parse_clan("+" * 128 + "-" * 128))


def cover_map(clan):
    return {
        render_clan(c.target): (c.labels, c.move_types) for c in covers_from(clan)
    }


def test_graph_1_1():
    graph = build_graph(1, 1)
    assert [render_clan(c) for c in graph.nodes] == ["+-", "-+", "11"]
    assert cover_map(parse_clan("+-")) == {"11": ((1,), ("II",))}
    assert cover_map(parse_clan("-+")) == {"11": ((1,), ("II",))}
    assert cover_map(parse_clan("11")) == {}


def test_graph_2_1():
    graph = build_graph(2, 1)
    assert len(graph.nodes) == 6
    assert cover_map(parse_clan("++-")) == {"+11": ((2,), ("II",))}
    assert cover_map(parse_clan("+-+")) == {
        "11+": ((1,), ("II",)),
        "+11": ((2,), ("II",)),
    }
    assert cover_map(parse_clan("-++")) == {"11+": ((1,), ("II",))}
    assert cover_map(parse_clan("11+")) == {"1+1": ((2,), ("IA1",))}
    assert cover_map(parse_clan("+11")) == {"1+1": ((1,), ("IA2",))}
    assert cover_map(parse_clan("1+1")) == {}


@pytest.mark.parametrize("interval_only", [False, True])
def test_graph_covers_cannot_be_changed(interval_only):
    graph = build_graph(2, 1, interval_only)
    assert isinstance(graph.covers, tuple)
    with pytest.raises(AttributeError):
        graph.covers.append(None)


def test_covers_of_gamma_51324():
    """The interval clan of w = 51324 at p = 6 has exactly the four covers
    coming from the weak-order covers of w itself."""
    gamma = gamma_w(parse_permutation("51324"), 6)
    assert render_clan(gamma) == "12345+51324"
    expected = {
        "12345+52314": ((1,), ("IC1",)),  # s1*w, values 1,2 swapped
        "12345+51423": ((3,), ("IC1",)),  # s3*w
        "12345+53124": ((8,), ("IC2",)),  # w*s2, positions 2,3 swapped
        "12345+51342": ((10,), ("IC2",)),  # w*s4
    }
    assert cover_map(gamma) == expected


def test_interval_graph_3_3_figure():
    """The full labeled cover graph on the six interval clans at p = q = 3."""
    graph = build_graph(3, 3, interval_only=True)
    assert len(graph.nodes) == 6
    got = {
        (render_clan(c.source), render_clan(c.target)): c.labels
        for c in graph.covers
    }
    assert got == {
        ("123123", "123213"): (1, 4),
        ("123123", "123132"): (2, 5),
        ("123213", "123312"): (2,),
        ("123213", "123231"): (5,),
        ("123132", "123231"): (1,),
        ("123132", "123312"): (4,),
        ("123231", "123321"): (2, 4),
        ("123312", "123321"): (1, 5),
    }
    assert all(set(c.move_types) <= {"IC1", "IC2"} for c in graph.covers)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
def test_interval_isomorphism(p, q):
    assert interval_iso_check(p, q)


def test_w_set_frozen_values():
    assert words(w_set(parse_clan("11"))) == [()]
    assert words(w_set(parse_clan("+-"))) == [(1,)]
    assert words(w_set(parse_clan("+-+"))) == [(1, 2), (2, 1)]
    assert words(w_set(parse_clan("++-"))) == [(2, 1)]
    assert words(w_set(parse_clan("-++"))) == [(1, 2)]

    w213 = w_set(gamma_w(parse_permutation("213"), 3))
    assert w213 == {
        Permutation.from_word((2, 1)),
        Permutation.from_word((2, 5)),
        Permutation.from_word((5, 4)),
    }

    w123 = w_set(gamma_w(parse_permutation("123"), 3))
    assert w123 == {
        Permutation.from_word((1, 2, 1)),
        Permutation.from_word((4, 5, 4)),
        Permutation.from_word((1, 2, 5)),
        Permutation.from_word((2, 1, 4)),
        Permutation.from_word((1, 5, 4)),
        Permutation.from_word((2, 4, 5)),
    }

    w3214 = w_set(gamma_w(parse_permutation("3214"), 4))
    assert w3214 == {
        Permutation.from_word((3, 2, 1)),
        Permutation.from_word((3, 2, 7)),
        Permutation.from_word((3, 7, 6)),
        Permutation.from_word((7, 6, 5)),
    }


@pytest.mark.parametrize("q,p", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_w_set_matches_factorization_description(q, p):
    cache = {}
    for w in symmetric_group(q):
        assert w_set(gamma_w(w, p), cache) == w_set_via_bijection(w, p)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_w_set_via_bijection_rejects_p_below_degree(p):
    # gamma_w, whose W-set this is, needs p >= deg(w) >= 1 as well
    for function in (w_set_via_bijection, factorization_bijection):
        with pytest.raises(ValueError, match=f"need p >= q = deg\\(w\\) >= 1, got p={p}, q=3"):
            function(Permutation((1, 2, 3)), p)


@pytest.mark.parametrize("q,p", [(q, p) for q in range(1, 5) for p in range(q, q + 3)])
def test_factorization_bijection_is_injective_on_the_factorizations(q, p):
    for w in symmetric_group(q):
        bijection = factorization_bijection(w, p)
        assert set(bijection) == factorization_pairs(w * Permutation.longest(q))
        for (u, v), x in bijection.items():
            assert x == u * phi(v, p + q)
        assert len(set(bijection.values())) == len(bijection)


def test_w_set_elements_have_codimension_length():
    """Every W-set element is reduced of length = codim of the orbit."""
    for p in range(1, 5):
        for q in range(1, p + 1):
            if p + q > 6:
                continue
            cache = {}
            top = p + q
            for clan in enumerate_clans(p, q):
                codim = top * (top - 1) // 2 - orbit_dimension(clan)
                ws = w_set(clan, cache)
                assert ws
                assert all(x.length() == codim for x in ws)


def test_covers_step_dimension_and_refine_inclusion():
    for p in range(1, 5):
        for q in range(1, p + 1):
            if p + q > 6:
                continue
            for clan in enumerate_clans(p, q):
                for cov in covers_from(clan):
                    assert inclusion_leq(cov.source, cov.target)
                    assert orbit_dimension(cov.target) == orbit_dimension(cov.source) + 1
                    assert clan_length(cov.target) == clan_length(cov.source) + 1
                    assert cov.labels == tuple(sorted(set(cov.labels)))
                    assert len(cov.labels) == len(cov.move_types)
                    assert set(cov.move_types) <= set(MOVE_TYPES)


def test_unique_sink_and_reachability():
    for p, q in [(3, 3), (4, 3)]:
        graph = build_graph(p, q)
        sources = {cov.source for cov in graph.covers}
        sinks = [c for c in graph.nodes if c not in sources]
        assert sinks == [dense_clan(p, q)]
        up = {}
        for cov in graph.covers:
            up.setdefault(cov.source, []).append(cov.target)
        top = dense_clan(p, q)
        for clan in graph.nodes:
            seen = {clan}
            frontier = [clan]
            while frontier:
                nxt = []
                for c in frontier:
                    for t in up.get(c, ()):
                        if t not in seen:
                            seen.add(t)
                            nxt.append(t)
                frontier = nxt
            assert top in seen


def test_interval_graph_nodes_are_interval_clans():
    graph = build_graph(3, 2, interval_only=True)
    assert graph.nodes == interval_clans(3, 2)
    assert all(
        {cov.source, cov.target} <= set(graph.nodes) for cov in graph.covers
    )


def test_non_dense_sink_is_an_error(monkeypatch):
    # a fake cache entry cannot rescue a coverless non-dense clan, so
    # exercise the guard directly on a clan whose moves are suppressed
    from clanhess import weak_order

    monkeypatch.setattr(weak_order, "_moves", lambda symbols: iter(()))
    with pytest.raises(RuntimeError, match="non-dense clan with no covers"):
        weak_order.w_set(Clan("+-"))


def test_graph_exports():
    graph = build_graph(1, 1)
    dot = graph_to_dot(graph)
    assert '"+-" -> "11" [label="s1"];' in dot
    assert dot.startswith("digraph weak_order {")
    data = json.loads(graph_to_json(graph))
    assert data["p"] == 1 and data["q"] == 1
    assert data["nodes"] == ["+-", "-+", "11"]
    assert {
        (c["source"], c["target"], tuple(c["labels"]), tuple(c["move_types"]))
        for c in data["covers"]
    } == {("+-", "11", (1,), ("II",)), ("-+", "11", (1,), ("II",))}
