"""The bitmask inclusion-poset engine against the pairwise oracles."""

import functools
import itertools
import operator
import random

import pytest

from clanhess import clans as clans_mod
from clanhess import verify
from clanhess.clans import Clan, enumerate_clans, inclusion_leq, interval_clans, statistics
from clanhess.hessenberg import hess_orbit_report, hessenberg_vectors, orbit_in_hess
from clanhess.poset import InclusionPoset, _below, _key_columns, inclusion_poset, members

SHAPES_UP_TO_6 = [(n - q, q) for n in range(2, 7) for q in range(1, n // 2 + 1)]
SHAPES_UP_TO_7 = [(n - q, q) for n in range(2, 8) for q in range(1, n // 2 + 1)]
SHAPES_UP_TO_8 = [(n - q, q) for n in range(2, 9) for q in range(1, n // 2 + 1)]
SHAPES_UP_TO_9 = [(n - q, q) for n in range(2, 10) for q in range(1, n // 2 + 1)]


@pytest.fixture
def cached_statistics(monkeypatch):
    """inclusion_leq recomputes both statistics on every call; memoize them
    so that all-pairs comparisons stay fast.  The comparison is unchanged."""
    monkeypatch.setattr(clans_mod, "statistics", functools.cache(clans_mod.statistics))


def _leq_up_sets(nodes):
    """up[i] has bit j set iff inclusion_leq(nodes[i], nodes[j]), pair by pair."""
    return [sum(1 << j for j, b in enumerate(nodes) if inclusion_leq(a, b)) for a in nodes]


def _inclusion_hasse(nodes):
    """The transitive reduction of inclusion_leq on nodes, pair by pair."""
    size = len(nodes)
    up = _leq_up_sets(nodes)
    down = [0] * size
    for i in range(size):
        for j in range(size):
            if (up[j] >> i) & 1:
                down[i] |= 1 << j
    covers = []
    for i in range(size):
        rest = up[i] & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if up[i] & down[j] == (1 << i) | (1 << j):
                covers.append((nodes[i], nodes[j]))
    return covers


def test_members():
    assert members(0) == []
    assert members(1) == [0]
    assert members((1 << 70) | 0b101) == [0, 2, 70]
    with pytest.raises(ValueError, match="nonnegative"):
        members(-5)


# 6 and 26 clans: neither family fills a whole number of bytes
@pytest.mark.parametrize("p,q", [(2, 1), (3, 2)])
def test_select_reads_the_clans_of_members(p, q):
    poset = inclusion_poset(p, q)
    size = len(poset.clans)
    assert size % 8
    rng = random.Random(size)
    masks = [0, poset.full, 1 << (size - 1)] + [rng.getrandbits(size) for _ in range(200)]
    for mask in masks:
        assert poset.select(mask) == tuple(poset.clans[i] for i in members(mask))


@pytest.mark.parametrize("mask", [-1, -5, 1 << 6, (1 << 40) | 1])
def test_masks_outside_the_family_are_rejected(mask):
    poset = inclusion_poset(2, 1)
    assert len(poset.clans) == 6
    with pytest.raises(ValueError, match="family of 6 clans"):
        poset.select(mask)
    with pytest.raises(ValueError, match="family of 6 clans"):
        poset.maximal(mask)
    with pytest.raises(ValueError, match="family of 6 clans"):
        poset.top(mask)


class _Index:
    """An integer that is not an int: it converts through operator.index only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("mask", [1.0, True, False, "1", None])
def test_a_mask_is_an_int_and_never_a_bool(mask):
    poset = inclusion_poset(1, 1)
    for method in (poset.select, poset.maximal, poset.top):
        with pytest.raises(ValueError, match="family of 3 clans"):
            method(mask)
    with pytest.raises(ValueError, match="a mask must be nonnegative"):
        members(mask)


def test_a_mask_is_read_through_operator_index():
    poset = inclusion_poset(2, 1)
    for mask in (0, 0b101, 0b110110):
        assert poset.select(_Index(mask)) == poset.select(mask)
        assert poset.maximal(_Index(mask)) == poset.maximal(mask)
        assert poset.top(_Index(mask)) == poset.top(mask)
        assert members(_Index(mask)) == members(mask)


@pytest.mark.parametrize("m", [(1.5, 2), "12", (True, 2), (1, True), (1, 2.0), 12, None, ("1", "2")])
def test_contained_takes_int_entries_and_never_a_bool(m):
    poset = inclusion_poset(1, 1)
    with pytest.raises(ValueError, match="need a vector of 2 entries in 0..2"):
        poset.contained(m)


def test_contained_reads_entries_through_operator_index():
    poset = inclusion_poset(3, 2)
    for m in hessenberg_vectors(5):
        assert poset.contained(tuple(map(_Index, m))) == poset.contained(m)
    assert poset.contained(iter((1, 2, 3, 4, 5))) == poset.contained((1, 2, 3, 4, 5))


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_8)
def test_keys_agree_with_statistics(p, q):
    n = p + q
    clans = enumerate_clans(p, q)
    key, ends, shares = _key_columns(clans, n, q)
    # byte c of every column belongs to clans[c]
    assert {len(col) for col in key + ends + shares} == {len(clans)}
    for clan, got_key, got_ends, got_shares in zip(clans, zip(*key), zip(*ends), zip(*shares)):
        st = statistics(clan)
        pairs = tuple(q - st.pair_matrix[i][j] for i in range(n) for j in range(i + 1, n))
        want_ends, want_shares = [0] * n, [0] * (n - 1)
        for i, j in clan.arcs:
            want_ends[i - 1] = j
            # the arc's length less the arcs that open before it and close inside it
            want_shares[i - 1] = j - i - sum(s < i < t < j for s, t in clan.arcs)
        assert got_key == st.plus_counts + st.minus_counts + pairs
        assert list(got_ends) == want_ends
        assert list(got_shares) == want_shares


def _assert_up_and_down_agree_with_inclusion_leq(poset):
    """down[j] is the down-set of clans[j] under inclusion_leq, so the
    up-set of clans[i] is bit i across the rows."""
    assert len(poset.down) == len(poset.clans)
    for j, b in enumerate(poset.clans):
        assert poset.down[j] == sum(1 << i for i, a in enumerate(poset.clans) if inclusion_leq(a, b))


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_6)
def test_up_and_down_agree_with_inclusion_leq(p, q, cached_statistics):
    poset = inclusion_poset(p, q)
    assert poset.clans == enumerate_clans(p, q)
    _assert_up_and_down_agree_with_inclusion_leq(poset)


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_7)
def test_up_and_down_on_interval_and_random_families(p, q, cached_statistics):
    """Families that are not contiguous in enumeration order, nor sorted,
    of sizes that are mostly not a multiple of 8."""
    _assert_up_and_down_agree_with_inclusion_leq(InclusionPoset(interval_clans(p, q)))
    everything = enumerate_clans(p, q)
    rng = random.Random(p * 10 + q)
    sizes = {1, 2, 7, 9, 61, 203}
    for size in sorted(k for k in sizes if k < len(everything)):
        family = rng.sample(everything, size)
        poset = InclusionPoset(family)
        assert poset.clans == tuple(family)
        _assert_up_and_down_agree_with_inclusion_leq(poset)


def test_families_the_kernel_cannot_build_are_rejected():
    with pytest.raises(ValueError, match="nonempty family"):
        InclusionPoset([])
    with pytest.raises(ValueError, match=r"one shape \(p,q\), got \[\(2, 2\), \(3, 1\)\]"):
        InclusionPoset(enumerate_clans(3, 1) + enumerate_clans(2, 2))
    with pytest.raises(ValueError, match="one shape"):
        InclusionPoset(enumerate_clans(2, 1) + enumerate_clans(3, 1))
    # n = 252 still builds; n = 253 has no byte codes left
    assert InclusionPoset([Clan("+" * 251 + "-")]).down == (1,)
    with pytest.raises(ValueError, match=r"n = p \+ q <= 252, got \(p,q\)=\(252,1\)"):
        InclusionPoset([Clan("+" * 252 + "-")])


@pytest.mark.parametrize("m", [(1, 2), (1, 2, 3, 4, 5, 5), (), (2, 2, 6, 4, 5), (-1, 2, 3, 4, 5)])
def test_contained_rejects_vectors_of_the_wrong_shape(m):
    poset = inclusion_poset(3, 2)
    assert bin(poset.contained((1, 2, 3, 4, 5))).count("1") == 10
    with pytest.raises(ValueError, match="need a vector of 5 entries in 0..5"):
        poset.contained(m)


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_6)
def test_contained_agrees_with_orbit_in_hess(p, q):
    poset = inclusion_poset(p, q)
    for m in hessenberg_vectors(p + q):
        want = [i for i, c in enumerate(poset.clans) if orbit_in_hess(c, m)]
        assert members(poset.contained(m)) == want
        assert hess_orbit_report(p, q, m).contained == tuple(poset.clans[i] for i in want)


@pytest.mark.parametrize("p,q", [(3, 2), (3, 3), (4, 3)])
def test_maximal_matches_its_definition(p, q, cached_statistics):
    poset = inclusion_poset(p, q)
    up = _leq_up_sets(poset.clans)
    rng = random.Random(p * 10 + q)
    masks = [poset.contained(m) for m in hessenberg_vectors(p + q)]
    masks += [rng.getrandbits(len(poset.clans)) for _ in range(50)]
    for mask in masks:
        want = [i for i in members(mask) if up[i] & mask == 1 << i]
        assert poset.maximal(mask) == want


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_7)
def test_key_sum_strictly_decreases_up_the_order(p, q):
    """The rank layers of ``maximal`` rest on the orbit dimension, which
    rises strictly up the order: clans[i] < clans[j] implies dim(clans[i]) <
    dim(clans[j]).  The key sum, the rank of ``key_sum_layers``, falls
    strictly up the order."""
    poset = inclusion_poset(p, q)
    key, _, _ = _key_columns(poset.clans, p + q, q)
    sums = [sum(row) for row in zip(*key)]
    dims = list(map(clans_mod.orbit_dimension, poset.clans))
    for j, below in enumerate(poset.down):
        assert all(sums[i] > sums[j] and dims[i] < dims[j] for i in members(below ^ 1 << j))


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_8)
@pytest.mark.parametrize("interval", [False, True])
def test_layers_hold_one_bit_per_clan_by_key_sum(p, q, interval):
    """The layers, built from one bitmap per orbit dimension, against
    setting bit c in the layer of the dimension of clans[c] clan by clan,
    highest dimension first."""
    poset = InclusionPoset(interval_clans(p, q) if interval else enumerate_clans(p, q))
    layers = {}
    for c, clan in enumerate(poset.clans):
        d = clans_mod.orbit_dimension(clan)
        layers[d] = layers.get(d, 0) | 1 << c
    assert poset._layers == [layers[d] for d in sorted(layers, reverse=True)]
    assert poset._cum == list(itertools.accumulate(poset._layers, operator.or_))


def _length_shares_agree_with_orbit_dimension(family):
    p, q = family[0].p, family[0].q
    *_, shares = _key_columns(family, p + q, q)
    assert len(shares) == p + q - 1
    base = p * (p - 1) // 2 + q * (q - 1) // 2
    assert [sum(row) + base for row in zip(*shares)] == list(map(clans_mod.orbit_dimension, family))


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_9)
def test_length_shares_sum_to_the_orbit_dimension(p, q):
    """``clans.orbit_dimension`` is the oracle of the lane-wise lengths that
    rank the layers, on all 20 shapes with p + q <= 9 and on the interval
    families with p + q <= 8."""
    _length_shares_agree_with_orbit_dimension(enumerate_clans(p, q))
    if p + q <= 8:
        _length_shares_agree_with_orbit_dimension(interval_clans(p, q))


@pytest.mark.parametrize(
    "p,q,interval",
    [(3, 3, False), (3, 3, True), (4, 3, False), (4, 3, True), (2, 1, True)],
)
def test_covers_match_transitive_reduction(p, q, interval, cached_statistics):
    nodes = interval_clans(p, q) if interval else enumerate_clans(p, q)
    poset = InclusionPoset(nodes) if interval else inclusion_poset(p, q)
    got = [(poset.clans[i], poset.clans[j]) for i, j in poset.covers()]
    assert got == _inclusion_hasse(list(nodes))


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_8)
def test_covers_are_the_maximal_elements_of_each_strict_down_set(p, q):
    """``covers`` walks only the layers below each clan; through the public
    ``maximal``, which walks them all, the covers are the same."""
    poset = inclusion_poset(p, q)
    want = sorted((i, j) for j, below in enumerate(poset.down) for i in poset.maximal(below ^ 1 << j))
    assert poset.covers() == want


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_8)
def test_down_of_is_the_stored_row(p, q):
    # a fresh poset: down_of answers before the rows are built
    poset = InclusionPoset(enumerate_clans(p, q))
    got = [poset.down_of(j) for j in range(len(poset.clans))]
    assert got == list(poset.down)


def rows_by_query(clans):
    """The kernel that one mask per prefix length replaced: one query per
    clan, ``_below`` at its flipped key bytes, over the threshold masks of
    every key column read at every value."""
    p, q, size = clans[0].p, clans[0].q, len(clans)
    n = p + q
    key, *_ = _key_columns(clans, n, q)
    columns = [col.translate(bytes(range(n, -1, -1)) + bytes(255 - n)) for col in key]
    tables = [b"1" * (v + 1) + b"0" * (255 - v) for v in range(n + 1)]
    masks = [[int(col[::-1].translate(table), 2) for table in tables] for col in columns]
    return tuple(_below(masks, row, (1 << size) - 1) for row in zip(*columns))


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_8)
def test_rows_match_the_row_by_row_query_in_any_order(p, q):
    everything = list(enumerate_clans(p, q))
    random.Random(p * 10 + q).shuffle(everything)
    families = [everything, list(interval_clans(p, q)), list(reversed(interval_clans(p, q)))]
    for family in families:
        poset = InclusionPoset(family)
        assert poset.down == rows_by_query(family)
        assert [poset.down_of(j) for j in range(len(family))] == list(poset.down)


def _values_by_prefix_length(clans, n):
    """Per clan, entry d (0-indexed) is the tuple of key entries that its
    first d + 1 symbols fix, by ``statistics``: the counts at position
    d + 1 and the pair entries (i, d + 1), i <= d."""
    out = []
    for clan in clans:
        st = statistics(clan)
        out.append([
            (st.plus_counts[d], st.minus_counts[d], *(st.pair_matrix[i][d] for i in range(d))) for d in range(n)
        ])
    return out


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_7)
def test_one_column_per_prefix_length_holds_the_entries_that_prefix_fixes(p, q):
    """Column k codes the key entries fixed by one prefix length d, each
    distinct tuple of them once, and the prefix lengths that fix a
    non-constant entry are kept in increasing order.  So two clans that
    share their first d symbols share their code in column k, and there are
    as many masks as distinct tuples."""
    n, clans = p + q, enumerate_clans(p, q)
    values = _values_by_prefix_length(clans, n)
    kept = [d for d in range(n) if len({row[d] for row in values}) > 1]
    poset = InclusionPoset(clans)
    assert [len(masks) for masks in poset._masks] == [len({row[d] for row in values}) for d in kept]
    for d, column in zip(kept, poset._columns):
        assert len({(c.symbols[: d + 1], code) for c, code in zip(clans, column)}) == len(
            {c.symbols[: d + 1] for c in clans}
        )
        # the code of a clan is the number of its tuple in order of first occurrence
        first = list(dict.fromkeys(row[d] for row in values))
        assert list(column) == [first.index(row[d]) for row in values]


@pytest.mark.parametrize("j", [-1, 3, True, 1.0, "1", None])
def test_down_of_takes_a_clan_index_in_range(j):
    # a negative index once read from the end, and True read as clan 1
    with pytest.raises(ValueError, match=r"need a clan index in 0\.\.2, got "):
        inclusion_poset(1, 1).down_of(j)


def _member_axioms_hold(down):
    """The partial-order axioms as criterion 8 once checked them, the oracle of
    its covers-based check: reflexive, each row holds the rows of its
    members (transitive), and no two rows are equal (antisymmetric)."""
    return all(
        (below >> i) & 1 and functools.reduce(operator.or_, map(down.__getitem__, members(below)), 0) == below
        for i, below in enumerate(down)
    ) and len(set(down)) == len(down)


def _covers_check_accepts(poset, dims):
    """Criterion 8's order check as it was before ``_graded_order``, the
    oracle of its one pass: every Hasse cover of ``covers()`` is a unit
    step of dims, each row is its own bit OR'd with the rows of its lower
    covers, and the rows are distinct."""
    down, hasse = poset.down, poset.covers()
    closure = [1 << j for j in range(len(down))]
    for i, j in hasse:
        closure[j] |= down[i]
    return all(dims[j] == dims[i] + 1 for i, j in hasse) and closure == list(down) and len(set(down)) == len(down)


@pytest.mark.parametrize("p,q", verify._shapes(5))
def test_covers_check_rejects_every_row_flip_the_member_check_rejects(p, q):
    clans = enumerate_clans(p, q)
    poset = InclusionPoset(clans)
    rows = poset.down
    dims = [clans_mod.orbit_dimension(c) for c in clans]
    assert _member_axioms_hold(rows) and _covers_check_accepts(poset, dims)
    stricter = 0
    for j, i in itertools.product(range(len(rows)), repeat=2):
        flipped = list(rows)
        flipped[j] ^= 1 << i
        poset._down = tuple(flipped)  # covers() reads the flipped rows
        accepted = _covers_check_accepts(poset, dims)
        if not _member_axioms_hold(flipped):
            assert not accepted, (i, j)
        elif not accepted:
            # a partial order that breaks the rank layering or the grading
            stricter += 1
    assert stricter >= 2


@pytest.mark.parametrize("p,q", verify._shapes(5))
def test_graded_order_accepts_what_the_covers_check_accepts(p, q):
    # every one-bit row flip and every +-1 shift of one clan's dimension
    clans = enumerate_clans(p, q)
    poset = InclusionPoset(clans)
    rows = poset.down
    dims = [clans_mod.orbit_dimension(c) for c in clans]
    assert verify._graded_order(poset, rows, dims) == (len(poset.covers()), [])
    assert _covers_check_accepts(poset, dims)
    cases = []
    for j, i in itertools.product(range(len(rows)), repeat=2):
        flipped = list(rows)
        flipped[j] ^= 1 << i
        cases.append((tuple(flipped), dims))
    for j, step in itertools.product(range(len(dims)), (-1, 1)):
        shifted = list(dims)
        shifted[j] += step
        cases.append((rows, shifted))
    accepted = 0
    for case_rows, case_dims in cases:
        poset._down = case_rows  # covers() reads the perturbed rows
        hasse, problems = verify._graded_order(poset, case_rows, case_dims)
        assert (not problems) == _covers_check_accepts(poset, case_dims), (case_rows, case_dims)
        if not problems:
            accepted += 1
            assert hasse == len(poset.covers()), (case_rows, case_dims)
        else:
            # one line per failing clan, each naming the shape
            assert len(problems) == len(set(problems)) and all(line.startswith(f"({p},{q}): the row of ") for line in problems)
    # a flip that drops a lower cover from a row can leave another graded
    # order (at (1,1), +- and 11 incomparable), which both checks accept
    assert 0 < accepted < len(cases)


def test_graded_order_refuses_a_graded_order_that_breaks_the_layering():
    # +- < -+ < 11 with dimensions 0, 1, 2 is a graded order, but +- and -+
    # share the bottom rank layer, so covers() never finds +- below -+
    poset = InclusionPoset(enumerate_clans(1, 1))
    poset._down = (0b001, 0b011, 0b111)
    dims = [0, 1, 2]
    assert verify._graded_order(poset, poset.down, dims)[1] == [
        "(1,1): the row of -+ holds +-, which is not in a lower rank layer"
    ]
    assert not _covers_check_accepts(poset, dims)


def test_graded_order_and_the_covers_check_pass_at_5_4():
    poset = inclusion_poset(5, 4)
    dims = [clans_mod.orbit_dimension(c) for c in poset.clans]
    assert verify._graded_order(poset, poset.down, dims) == (len(poset.covers()), []) == (57192, [])
    assert _covers_check_accepts(poset, dims)


def test_graded_order_names_the_clan_whose_row_breaks_the_layering():
    # +- above -+ keeps a partial order, but both lie in the bottom layer
    poset = InclusionPoset(enumerate_clans(1, 1))
    poset._down = (0b011, 0b010, 0b111)
    dims = [clans_mod.orbit_dimension(c) for c in poset.clans]
    assert not _covers_check_accepts(poset, dims)
    assert verify._graded_order(poset, poset.down, dims)[1] == [
        "(1,1): the row of +- holds -+, which is not in a lower rank layer"
    ]


@pytest.mark.parametrize(
    "p, q, patch, shift, line",
    [
        (1, 1, {0: 0b000, 2: 0b110}, {}, "the row of +- misses +- (not reflexive)"),
        (1, 1, {}, {2: 1}, "the row of 11 holds +-, which is in the row of no member of dimension 1 (not graded)"),
        (2, 1, {4: 0b111110}, {}, "the row of 1+1 misses ++-, which is in the row of a member of dimension 2 (not transitive)"),
    ],
)
def test_graded_order_names_each_failed_check(p, q, patch, shift, line):
    # patched rows and shifted dimensions of the true order, one failing clan each
    poset = InclusionPoset(enumerate_clans(p, q))
    rows = [patch.get(j, row) for j, row in enumerate(poset.down)]
    dims = [clans_mod.orbit_dimension(c) + shift.get(j, 0) for j, c in enumerate(poset.clans)]
    assert verify._graded_order(poset, rows, dims)[1] == [f"({p},{q}): {line}"]


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_7)
def test_top_is_the_highest_layer_of_maximal(p, q):
    """``top`` gives the clans of mask of the highest orbit dimension, each maximal in mask."""
    poset = inclusion_poset(p, q)
    dims = list(map(clans_mod.orbit_dimension, poset.clans))
    rng = random.Random(p * 10 + q)
    masks = [poset.contained(m) for m in hessenberg_vectors(p + q)]
    masks += [0] + [rng.getrandbits(len(poset.clans)) for _ in range(50)]
    for mask in masks:
        highest = max((dims[i] for i in members(mask)), default=None)
        want = [i for i in poset.maximal(mask) if dims[i] == highest]
        assert members(poset.top(mask)) == want == [i for i in members(mask) if dims[i] == highest]


def key_sum_layers(poset):
    """The rank layers that the orbit dimension replaced: the clans of equal
    key sum, least key sum (top of the order) first."""
    p, q = poset.clans[0].p, poset.clans[0].q
    key, *_ = _key_columns(poset.clans, p + q, q)
    layers = {}
    for c, row in enumerate(zip(*key)):
        layers[sum(row)] = layers.get(sum(row), 0) | 1 << c
    return [layers[total] for total in sorted(layers)]


@pytest.mark.parametrize("p,q", SHAPES_UP_TO_8)
def test_maximal_and_covers_equal_the_key_sum_kernels(p, q):
    """Dimension layers change how far the walks go, not what they return:
    ``maximal`` at every Hessenberg vector and ``covers`` equal the same
    walks over the key-sum layers (49 of them at (5,3), against 16
    dimensions)."""
    poset = inclusion_poset(p, q)
    by_key_sum = InclusionPoset(poset.clans)
    by_key_sum._down = poset.down
    by_key_sum._layers = key_sum_layers(poset)
    for m in hessenberg_vectors(p + q):
        mask = poset.contained(m)
        assert poset.maximal(mask) == by_key_sum.maximal(mask), m
    assert poset.covers() == by_key_sum.covers()
    if (p, q) == (5, 3):
        assert (len(by_key_sum._layers), len(poset._layers)) == (49, 16)


def test_criterion_2_reads_no_row_and_no_maximal(monkeypatch):
    def unused(*args):
        raise AssertionError("criterion 2 reads no stored row and calls no maximal")

    monkeypatch.setattr(InclusionPoset, "down", property(unused))
    monkeypatch.setattr(InclusionPoset, "maximal", unused)
    result = verify.irreducibility_checks(max_total=7)
    assert result.passed, result.detail


def test_a_repeated_clan_is_rejected():
    with pytest.raises(ValueError, match=r"need distinct clans, got \+- more than once"):
        InclusionPoset([Clan("+-"), Clan("11"), Clan("+-")])
    # the same clan under other labels is the same clan
    with pytest.raises(ValueError, match="got 1122 more than once"):
        InclusionPoset([Clan("1122"), Clan("+-+-"), Clan("2211")])


@pytest.mark.parametrize("m", [(1, 2, 3, 9), (2, 1, 4, 4), (4, 4, 4), (1, 2, 3, 4, 5)])
def test_hess_orbit_report_rejects_non_hessenberg_vectors(m):
    with pytest.raises(ValueError, match="not a Hessenberg vector of length 4"):
        hess_orbit_report(2, 2, m)
