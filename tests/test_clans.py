"""Clan combinatorics: canonical forms, enumeration, statistics, inclusion."""

import itertools

import pytest

from clanhess.clans import (
    MINUS,
    PLUS,
    Clan,
    _clan_words,
    as_interval_permutation,
    clan_count,
    clan_from_json,
    clan_length,
    clan_to_json,
    dense_clan,
    enumerate_clans,
    gamma_w,
    inclusion_leq,
    interval_clans,
    orbit_dimension,
    parse_clan,
    render_clan,
    statistics,
)
from clanhess.hessenberg import m_of_w
from clanhess.perms import Permutation, symmetric_group
from clanhess.weak_order import factorization_bijection


def test_canonicalization():
    assert str(parse_clan("5++3-+35+", 6, 3)) == "1++2-+21+"
    assert str(parse_clan("2 2 1 1", 2, 2)) == "1122"
    assert Clan((7, "+", 7)) == Clan((4, "+", 4))


def test_validation_errors():
    with pytest.raises(ValueError, match="exactly twice"):
        parse_clan("111+", 2, 2)
    with pytest.raises(ValueError, match="expected n"):
        parse_clan("+-", 2, 2)
    with pytest.raises(ValueError, match="sign balance"):
        parse_clan("++--", 3, 1)
    with pytest.raises(ValueError, match="transpose"):
        parse_clan("--+", 1, 2)
    with pytest.raises(ValueError, match="bad clan symbol"):
        parse_clan("+0-1", 2, 2)


def test_a_lone_bound_is_checked_alone():
    assert str(parse_clan("+-", 1, None)) == "+-"
    assert str(parse_clan("+-", None, 1)) == "+-"
    with pytest.raises(ValueError, match=r"has signature \(p,q\)=\(1,1\), expected p=9$"):
        parse_clan("+-", 9, None)
    with pytest.raises(ValueError, match=r"expected q=2$"):
        parse_clan("+-", None, 2)


def test_signature_derivation():
    c = parse_clan("+1+-2+21", 5, 3)
    assert (c.p, c.q, c.n) == (5, 3, 8)
    assert c.arcs == ((2, 8), (5, 7))


def test_enumerate_counts_small():
    assert len(enumerate_clans(1, 1)) == 3
    assert len(enumerate_clans(2, 1)) == 6
    assert len(enumerate_clans(2, 2)) == 21
    assert [str(c) for c in enumerate_clans(1, 1)] == ["+-", "-+", "11"]


@pytest.mark.parametrize("p, q", [(1, 2), (0, 0), (2, 0), (-1, -1)])
def test_count_refuses_the_shapes_enumeration_refuses(p, q):
    message = f"need p >= q >= 1, got \\({p},{q}\\)$"
    with pytest.raises(ValueError, match=message):
        enumerate_clans(p, q)
    with pytest.raises(ValueError, match=message):
        clan_count(p, q)


def _canonical_words(p, q):
    """Brute force: every word over {+, -, 1..q} of length p + q that Clan
    accepts unchanged with shape (p, q), in render_clan text order."""
    found = []
    for word in itertools.product([PLUS, MINUS, *range(1, q + 1)], repeat=p + q):
        try:
            clan = Clan(word)
        except ValueError:
            continue
        if clan.symbols == word and (clan.p, clan.q) == (p, q):
            found.append(clan)
    return sorted(found, key=render_clan)


def walk_oracle(p, q):
    """The plain recursive walk that ``enumerate_clans`` replaced: every
    symbol tuple, one branch per position to the end, with no forced tail."""
    n = p + q
    found = []

    def walk(word, pluses, minuses, opened, labels):
        if len(word) == n:
            found.append(word)
            return
        if pluses:
            walk(word + (PLUS,), pluses - 1, minuses, opened, labels)
        if minuses:
            walk(word + (MINUS,), pluses, minuses - 1, opened, labels)
        for k, label in enumerate(opened):
            walk(word + (label,), pluses, minuses, opened[:k] + opened[k + 1 :], labels)
        if pluses and minuses:
            walk(word + (labels + 1,), pluses - 1, minuses - 1, opened + (labels + 1,), labels + 1)

    walk((), p, q, (), 0)
    return found


def clan_length_oracle(clan):
    """The O(l^2) arc-pair sum that ``clan_length`` replaced: over the arcs
    (i, j), j - i less the arcs (s, t) with s < i < t < j."""
    arcs = clan.arcs
    return sum(j - i - sum(1 for s, t in arcs if s < i < t < j) for i, j in arcs)


SHAPES_UP_TO_9 = [(n - q, q) for n in range(2, 10) for q in range(1, n // 2 + 1)]


@pytest.mark.parametrize("p, q", SHAPES_UP_TO_9)
def test_enumeration_and_clan_length_match_the_replaced_kernels(p, q):
    clans = enumerate_clans(p, q)
    assert [c.symbols for c in clans] == walk_oracle(p, q) == _clan_words(p, q)
    assert all((c.p, c.q) == (p, q) for c in clans)
    assert list(map(clan_length, clans)) == list(map(clan_length_oracle, clans))


def test_clan_length_counts_each_crossing_once():
    # arc lengths less crossings: 1212 crosses once, 1221 and 1122 never,
    # 123312 once (its arcs 1 and 2 cross, arc 3 nests in both); 121323 twice
    texts = ("1212", "1221", "1122", "123312", "121323")
    assert [clan_length(parse_clan(t)) for t in texts] == [4 - 1, 4, 2, 9 - 1, 7 - 2]


def test_enumerate_matches_closed_form_and_is_duplicate_free():
    # oracles: sum over ell of C(n,2ell)(2ell-1)!!C(n-2ell,p-ell), and the
    # sorted brute-force word list, element for element
    for p in range(1, 6):
        for q in range(1, p + 1):
            if p + q > 7:
                continue
            clans = enumerate_clans(p, q)
            assert len(clans) == len(set(clans)) == clan_count(p, q)
            assert all((c.p, c.q) == (p, q) for c in clans)
            assert list(clans) == _canonical_words(p, q)


def test_statistics_worked_example():
    c = parse_clan("+1+-2+21", 5, 3)
    st = statistics(c)
    assert st.plus_counts == (1, 1, 2, 2, 2, 3, 4, 5)
    assert st.minus_counts == (0, 0, 0, 1, 1, 1, 2, 3)
    assert st.pair_matrix == (
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 1, 1, 1, 1, 0),
        (0, 0, 0, 1, 1, 1, 1, 0),
        (0, 0, 0, 0, 1, 1, 1, 0),
        (0, 0, 0, 0, 0, 2, 1, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
    )


def test_statistics_invariants():
    # monotone steps of 0/1; final counts; pair-statistic difference rule
    for p, q in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (5, 1)]:
        for c in enumerate_clans(p, q):
            st = statistics(c)
            n = c.n
            prev_plus = prev_minus = 0
            for i in range(n):
                assert st.plus_counts[i] - prev_plus in (0, 1)
                assert st.minus_counts[i] - prev_minus in (0, 1)
                prev_plus, prev_minus = st.plus_counts[i], st.minus_counts[i]
            assert st.plus_counts[-1] == p and st.minus_counts[-1] == q
            partner = {i: j for (i, j) in c.arcs} | {j: i for (i, j) in c.arcs}
            for j in range(2, n + 1):
                for i in range(1, j):
                    prev = st.pair_matrix[i - 2][j - 1] if i >= 2 else 0
                    diff = st.pair_matrix[i - 1][j - 1] - prev
                    assert diff in (0, 1)
                    # the step is 1 exactly when i starts an arc ending past j
                    assert (diff == 1) == (partner.get(i, 0) > j)


def test_interval_clan_pair_matrices_from_worked_examples():
    m_213 = statistics(gamma_w(Permutation((2, 1, 3)), 5)).pair_matrix
    assert m_213 == (
        (0, 1, 1, 1, 1, 1, 0, 0),
        (0, 0, 2, 2, 2, 1, 0, 0),
        (0, 0, 0, 3, 3, 2, 1, 0),
        (0, 0, 0, 0, 3, 2, 1, 0),
        (0, 0, 0, 0, 0, 2, 1, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
    )
    m_132 = statistics(gamma_w(Permutation((1, 3, 2)), 5)).pair_matrix
    assert m_132 == (
        (0, 1, 1, 1, 1, 0, 0, 0),
        (0, 0, 2, 2, 2, 1, 1, 0),
        (0, 0, 0, 3, 3, 2, 1, 0),
        (0, 0, 0, 0, 3, 2, 1, 0),
        (0, 0, 0, 0, 0, 2, 1, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0),
    )
    # the two matrices differ only inside the window i in [q], j > p
    p, q, n = 5, 3, 8
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not (i <= q and j > p):
                assert m_213[i - 1][j - 1] == m_132[i - 1][j - 1]


def test_interval_clans_share_statistics_with_dense_outside_window():
    for p, q in [(3, 3), (4, 2), (4, 3)]:
        base = statistics(dense_clan(p, q))
        n = p + q
        for w in symmetric_group(q):
            st = statistics(gamma_w(w, p))
            assert st.plus_counts == base.plus_counts
            assert st.minus_counts == base.minus_counts
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if not (i <= q and j > p):
                        assert st.pair_matrix[i - 1][j - 1] == base.pair_matrix[i - 1][j - 1]


def gamma_w_pair_statistic(w, p, i, j):
    """The named oracle of the pair statistic of gamma_w in its window i in
    [q], j in {p+1, ..., p+q}: the closed form |{k <= i : w^{-1}(k) > j - p}|."""
    q = w.degree
    n = p + q
    if not 1 <= i <= q:
        raise ValueError(f"need i in [q] = [{q}], got {i}")
    if not p + 1 <= j <= n:
        raise ValueError(f"need j in [{p + 1},{n}], got {j}")
    inv = w.inverse()
    return sum(1 for k in range(1, i + 1) if inv(k) > j - p)


def test_gamma_w_pair_statistic_closed_form():
    w = Permutation((2, 1, 3))
    assert gamma_w_pair_statistic(w, 5, 3, 7) == 1
    assert gamma_w_pair_statistic(Permutation((1, 3, 2)), 5, 1, 6) == 0
    for p, q in [(3, 3), (4, 3), (5, 3), (4, 4)]:
        for u in symmetric_group(q):
            st = statistics(gamma_w(u, p))
            for i in range(1, q + 1):
                for j in range(p + 1, p + q + 1):
                    if i < j:
                        assert gamma_w_pair_statistic(u, p, i, j) == st.pair_matrix[i - 1][j - 1]
    with pytest.raises(ValueError):
        gamma_w_pair_statistic(w, 5, 4, 7)
    with pytest.raises(ValueError):
        gamma_w_pair_statistic(w, 5, 1, 4)


def test_dense_clan_closed_form_statistics():
    for p, q in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 2)]:
        n = p + q
        st = statistics(dense_clan(p, q))
        assert st.plus_counts == tuple([0] * q + list(range(1, p + 1)))
        assert st.minus_counts == tuple([0] * p + list(range(1, q + 1)))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if i <= q and j <= p:
                    expected = i
                elif i > q and j <= p:
                    expected = q
                elif i > q and j > p:
                    expected = n - j
                else:
                    expected = min(n - j, i)
                assert st.pair_matrix[i - 1][j - 1] == expected


def test_clan_length_and_dimension():
    assert clan_length(parse_clan("1122", 2, 2)) == 2
    # the two closed orbits with every plus before every minus, and after
    assert clan_length(parse_clan("+++--")) == 0
    assert clan_length(parse_clan("--+++")) == 0
    # the dense orbit is open: its dimension is dim GL_n/B = n(n-1)/2
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        n = p + q
        assert orbit_dimension(dense_clan(p, q)) == n * (n - 1) // 2
        assert clan_length(dense_clan(p, q)) == p * q


def test_inclusion_leq_is_partial_order_small():
    for p, q in [(1, 1), (2, 1), (2, 2)]:
        clans = enumerate_clans(p, q)
        for a in clans:
            assert inclusion_leq(a, a)
            for b in clans:
                if inclusion_leq(a, b) and inclusion_leq(b, a):
                    assert a == b
                for c in clans:
                    if inclusion_leq(a, b) and inclusion_leq(b, c):
                        assert inclusion_leq(a, c)


def test_inclusion_dense_clan_is_maximum():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        top = dense_clan(p, q)
        for c in enumerate_clans(p, q):
            assert inclusion_leq(c, top)


def test_inclusion_respects_dimension():
    for p, q in [(2, 1), (2, 2), (3, 2)]:
        for a, b in itertools.permutations(enumerate_clans(p, q), 2):
            if inclusion_leq(a, b):
                assert orbit_dimension(a) < orbit_dimension(b)


def test_inclusion_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        inclusion_leq(parse_clan("+-", 1, 1), parse_clan("+-+", 2, 1))


def test_inclusion_example_1_1():
    pm, mp, pair = parse_clan("+-", 1, 1), parse_clan("-+", 1, 1), parse_clan("11", 1, 1)
    assert inclusion_leq(pm, pair) and inclusion_leq(mp, pair)
    assert not inclusion_leq(pm, mp) and not inclusion_leq(mp, pm)


def test_gamma_w_shapes():
    assert str(gamma_w(Permutation((2, 1, 3)), 5)) == "123++213"
    assert str(gamma_w(Permutation((5, 1, 3, 2, 4)), 6)) == "12345+51324"
    assert str(dense_clan(3, 3)) == "123321"
    assert str(gamma_w(Permutation.identity(3), 3)) == "123123"
    assert {str(c) for c in interval_clans(2, 2)} == {"1212", "1221"}
    assert {str(c) for c in interval_clans(3, 3)} == {
        "123123", "123213", "123132", "123231", "123312", "123321",
    }
    with pytest.raises(ValueError):
        gamma_w(Permutation((2, 1, 3)), 2)
    for q in range(1, 6):
        for p in (q, q + 2):
            clans = interval_clans(p, q)
            assert list(clans) == sorted(clans, key=render_clan)


@pytest.mark.parametrize("images,p", [((1, 2, 3), 2), ((), 3)], ids=["p<q", "q=0"])
def test_one_degree_check_for_gamma_w_and_its_kin(images, p):
    # gamma_w, m_of_w and factorization_bijection share one check and message
    w = Permutation(images)
    message = f"need p >= q = deg\\(w\\) >= 1, got p={p}, q={len(images)}$"
    for function in (gamma_w, m_of_w, factorization_bijection):
        with pytest.raises(ValueError, match=message):
            function(w, p)


def test_as_interval_permutation():
    for p, q in [(2, 2), (3, 2), (4, 3)]:
        for w in symmetric_group(q):
            assert as_interval_permutation(gamma_w(w, p)) == w
    assert as_interval_permutation(parse_clan("+-", 1, 1)) is None
    assert as_interval_permutation(parse_clan("1212", 2, 2)) == Permutation((1, 2))
    assert as_interval_permutation(parse_clan("1+21+2", 4, 2)) is None


def test_interval_clans_are_the_upper_interval_above_gamma_e():
    # clans above gamma_e in inclusion are exactly the q! interval clans
    for p, q in [(2, 2), (3, 2), (3, 3)]:
        bottom = gamma_w(Permutation.identity(q), p)
        above = {c for c in enumerate_clans(p, q) if inclusion_leq(bottom, c)}
        assert above == set(interval_clans(p, q))
        assert len(above) == len(list(symmetric_group(q)))


def test_json_round_trips():
    for text, p, q in [("+1+-2+21", 5, 3), ("11", 1, 1), ("1-1+", 2, 2)]:
        c = parse_clan(text, p, q)
        assert clan_from_json(clan_to_json(c)) == c
    with pytest.raises(ValueError, match=r"has 2 symbols, expected n = p\+q = 3$"):
        clan_from_json({"p": 2, "q": 1, "symbols": ["+", "-"]})
    with pytest.raises(ValueError, match=r"signature \(p,q\)=\(3,1\), expected \(2,2\)"):
        clan_from_json({"p": 2, "q": 2, "symbols": ["+", "+", "-", "+"]})


@pytest.mark.parametrize(
    "data, message",
    [
        # symbols that clan text rejects, in an object of the right shape
        ({"p": 1, "q": 1, "symbols": ["0", "0"]}, "bad clan symbol '0'"),
        ({"p": 1, "q": 1, "symbols": ["-5", "-5"]}, "bad clan symbol '-5'"),
        ({"p": 1, "q": 1, "symbols": [1, 1]}, "bad clan symbol 1 "),
        ({"p": 1, "q": 1, "symbols": ["²", "²"]}, "bad clan symbol '²'"),
        ({"p": 1, "q": 1, "symbols": "11"}, "needs integer p and q and a list of symbols"),
        # values that are no clan object
        ({"q": 1, "symbols": ["1", "1"]}, "needs integer p and q"),
        ({"p": True, "q": 1, "symbols": ["1", "1"]}, "needs integer p and q"),
        ([], "needs integer p and q"),
        (None, "needs integer p and q"),
        ("null", "needs integer p and q"),
        ('{"p": 1, "q": 1, "symbols": ["1", "x"]}', "bad clan symbol 'x'"),
    ],
)
def test_clan_json_is_read_by_the_rules_for_clan_text(data, message):
    with pytest.raises(ValueError, match=message):
        clan_from_json(data)


def test_clan_json_nested_past_the_recursion_limit():
    # json.loads raises RecursionError here; it is one more malformed value
    with pytest.raises(ValueError, match="nested too deeply"):
        clan_from_json("[" * 100000)


def test_render_token_form_for_large_labels():
    # labels above 9 force the whitespace-separated form
    symbols = list(range(1, 11)) + list(range(1, 11))
    c = Clan(symbols)
    assert " " in render_clan(c)
    assert parse_clan(render_clan(c)) == c


def _two_loop_clan(symbols):
    """The earlier two-loop constructor, transcribed as the reference."""
    relabel: dict = {}
    out: list = []
    for c in symbols:
        if c == PLUS or c == MINUS:
            out.append(c)
        else:
            out.append(relabel.setdefault(c, len(relabel) + 1))
    counts = [0] * len(relabel)
    for c in out:
        if isinstance(c, int):
            counts[c - 1] += 1
    if any(k != 2 for k in counts):
        raise ValueError(f"every pair label must occur exactly twice: {symbols!r}")
    ell = len(relabel)
    p, q = ell + out.count(PLUS), ell + out.count(MINUS)
    if q < 1:
        raise ValueError(f"need q >= 1, got (p,q)=({p},{q}): {symbols!r}")
    if p < q:
        raise ValueError(
            f"got (p,q)=({p},{q}) with p < q; transpose the clan "
            f"(swap + and -) to land in the supported p >= q case"
        )
    return tuple(out), p, q


def test_constructor_matches_two_loop_reference():
    for n in range(2, 10):
        for q in range(1, n // 2 + 1):
            for clan in enumerate_clans(n - q, q):
                # reversed labels, so the constructor has to relabel them
                shuffled = [c if c in (PLUS, MINUS) else 20 - c for c in clan.symbols]
                for symbols in (clan.symbols, shuffled):
                    built = Clan(symbols)
                    assert (built.symbols, built.p, built.q) == _two_loop_clan(symbols)
                    assert built == clan


@pytest.mark.parametrize(
    "symbols", [(), (1,), (1, 1, 1), (1, 2, 1), ("+",), ("-", "-", "+"), ("+", "-", "-")]
)
def test_constructor_errors_match_two_loop_reference(symbols):
    with pytest.raises(ValueError) as expected:
        _two_loop_clan(symbols)
    with pytest.raises(ValueError) as got:
        Clan(symbols)
    assert str(got.value) == str(expected.value)


def test_render_switches_to_tokens_at_label_10():
    # token form also parses back, so only the exact text tells the two apart
    assert render_clan(Clan(list(range(1, 10)) * 2)) == "123456789123456789"
    assert render_clan(Clan(["+"] + list(range(1, 11)) * 2)) == (
        "+ " + " ".join(map(str, range(1, 11))) + " " + " ".join(map(str, range(1, 11)))
    )
