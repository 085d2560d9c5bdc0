"""End-to-end tests of the command-line front end (exit codes and output)."""

import hashlib
import itertools
import json
import re
import sys

import pytest

from clanhess import schubert, verify, weak_order
from clanhess.cli import main
from clanhess.clans import (
    as_interval_permutation,
    clan_from_json,
    enumerate_clans,
    gamma_w,
    interval_clans,
    parse_clan,
    render_clan,
)
from clanhess.hessenberg import area, classify_irreducibles, m_of_w
from clanhess.perms import Permutation, parse_permutation
from clanhess.poset import InclusionPoset
from clanhess.schubert import SchubertExpansion, brion_class
from clanhess.weak_order import factorization_bijection, w_set
from test_poset import _inclusion_hasse


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out.rstrip("\n").split("\n") if out else []


def test_enumerate_1_1(capsys):
    status, lines = run(capsys, "clans", "enumerate", "--p", "1", "--q", "1")
    assert status == 0
    assert lines == ["+-", "-+", "11"]


def test_enumerate_json_round_trips(capsys):
    status, lines = run(capsys, "clans", "enumerate", "--p", "2", "--q", "1", "--format", "json")
    assert status == 0
    clans = [clan_from_json(d) for d in json.loads(lines[0])]
    assert len(clans) == 6


def test_stats_text_and_double_dash(capsys):
    status, lines = run(capsys, "clans", "stats", "--", "-+")
    assert status == 0
    assert lines[0] == "clan: -+  (p=1, q=1)"
    assert lines[-1] == "dimension: 0"


def test_stats_json_round_trips(capsys):
    status, lines = run(capsys, "clans", "stats", "+1+-2+21", "--format", "json")
    assert status == 0
    data = json.loads(lines[0])
    assert clan_from_json(data).n == 8
    assert data["plus_counts"] == [1, 1, 2, 2, 2, 3, 4, 5]


def test_wset_of_gamma_123(capsys):
    status, lines = run(capsys, "wset", "--p", "3", "--q", "3", "123")
    assert status == 0
    assert set(lines) == {
        "s1*s2*s1", "s4*s5*s4", "s1*s2*s5", "s2*s1*s4", "s1*s5*s4", "s2*s4*s5",
    }


def test_wset_accepts_clan_strings(capsys):
    status, lines = run(capsys, "wset", "+-")
    assert status == 0
    assert lines == ["s1"]


def test_wset_permutation_needs_p(capsys):
    status, _ = run(capsys, "wset", "123")
    assert status == 1


def test_wset_permutation_of_the_wrong_length_is_named(capsys):
    assert main(["wset", "--p", "3", "--q", "3", "12"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "clanhess: error: permutation '12' has length 2, expected q=3\n"


def test_wset_json_is_the_w_set(capsys):
    status, lines = run(capsys, "wset", "--p", "3", "--q", "3", "132", "--format", "json")
    assert status == 0
    rows = json.loads(lines[0])
    elements = [Permutation(tuple(row["one_line"])) for row in rows]
    assert set(elements) == w_set(gamma_w(parse_permutation("132"), 3))
    assert len(elements) == len(rows)
    assert [row["word"] for row in rows] == [list(x.reduced_word()) for x in elements]


def test_wset_bijection_json_is_the_factorization_bijection(capsys):
    status, lines = run(capsys, "wset-bijection", "213", "--p", "3", "--format", "json")
    assert status == 0
    rows = json.loads(lines[0])
    got = {
        (Permutation(tuple(row["u"])), Permutation(tuple(row["v"]))): Permutation(tuple(row["element"]))
        for row in rows
    }
    assert got == factorization_bijection(parse_permutation("213"), 3)
    assert len(got) == len(rows)
    assert [row["word"] for row in rows] == [list(Permutation(tuple(row["element"])).reduced_word()) for row in rows]


def test_wset_bijection_rows(capsys):
    status, lines = run(capsys, "wset-bijection", "213", "--p", "3")
    assert status == 0
    assert lines[-1] == "|W| = 3"
    words = {line.split(" = ")[1] for line in lines[:-1]}
    assert words == {"s2*s1", "s2*s5", "s5*s4"}


def test_wset_bijection_rejects_p_below_degree(capsys):
    # the same message as `hess dim`
    assert main(["wset-bijection", "213", "--p", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "clanhess: error: need p >= q = deg(w) >= 1, got p=2, q=3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hess", "dim", "213", "--p", "3", "--q", "9"],
        ["wset-bijection", "213", "--p", "3", "--q", "3"],
        ["hess", "dim", "213"],
        ["wset-bijection", "213"],
    ],
)
def test_permutation_commands_take_p_alone(argv, capsys):
    # q is the degree of w: a --q is refused, not ignored, and --p is required
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().out == ""


def test_class_render(capsys):
    status, lines = run(capsys, "class", "--p", "2", "--q", "1", "+-+")
    assert status == 0
    assert lines == ["1 * S[2,3,1] + 1 * S[3,1,2]"]


def test_class_json_is_the_brion_class(capsys):
    status, lines = run(capsys, "class", "--p", "2", "--q", "2", "1+-1", "--format", "json")
    assert status == 0
    assert json.loads(lines[0]) == brion_class(parse_clan("1+-1")).to_json()


def test_hess_classify_2_2(capsys):
    status, lines = run(capsys, "hess", "classify", "--p", "2", "--q", "2")
    assert status == 0
    assert lines == ["12 -> 3,4,4,4", "21 -> 4,4,4,4"]


def test_hess_classify_json_is_the_classification(capsys):
    status, lines = run(capsys, "hess", "classify", "--p", "3", "--q", "3", "--format", "json")
    assert status == 0
    got = {parse_permutation(w): tuple(m) for w, m in json.loads(lines[0]).items()}
    assert got == classify_irreducibles(3, 3)
    assert len(got) == 5


def test_hess_report_text_and_json(capsys):
    status, lines = run(capsys, "hess", "report", "--p", "2", "--q", "2", "1,3,4,4")
    assert status == 0
    assert "irreducible: no" in lines
    status, lines = run(capsys, "hess", "report", "--p", "2", "--q", "2", "3444", "--format", "json")
    assert status == 0
    data = json.loads(lines[0])
    assert data["irreducible"] and data["witness"] == "[1,2]"


def test_hess_report_text_names_the_witness_and_dimension(capsys):
    w = parse_permutation("132")
    m = m_of_w(w, 3)
    status, lines = run(capsys, "hess", "report", "--p", "3", "--q", "3", ",".join(map(str, m)))
    assert status == 0
    assert "irreducible: yes" in lines
    assert lines[-2:] == ["witness: 132", f"dimension: {area(m)}"]


def test_hess_report_rejects_bad_vector(capsys):
    status, _ = run(capsys, "hess", "report", "--p", "2", "--q", "2", "1,2,3,9")
    assert status == 1


@pytest.mark.parametrize("vector", ["1,3,,4", "2.0,2", "1,3,4,", "13a4", ""])
def test_hess_report_names_an_unreadable_vector(vector, capsys):
    assert main(["hess", "report", "--p", "2", "--q", "2", vector]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"clanhess: error: bad Hessenberg vector {vector!r}: expected 1,3,4,4 or compact digits\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["clans", "stats", "²"], "bad clan symbol '²' in '²'"),
        (["wset", "--p", "2", "²1"], "bad clan symbol '²' in '²1'"),
        (["wset-bijection", "--p", "2", "²1"], "bad permutation '²1'"),
    ],
)
def test_numbers_are_decimal_digits(argv, message, capsys):
    # "²".isdigit() is true, but int("²") raises
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"clanhess: error: {message}")


def test_hess_dim(capsys):
    status, lines = run(capsys, "hess", "dim", "213", "--p", "3")
    assert status == 0
    assert lines == ["m(w) = 5,5,6,6,6,6", "dimension: 13  (= area 13)"]


def test_hess_dim_rejects_231_pattern(capsys):
    status, _ = run(capsys, "hess", "dim", "231", "--p", "3")
    assert status == 1


def test_hess_dim_rejects_degree_0(capsys):
    # (3,0) has no clans, so there is no m(w) to print
    assert main(["hess", "dim", "[]", "--p", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "need p >= q = deg(w) >= 1, got p=3, q=0" in err


def test_poset_weak_interval_dot(capsys):
    status, lines = run(capsys, "poset", "weak", "--p", "2", "--q", "2", "--interval", "--format", "dot")
    assert status == 0
    assert '  "1212" -> "1221" [label="s1,s3"];' in lines


def test_poset_inclusion_json(capsys):
    status, lines = run(capsys, "poset", "inclusion", "--p", "1", "--q", "1", "--format", "json")
    assert status == 0
    data = json.loads(lines[0])
    assert data["nodes"] == ["+-", "-+", "11"]
    assert {(c["source"], c["target"]) for c in data["covers"]} == {("+-", "11"), ("-+", "11")}


def test_poset_inclusion_interval_covers_match_transitive_reduction(capsys):
    status, lines = run(capsys, "poset", "inclusion", "--p", "3", "--q", "3", "--interval", "--format", "json")
    assert status == 0
    data = json.loads(lines[0])
    nodes = interval_clans(3, 3)
    assert data["nodes"] == [str(c) for c in nodes]
    want = [(str(a), str(b)) for a, b in _inclusion_hasse(list(nodes))]
    assert want
    assert [(c["source"], c["target"]) for c in data["covers"]] == want


def _clan_pair_inclusion_writer(poset, p, q, interval, fmt):
    """``poset inclusion`` as written from a list of clan pairs, each clan
    rendered once per node and once per cover end: the oracle for the
    writer that renders each clan once."""
    nodes = poset.clans
    covers = [(nodes[i], nodes[j]) for i, j in poset.covers()]
    if fmt == "json":
        payload = {
            "p": p,
            "q": q,
            "order": "inclusion",
            "interval": interval,
            "nodes": [render_clan(c) for c in nodes],
            "covers": [{"source": render_clan(a), "target": render_clan(b)} for a, b in covers],
        }
        return json.dumps(payload)
    lines = ["digraph inclusion {"]
    lines.extend(f'  "{render_clan(c)}";' for c in nodes)
    lines.extend(f'  "{render_clan(a)}" -> "{render_clan(b)}";' for a, b in covers)
    lines.append("}")
    return "\n".join(lines)


def test_poset_inclusion_bytes_match_the_clan_pair_writer(capsys):
    shapes = [(p, q, False) for p in range(1, 7) for q in range(1, p + 1) if p + q <= 7]
    shapes += [(p, q, True) for p in range(1, 8) for q in range(1, p + 1) if p + q <= 8]
    for p, q, interval in shapes:
        poset = InclusionPoset(interval_clans(p, q) if interval else enumerate_clans(p, q))
        for fmt in ("dot", "json"):
            argv = ["poset", "inclusion", "--p", str(p), "--q", str(q), "--format", fmt]
            assert main(argv + ["--interval"] * interval) == 0
            assert capsys.readouterr().out == _clan_pair_inclusion_writer(poset, p, q, interval, fmt) + "\n"


def test_monk_cohomology_vs_stable(capsys):
    status, lines = run(capsys, "monk", "5", "123", "--p", "3", "--q", "3")
    assert status == 0
    assert lines[0].count("S[") == 8
    status, stable_lines = run(capsys, "monk", "5", "123", "--p", "3", "--q", "3", "--stable")
    assert status == 0
    assert stable_lines[0].count("S[") >= 8


def test_monk_json_round_trips(capsys):
    status, lines = run(capsys, "monk", "1", "123", "--p", "3", "--q", "3", "--format", "json")
    assert status == 0
    data = json.loads(lines[0])
    expansion = SchubertExpansion({parse_permutation(k): v for k, v in data.items()})
    assert len(expansion.coeffs) == 8 and set(data.values()) == {1}


def test_monk_rejects_out_of_range_index(capsys):
    status, _ = run(capsys, "monk", "9", "123", "--p", "3", "--q", "3")
    assert status == 1


def test_scan_multfree_reports_absence(capsys):
    status, lines = run(capsys, "scan", "multfree", "--p", "1", "--q", "1")
    assert status == 0
    assert lines == ["no multiplicity >= 2 in 3 divisor products at (p,q)=(1,1)"]


def test_scan_multfree_rejects_max_m_outside_range(capsys):
    for bad in ("0", "-1", "5", "99"):
        assert main(["scan", "multfree", "--p", "3", "--q", "2", "--max-m", bad]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"clanhess: error: --max-m must lie in 1..4 at (p,q)=(3,2), got {bad}\n"
    status, lines = run(capsys, "scan", "multfree", "--p", "3", "--q", "2", "--max-m", "4")
    assert status == 0
    assert lines == ["no multiplicity >= 2 in 220 divisor products at (p,q)=(3,2)"]


def _double_one_coefficient(monkeypatch):
    """Make every nonzero divisor product carry one coefficient 2; returns
    the unpatched Monk kernel ``_monk_terms``."""
    real = schubert._monk_terms

    def doubled(m, terms, n):
        out = real(m, terms, n)
        if out:
            out[min(out)] *= 2
        return out

    monkeypatch.setattr(schubert, "_monk_terms", doubled)
    return real


def test_scan_multfree_reports_each_failing_product(capsys, monkeypatch):
    real = _double_one_coefficient(monkeypatch)
    status, lines = run(capsys, "scan", "multfree", "--p", "2", "--q", "1")
    assert status == 0
    failing = [
        f"multiplicity 2 at clan {render_clan(c)}, m={m}"
        for c in enumerate_clans(2, 1)
        for m in (1, 2)
        if real(m, brion_class(c).coeffs, 3)
    ]
    assert failing and lines == [*failing, f"{len(failing)} of 12 products carry multiplicity >= 2"]


def test_verify_monk_fails_on_a_multiplicity(capsys, monkeypatch):
    _double_one_coefficient(monkeypatch)
    status, lines = run(capsys, "verify", "monk")
    assert status == 2
    assert len(lines) == 1 and lines[0].startswith("FAIL criterion 7 (monk-products): (1,1) w=")
    assert re.search(r"\(\d,\d\) w=\[\d(,\d)*\] m=\d: coefficients not all 1", lines[0])


def test_verify_names_each_failing_permutation_in_full(capsys, monkeypatch):
    # (p, images) of the failures to fake: the identity of S_1 and 213
    named = {(1, (1,)), (3, (2, 1, 3))}

    def scan(clans, max_m):
        _, count = real_scan(clans, max_m)
        return [(c, 1, 2) for c in clans if (c.p, as_interval_permutation(c).images) in named], count

    def bijection(w, p):
        pairs = real_bijection(w, p)
        # one factorization short: the image is smaller and so is the count
        return dict(list(pairs.items())[1:]) if (p, w.images) in named else pairs

    real_scan, real_bijection = verify.divisor_product_scan, verify.factorization_bijection
    monkeypatch.setattr(verify, "divisor_product_scan", scan)
    monkeypatch.setattr(verify, "factorization_bijection", bijection)
    failed = {}
    for target in ("wsets", "monk"):
        status, lines = run(capsys, "verify", target)
        assert status == 2 and len(lines) == 1
        failed[target] = re.sub(r" \[\d+\.\d+s\]$", "", lines[0])
    assert failed == {
        "wsets": "FAIL criterion 5 (w-set-bijection): (1,1) w=[1]: W-set != bijection image; "
        "(1,1) w=[1]: |W| = 1 != 0 factorizations; (3,3) w=[2,1,3]: W-set != bijection image; +1 more",
        "monk": "FAIL criterion 7 (monk-products): (1,1) w=[1] m=1: coefficients not all 1; "
        "(3,3) w=[2,1,3] m=1: coefficients not all 1",
    }


def test_verify_names_failing_permutations_of_criteria_3_7_8_in_full(monkeypatch):
    # criteria 3 and 8 have no target of their own, so call their checks;
    # the first failures include the identity and 1243, whose trimmed keys
    # would read () and (1, 2, 4, 3)
    real_hess_dimension, real_oracle = verify.hess_dimension, verify.product_oracle
    monkeypatch.setattr(
        verify, "hess_dimension", lambda w, p: -1 if (p, len(w.images)) == (3, 3) else real_hess_dimension(w, p)
    )
    monkeypatch.setattr(
        verify, "product_oracle", lambda m, cls: SchubertExpansion({}) if m == 1 else real_oracle(m, cls)
    )
    monkeypatch.setattr(verify, "expand_in_schubert_basis", lambda poly: SchubertExpansion({}))
    results = [check() for check in (verify.dimension_checks, verify.monk_checks, verify.structural_checks)]
    assert not any(result.passed for result in results)
    dimension, monk, structural = (result.detail for result in results)
    assert re.findall(r"w=(\S+):", dimension) == ["[1,2,3]", "[1,3,2]", "[2,1,3]"]
    assert monk == (
        "u=[1,2,3,4] m=1: stable rule != polynomial oracle; u=[1,2,4,3] m=1: stable rule != polynomial oracle; "
        "u=[1,3,2,4] m=1: stable rule != polynomial oracle; +21 more"
    )
    assert structural == (
        "expand(schubert([1,2,3,4])) != {w: 1}; expand(schubert([1,2,4,3])) != {w: 1}; "
        "expand(schubert([1,3,2,4])) != {w: 1}; +21 more"
    )


def test_criterion_8_names_a_pair_at_each_broken_order_axiom(monkeypatch):
    # patched rows: at (1,1), 11 below +- as well as above it (antisymmetry);
    # at (2,1), 1+1 no longer above ++-, though +11 below it is (transitivity)
    patched = {(1, 1): {0: 0b101}, (2, 1): {4: 0b111110}}

    class Patched(verify.InclusionPoset):
        __slots__ = ()

        @property
        def down(self):
            rows = list(super().down)
            clan = self.clans[0]
            for i, row in patched.get((clan.p, clan.q), {}).items():
                rows[i] = row
            return tuple(rows)

    monkeypatch.setattr(verify, "InclusionPoset", Patched)
    found = []
    monkeypatch.setattr(verify, "_finish", lambda name, problems, detail, t0: found.extend(problems))
    verify.structural_checks()
    # one line per failing clan, naming it and a witness: 11 in the row of
    # +- (antisymmetry), and ++- below +11 but not below 1+1 (transitivity)
    assert found == [
        "(1,1): the row of +- holds 11, which is not in a lower rank layer",
        "(2,1): the row of 1+1 misses ++-, which is in the row of a member of dimension 2 (not transitive)",
    ]


def _criterion_8_problems(monkeypatch):
    found = []
    monkeypatch.setattr(verify, "_finish", lambda name, problems, detail, t0: found.extend(problems))
    verify.structural_checks()
    return found


def test_criterion_8_counts_the_words_of_the_walk_at_p_plus_q_9(monkeypatch):
    # the p + q = 9 shapes count the walk's words, building no Clan: a walk
    # that drops one word at (5,4) fails the count there and nowhere else
    real = verify._clan_words
    monkeypatch.setattr(verify, "_clan_words", lambda p, q: real(p, q)[: -1 if (p, q) == (5, 4) else None])
    result = verify.structural_checks()
    assert not result.passed
    assert result.detail == "(5,4): enumeration count != closed form"


def divided_difference_relations_oracle(problems):
    """The loop that ``verify._divided_difference_relations`` replaced: all
    six relations computed afresh at each of the 462 exponent vectors."""
    checked = 0
    monomials = (
        e for total in range(7) for e in itertools.product(range(total + 1), repeat=4) if sum(e) <= total
    )
    for exps in monomials:
        poly = schubert.IntPolynomial.monomial(exps)
        d = {i: poly.divided_difference(i) for i in range(1, 4)}
        for i in range(1, 4):
            checked += 1
            if not d[i].divided_difference(i).is_zero:
                problems.append(f"d_{i}^2 != 0 on x^{exps}")
        for i in range(1, 3):
            checked += 1
            lhs = d[i].divided_difference(i + 1).divided_difference(i)
            rhs = d[i + 1].divided_difference(i).divided_difference(i + 1)
            if lhs != rhs:
                problems.append(f"braid relation fails at i={i} on x^{exps}")
        checked += 1
        if d[1].divided_difference(3) != d[3].divided_difference(1):
            problems.append(f"commutation fails on x^{exps}")
    return checked


def _relations(check):
    problems = []
    return check(problems), problems


def test_divided_difference_relations_equal_the_per_vector_loop():
    assert _relations(verify._divided_difference_relations) == _relations(divided_difference_relations_oracle)
    assert _relations(verify._divided_difference_relations) == (2772, [])


def test_divided_difference_failures_repeat_at_every_total_as_before(monkeypatch):
    # d_1 of the constant 1 made 1, not 0: d_1^2 x_1 = 1 breaks nilpotence at
    # x^(1, 0, 0, 0), a vector of each total 1..6, so its line comes back six
    # times, between the lines of the other vectors, as the loop gave them
    real = schubert.IntPolynomial.divided_difference
    one = schubert.IntPolynomial.one()
    monkeypatch.setattr(
        schubert.IntPolynomial, "divided_difference", lambda f, i: one if (f, i) == (one, 1) else real(f, i)
    )
    checked, problems = _relations(verify._divided_difference_relations)
    assert (checked, problems) == _relations(divided_difference_relations_oracle)
    assert problems.count("d_1^2 != 0 on x^(1, 0, 0, 0)") == 6
    assert len(problems) > len(set(problems))


def test_criterion_8_names_each_hasse_cover_with_a_dimension_step_other_than_1(monkeypatch):
    # one dimension up at (1,1): both Hasse covers below 11 step by 2, so no
    # member of 11's row has dimension 1; the line names 11 and the least
    # witness +-, and the weak covers from +- and -+ fail their own check
    real = verify.orbit_dimension
    monkeypatch.setattr(
        verify, "orbit_dimension", lambda c: real(c) + ((c.p, c.q, render_clan(c)) == (1, 1, "11"))
    )
    assert _criterion_8_problems(monkeypatch) == [
        "(1,1): the row of 11 holds +-, which is in the row of no member of dimension 1 (not graded)",
        "cover dimension step != 1 at +-",
        "cover dimension step != 1 at -+",
    ]


def test_criterion_8_names_each_weak_cover_off_inclusion_or_of_an_unknown_type(monkeypatch):
    # the move kernel, patched: the top clan 11 at (1,1) gets a cover down
    # to +-, and +-+ at (2,1) one across to ++-, each off inclusion and not
    # a unit step; the moves of +-+ at s1 and of 1212 at s3 are renamed.
    # The lines of one clan follow its targets in text order (++- < 11+),
    # not the order of the moves, as ``covers_from`` gives them
    real = weak_order._moves
    extra = {(1, 1): (("+", "-"), 1, "IA1"), ("+", "-", "+"): (("+", "+", "-"), 2, "IA1")}
    renamed = {("+", "-", "+"): 1, (1, 2, 1, 2): 3}

    def patched(symbols):
        for target, i, move in real(symbols):
            yield target, i, "IZ" if renamed.get(symbols) == i else move
        if symbols in extra:
            yield extra[symbols]

    monkeypatch.setattr(weak_order, "_moves", patched)
    assert _criterion_8_problems(monkeypatch) == [
        "cover not an inclusion: 11",
        "cover dimension step != 1 at 11",
        "cover not an inclusion: +-+",
        "cover dimension step != 1 at +-+",
        "unknown move type at +-+",
        "unknown move type at 1212",
    ]


def test_criterion_8_checks_the_order_axioms_at_p_plus_q_8(monkeypatch):
    # the top clan 12344321 at (4,4) loses the bottom clan ++++---- from its
    # row, but clan 11 below it keeps it: transitivity fails
    class Patched(verify.InclusionPoset):
        __slots__ = ()

        @property
        def down(self):
            rows = list(super().down)
            if (self.clans[0].p, self.clans[0].q) == (4, 4):
                rows[-1] ^= 1
            return tuple(rows)

    monkeypatch.setattr(verify, "InclusionPoset", Patched)
    assert _criterion_8_problems(monkeypatch) == [
        "(4,4): the row of 12344321 misses ++++----, which is in the row of a member of dimension 27 (not transitive)"
    ]


def test_verify_subset_passes(capsys):
    status, lines = run(capsys, "verify", "wsets")
    assert status == 0
    assert len(lines) == 1 and lines[0].startswith("PASS criterion 5")


def test_verify_oracle_reaches_past_its_default(capsys):
    # one comparison per clan, so a --max-n above the default is scanned, not clamped
    status, lines = run(capsys, "verify", "oracle", "--max-n", "7")
    assert status == 0
    assert "446798 (clan, m) membership agreements across p + q <= 7, " in lines[0]
    assert "clamped" not in lines[0]
    status, lines = run(capsys, "verify", "oracle")
    assert status == 0
    assert "agreements across p + q <= 6, " in lines[0] and "clamped" not in lines[0]


def test_verify_rejects_max_n_below_2(capsys):
    for target, bad in (("all", "0"), ("all", "-2"), ("oracle", "1"), ("wsets", "1")):
        assert main(["verify", target, "--max-n", bad]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--max-n must be at least 2" in err and "(1,1)" in err and err.endswith(f"got {bad}\n")
    status, lines = run(capsys, "verify", "irreducible", "--max-n", "2")
    assert status == 0
    assert lines[0].startswith("PASS criterion 2 (irreducible-classification): 1 shapes,")


@pytest.mark.parametrize(
    "argv, reached",
    [
        (["wsets", "--max-n", "9"], "--max-n reaches only verify irreducible/oracle/all, not verify wsets"),
        (["monk", "--max-n", "3", "--seed", "5"], "--max-n reaches only verify irreducible/oracle/all, not verify monk"),
        (["monk", "--seed", "5"], "--seed reaches only verify oracle/all, not verify monk"),
        (["wsets", "--seed", "0"], "--seed reaches only verify oracle/all, not verify wsets"),
        (["irreducible", "--seed", "5"], "--seed reaches only verify oracle/all, not verify irreducible"),
    ],
)
def test_verify_rejects_an_option_its_target_ignores(argv, reached, capsys):
    # a seed the user gave is told from the default, even when it equals it
    assert main(["verify", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"clanhess: error: {reached}\n"


@pytest.mark.parametrize("check", [verify.irreducibility_checks, verify.oracle_checks])
@pytest.mark.parametrize("bad", [1, 0, -2])
def test_exhaustive_scans_reject_max_total_below_2(check, bad):
    # below 2 no shape is scanned, and a PASS would be vacuous
    with pytest.raises(ValueError, match=f"max_total must be at least 2, .*\\(1,1\\), got {bad}$"):
        check(max_total=bad)
    assert check(max_total=2).passed


def test_verify_failure_exits_2(capsys, monkeypatch):
    def failing():
        return verify.CheckResult("w-set-bijection", False, "forced failure", 0.0)

    patched = tuple(
        (name, target, failing if name == "w-set-bijection" else check, keys)
        for name, target, check, keys in verify.CRITERIA
    )
    monkeypatch.setattr(verify, "CRITERIA", patched)
    status, lines = run(capsys, "verify", "wsets")
    assert status == 2
    assert lines[0].startswith("FAIL criterion 5")


_VERIFY_ALL = [
    "PASS criterion 1 (worked-examples): statistics triple, flag representative, 3 W-sets, "
    "labeled (3,3) interval graph, and 5 divisor-product lists reproduced "
    "(3 documented list corrections, oracle-confirmed)",
    "PASS criterion 2 (irreducible-classification): 12 shapes, 1802 Hessenberg vectors: "
    "irreducible iff m = m(w) for 231-avoiding w, Catalan counts, unique component gamma_w, "
    "contained sets are lower ideals",
    "PASS criterion 3 (dimension-formulas): 66 (w, p) pairs: length formula = area = orbit dimension exactly",
    "PASS criterion 4 (geometric-oracle): 50402 (clan, m) membership agreements across p + q <= 6, "
    "54 K-invariance spot checks",
    "PASS criterion 5 (w-set-bijection): 99 (w, p) pairs: recursive W-set = bijection image, "
    "cardinalities match",
    "PASS criterion 6 (two-sided-order): 12 interval graphs isomorphic to two-sided weak order "
    "with matching labels; 3214 vs 3412 separates Bruhat from two-sided weak order",
    "PASS criterion 7 (monk-products): 714 divisor products multiplicity-free; "
    "stable rule = polynomial oracle on 96 S4 products",
    "PASS criterion 8 (structural-invariants): 3485 covers refine inclusion with unit dimension step; "
    "partial-order axioms on 1390 poset nodes (p + q <= 7); 20 clan counts match the closed form "
    "(p + q <= 9); 2772 divided-difference relation instances; expansion inverts construction "
    "on 24 S4 polynomials",
]


def test_verify_all_prints_the_eight_recorded_lines(capsys):
    # the benchmark's cli-oneshot digests this text with the timings stripped
    status, lines = run(capsys, "verify", "all")
    assert status == 0
    assert [re.sub(r" \[\d+\.\d\ds\]$", "", line) for line in lines] == _VERIFY_ALL


def test_a_new_criterion_is_one_row(capsys, monkeypatch):
    calls = []

    def extra_checks(max_total=5):
        calls.append(max_total)
        return verify.CheckResult("extra", True, f"p + q <= {max_total}", 0.0)

    row = ("extra", "extra", extra_checks, ("max_total",))
    monkeypatch.setattr(verify, "CRITERIA", (*verify.CRITERIA, row))
    status, lines = run(capsys, "verify", "extra", "--max-n", "3")
    assert (status, lines, calls) == (0, ["PASS criterion 9 (extra): p + q <= 3 [0.00s]"], [3])
    assert main(["verify", "wsets", "--max-n", "3"]) == 1
    reached = "--max-n reaches only verify irreducible/oracle/extra/all, not verify wsets"
    assert capsys.readouterr().err == f"clanhess: error: {reached}\n"
    assert main(["verify", "extra", "--seed", "1"]) == 1
    assert capsys.readouterr().err == "clanhess: error: --seed reaches only verify oracle/all, not verify extra\n"
    # verify all hands each check only its row's keywords
    status, lines = run(capsys, "verify", "all", "--max-n", "4", "--seed", "1")
    assert status == 0 and len(lines) == 9 and calls == [3, 4]
    assert "(irreducible-classification): 4 shapes," in lines[1] and "across p + q <= 4," in lines[3]


def test_degenerate_classification_fails_criterion_2(capsys, monkeypatch):
    def degenerate(p, q):
        raise AssertionError(f"irreducible classification degenerate at ({p},{q})")

    monkeypatch.setattr(verify, "classify_irreducibles", degenerate)
    status, lines = run(capsys, "verify", "irreducible", "--max-n", "3")
    assert status == 2
    assert lines[0].startswith("FAIL criterion 2 (irreducible-classification): (1,1): ")
    assert "degenerate at (2,1)" in lines[0]


_CONTAINED = InclusionPoset._contained


def _principal_mask_at_1_2(self, m):
    # at (1,1), m = (1, 2) contains the two maximal clans +- and -+; the fake
    # keeps only +-, which is then the one maximal clan and its own down-set
    return 0b1 if tuple(m) == (1, 2) else _CONTAINED(self, m)


def _full_mask_without_bit_0(self, m):
    mask = _CONTAINED(self, m)
    return mask ^ 1 if mask == self.full else mask


@pytest.mark.parametrize(
    "owner,attr,fake,message",
    [
        (InclusionPoset, "_contained", _principal_mask_at_1_2, "m=(1, 2): irreducible=True, expected False"),
        (verify, "as_interval_permutation", lambda clan: None, "m=(2, 2): wrong witness"),
        (verify, "gamma_w", lambda w, p: parse_clan("+-"), "m=(2, 2): component is not gamma_w"),
        # 11 stays the one maximal clan of {-+, 11}, whose down-set is all three clans
        (InclusionPoset, "_contained", _full_mask_without_bit_0, "m=(2, 2): contained set is not the lower ideal"),
    ],
)
def test_criterion_2_names_each_failed_subcheck(monkeypatch, owner, attr, fake, message):
    # the patches go on the class and on verify's bindings, never on the
    # cached poset of (1,1), and monkeypatch undoes them after the test
    monkeypatch.setattr(owner, attr, fake)
    result = verify.irreducibility_checks(max_total=2)
    assert result.passed is False
    assert result.detail == f"(1,1) {message}"


def test_out_to_unopenable_path_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "clans.txt"
    assert main(["clans", "enumerate", "--p", "1", "--q", "1", "--out", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("clanhess: error: ") and str(target) in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "clans.txt"
    status, lines = run(capsys, "clans", "enumerate", "--p", "1", "--q", "1", "--out", str(target))
    assert status == 0 and lines == []
    assert target.read_text().splitlines() == ["+-", "-+", "11"]


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["clans", "stats", "--p", "9", "+-"], "p=9"),
        (["class", "--p", "9", "11"], "p=9"),
        (["clans", "stats", "--q", "9", "+-"], "q=9"),
    ],
)
def test_a_lone_bound_is_checked(argv, bound, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"expected {bound}" in err and "None" not in err


def test_shape_validation(capsys):
    # the message of clans._check_shape, which the library raises too
    assert main(["clans", "enumerate", "--p", "1", "--q", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "clanhess: error: need p >= q >= 1, got (1,2)\n"
    assert main(["clans", "enumerate", "--p", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "clanhess: error: this command needs both --p and --q\n"


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_verify_help_shows_the_check_defaults(capsys, monkeypatch):
    # the --max-n help is built from the two constants, not restated by hand
    for classification, oracle in ((verify.CLASSIFICATION_MAX_TOTAL, verify.ORACLE_MAX_TOTAL), (9, 5)):
        monkeypatch.setattr(verify, "CLASSIFICATION_MAX_TOTAL", classification)
        monkeypatch.setattr(verify, "ORACLE_MAX_TOTAL", oracle)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"default: {classification} for the classification, {oracle} for the geometric oracle)" in text


# Each command adds its arguments only when a parse reaches it.  The sha256 of
# each --help text, at 80 columns, as the parser that built every command's
# arguments up front printed it (CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0;
# from 3.13 argparse keeps the top-level usage's "..." on its choices' line).
_HELP_SHA256 = {
    "": "1dac50301a14054f4344824257259b7b70e2f7da9e0a6eda25d3165ad9f2fd23"
    if sys.version_info >= (3, 13)
    else "4988094c50845d83d3ca6c8cf37d05d4126519b83f857a51ca7a2d65915de5ba",
    "clans": "11aa2ea04e27f80c95840a7daf1964cf1721b785b857a6e8177826b77b88e912",
    "clans enumerate": "f6755d96567bfec175d233803e2088f8004d18f0082e1a6fd9b8822fa36717a1",
    "clans stats": "6437f6f2b0616f14c8d445f3c78e9e9e8d2167e370d116e1e118bb33eb84b661",
    "poset": "604e83dfa8c54809b75abf96315e5c7450255992e632e39ce88662c42a038b0d",
    "wset": "970820639524bf9a1472053e41693a9dd6a0464e39091ce327f0d27a95f7bfb3",
    "wset-bijection": "b072a72f9e2d69e6f3d4f59cad3a9b705cd33ab0558aea1f1981273b1c0647dc",
    "class": "e468de7c596cf9a131b6bc0a2b7580805808cfecd0c46ef1009a5a3588af1b0e",
    "hess": "9f8197383f335ae82a427d47ab5ee1f760c57f069b4e1a094f921df52ad9c7ae",
    "hess classify": "4c01e78d3ec952aadc02db7bc86a4bcd49e82b188313f259400c81a27e8d7201",
    "hess report": "ef9bf03d7011ef3d2afebe356532d420ed47ba1ebd8d678da6b0cfef1b6fd0e9",
    "hess dim": "2bf0d2f48a2ba4150e89fcd40aa68d0ca3e7f2dcf3a62f621e9da4938517945a",
    "monk": "c5fbc35826f2610d6c3c0e481a8f2d09ca14e53730787df31ef6da3d572db246",
    "scan": "b677a82041934404dde0929a72f0122e0256d3bbea7a988716329fd6af1ce5d0",
    "scan multfree": "76e283273c0598a291911d23ea4c0952ba89788a9303358c0325c113a49836dc",
    "verify": "8320c38c0480e7cd57a2d856d26bd15488a86ed76608b502db044048e09bc209",
}

_TOP_USAGE = "usage: clanhess [-h]\n                {clans,poset,wset,wset-bijection,class,hess,monk,scan,verify}" + (
    " ...\n" if sys.version_info >= (3, 13) else "\n                ...\n"
)
_VERIFY_USAGE = (
    "usage: clanhess verify [-h] [--max-n MAX_N] [--seed SEED] [--out FILE]\n"
    "                       {all,irreducible,oracle,wsets,monk}\n"
)
_COMMANDS = "'clans', 'poset', 'wset', 'wset-bijection', 'class', 'hess', 'monk', 'scan', 'verify'"


@pytest.mark.parametrize("path", sorted(_HELP_SHA256))
def test_help_keeps_its_bytes(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*path.split(), "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_SHA256[path]


@pytest.mark.parametrize(
    "argv,stderr",
    [
        ([], _TOP_USAGE + "clanhess: error: the following arguments are required: command\n"),
        (
            ["clans"],
            "usage: clanhess clans [-h] {enumerate,stats} ...\n"
            "clanhess clans: error: the following arguments are required: clans_command\n",
        ),
        (["verify"], _VERIFY_USAGE + "clanhess verify: error: the following arguments are required: target\n"),
        (
            ["verify", "bogus"],
            _VERIFY_USAGE + "clanhess verify: error: argument target: invalid choice: 'bogus' "
            "(choose from 'all', 'irreducible', 'oracle', 'wsets', 'monk')\n",
        ),
        (
            ["ver", "all"],
            _TOP_USAGE + f"clanhess: error: argument command: invalid choice: 'ver' (choose from {_COMMANDS})\n",
        ),
    ],
)
def test_usage_errors_keep_their_text(argv, stderr, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr() == ("", stderr)


def test_option_abbreviations_resolve(capsys):
    status, lines = run(capsys, "verify", "all", "--max", "4")
    assert status == 0 and "4 shapes," in lines[1]
    status, lines = run(capsys, "clans", "stats", "--form", "json", "+1+-2+21")
    assert status == 0 and json.loads(lines[0])["dimension"] == 21
