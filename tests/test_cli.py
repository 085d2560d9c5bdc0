"""End-to-end tests of the command-line front end (exit codes and output)."""

import json
import re

import pytest

from clanhess import schubert, verify
from clanhess.cli import main
from clanhess.clans import clan_from_json, enumerate_clans, interval_clans, parse_clan, render_clan
from clanhess.perms import parse_permutation
from clanhess.poset import InclusionPoset
from clanhess.schubert import SchubertExpansion, brion_class
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


def test_hess_classify_2_2(capsys):
    status, lines = run(capsys, "hess", "classify", "--p", "2", "--q", "2")
    assert status == 0
    assert lines == ["12 -> 3,4,4,4", "21 -> 4,4,4,4"]


def test_hess_report_text_and_json(capsys):
    status, lines = run(capsys, "hess", "report", "--p", "2", "--q", "2", "1,3,4,4")
    assert status == 0
    assert "irreducible: no" in lines
    status, lines = run(capsys, "hess", "report", "--p", "2", "--q", "2", "3444", "--format", "json")
    assert status == 0
    data = json.loads(lines[0])
    assert data["irreducible"] and data["witness"] == "[1,2]"


def test_hess_report_rejects_bad_vector(capsys):
    status, _ = run(capsys, "hess", "report", "--p", "2", "--q", "2", "1,2,3,9")
    assert status == 1


@pytest.mark.parametrize("vector", ["1,3,,4", "2.0,2", "1,3,4,", "13a4", ""])
def test_hess_report_names_an_unreadable_vector(vector, capsys):
    assert main(["hess", "report", "--p", "2", "--q", "2", vector]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"clanhess: error: bad Hessenberg vector {vector!r}: expected 1,3,4,4 or compact digits\n"


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
    the unpatched ``monk_product``."""
    real = schubert.monk_product

    def doubled(m, expansion, n=None):
        coeffs = dict(real(m, expansion, n).coeffs)
        if coeffs:
            coeffs[min(coeffs, key=lambda w: w.key)] *= 2
        return SchubertExpansion(coeffs)

    monkeypatch.setattr(schubert, "monk_product", doubled)
    return real


def test_scan_multfree_reports_each_failing_product(capsys, monkeypatch):
    real = _double_one_coefficient(monkeypatch)
    status, lines = run(capsys, "scan", "multfree", "--p", "2", "--q", "1")
    assert status == 0
    failing = [
        f"multiplicity 2 at clan {render_clan(c)}, m={m}"
        for c in enumerate_clans(2, 1)
        for m in (1, 2)
        if real(m, brion_class(c), 3).coeffs
    ]
    assert failing and lines == [*failing, f"{len(failing)} of 12 products carry multiplicity >= 2"]


def test_verify_monk_fails_on_a_multiplicity(capsys, monkeypatch):
    _double_one_coefficient(monkeypatch)
    status, lines = run(capsys, "verify", "monk")
    assert status == 2
    assert len(lines) == 1 and lines[0].startswith("FAIL criterion 7 (monk-products): (1,1) w=")
    assert re.search(r"\(\d,\d\) w=\(\d*(, \d)*\) m=\d: coefficients not all 1", lines[0])


def test_verify_subset_passes(capsys):
    status, lines = run(capsys, "verify", "wsets")
    assert status == 0
    assert len(lines) == 1 and lines[0].startswith("PASS criterion 5")


def test_verify_oracle_reports_the_clamp(capsys):
    status, lines = run(capsys, "verify", "oracle", "--max-n", "7")
    assert status == 0
    assert "agreements across p + q <= 6 (p + q <= 7 requested, clamped to 6)," in lines[0]
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


_CONTAINED = InclusionPoset.contained


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
        (InclusionPoset, "contained", _principal_mask_at_1_2, "m=(1, 2): irreducible=True, expected False"),
        (verify, "as_interval_permutation", lambda clan: None, "m=(2, 2): wrong witness"),
        (verify, "gamma_w", lambda w, p: parse_clan("+-"), "m=(2, 2): component is not gamma_w"),
        # 11 stays the one maximal clan of {-+, 11}, whose down-set is all three clans
        (InclusionPoset, "contained", _full_mask_without_bit_0, "m=(2, 2): contained set is not the lower ideal"),
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
    status, _ = run(capsys, "clans", "enumerate", "--p", "1", "--q", "2")
    assert status == 1
    status, _ = run(capsys, "clans", "enumerate", "--p", "2")
    assert status == 1


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
        assert f"default: {classification} for the classification, {oracle} for the geometric oracle" in text
