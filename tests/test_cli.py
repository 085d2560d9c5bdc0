"""End-to-end tests of the command-line front end (exit codes and output)."""

import json

import pytest

from clanhess import verify
from clanhess.cli import main
from clanhess.clans import clan_from_json
from clanhess.perms import parse_permutation
from clanhess.schubert import SchubertExpansion


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


def test_hess_dim(capsys):
    status, lines = run(capsys, "hess", "dim", "213", "--p", "3")
    assert status == 0
    assert lines == ["m(w) = 5,5,6,6,6,6", "dimension: 13  (= area 13)"]


def test_hess_dim_rejects_231_pattern(capsys):
    status, _ = run(capsys, "hess", "dim", "231", "--p", "3")
    assert status == 1


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


def test_verify_failure_exits_2(capsys, monkeypatch):
    def failing():
        return verify.CheckResult("w-set-bijection", False, "forced failure", 0.0)

    patched = tuple(
        (name, failing if name == "w-set-bijection" else check)
        for name, check in verify.CRITERIA
    )
    monkeypatch.setattr(verify, "CRITERIA", patched)
    status, lines = run(capsys, "verify", "wsets")
    assert status == 2
    assert lines[0].startswith("FAIL criterion 5")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "clans.txt"
    status, lines = run(capsys, "clans", "enumerate", "--p", "1", "--q", "1", "--out", str(target))
    assert status == 0 and lines == []
    assert target.read_text().splitlines() == ["+-", "-+", "11"]


def test_shape_validation(capsys):
    status, _ = run(capsys, "clans", "enumerate", "--p", "1", "--q", "2")
    assert status == 1
    status, _ = run(capsys, "clans", "enumerate", "--p", "2")
    assert status == 1


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
