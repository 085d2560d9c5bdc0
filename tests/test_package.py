"""The lazy package namespace, the modules a fresh process loads, and the
record types.  Each import check runs in a fresh interpreter, since this
test process has loaded every submodule long before."""

import json
import os
import subprocess
import sys

import pytest

import clanhess
from clanhess.clans import ClanStatistics
from clanhess.hessenberg import HessOrbitReport
from clanhess.verify import CheckResult
from clanhess.weak_order import LabeledCover, WeakOrderGraph

SRC = os.path.dirname(os.path.dirname(os.path.abspath(clanhess.__file__)))

# the public names of the package before it became lazy
PUBLIC = {
    "Clan", "ClanStatistics", "CheckResult", "HessOrbitReport", "InclusionPoset", "IntPolynomial",
    "LabeledCover", "Permutation", "SchubertExpansion", "WeakOrderGraph", "area", "avoids",
    "brion_class", "bruhat_leq", "build_graph", "catalan", "clan_count", "clan_length",
    "classify_irreducibles", "covers_from", "dense_clan", "enumerate_clans",
    "expand_in_schubert_basis", "factorization_bijection", "factorization_pairs",
    "flag_representative", "gamma_w", "geometric_membership", "hess_dimension",
    "hess_orbit_report", "hessenberg_vectors", "inclusion_leq", "inclusion_poset",
    "integer_rank", "interval_clans", "is_hessenberg_vector", "is_multiplicity_free",
    "least_hessenberg_vector", "m_of_w", "monk_product", "orbit_dimension", "orbit_in_hess",
    "parse_clan", "parse_permutation", "phi", "product_oracle", "render_clan",
    "render_permutation", "render_word", "run_all", "schubert_polynomial", "statistics",
    "symmetric_group", "w_set", "w_set_via_bijection", "weak_order_leq",
}

# the submodules perfbench/tracer.py reads from sys.modules after importing clanhess.cli
TRACED = ("clans", "perms", "poset", "hessenberg", "weak_order", "schubert", "flag_oracle", "verify")

PRELUDE = """\
import json, sys
def loaded():
    return sorted(k for k in sys.modules if k.startswith("clanhess."))
"""


def _run(code: str, *flags: str):
    """Run code in a fresh interpreter that imports clanhess from this
    checkout; return what it printed as one JSON value."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, *flags, "-c", PRELUDE + code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_public_names_match_the_eager_package():
    assert len(PUBLIC) == 56
    assert sorted(clanhess.__all__) == sorted(PUBLIC)
    assert len(set(clanhess.__all__)) == len(clanhess.__all__)


def test_import_loads_no_submodule():
    assert _run("import clanhess; print(json.dumps(loaded()))") == []


def test_a_name_loads_only_its_module_and_what_that_imports():
    code = "import clanhess; n = clanhess.clan_count(2, 2); print(json.dumps([n, loaded()]))"
    assert _run(code) == [21, ["clanhess.clans", "clanhess.perms"]]


def test_star_import_binds_exactly_all():
    code = """\
import clanhess
before = set(globals())
from clanhess import *
print(json.dumps([sorted(set(globals()) - before - {"before"}), clanhess.__all__]))
"""
    bound, public = _run(code)
    assert bound == sorted(public) and set(public) == PUBLIC


def test_dir_lists_every_public_name_and_submodule():
    listed = set(_run("import clanhess; print(json.dumps(dir(clanhess)))"))
    assert PUBLIC | set(TRACED) | {"cli"} <= listed


def test_a_submodule_resolves_without_an_import():
    code = "import clanhess; print(json.dumps([clanhess.poset.__name__, clanhess.poset.members(5)]))"
    assert _run(code) == ["clanhess.poset", [0, 2]]


def test_a_name_binds_once_in_the_package():
    code = """\
import clanhess
first = clanhess.Permutation
print(json.dumps([vars(clanhess)["Permutation"] is first, first is sys.modules["clanhess.perms"].Permutation]))
"""
    assert _run(code) == [True, True]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        clanhess.no_such_name


def test_cli_loads_every_traced_module_and_no_dataclasses():
    code = """\
import clanhess.cli
print(json.dumps([loaded(), [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""
    modules, unwanted = _run(code, "-S")
    assert set(modules) >= {f"clanhess.{name}" for name in TRACED}
    assert unwanted == []


@pytest.mark.parametrize(
    "record,fields,args,text",
    [
        (
            ClanStatistics,
            ("plus_counts", "minus_counts", "pair_matrix"),
            ((1,), (0,), ((0,),)),
            "ClanStatistics(plus_counts=(1,), minus_counts=(0,), pair_matrix=((0,),))",
        ),
        (
            HessOrbitReport,
            ("p", "q", "m", "contained", "maximal", "irreducible", "witness"),
            (1, 1, (2, 2), (), (), False, None),
            "HessOrbitReport(p=1, q=1, m=(2, 2), contained=(), maximal=(), irreducible=False, witness=None)",
        ),
        (
            CheckResult,
            ("name", "passed", "detail", "seconds"),
            ("c", True, "ok", 0.5),
            "CheckResult(name='c', passed=True, detail='ok', seconds=0.5)",
        ),
        (
            LabeledCover,
            ("source", "target", "labels", "move_types"),
            ("a", "b", (1,), ("IA1",)),
            "LabeledCover(source='a', target='b', labels=(1,), move_types=('IA1',))",
        ),
        (
            WeakOrderGraph,
            ("p", "q", "interval_only", "nodes", "covers"),
            (1, 1, True, (), ()),
            "WeakOrderGraph(p=1, q=1, interval_only=True, nodes=(), covers=())",
        ),
    ],
)
def test_records_keep_their_fields_and_repr(record, fields, args, text):
    assert record._fields == fields
    value = record(*args)
    assert repr(value) == text
    assert value == args and value == record(**dict(zip(fields, args)))
    with pytest.raises(AttributeError):
        value.p = 0
