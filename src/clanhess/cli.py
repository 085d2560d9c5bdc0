"""Command-line front end.

Examples::

    clanhess clans enumerate --p 1 --q 1
    clanhess clans stats +1+-2+21
    clanhess poset weak --p 3 --q 3 --interval --format dot
    clanhess poset inclusion --p 2 --q 1 --format json
    clanhess wset --p 3 --q 3 123
    clanhess wset-bijection --p 3 213
    clanhess class --p 3 --q 3 123
    clanhess hess classify --p 2 --q 2
    clanhess hess report --p 2 --q 2 1,3,4,4
    clanhess hess dim --p 3 213
    clanhess monk 1 123 --p 3 --q 3
    clanhess scan multfree --p 2 --q 2
    clanhess verify all

Wherever a clan is expected, a one-line permutation w of length q may be
given instead and names the interval clan gamma_w (this is unambiguous:
clan strings contain signs or repeated labels, one-line permutations never
do).  Clan strings starting with ``-`` need the usual ``--`` separator,
e.g. ``clanhess clans stats -- -+``.

Exit codes: 0 success, 1 validation error or unwritable --out file,
2 verification failure.
All emitted sets are sorted (clans by symbol string, permutations by
length then one-line notation) so output is diffable.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .clans import (
    Clan,
    clan_to_json,
    enumerate_clans,
    gamma_w,
    interval_clans,
    orbit_dimension,
    parse_clan,
    render_clan,
    statistics,
)
from .hessenberg import area, classify_irreducibles, hess_dimension, hess_orbit_report, m_of_w
from .perms import Permutation, parse_permutation, render_permutation, render_word
from .poset import InclusionPoset, inclusion_poset
from .schubert import brion_class, divisor_product_scan, monk_product
from .weak_order import build_graph, factorization_bijection, graph_to_dot, graph_to_json, w_set


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _perm_sort_key(w: Permutation):
    return (w.length(), w.key)


def _compact(w: Permutation, n: int) -> str:
    images = w.embedded(n).images
    if max(images, default=1) <= 9:
        return "".join(str(v) for v in images)
    return render_permutation(w, n)


def _clan_argument(text: str, p: int | None, q: int | None) -> Clan:
    """Dual parse: a one-line permutation of length q names gamma_w."""
    stripped = text.strip()
    if stripped and all(ch.isdigit() and ch != "0" for ch in stripped):
        letters = tuple(int(ch) for ch in stripped)
        if sorted(letters) == list(range(1, len(letters) + 1)):
            if q is not None and len(letters) != q:
                raise ValueError(f"permutation {stripped!r} has length {len(letters)}, expected q={q}")
            if p is None:
                raise ValueError("interval clan gamma_w needs --p")
            return gamma_w(Permutation(letters), p)
    return parse_clan(stripped, p, q)


def _parse_vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    entries = text.split(",") if "," in text else list(text)
    if entries and all(entry.strip().isdecimal() for entry in entries):
        return tuple(map(int, entries))
    raise ValueError(f"bad Hessenberg vector {text!r}: expected 1,3,4,4 or compact digits")


def _validated_shape(args) -> tuple[int, int]:
    p, q = args.p, args.q
    if p is None or q is None:
        raise ValueError("this command needs both --p and --q")
    if not 1 <= q <= p:
        raise ValueError(f"need p >= q >= 1, got p={p}, q={q}")
    return p, q


# ---------------------------------------------------------------------------
# subcommand handlers, each returning (exit_code, lines)
# ---------------------------------------------------------------------------


def _cmd_clans(args) -> tuple[int, list[str]]:
    if args.clans_command == "enumerate":
        p, q = _validated_shape(args)
        clans = enumerate_clans(p, q)
        if args.format == "json":
            return 0, [json.dumps([clan_to_json(c) for c in clans])]
        return 0, [render_clan(c) for c in clans]
    clan = _clan_argument(args.clan, args.p, args.q)
    st = statistics(clan)
    if args.format == "json":
        payload = clan_to_json(clan)
        payload.update(
            plus_counts=list(st.plus_counts),
            minus_counts=list(st.minus_counts),
            pair_matrix=[list(row) for row in st.pair_matrix],
            dimension=orbit_dimension(clan),
        )
        return 0, [json.dumps(payload)]
    lines = [
        f"clan: {render_clan(clan)}  (p={clan.p}, q={clan.q})",
        "plus:  " + " ".join(str(v) for v in st.plus_counts),
        "minus: " + " ".join(str(v) for v in st.minus_counts),
        "pairs:",
    ]
    lines.extend("  " + " ".join(str(v) for v in row) for row in st.pair_matrix)
    lines.append(f"dimension: {orbit_dimension(clan)}")
    return 0, lines


def _cmd_poset(args) -> tuple[int, list[str]]:
    p, q = _validated_shape(args)
    if args.order == "weak":
        graph = build_graph(p, q, interval_only=args.interval)
        text = graph_to_dot(graph) if args.format == "dot" else graph_to_json(graph)
        return 0, [text]
    poset = InclusionPoset(interval_clans(p, q)) if args.interval else inclusion_poset(p, q)
    nodes = poset.clans
    covers = [(nodes[i], nodes[j]) for i, j in poset.covers()]
    if args.format == "json":
        payload = {
            "p": p,
            "q": q,
            "order": "inclusion",
            "interval": args.interval,
            "nodes": [render_clan(c) for c in nodes],
            "covers": [
                {"source": render_clan(a), "target": render_clan(b)} for a, b in covers
            ],
        }
        return 0, [json.dumps(payload)]
    lines = ["digraph inclusion {"]
    lines.extend(f'  "{render_clan(c)}";' for c in nodes)
    lines.extend(f'  "{render_clan(a)}" -> "{render_clan(b)}";' for a, b in covers)
    lines.append("}")
    return 0, ["\n".join(lines)]


def _cmd_wset(args) -> tuple[int, list[str]]:
    clan = _clan_argument(args.clan, args.p, args.q)
    elements = sorted(w_set(clan), key=_perm_sort_key)
    if args.format == "json":
        payload = [
            {"word": list(x.reduced_word()), "one_line": list(x.key)} for x in elements
        ]
        return 0, [json.dumps(payload)]
    return 0, [render_word(x.reduced_word()) for x in elements]


def _cmd_wset_bijection(args) -> tuple[int, list[str]]:
    w = parse_permutation(args.w)
    rows = sorted(
        factorization_bijection(w, args.p).items(),
        key=lambda row: (_perm_sort_key(row[0][0]), _perm_sort_key(row[0][1])),
    )
    if args.format == "json":
        payload = [
            {
                "u": list(u.key),
                "v": list(v.key),
                "element": list(x.key),
                "word": list(x.reduced_word()),
            }
            for (u, v), x in rows
        ]
        return 0, [json.dumps(payload)]
    q = w.degree
    lines = [
        f"{render_permutation(u, q)} * phi({render_permutation(v, q)}) = {render_word(x.reduced_word())}"
        for (u, v), x in rows
    ]
    lines.append(f"|W| = {len(rows)}")
    return 0, lines


def _cmd_class(args) -> tuple[int, list[str]]:
    clan = _clan_argument(args.clan, args.p, args.q)
    expansion = brion_class(clan)
    if args.format == "json":
        return 0, [json.dumps(expansion.to_json())]
    return 0, [expansion.render(n=clan.n)]


def _cmd_hess(args) -> tuple[int, list[str]]:
    if args.hess_command == "classify":
        p, q = _validated_shape(args)
        table = classify_irreducibles(p, q)
        rows = sorted(table.items(), key=lambda wm: _perm_sort_key(wm[0]))
        if args.format == "json":
            return 0, [
                json.dumps({_compact(w, q): list(m) for w, m in rows})
            ]
        return 0, [
            f"{_compact(w, q)} -> {','.join(str(v) for v in m)}" for w, m in rows
        ]
    if args.hess_command == "report":
        p, q = _validated_shape(args)
        m = _parse_vector(args.m)
        rep = hess_orbit_report(p, q, m)
        if args.format == "json":
            return 0, [json.dumps(rep.to_json())]
        lines = [
            f"m = {','.join(str(v) for v in rep.m)}  (p={p}, q={q})",
            f"contained orbits: {len(rep.contained)}",
            "maximal: " + " ".join(render_clan(c) for c in rep.maximal),
            f"irreducible: {'yes' if rep.irreducible else 'no'}",
        ]
        if rep.witness is not None:
            lines.append(f"witness: {_compact(rep.witness, q)}")
            lines.append(f"dimension: {area(m)}")
        return 0, lines
    # hess dim <w>
    w = parse_permutation(args.w)
    p = args.p
    m = m_of_w(w, p)
    lines = [
        f"m(w) = {','.join(str(v) for v in m)}",
        f"dimension: {hess_dimension(w, p)}  (= area {area(m)})",
    ]
    return 0, lines


def _cmd_monk(args) -> tuple[int, list[str]]:
    clan = _clan_argument(args.clan, args.p, args.q)
    expansion = brion_class(clan)
    n = clan.n
    if args.stable:
        product = monk_product(args.m, expansion)
        rendered = product.render()
    else:
        product = monk_product(args.m, expansion, n=n)
        rendered = product.render(n=n)
    if args.format == "json":
        return 0, [json.dumps(product.to_json())]
    return 0, [rendered]


def _cmd_scan(args) -> tuple[int, list[str]]:
    p, q = _validated_shape(args)
    n = p + q
    max_m = args.max_m if args.max_m is not None else n - 1
    if not 1 <= max_m <= n - 1:
        raise ValueError(f"--max-m must lie in 1..{n - 1} at (p,q)=({p},{q}), got {max_m}")
    failures, products = divisor_product_scan(enumerate_clans(p, q), max_m)
    lines = [f"multiplicity {worst} at clan {render_clan(clan)}, m={m}" for clan, m, worst in failures]
    if failures:
        lines.append(f"{len(failures)} of {products} products carry multiplicity >= 2")
    else:
        lines.append(f"no multiplicity >= 2 in {products} divisor products at (p,q)=({p},{q})")
    return 0, lines


def _cmd_verify(args) -> tuple[int, list[str]]:
    if args.max_n is not None:
        verify_mod.check_max_total(args.max_n, "--max-n")
    options = (("--max-n", "max_total", args.max_n), ("--seed", "seed", args.seed))
    # without --max-n or --seed, each check keeps its own default
    given = {key: value for _, key, value in options if value is not None}
    for flag, key, _ in options:
        reached = [row[1] for row in verify_mod.CRITERIA if row[1] and key in row[3]] + ["all"]
        if key in given and args.target not in reached:
            raise ValueError(f"{flag} reaches only verify {'/'.join(reached)}, not verify {args.target}")
    results = [
        (i, check(**{key: given[key] for key in keys if key in given}))
        for i, (_, target, check, keys) in enumerate(verify_mod.CRITERIA, 1)
        if args.target in ("all", target)
    ]
    status = 0 if all(res.passed for _, res in results) else 2
    return status, [verify_mod.format_result(res, i) for i, res in results]


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="clanhess", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats=("text", "json"), shape=True):
        sp.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[0])
        # shape=False: q is the degree of the command's permutation
        sp.add_argument("--p", type=int, required=not shape, help="number of + signs")
        if shape:
            sp.add_argument("--q", type=int, help="number of - signs")

    clans = sub.add_parser("clans", help="enumerate clans or print statistics")
    clans_sub = clans.add_subparsers(dest="clans_command", required=True)
    en = clans_sub.add_parser("enumerate", help="all clans of shape (p, q)")
    common(en)
    stats = clans_sub.add_parser("stats", help="invariants of one clan")
    stats.add_argument("clan", help="clan string, e.g. +1+-2+21")
    common(stats)

    poset = sub.add_parser("poset", help="inclusion or weak order as DOT/JSON")
    poset.add_argument("order", choices=("inclusion", "weak"))
    poset.add_argument("--interval", action="store_true", help="restrict to interval clans")
    common(poset, formats=("dot", "json"))

    wset = sub.add_parser("wset", help="W-set of a clan (or gamma_w)")
    wset.add_argument("clan", help="clan string, or one-line w of length q")
    common(wset)

    bij = sub.add_parser("wset-bijection", help="W-set via length-additive factorizations")
    bij.add_argument("w", help="one-line permutation, e.g. 213 or [2,1,3]")
    common(bij, shape=False)

    cls = sub.add_parser("class", help="cohomology class of an orbit closure")
    cls.add_argument("clan", help="clan string, or one-line w of length q")
    common(cls)

    hess = sub.add_parser("hess", help="Hessenberg classification commands")
    hess_sub = hess.add_subparsers(dest="hess_command", required=True)
    cl = hess_sub.add_parser("classify", help="all irreducible vectors m(w)")
    common(cl)
    rp = hess_sub.add_parser("report", help="orbit decomposition of one vector")
    rp.add_argument("m", help="Hessenberg vector, e.g. 1,3,4,4 or 1344")
    common(rp)
    dm = hess_sub.add_parser("dim", help="dimension of the variety of m(w)")
    dm.add_argument("w", help="231-avoiding one-line permutation")
    common(dm, formats=(), shape=False)

    monk = sub.add_parser("monk", help="divisor product S_{s_m} * class")
    monk.add_argument("m", type=int, help="divisor index, 1 <= m < n")
    monk.add_argument("clan", help="clan string, or one-line w of length q")
    monk.add_argument("--stable", action="store_true", help="no truncation to S_n")
    common(monk)

    scan = sub.add_parser("scan", help="exploratory scans")
    scan_sub = scan.add_subparsers(dest="scan_command", required=True)
    mf = scan_sub.add_parser("multfree", help="search divisor products for multiplicity >= 2")
    mf.add_argument(
        "--max-m", type=int, default=None, help="largest divisor index to try, 1 <= m < p + q (default: p + q - 1)"
    )
    common(mf, formats=())

    ver = sub.add_parser("verify", help="run verification criteria")
    ver.add_argument("target", choices=("all", *(row[1] for row in verify_mod.CRITERIA if row[1])))
    ver.add_argument(
        "--max-n",
        type=int,
        default=None,
        help=f"largest p + q for exhaustive scans, at least 2 (default: {verify_mod.CLASSIFICATION_MAX_TOTAL} "
        f"for the classification, {verify_mod.ORACLE_MAX_TOTAL} for the geometric oracle, "
        f"which never scans past {verify_mod.ORACLE_MAX_TOTAL})",
    )
    ver.add_argument("--seed", type=int, default=None, help="seed for randomized spot checks (default: 0)")
    ver.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    return parser


_HANDLERS = {
    "clans": _cmd_clans,
    "poset": _cmd_poset,
    "wset": _cmd_wset,
    "wset-bijection": _cmd_wset_bijection,
    "class": _cmd_class,
    "hess": _cmd_hess,
    "monk": _cmd_monk,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    try:
        status, lines = _HANDLERS[args.command](args)
        text = "\n".join(lines)
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    except (ValueError, OSError) as exc:
        print(f"clanhess: error: {exc}", file=sys.stderr)
        return 1
    if text and not out:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
