"""Command-line front end.

Every command prints a single report to stdout in the requested format
(json is the contract; csv and human are views) and is byte-deterministic:
two runs with the same arguments produce identical output.  Exit status is
0 on success, 1 when a verification finds a mismatch, 2 on usage errors.

Point lists are comma-separated; "inf" is the point at infinity and an affine
point is spelled as its n coefficient integers, so over F_4 the pair
{t, inf} is written "0,1,inf".  Group tags follow the census grammar:
cyclic:n, dihedral:n, A4, S4, A5, PSL2:d, PGL2:d, Zp^m, gamma:m:n.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import Callable, Optional, Sequence

from .census import (
    CensusQuery,
    census_report_to_json,
    check_main_theorem_run,
    enum_actions,
    enum_additive_subgroups,
    gaussian_binomial,
    main_theorem_report_to_json,
    parse_group_id,
    verify_main_theorem,
)
from .elliptic import (
    _check_level,
    abelian_subgroup_count,
    aut0,
    base_change,
    ec_points,
    enum_spf_actions,
    fixing_counts_ok,
    max_singleton_bound,
    parse_curve,
    render_curve,
    standard_test_curves,
    torsion_invariant_factors,
    verify_fpf_dichotomy,
)
from .gfq import (
    extension_field,
    parse_element,
    parse_field_spec,
    render_element,
    render_field_spec,
)
from .moebius import (
    mob_fixed_points,
    parse_moebius,
    parse_point_list,
    poly_map_ramification,
    render_moebius,
    render_point,
    verify_p1fp,
)
from .stdgroups import (
    close_generators,
    is_conjugate,
    is_conjugate_bruteforce,
    stabilized_locus,
    subgroup_to_json,
)


def _emit(payload: dict, fmt: str, rows_key: Optional[str], columns: Optional[list[str]], out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2))
        out.write("\n")
        return
    rows = payload.get(rows_key, [])
    cols = columns or []
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in cols})
        out.write(buf.getvalue())
        return
    # human table
    for key in sorted(payload):
        if key == rows_key or key == "schema":
            continue
        out.write(f"{key}: {_human_cell(payload[key])}\n")
    if rows:
        widths = [max(len(c), *(len(_csv_cell(r.get(c))) for r in rows)) for c in cols]
        out.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(_csv_cell(r.get(c)).ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "|".join(_csv_cell(v) for v in value)
    return str(value)


def _human_cell(value) -> str:
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return _csv_cell(value)


def _parse_levels(text: str, check_top: Callable[[int], None]) -> list[int]:
    """Levels "1,2" or a range "1-4".  check_top refuses a range's top level
    before the range is expanded, so a huge range fills no memory."""
    text = text.strip()
    if "-" in text:
        lo, _, hi = text.partition("-")
        lo, hi = int(lo), int(hi)
        if lo <= hi:
            check_top(hi)
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",") if t.strip()]


def _group_from_args(spec, args):
    if args.gens:
        gens = [parse_moebius(spec, g) for g in args.gens.split("|")]
        return close_generators(gens)
    if not args.group:
        raise ValueError("either --group or --gens is required")
    from .census import _standard_models

    kind, params = parse_group_id(args.group)
    models = _standard_models(spec, kind, params)
    if not models:
        raise ValueError(f"no standard model for {args.group} over {render_field_spec(spec)}")
    return models[0]


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, payload, rows_key, columns)


def _cmd_field_info(args):
    spec = parse_field_spec(args.field)
    payload = {
        "schema": "pglcensus/field-info/v1",
        "field": render_field_spec(spec),
        "p": spec.p,
        "n": spec.n,
        "q": spec.q,
        "modulus": list(spec.modulus),
        "pgl2_order": spec.q ** 3 - spec.q,
    }
    return 0, payload, None, None


def _cmd_fixed_points(args):
    spec = parse_field_spec(args.field)
    m = parse_moebius(spec, args.map)
    pts = mob_fixed_points(m, args.ext)
    payload = {
        "schema": "pglcensus/fixed-points/v1",
        "field": render_field_spec(spec),
        "map": render_moebius(m),
        "ext": args.ext,
        "count": len(pts),
        "fixed_points": [{"point": render_point(P)} for P in pts],
    }
    return 0, payload, "fixed_points", ["point"]


def _cmd_build_group(args):
    spec = parse_field_spec(args.field)
    H = _group_from_args(spec, args)
    payload = {"schema": "pglcensus/subgroup/v1", **subgroup_to_json(H, args.ext)}
    return 0, payload, None, None


def _cmd_locus(args):
    spec = parse_field_spec(args.field)
    H = _group_from_args(spec, args)
    pts = stabilized_locus(H, args.ext)
    payload = {
        "schema": "pglcensus/locus/v1",
        "field": render_field_spec(spec),
        "group": H.tag,
        "order": H.order,
        "ext": args.ext,
        "count": len(pts),
        "locus": [{"point": render_point(P)} for P in pts],
    }
    return 0, payload, "locus", ["point"]


def _cmd_conjugate(args):
    spec = parse_field_spec(args.field)
    H1 = close_generators([parse_moebius(spec, g) for g in args.gens1.split("|")])
    H2 = close_generators([parse_moebius(spec, g) for g in args.gens2.split("|")])
    witness = (
        is_conjugate_bruteforce(H1, H2, args.ext)
        if args.brute
        else is_conjugate(H1, H2, args.ext)
    )
    payload = {
        "schema": "pglcensus/conjugate/v1",
        "field": render_field_spec(spec),
        "ext": args.ext,
        "order1": H1.order,
        "order2": H2.order,
        "conjugate": witness is not None,
        "witness": None if witness is None else render_moebius(witness),
        "witness_field": None if witness is None else render_field_spec(witness.spec),
        "method": "bruteforce" if args.brute else "transporter",
    }
    return 0, payload, None, None


def _cmd_census(args):
    spec = parse_field_spec(args.field)
    ext = extension_field(spec, args.ext)
    locus = tuple(parse_point_list(ext, args.locus))
    report = enum_actions(CensusQuery(spec, args.group, locus, r=args.ext))
    payload = census_report_to_json(report)
    return 0, payload, "matches", ["tag", "order", "generators", "locus"]


def _cmd_additive_subgroups(args):
    spec = parse_field_spec(args.field)
    subs = enum_additive_subgroups(spec, args.rank)
    payload = {
        "schema": "pglcensus/additive-subgroups/v1",
        "field": render_field_spec(spec),
        "rank": args.rank,
        "count": len(subs),
        "gaussian_binomial": gaussian_binomial(spec.n, args.rank, spec.p),
        "subgroups": [
            {"basis": [render_element(b) for b in G.basis]} for G in subs
        ],
    }
    return 0, payload, "subgroups", ["basis"]


def _cmd_verify_p1fp(args):
    spec = parse_field_spec(args.field)
    rep = verify_p1fp(spec)
    payload = {
        "schema": "pglcensus/verify-p1fp/v1",
        "field": render_field_spec(spec),
        "group_order": rep.group_order,
        "checked": rep.checked,
        "violations": list(rep.violations),
        "ok": rep.ok,
        "summary": (
            f"{rep.checked} non-identity elements of PGL2(F_{spec.q}) checked: "
            f"every fixed-point count lies in {{1,2}}, and it equals 1 exactly "
            f"for the elements of order {spec.p}"
            if rep.ok
            else f"{len(rep.violations)} violations"
        ),
    }
    return 0 if rep.ok else 1, payload, None, None


def _cmd_verify_main(args):
    extra = []
    if args.tags:
        for part in args.tags.split(";"):
            part = part.strip()
            if not part:
                continue
            tag, _, locus_text = part.partition("@")
            if not locus_text:
                raise ValueError(f"--tags entries look like tag@locus, got {part!r}")
            extra.append((tag, locus_text))
    m_values = None if args.m is None else [args.m]
    levels = _parse_levels(args.levels, lambda top: check_main_theorem_run(args.p, top, m_values))
    report = verify_main_theorem(args.p, levels, m_values=m_values, extra_queries=extra)
    payload = main_theorem_report_to_json(report)
    return (0 if report.ok else 1), payload, "dichotomy", ["n", "m", "census", "subspaces", "oracle", "gaussian", "ok"]


def _cmd_verify_genus1(args):
    if args.curve:
        curves = [("curve", parse_curve(args.curve))]
    else:
        curves = list(standard_test_curves())

    def check_top(top):
        for _, E in curves:
            _check_level(E, top)

    levels = _parse_levels(args.levels, check_top)
    rows = []
    ok = True
    for name, E in curves:
        dich = verify_fpf_dichotomy(E, levels)
        Er = base_change(E, args.ext)
        pts = ec_points(Er)
        auts = aut0(Er)
        fixing_ok = fixing_counts_ok(Er)
        spf_ok = all(
            len(enum_spf_actions(Er, n)) == abelian_subgroup_count(torsion_invariant_factors(Er, n), n)
            for n in (1, 2, 3, 4)
        )
        curve_ok = dich.ok and fixing_ok and spf_ok
        ok = ok and curve_ok
        rows.append(
            {
                "curve": render_curve(E),
                "name": name,
                "points": len(pts),
                "aut0": len(auts),
                "dichotomy_ok": dich.ok,
                "fixing_counts_ok": fixing_ok,
                "spf_counts_ok": spf_ok,
                "max_singleton_bound": max_singleton_bound(Er),
                "ok": curve_ok,
                "violations": list(dich.violations),
            }
        )
    payload = {
        "schema": "pglcensus/verify-genus1/v1",
        "levels": levels,
        "ext": args.ext,
        "curves": rows,
        "ok": ok,
    }
    return (0 if ok else 1), payload, "curves", [
        "name",
        "curve",
        "points",
        "aut0",
        "dichotomy_ok",
        "fixing_counts_ok",
        "spf_counts_ok",
        "max_singleton_bound",
        "ok",
    ]


def _cmd_ramification(args):
    spec = parse_field_spec(args.field)
    tokens = [t for t in args.poly.split(",") if t.strip() != ""]
    if len(tokens) % spec.n != 0:
        raise ValueError(f"--poly must hold a whole number of {spec.n}-coefficient elements")
    coeffs = [
        parse_element(spec, ",".join(tokens[i : i + spec.n]))
        for i in range(0, len(tokens), spec.n)
    ]
    ram = poly_map_ramification(coeffs, args.ext)
    payload = {
        "schema": "pglcensus/ramification/v1",
        "field": render_field_spec(spec),
        "degree": ram[-1].index,  # infinity, listed last, has index deg f
        "ext": args.ext,
        "count": len(ram),
        "ramification": [
            {"point": render_point(rp.point), "index": rp.index, "tame": rp.tame}
            for rp in ram
        ],
    }
    return 0, payload, "ramification", ["point", "index", "tame"]


# ---------------------------------------------------------------------------
# argument parsing


# name -> (handler, help, arguments): each argument is (flag, add_argument
# keywords), after the --format every command takes
_COMMANDS = {
    "field-info": (_cmd_field_info, "describe a finite field", (
        ("--field", dict(required=True, help='field spec, e.g. "5^2" or "2^2/1,1,1"')),
    )),
    "fixed-points": (_cmd_fixed_points, "fixed points of a Moebius map", (
        ("--field", dict(required=True)),
        ("--map", dict(required=True, help='matrix "[a,b;c,d]"')),
        ("--ext", dict(type=int, default=2, help="extension degree for the fixed points (2 captures all)")),
    )),
    "build-group": (_cmd_build_group, "build a standard subgroup or close generators", (
        ("--field", dict(required=True)),
        ("--group", dict(help="classification tag, e.g. cyclic:4")),
        ("--gens", dict(help='generators "[..]|[..]" (overrides --group)')),
        ("--ext", dict(type=int, default=2, help="extension degree for the reported locus")),
    )),
    "locus": (_cmd_locus, "stabilized locus of a subgroup", (
        ("--field", dict(required=True)),
        ("--group", dict()),
        ("--gens", dict()),
        ("--ext", dict(type=int, default=2)),
    )),
    "conjugate": (_cmd_conjugate, "decide conjugacy of two subgroups", (
        ("--field", dict(required=True)),
        ("--gens1", dict(required=True)),
        ("--gens2", dict(required=True)),
        ("--ext", dict(type=int, default=1, help="conjugators are searched over F_{q^ext}")),
        ("--brute", dict(action="store_true", help="full scan of PGL2 instead of transporter search")),
    )),
    "census": (_cmd_census, "all subgroups with a given tag and stabilized locus", (
        ("--field", dict(required=True)),
        ("--group", dict(required=True)),
        ("--locus", dict(required=True, help='e.g. "0,inf" (points over the --ext field)')),
        ("--ext", dict(type=int, default=1, help="census runs in PGL2(F_{q^ext})")),
        ("--jobs", dict(type=int, default=1, help="accepted and ignored (the census runs serially)")),
    )),
    "additive-subgroups": (_cmd_additive_subgroups, "rank-m additive subgroups of the field", (
        ("--field", dict(required=True)),
        ("--rank", dict(type=int, required=True)),
    )),
    "verify-p1fp": (_cmd_verify_p1fp, "exhaustive fixed-point dichotomy over one field", (
        ("--field", dict(required=True)),
    )),
    "verify-main": (_cmd_verify_main, "finite/infinite census dichotomy across field levels", (
        ("--p", dict(type=int, required=True, help="any prime whose rows stay within census.WORK_BOUND")),
        ("--levels", dict(default="1-2", help='e.g. "1-4" or "1,2"')),
        ("--m", dict(type=int, help="restrict to one rank, in 1..max(levels) (default: all m <= n)")),
        ("--tags", dict(help='extra constant-count queries "tag@locus;tag@locus"')),
    )),
    "verify-genus1": (_cmd_verify_genus1, "genus-1 verification suite", (
        ("--curve", dict(help='curve spec "p^n:a=...,b=..." (default: the versioned suite)')),
        ("--ext", dict(type=int, default=1, help="level for point scans")),
        ("--levels", dict(default="1-3", help="levels for the fixed-point dichotomy")),
    )),
    "ramification": (_cmd_ramification, "ramification locus of a polynomial self-map", (
        ("--field", dict(required=True)),
        ("--poly", dict(required=True, help="coefficients, constant term first")),
        ("--ext", dict(type=int, default=1)),
    )),
}


@functools.cache  # parse_args leaves a parser as it is, so one per command serves every call
def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with every command's subparser, or, for a command name,
    with that one alone: a process that runs one command builds one of the
    eleven.  Its usage line still lists every command, as argparse's errors
    print it, so help and error output is the same either way."""
    parser = argparse.ArgumentParser(
        prog="pglcensus",
        description="Exact census of finite group actions on P^1 and on elliptic curves over finite fields.",
    )
    # the metavar argparse makes from the full choice list
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        handler, help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "csv", "human"), default="json")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no arguments, -h and an unknown name get the full parser, which lists
    # every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    stream = out if out is not None else sys.stdout
    if stream is None:  # started with stdout closed
        print("error: stdout is closed", file=sys.stderr)
        return 2
    try:
        code, payload, rows_key, columns = args.handler(args)
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        _emit(payload, args.format, rows_key, columns, stream)
        stream.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`): the verdict stands, and stdout
        # goes to devnull so the interpreter's final flush cannot fail again
        if stream is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
