"""Command-line front end.

Every command prints a single report to stdout in the requested format
(json is the contract; csv and human are views) and is byte-deterministic:
two runs with the same arguments produce identical output.  Exit status is
0 on success, 1 when a verification finds a mismatch or an internal
cross-check fails (stderr says "error: internal check failed", stdout is
empty), 2 on usage errors and on a run that runs out of memory (stderr
says "error: out of memory", stdout is empty).

Point lists are comma-separated; "inf" is the point at infinity and an affine
point is spelled as its n coefficient integers, so over F_4 the pair
{t, inf} is written "0,1,inf".  Group tags follow the census grammar:
cyclic:n, dihedral:n, A4, S4, A5, PSL2:d, PGL2:d, Zp^m, gamma:m:n.

This module keeps the parsers, the dispatch and the writers.  Code that only
one command reaches, its payload included, lives in that command's module
(dichotomy, conjugacy, p1checks), which its handler imports.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

from . import census, elliptic, gfq, moebius, stdgroups


def _emit(payload: dict, fmt: str, rows_key: Optional[str], columns: Optional[list[str]], out) -> None:
    if fmt == "json":
        parts = []
        _json_parts(payload, parts, "\n")
        parts.append("\n")
        out.write("".join(parts))
        return
    rows = payload.get(rows_key, [])
    cols = columns or []
    if fmt == "csv":
        import csv

        if rows_key is None:  # a single record: one row of its keys but the schema
            cols, rows = sorted(k for k in payload if k != "schema"), [payload]
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
        out.write(f"{key}: {_csv_cell(payload[key])}\n")
    if rows:
        widths = [max(len(c), *(len(_csv_cell(r.get(c))) for r in rows)) for c in cols]
        out.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(_csv_cell(r.get(c)).ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")


def _json_parts(value, parts: list, newline: str) -> None:
    """Append the text of value, as json.dumps(value, sort_keys=True,
    indent=2) writes it, to parts; newline is the line break and indent
    before the value's closing bracket.  With indent set, json.dumps runs
    its pure-Python encoder; this writer does the same work in fewer calls.
    It takes str, int, bool, None, lists, tuples and dicts with str keys,
    and refuses anything else, float included, with TypeError."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _json_parts(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(value[key], parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "|".join(_csv_cell(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _parse_levels(text: str, check_top: Callable[[int], None]) -> list[int]:
    """Levels "1,2" or a range "1-4".  check_top refuses a range's top level
    before the range is expanded, so a huge range fills no memory."""
    text = text.strip()
    lo, dash, hi = text.partition("-")
    try:
        levels = [int(lo), int(hi)] if dash else [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        levels = []
    if not levels:
        raise ValueError(f'--levels takes levels "1,2" or a range "1-4", got {text!r}')
    if dash:
        lo, hi = levels
        if lo > hi:
            raise ValueError(f"--levels range {text!r} runs downward; write {hi}-{lo}")
        check_top(hi)
        return list(range(lo, hi + 1))
    return levels


def _group_from_args(spec, args):
    if args.gens:
        gens = [moebius.parse_moebius(spec, g) for g in args.gens.split("|")]
        return stdgroups.close_generators(spec, gens)
    if not args.group:
        raise ValueError("either --group or --gens is required")
    kind, params = census.parse_group_id(args.group)
    models = census._standard_models(spec, kind, params, first=True)
    if not models:
        raise ValueError(f"no standard model for {args.group} over {gfq.render_field_spec(spec)}")
    return models[0]


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, payload, rows_key, columns)


def _cmd_field_info(args):
    spec = gfq.parse_field_spec(args.field)
    payload = {
        "schema": "pglcensus/field-info/v1",
        "field": gfq.render_field_spec(spec),
        "p": spec.p,
        "n": spec.n,
        "q": spec.q,
        "modulus": list(spec.modulus),
        "pgl2_order": spec.pgl2_order,
    }
    return 0, payload, None, None


def _cmd_fixed_points(args):
    spec = gfq.parse_field_spec(args.field)
    g = moebius.parse_moebius(spec, args.map)
    pts = moebius.mob_fixed_points(spec, g, args.ext)
    ext = gfq.extension_field(spec, args.ext)
    payload = {
        "schema": "pglcensus/fixed-points/v1",
        "field": gfq.render_field_spec(spec),
        "map": moebius._render_codes(spec, g),
        "ext": args.ext,
        "count": len(pts),
        "fixed_points": [{"point": moebius.render_point(ext, x)} for x in pts],
    }
    return 0, payload, "fixed_points", ["point"]


def _cmd_build_group(args):
    spec = gfq.parse_field_spec(args.field)
    H = _group_from_args(spec, args)
    payload = {"schema": "pglcensus/subgroup/v1", **stdgroups.subgroup_to_json(H, args.ext)}
    return 0, payload, None, None


def _cmd_locus(args):
    spec = gfq.parse_field_spec(args.field)
    H = _group_from_args(spec, args)
    pts = stdgroups.stabilized_locus(H, args.ext)
    ext = gfq.extension_field(spec, args.ext)
    payload = {
        "schema": "pglcensus/locus/v1",
        "field": gfq.render_field_spec(spec),
        "group": H.tag,
        "order": H.order,
        "ext": args.ext,
        "count": len(pts),
        "locus": [{"point": moebius.render_point(ext, x)} for x in pts],
    }
    return 0, payload, "locus", ["point"]


def _cmd_conjugate(args):
    from . import conjugacy

    spec = gfq.parse_field_spec(args.field)
    H1 = stdgroups.close_generators(spec, [moebius.parse_moebius(spec, g) for g in args.gens1.split("|")])
    H2 = stdgroups.close_generators(spec, [moebius.parse_moebius(spec, g) for g in args.gens2.split("|")])
    return 0, conjugacy.conjugate_to_json(H1, H2, args.ext, args.brute), None, None


def _cmd_census(args):
    spec = gfq.parse_field_spec(args.field)
    ext = gfq.extension_field(spec, args.ext)
    locus = tuple(moebius.parse_point_list(ext, args.locus))
    report = census.enum_actions(census.CensusQuery(spec, args.group, locus, r=args.ext))
    payload = census.census_report_to_json(report)
    return 0, payload, "matches", ["tag", "order", "generators", "locus"]


def _cmd_additive_subgroups(args):
    spec = gfq.parse_field_spec(args.field)
    subs = census.enum_additive_subgroups(spec, args.rank)
    payload = {
        "schema": "pglcensus/additive-subgroups/v1",
        "field": gfq.render_field_spec(spec),
        "rank": args.rank,
        "count": len(subs),
        "gaussian_binomial": census.gaussian_binomial(spec.n, args.rank, spec.p),
        "subgroups": [
            {"basis": [gfq.render_element(spec, b) for b in G.basis]} for G in subs
        ],
    }
    return 0, payload, "subgroups", ["basis"]


def _cmd_verify_p1fp(args):
    from . import p1checks

    spec = gfq.parse_field_spec(args.field)
    rep = p1checks.verify_p1fp(spec)
    return (0 if rep.ok else 1), p1checks.p1fp_report_to_json(spec, rep), None, None


def _cmd_verify_main(args):
    from . import dichotomy

    extra = dichotomy.parse_tag_queries(args.tags or "")
    m_values = None if args.m is None else [args.m]
    levels = _parse_levels(args.levels, lambda top: dichotomy.check_main_theorem_run(args.p, top, m_values))
    report = dichotomy.verify_main_theorem(args.p, levels, m_values=m_values, extra_queries=extra)
    payload = dichotomy.main_theorem_report_to_json(report)
    return (0 if report.ok else 1), payload, "dichotomy", ["n", "m", "census", "subspaces", "oracle", "gaussian", "ok"]


def _cmd_verify_genus1(args):
    if args.curve:
        curves = [("curve", elliptic.parse_curve(args.curve))]
    else:
        curves = list(elliptic.standard_test_curves())

    def check_top(top):
        for _, E in curves:
            elliptic._check_level(E, top)

    payload = elliptic.genus1_suite_to_json(curves, _parse_levels(args.levels, check_top), args.ext)
    columns = "name curve points aut0 dichotomy_ok fixing_counts_ok spf_counts_ok max_singleton_bound ok".split()
    return (0 if payload["ok"] else 1), payload, "curves", columns


def _cmd_ramification(args):
    from . import p1checks

    spec = gfq.parse_field_spec(args.field)
    ram = p1checks.poly_map_ramification(spec, p1checks.parse_poly(spec, args.poly), args.ext)
    return 0, p1checks.ramification_to_json(spec, ram, args.ext), "ramification", ["point", "index", "tame"]


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


# name -> the subparser that _build_parser(name) made, which main parses
# the command's own arguments with
_command_parsers: dict[str, argparse.ArgumentParser] = {}


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
    if command is not None:
        _command_parsers[command] = p
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's arguments go to its own subparser alone, in one argparse
    # pass.  The full parser answers the rest: no arguments, -h and an
    # unknown name, which it lists every command for, and leftover
    # arguments, whose error it words from the whole command line
    args = None
    if argv and argv[0] in _COMMANDS:
        _build_parser(argv[0])
        args, extras = _command_parsers[argv[0]].parse_known_args(argv[1:])
        if extras:
            args = None
    if args is None:
        args = _build_parser().parse_args(argv)
    stream = out if out is not None else sys.stdout
    if stream is None:  # started with stdout closed
        print("error: stdout is closed", file=sys.stderr)
        return 2
    try:
        code, payload, rows_key, columns = args.handler(args)
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:  # a cross-check disagreed: no verdict to print
        print(f"error: internal check failed: {err}", file=sys.stderr)
        return 1
    except MemoryError:  # refused, as a work bound refuses, with no verdict
        print("error: out of memory: the run needs more than this process may allocate", file=sys.stderr)
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
