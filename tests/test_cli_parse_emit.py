"""The CLI's two fixed costs per command, checked against the library calls
they stand in for.

* Parsing: main hands a command's arguments to that command's own
  subparser, in one argparse pass.  For every golden command line it must
  give the namespace the full parser gives, and a leftover argument must get
  the full parser's error, which words the usage line from the whole
  command line.
* JSON output: main writes JSON with its own writer, cli._json_parts.  Its
  text must equal json.dumps(payload, sort_keys=True, indent=2) on every
  golden payload, on a seeded sample of census reports and on edge payloads,
  and it must refuse what it does not cover.
"""

import hashlib
import io
import json
import random

import pytest

from pglcensus.census import CensusQuery, census_report_to_json, enum_actions
from pglcensus.cli import _COMMANDS, _build_parser, _command_parsers, _json_parts, main
from pglcensus.gfq import field_make
from pglcensus.moebius import render_point
from test_golden import GOLDEN


def own_namespace(argv):
    _build_parser(argv[0])
    args, extras = _command_parsers[argv[0]].parse_known_args(argv[1:])
    assert extras == []
    return vars(args)


def written(payload) -> str:
    parts = []
    _json_parts(payload, parts, "\n")
    return "".join(parts)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_own_parser_gives_the_full_parsers_namespace(command):
    argv = command.split()
    full = vars(_build_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    assert own_namespace(argv) == full


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_leftover_argument_gets_the_full_parsers_error(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # the first golden command line of this command: its arguments are valid
    argv = next(c for c in GOLDEN if c.split()[0] == command).split() + ["--bogus", "x"]
    answers = []
    for run in (main, _build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            run(list(argv))
        captured = capsys.readouterr()
        answers.append((captured.out, captured.err, exc.value.code))
    assert answers[0] == answers[1]
    assert answers[0][1].endswith("error: unrecognized arguments: --bogus x\n")
    assert answers[0][2] == 2


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_writer_matches_json_dumps_on_golden_payloads(command):
    args = _build_parser().parse_args(command.split())
    payload = args.handler(args)[1]
    assert written(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_writer_matches_json_dumps_on_seeded_census_reports():
    rng = random.Random(20131016)
    fields = [field_make(p, n) for p, n in ((2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))]
    # tags by locus size: the sizes at which each of them can match
    tags = {1: ["Zp^1", "Zp^2", "gamma:1:2"], 2: ["cyclic:2", "cyclic:3", "cyclic:4"], 4: ["dihedral:2", "A4"]}
    matched = 0
    for _ in range(80):
        spec = rng.choice(fields)
        size = rng.choice(list(tags))
        locus = tuple(sorted(rng.sample(range(spec.q + 1), size)))
        try:
            report = enum_actions(CensusQuery(spec, rng.choice(tags[size]), locus, r=1))
        except ValueError:
            continue
        matched += report.count > 0
        payload = census_report_to_json(report)
        assert written(payload) == json.dumps(payload, sort_keys=True, indent=2), [render_point(spec, P) for P in locus]
    assert matched >= 20


EDGE_PAYLOADS = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[[]], [[], [1]], {"x": ()}],
    {"text": "F_{q^r} — éè 中 \U0001f600"},
    {"quote\"key": "a \"quoted\" \\ backslash / slash"},
    {"ctrl": "\x00\x01\x1f\t\n\r\b\f\x7f"},
    {"b": True, "a": 1, "c": False, "d": 0, "e": None},
    [True, 1, False, 0, None],
    {"big": 2 ** 200, "neg": -(10 ** 40), "zero": 0},
    {"Z": 1, "a": 2, "_": 3, "": 4, "10": 5, "9": 6, "é": 7},
    "top-level string",
    17,
    None,
    (1, (2, (3,)), [4, {"k": (5,)}]),
]


@pytest.mark.parametrize("payload", EDGE_PAYLOADS, ids=range(len(EDGE_PAYLOADS)))
def test_writer_matches_json_dumps_on_edge_payloads(payload):
    assert written(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [1.5, {"x": 0.0}, [float("nan")], {1, 2}, {"s": frozenset()}, {1: "a"}, {"a": {2: 3}}])
def test_writer_refuses_what_it_does_not_cover(payload):
    with pytest.raises(TypeError):
        written(payload)


@pytest.mark.parametrize(
    "command",
    ["census --field 5^1 --group cyclic:4 --locus 0,inf", "verify-main --p 2 --levels 1-4", "verify-genus1"],
)
def test_json_output_does_not_call_json_dumps(command, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    buf = io.StringIO()
    code = main(command.split(), out=buf)
    assert (hashlib.sha256(buf.getvalue().encode()).hexdigest(), code) == GOLDEN[command]
