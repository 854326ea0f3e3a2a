import io
import json
import os
import resource
import subprocess
import sys

import pytest

from pglcensus.cli import main
from pglcensus.conjugacy import _conjugates_onto
from pglcensus.gfq import extension_field, parse_field_spec
from pglcensus.moebius import parse_moebius
from pglcensus.stdgroups import close_generators, subgroup_from_json


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


OUT_OF_RANGE_TAGS = [
    ("census", "--field", "5^1", "--group", "PSL2:-1", "--locus", "inf"),
    ("census", "--field", "5^1", "--group", "PGL2:-1", "--locus", "inf"),
    ("census", "--field", "5^1", "--group", "PSL2:0", "--locus", "inf"),
    ("census", "--field", "5^1", "--group", "Zp^-1", "--locus", "inf"),
    ("census", "--field", "2^2", "--group", "gamma:1:-1", "--locus", "inf"),
    ("census", "--field", "2^2", "--group", "gamma:1:0", "--locus", "inf"),
    ("build-group", "--field", "5^1", "--group", "PSL2:-1"),
    ("build-group", "--field", "5^1", "--group", "PGL2:-1"),
    # rank 0 with n > 1 is the group cyclic:n
    ("census", "--field", "5^1", "--group", "gamma:0:2", "--locus", "0,inf"),
    ("build-group", "--field", "5^1", "--group", "gamma:0:2"),
    ("locus", "--field", "5^1", "--group", "gamma:0:2"),
]

OUT_OF_RANGE_RANKS = [
    ("verify-main", "--p", "2", "--levels", "1", "--m", "-1"),
    ("verify-main", "--p", "2", "--levels", "1", "--m", "0"),
    ("verify-main", "--p", "2", "--levels", "1-2", "--m", "7"),
]

# --p takes any int; verify-main refuses every non-prime
NON_PRIME_P = [("verify-main", "--p", p, "--levels", "1") for p in ("4", "1", "0", "-3")]

# modulus coefficients are rejected, not reduced mod p
OUT_OF_RANGE_MODULI = [
    ("field-info", "--field", "2^2/1,1,3"),
    ("field-info", "--field", "3^2/-2,0,1"),
    ("field-info", "--field", "5^1/5,1"),
]

EMPTY_LEVELS = [
    ("verify-genus1", "--curve", "5^1:a=1,b=1", "--levels", "3-1"),
    ("verify-genus1", "--curve", "5^1:a=1,b=1", "--levels", ","),
]


class TestFieldInfo:
    def test_json_payload(self):
        code, out = run_cli("field-info", "--field", "5^2")
        assert code == 0
        data = json.loads(out)
        assert data["p"] == 5 and data["n"] == 2 and data["q"] == 25
        assert data["pgl2_order"] == 25 ** 3 - 25

    def test_reducible_modulus_is_usage_error(self):
        code, _ = run_cli("field-info", "--field", "2^2/0,0,1")
        assert code == 2

    def test_big_field_modulus(self):
        # the modulus search and its irreducibility tests are polynomial in n
        code, out = run_cli("field-info", "--field", "2^40")
        assert code == 0
        modulus = json.loads(out)["modulus"]
        assert [i for i, c in enumerate(modulus) if c] == [0, 35, 36, 37, 40]


class TestFixedPoints:
    def test_translation(self):
        code, out = run_cli("fixed-points", "--field", "5^1", "--map", "[1,1;0,1]")
        data = json.loads(out)
        assert code == 0
        assert [row["point"] for row in data["fixed_points"]] == ["inf"]

    def test_csv(self):
        code, out = run_cli(
            "fixed-points", "--field", "5^1", "--map", "[0,1;4,0]", "--ext", "1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["point", "2", "3"]


class TestBuildAndLocus:
    def test_build_standard_group(self):
        code, out = run_cli("build-group", "--field", "5^1", "--group", "cyclic:4")
        data = json.loads(out)
        assert code == 0 and data["order"] == 4
        assert subgroup_from_json(data).order == 4

    def test_build_from_generators(self):
        code, out = run_cli("build-group", "--field", "2^1", "--gens", "[1,1;0,1]|[1,0;1,1]")
        data = json.loads(out)
        assert data["order"] == 6

    def test_locus(self):
        code, out = run_cli("locus", "--field", "5^1", "--group", "cyclic:4")
        data = json.loads(out)
        assert [row["point"] for row in data["locus"]] == ["0,0", "inf"]

    def test_S4_passes_through_every_group_command(self):
        _, out = run_cli("locus", "--field", "13^1", "--group", "S4")
        assert json.loads(out)["count"] == 26
        _, out = run_cli("build-group", "--field", "13^1", "--group", "S4")
        assert json.loads(out)["order"] == 24
        code, out = run_cli("census", "--field", "13^1", "--group", "S4", "--locus", "0,inf")
        assert code == 0 and json.loads(out)["count"] == 0

    @pytest.mark.parametrize("command", ["locus", "build-group"])
    def test_translations_build_no_table_of_the_locus_field(self, command):
        # at the default --ext 2 a translation fixes infinity alone, so the
        # locus of Zp^1 over F_{2^11} is found with no table of F_{2^22}
        code, out = run_cli(command, "--field", "2^11", "--group", "Zp^1")
        data = json.loads(out)
        assert code == 0 and data["order"] == 2 and len(data["locus"]) == 1
        assert "_tables" not in vars(extension_field(parse_field_spec("2^11"), 2))

    @pytest.mark.parametrize("tag", ["Zp^0", "gamma:0:1"])
    def test_rank_zero_tag_is_the_trivial_group(self, tag):
        # the census's trivial answer at the empty locus is the tag's model
        code, out = run_cli("build-group", "--field", "5^1", "--group", tag)
        built = json.loads(out)
        assert code == 0 and built["order"] == 1 and built["locus"] == []
        code, out = run_cli("locus", "--field", "5^1", "--group", tag)
        data = json.loads(out)
        assert code == 0 and data["order"] == 1 and data["locus"] == []
        code, out = run_cli("census", "--field", "5^1", "--group", tag, "--locus", "")
        (match,) = json.loads(out)["matches"]
        assert code == 0 and match["generators"] == built["generators"] and match["tag"] == built["tag"]


class TestConjugateCommand:
    def test_transporter_and_brute_agree(self):
        args = [
            "conjugate",
            "--field", "2^2",
            "--gens1", "[1,0,1,0;0,0,1,0]",   # x -> x + 1
            "--gens2", "[1,0,0,1;0,0,1,0]",   # x -> x + t
        ]
        code1, out1 = run_cli(*args)
        code2, out2 = run_cli(*args, "--brute")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert code1 == code2 == 0
        assert d1["conjugate"] is True and d2["conjugate"] is True

    def test_two_point_locus_needs_the_torus(self):
        # Klein groups {x, -x, a/x, -a/x} over F13 with a = 2 and a = 5,
        # both non-squares: the level-1 locus of each is {0, inf}, and every
        # conjugator fixes or swaps 0 and inf, but none sends 1 to 1
        spec = parse_field_spec("13^1")
        gens1, gens2 = "[12,0;0,1]|[0,2;1,0]", "[12,0;0,1]|[0,5;1,0]"
        H1, H2 = (
            close_generators(spec, [parse_moebius(spec, g) for g in gens.split("|")])
            for gens in (gens1, gens2)
        )
        for extra in ((), ("--brute",)):
            code, out = run_cli("conjugate", "--field", "13^1", "--gens1", gens1, "--gens2", gens2, *extra)
            data = json.loads(out)
            assert code == 0 and data["conjugate"] is True
            assert _conjugates_onto(spec, parse_moebius(spec, data["witness"]), H1, H2)


    def test_degenerate_loci_are_searched_in_the_capture_field(self):
        # x -> -1/x fixes the square roots of -1, which F31 lacks: the
        # level-1 loci are empty, so the search takes them in F961
        spec = parse_field_spec("31^1")
        H = close_generators(spec, [parse_moebius(spec, "[0,30;1,0]")])
        args = ("conjugate", "--field", "31^1", "--gens1", "[0,30;1,0]", "--gens2", "[0,30;1,0]")
        code, out = run_cli(*args)
        brute_code, brute_out = run_cli(*args, "--brute")
        data = json.loads(out)
        assert code == brute_code == 0
        assert data["conjugate"] is True and json.loads(brute_out)["conjugate"] is True
        assert data["witness_field"] == "31^1"
        assert _conjugates_onto(spec, parse_moebius(spec, data["witness"]), H, H)

    # the order-1 return; rational loci of 2 and 0 points, which differ at
    # level 1 and are both 2 points over F25; and a cyclic group of order 4
    # against a Klein group, with no rational locus point and capture-field
    # loci of 2 and 6 points.  Each verdict is the brute-force scan's
    @pytest.mark.parametrize(
        "field, gens1, gens2, ext, witness",
        [
            ("5^1", "[1,0;0,1]", "[1,0;0,1]", "1", ("[1,0;0,1]", "5^1")),
            ("5^1", "[0,1;1,0]", "[0,2;1,0]", "1", None),
            ("5^1", "[0,1;1,0]", "[0,2;1,0]", "2", ("[1,0,0,0;0,0,3,1]", "5^2")),
            ("3^1", "[1,1;2,1]", "[0,2;1,0]|[1,1;1,2]", "1", None),
        ],
        ids=["order-1", "loci-2-and-0", "loci-2-and-0-ext-2", "cyclic-4-against-klein"],
    )
    def test_branches_agree_with_the_brute_force_scan(self, field, gens1, gens2, ext, witness):
        args = ("conjugate", "--field", field, "--gens1", gens1, "--gens2", gens2, "--ext", ext)
        code, out = run_cli(*args)
        brute_code, brute_out = run_cli(*args, "--brute")
        data = json.loads(out)
        assert code == brute_code == 0
        assert data["conjugate"] is json.loads(brute_out)["conjugate"] is (witness is not None)
        assert (data["witness"], data["witness_field"]) == (witness or (None, None))

    def test_one_point_locus_off_a_translation_group_is_an_internal_fault(self, monkeypatch, capsys):
        # a group with one rational locus point is a translation group once
        # the point is moved to infinity; were it not, no capture-field
        # search answers for it
        monkeypatch.setattr("pglcensus.conjugacy._translation_parts", lambda H: None)
        code, out = run_cli("conjugate", "--field", "5^1", "--gens1", "[1,1;0,1]", "--gens2", "[1,2;0,1]")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith("error: internal check failed: ")


class TestCensusCommand:
    def test_count_seven(self):
        code, out = run_cli("census", "--field", "2^3", "--group", "Zp^1", "--locus", "inf")
        data = json.loads(out)
        assert code == 0 and data["count"] == 7
        assert data["verdict"] == "grows_with_field"

    def test_cyclic_count_one(self):
        code, out = run_cli("census", "--field", "5^1", "--group", "cyclic:4", "--locus", "0,inf")
        data = json.loads(out)
        assert data["count"] == 1

    def test_matches_reparse(self):
        _, out = run_cli("census", "--field", "2^3", "--group", "Zp^2", "--locus", "inf")
        data = json.loads(out)
        for match in data["matches"]:
            H = subgroup_from_json(match)
            assert H.order == match["order"] == 4

    def test_csv_has_header_and_rows(self):
        code, out = run_cli(
            "census", "--field", "2^3", "--group", "Zp^1", "--locus", "inf", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "tag,order,generators,locus"
        assert len(lines) == 8

    def test_unknown_tag_is_usage_error(self):
        code, _ = run_cli("census", "--field", "5^1", "--group", "sporadic", "--locus", "inf")
        assert code == 2


class TestDeterminism:
    CASES = [
        ("census", "--field", "2^3", "--group", "Zp^1", "--locus", "inf"),
        ("census", "--field", "5^1", "--group", "cyclic:4", "--locus", "0,inf"),
        ("verify-main", "--p", "2", "--levels", "1-2"),
        ("verify-genus1", "--curve", "5^1:a=1,b=1"),
        ("additive-subgroups", "--field", "2^3", "--rank", "2", "--format", "csv"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_repeated_runs_byte_identical(self, argv):
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        assert code1 == code2
        assert out1 == out2

    def test_parallel_census_equals_serial(self):
        serial = run_cli("census", "--field", "2^3", "--group", "Zp^2", "--locus", "inf", "--jobs", "1")
        parallel = run_cli("census", "--field", "2^3", "--group", "Zp^2", "--locus", "inf", "--jobs", "4")
        assert serial == parallel

    def test_subprocess_byte_identical(self):
        cmd = [
            sys.executable, "-m", "pglcensus.cli",
            "census", "--field", "2^2", "--group", "Zp^1", "--locus", "inf",
        ]
        r1 = subprocess.run(cmd, capture_output=True, check=True)
        r2 = subprocess.run(cmd, capture_output=True, check=True)
        assert r1.stdout == r2.stdout
        assert json.loads(r1.stdout)["count"] == 3


# Two presentations of one field: the auto modulus and an explicit one.  x has
# order 4 of 8 under the auto modulus of F_9 (3^2/1,0,1) and order 5 of 15
# under 2^4/1,1,1,1,1; it is primitive under the other two.
PRESENTATIONS = [("3^2", "3^2/2,1,1"), ("2^4", "2^4/1,1,1,1,1")]
LOCUS_TAGS = (
    [f"cyclic:{n}" for n in range(1, 16)]
    + [f"dihedral:{n}" for n in range(1, 16)]
    + ["A4", "S4", "A5", "PSL2:1", "PGL2:1", "PSL2:2"]
    + [f"Zp^{m}" for m in range(5)]
    + ["gamma:1:2", "gamma:1:3", "gamma:2:2", "gamma:2:3", "gamma:2:4", "gamma:2:8", "gamma:4:3", "gamma:4:5"]
)


def json_or_exit(*argv):
    code, out = run_cli(*argv)
    return json.loads(out) if code == 0 else code


class TestModulusInvariance:
    """A field isomorphism between two presentations fixes 0 and infinity and
    carries every standard model to a standard model, so none of these
    answers may depend on the modulus."""

    @pytest.mark.parametrize("fields", PRESENTATIONS, ids=lambda fields: fields[0])
    def test_field_info_and_p1fp(self, fields):
        orders = {json_or_exit("field-info", "--field", f)["pgl2_order"] for f in fields}
        assert len(orders) == 1
        assert all(json_or_exit("verify-p1fp", "--field", f)["ok"] for f in fields)

    @pytest.mark.parametrize("fields", PRESENTATIONS, ids=lambda fields: fields[0])
    def test_locus_sizes(self, fields):
        for tag in LOCUS_TAGS:
            answers = []
            for f in fields:
                data = json_or_exit("locus", "--field", f, "--group", tag)
                answers.append(data if isinstance(data, int) else (data["order"], data["count"]))
            assert len(set(answers)) == 1, (tag, answers)

    @pytest.mark.parametrize("fields", PRESENTATIONS, ids=lambda fields: fields[0])
    def test_census_counts(self, fields):
        p, n = (int(t) for t in fields[0].split("^"))
        zero = ",".join(["0"] * n)
        queries = [(f"Zp^{m}", "inf") for m in range(n + 1)]
        queries += [(f"cyclic:{k}", f"{zero},inf") for k in range(1, p**n) if (p**n - 1) % k == 0]
        for tag, locus in queries:
            counts = {json_or_exit("census", "--field", f, "--group", tag, "--locus", locus)["count"] for f in fields}
            assert len(counts) == 1, (tag, counts)


class TestVerifyCommands:
    def test_verify_p1fp_exit_zero(self):
        code, out = run_cli("verify-p1fp", "--field", "5^1")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert data["group_order"] == 120 and data["checked"] == 119

    def test_verify_p1fp_human(self):
        code, out = run_cli("verify-p1fp", "--field", "3^1", "--format", "human")
        assert code == 0
        assert "order 3" in out or "order" in out

    def test_verify_main(self):
        code, out = run_cli("verify-main", "--p", "2", "--levels", "1-3", "--m", "1")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert [row["census"] for row in data["dichotomy"]] == [1, 3, 7]

    def test_verify_main_with_tags(self):
        code, out = run_cli(
            "verify-main", "--p", "5", "--levels", "1-2", "--m", "1",
            "--tags", "cyclic:4@0,inf",
        )
        data = json.loads(out)
        assert code == 0
        assert data["bounded"][0]["counts"] == [[1, 1], [2, 1]]

    def test_verify_genus1_suite(self):
        code, out = run_cli("verify-genus1")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True
        assert len(data["curves"]) == 4


class TestRamification:
    def test_family_member(self):
        code, out = run_cli(
            "ramification", "--field", "3^1", "--poly", "0,1,0,0,0,1", "--ext", "2"
        )
        data = json.loads(out)
        assert code == 0
        indices = sorted(row["index"] for row in data["ramification"])
        assert indices == [2, 2, 2, 2, 5]
        assert all(row["tame"] for row in data["ramification"])

    def test_wild_point(self):
        # x^3 + x^4 over F3: f - f(0) = x^3 (1 + x) gives index 3 at 0, wild,
        # where f' = x^3 would give ord(f') + 1 = 4
        code, out = run_cli("ramification", "--field", "3^1", "--poly", "0,0,0,1,1")
        assert code == 0
        assert json.loads(out)["ramification"] == [
            {"index": 3, "point": "0", "tame": False},
            {"index": 4, "point": "inf", "tame": True},
        ]

    def test_degree_ignores_trailing_zeros(self):
        # x + x^2 given with a zero x^3 coefficient has degree 2, infinity's index
        code, out = run_cli("ramification", "--field", "3^1", "--poly", "0,1,1,0")
        data = json.loads(out)
        assert code == 0 and data["degree"] == 2
        assert data["ramification"][-1] == {"index": 2, "point": "inf", "tame": True}

    def test_inseparable_is_usage_error(self):
        code, _ = run_cli("ramification", "--field", "3^1", "--poly", "0,0,0,1")
        assert code == 2

    @pytest.mark.parametrize("poly", [",", ""])
    def test_empty_poly_is_usage_error(self, poly):
        code, out = run_cli("ramification", "--field", "3^1", "--poly", poly)
        assert code == 2 and out == ""


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--field", "5^1", "--group", "cyclic:4", "--locus", "7,inf"),
            ("fixed-points", "--field", "5^1", "--map", "[1,5;0,1]"),
            *OUT_OF_RANGE_MODULI,
        ],
        ids=["locus", "map", "modulus-2^2", "modulus-3^2", "modulus-5^1"],
    )
    def test_out_of_range_coefficient_exits_two(self, argv):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", OUT_OF_RANGE_TAGS, ids=lambda argv: f"{argv[0]}-{argv[4]}")
    def test_out_of_range_tag_exits_two(self, argv):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", OUT_OF_RANGE_RANKS, ids=" ".join)
    def test_out_of_range_rank_exits_two(self, argv):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", EMPTY_LEVELS, ids=" ".join)
    def test_empty_level_set_exits_two(self, argv):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""

    def test_rank_above_some_levels_skips_them(self):
        code, out = run_cli("verify-main", "--p", "2", "--levels", "1-2", "--m", "2")
        assert code == 0
        assert [(row["n"], row["m"]) for row in json.loads(out)["dichotomy"]] == [(2, 2)]

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--field", "5^1", "--group", "cyclic:4", "--locus", "0,inf", "--bogus"])
        assert exc.value.code == 2

    def test_missing_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_is_reused_unchanged(self):
        # one parser serves every call in a process: after a rejected command
        # line and a run with non-default options, a command prints the bytes
        # of a fresh run
        argv = ["census", "--field", "5^1", "--group", "cyclic:4", "--locus", "0,inf"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--bogus"])
        assert exc.value.code == 2
        assert run_cli(*argv[:-2], "--locus", "0,0,inf", "--ext", "2", "--format", "csv")[0] == 0
        fresh = subprocess.run([sys.executable, "-m", "pglcensus", *argv], capture_output=True, text=True, timeout=60)
        assert run_cli(*argv) == (fresh.returncode, fresh.stdout)


# run a command in a fresh interpreter, then print the (p, n) of every field
# it built
FIELDS_BUILT = """
import io, sys
from pglcensus.cli import main
from pglcensus.gfq import FieldSpec
code = main(sys.argv[1:], out=io.StringIO())
print(code, sorted({(p, n) for p, n, _ in FieldSpec._interned}))
"""


@pytest.mark.parametrize(
    "command, built",
    [
        # the PGL2:1 model's locus has 4 + 2 * 3 points, not 4: no F_{3^6}
        ("census --field 3^3 --group PGL2:1 --locus 0,0,0,1,0,0,2,0,0,inf", [(3, 1), (3, 3)]),
        # the cyclic:4 model's locus {0, inf} is rational: no F_{5^4}
        ("verify-main --p 5 --levels 2 --m 1 --tags cyclic:4@0,inf", [(5, 1), (5, 2)]),
        # the Klein group's locus has six points, a pair of them outside F_7,
        # and four rational ones: no map carries it onto a rational locus, and
        # no F_49 is built
        ("census --field 7^1 --group dihedral:2 --locus 0,1,2,3,6,inf", [(7, 1)]),
        # so over F_{3^5}, at {0, 1, 2, t, 2t, inf}: no F_{3^10}
        (
            "census --field 3^5 --group dihedral:2 --locus 0,0,0,0,0,1,0,0,0,0,2,0,0,0,0,0,1,0,0,0,0,2,0,0,0,inf",
            [(3, 1), (3, 5)],
        ),
    ],
)
def test_census_builds_only_its_own_field(command, built):
    cmd = [sys.executable, "-c", FIELDS_BUILT, *command.split()]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert r.stdout == f"0 {built}\n", r.stderr


def exit_code(argv):
    try:
        return main(list(argv), out=io.StringIO())
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code


MALFORMED = [
    *OUT_OF_RANGE_TAGS,
    *OUT_OF_RANGE_RANKS,
    *OUT_OF_RANGE_MODULI,
    *EMPTY_LEVELS,
    ("ramification", "--field", "3^1", "--poly", ","),
    ("ramification", "--field", "3^1", "--poly", ""),
    ("ramification", "--field", "3^1", "--poly", "0,1,1", "--ext", "0"),
    ("fixed-points", "--field", "5^1", "--map", "[1,1;0,1]", "--ext", "0"),
    ("census", "--field", "5^1", "--group", "cyclic:4", "--locus", "0,inf", "--ext", "-1"),
    ("build-group", "--field", "5^1", "--group", "cyclic:4", "--ext", "0"),
    ("locus", "--field", "5^1", "--group", "cyclic:4", "--ext", "x"),
    ("conjugate", "--field", "5^1", "--gens1", "[1,1;0,1]", "--gens2", "[1,2;0,1]", "--ext", "0"),
    ("verify-genus1", "--curve", "5^1:a=1,b=1", "--levels", "1", "--ext", "0"),
    ("verify-main", "--p", "2", "--levels", "x"),
    ("verify-main", "--p", "2", "--levels", "3-1"),
    ("verify-main", "--p", "2", "--levels", "0"),
    ("verify-main", "--p", "2", "--levels", ""),
    ("verify-main", "--p", "2", "--levels", "1", "--tags", "PSL2:-1@inf"),
    *NON_PRIME_P,
    ("verify-genus1", "--curve", "5^1:a=1,b=1", "--levels", "abc"),
    ("verify-genus1", "--curve", "5^1:a=1,b=1", "--levels", "0"),
    ("fixed-points", "--field", "5^1", "--map", "[1,2]"),
    ("fixed-points", "--field", "5^1", "--map", "[1,0;0,0]"),
    ("fixed-points", "--field", "5^1", "--map", "1,0;0,1"),
    ("fixed-points", "--field", "5^1", "--map", "[a,b;c,d]"),
    ("fixed-points", "--field", "5^1", "--map", "[1,0;0,1]"),
    ("build-group", "--field", "5^1", "--gens", "[1,0;0,0]"),
    ("build-group", "--field", "5^1", "--gens", "|"),
    ("locus", "--field", "5^1", "--gens", "[1,1;0,1]|[x]"),
    ("conjugate", "--field", "5^1", "--gens1", "[1,1;0,1]", "--gens2", ""),
    ("census", "--field", "5^1", "--group", "cyclic:4", "--locus", ""),
    ("census", "--field", "5^1", "--group", "cyclic:4", "--locus", "inf,inf"),
    ("census", "--field", "5^1", "--group", "cyclic:4", "--locus", "foo"),
    ("census", "--field", "5^1", "--group", "cyclic:4", "--locus", "-1,inf"),
    ("census", "--field", "2^2", "--group", "cyclic:3", "--locus", "0,inf"),
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_without_traceback(argv):
    assert exit_code(argv) in (0, 1, 2)


# Every form of the tag grammar, swept through the group commands over the
# small fields: whatever the answer, it is an exit code, never a traceback.
SWEEP_FIELDS = ["2^1", "2^2", "2^3", "3^1", "3^2", "5^1", "7^1"]
SWEEP_TAGS = [
    *(f"cyclic:{n}" for n in range(1, 6)),
    *(f"dihedral:{n}" for n in range(1, 5)),
    "A4",
    "S4",
    "A5",
    "PSL2:1",
    "PSL2:2",
    "PGL2:1",
    "PGL2:2",
    *(f"Zp^{m}" for m in range(3)),
    "gamma:1:1",
    "gamma:1:2",
    "gamma:1:3",
    "gamma:2:3",
    "gamma:1:4",
    "gamma:0:1",
]
SWEEP_COMMANDS = {
    "build-group": ("build-group",),
    "locus": ("locus",),
    "census-0,inf": ("census", "--locus", "0,inf"),
    "census-inf": ("census", "--locus", "inf"),
    "census-empty": ("census", "--locus", ""),
}


def _escaped(argvs):
    """The command lines whose run ends in an exit code outside {0, 1, 2} or
    in an exception that escapes cli.main, with what happened."""
    bad = []
    for argv in argvs:
        try:
            code = exit_code(argv)
        except Exception as err:  # the defect under test: report every one
            bad.append((" ".join(argv), repr(err)))
            continue
        if code not in (0, 1, 2):
            bad.append((" ".join(argv), code))
    return bad


@pytest.mark.parametrize("field", SWEEP_FIELDS)
@pytest.mark.parametrize("command", sorted(SWEEP_COMMANDS))
def test_tag_sweep_exits_without_traceback(command, field):
    argvs = [(*SWEEP_COMMANDS[command], "--field", field, "--group", tag) for tag in SWEEP_TAGS]
    assert _escaped(argvs) == []


@pytest.mark.parametrize("ext", ["1", "2"])
def test_genus1_sweep_exits_without_traceback(ext):
    curves = [f"5^1:a={a},b={b}" for a in range(5) for b in range(5) if (4 * a ** 3 + 27 * b ** 2) % 5]
    assert len(curves) == 20  # the nonsingular curves over F5
    argvs = [("verify-genus1", "--curve", c, "--ext", ext, "--levels", "1-2") for c in curves]
    assert _escaped(argvs) == []


@pytest.mark.parametrize("argv", NON_PRIME_P, ids=" ".join)
def test_non_prime_p_is_a_usage_error(argv, capsys):
    assert exit_code(argv) == 2
    assert capsys.readouterr().err.startswith("error: p must be a prime")


def test_verify_main_over_the_bound_names_it(capsys):
    assert exit_code(("verify-main", "--p", "2", "--levels", "1-10", "--m", "1")) == 2
    assert "WORK_BOUND" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["8000", "100000000", "1-100000000", "1,2,8000"])
def test_verify_main_far_past_the_bound_names_it(levels, capsys):
    # q = 2^n alone is over the bound: refused without raising it or
    # printing a work estimate of more than 4300 digits
    assert exit_code(("verify-main", "--p", "2", "--levels", levels)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: (Z/2Z)^1 over F_{2^") and "WORK_BOUND" in err


def test_verify_main_huge_p_names_the_bound(capsys):
    assert exit_code(("verify-main", "--p", str(10 ** 4000 + 1), "--levels", "1")) == 2
    assert "WORK_BOUND" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["100000000", "1-100000000"])
def test_genus1_level_far_past_the_point_cap_names_it(levels, capsys):
    assert exit_code(("verify-genus1", "--curve", "5^1:a=1,b=1", "--levels", levels)) == 2
    assert capsys.readouterr().err == "error: point enumeration capped at q^r <= 10000, got 5^100000000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-main", "--p", "2", "--levels", "1-1000000000"),
        ("verify-genus1", "--curve", "5^1:a=1,b=0", "--levels", "1-1000000000"),
        ("verify-genus1", "--levels", "1-1000000000"),
    ],
    ids=" ".join,
)
def test_huge_level_range_refused_before_it_is_expanded(argv):
    # under a 1 GiB address space, expanding the range first ends in a
    # MemoryError traceback and exit 1, which the CLI reserves for mismatches
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    cmd = [sys.executable, "-m", "pglcensus", *argv]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:") and ("WORK_BOUND" in r.stderr or "capped at q^r" in r.stderr)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds allocation on Linux alone")
def test_out_of_memory_exits_two_without_traceback():
    # the rank-8 subspaces of F_2^16 do not fit in a 300 MB address space:
    # the run is refused like a work bound's, not ended by a traceback
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    cmd = [sys.executable, "-m", "pglcensus", "additive-subgroups", "--field", "2^16", "--rank", "8"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space)
    assert (r.returncode, r.stdout) == (2, ""), r.stderr
    assert r.stderr.startswith("error: out of memory") and "Traceback" not in r.stderr


MALFORMED_LEVELS = '--levels takes levels "1,2" or a range "1-4", got '


@pytest.mark.parametrize("command", [("verify-main", "--p", "2"), ("verify-genus1",)], ids=" ".join)
@pytest.mark.parametrize(
    "levels, message",
    [
        ("-3", MALFORMED_LEVELS + "'-3'"),
        ("1-", MALFORMED_LEVELS + "'1-'"),
        ("1-2-3", MALFORMED_LEVELS + "'1-2-3'"),
        ("1-x", MALFORMED_LEVELS + "'1-x'"),
        ("1,,x", MALFORMED_LEVELS + "'1,,x'"),
        (",", MALFORMED_LEVELS + "','"),
        ("2-1", "--levels range '2-1' runs downward; write 1-2"),
    ],
)
def test_malformed_levels_name_the_form(command, levels, message, capsys):
    # a malformed range or level, and a reversed range, each get one message
    # that says what --levels takes, before any level is checked or run
    assert exit_code((*command, "--levels", levels)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


MALFORMED_GROUPS = [
    (("build-group", "--field", "5^1", "--group", "cyclic:x"), "group tag 'cyclic:x' must look like cyclic:n"),
    (("build-group", "--field", "5^1", "--group", "cyclic:"), "group tag 'cyclic:' must look like cyclic:n"),
    (("build-group", "--field", "5^1", "--group", "Zp^x"), "group tag 'Zp^x' must look like Zp^m"),
    (("census", "--field", "5^1", "--group", "gamma:1:x", "--locus", "inf"), "group tag 'gamma:1:x' must look like gamma:m:n"),
    (("build-group", "--field", "5^1", "--group", "PSL2:1:7"), "group tag 'PSL2:1:7' must look like PSL2:d"),
    (("locus", "--field", "5^1", "--group", "dihedral:2:x"), "group tag 'dihedral:2:x' must look like dihedral:n"),
    (("build-group", "--field", "5^1", "--group", "Zp^1:2"), "group tag 'Zp^1:2' must look like Zp^m"),
    (("build-group", "--field", "5^1", "--group", "gamma:1"), "group tag 'gamma:1' must look like gamma:m:n"),
]


@pytest.mark.parametrize("argv, message", MALFORMED_GROUPS, ids=[" ".join(argv) for argv, _ in MALFORMED_GROUPS])
def test_malformed_group_names_the_form(argv, message, capsys):
    assert exit_code(argv) == 2
    assert capsys.readouterr().err == f"error: {message}, with integer parameters\n"


# usage errors raised past the parser, each answered with one error line
USAGE_ERRORS = [
    (("build-group", "--field", "5^1"), "either --group or --gens is required"),
    (("locus", "--field", "5^1"), "either --group or --gens is required"),
    (("verify-main", "--p", "2", "--levels", "1", "--tags", "cyclic:1"), "--tags entries look like tag@locus, got 'cyclic:1'"),
    (("verify-genus1", "--curve", "5^1:b=1"), "curve spec must look like p^n:a=...,b=..., got '5^1:b=1'"),
    (("verify-genus1", "--curve", "5^1:a=1"), "curve spec must look like p^n:a=...,b=..., got '5^1:a=1'"),
    (("build-group", "--field", "5^2", "--gens", "[1,0,0;0,0,1,0]"), "row '1,0,0' does not hold two elements of F_5^2"),
    (("ramification", "--field", "5^2", "--poly", "0,1,0"), "--poly must hold a whole number of 2-coefficient elements"),
    (("field-info", "--field", "2^0"), "extension degree must be >= 1, got 0"),
    (("field-info", "--field", "2^2/1,1"), "modulus must have degree 2 (length 3), got (1, 1)"),
    (("field-info", "--field", "3^2/1,0,2"), "modulus must be monic, got (1, 0, 2)"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_names_the_fault(argv, message, capsys):
    out = io.StringIO()
    assert main(list(argv), out=out) == 2
    assert out.getvalue() == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_group_tag_names_it(capsys):
    assert exit_code(("census", "--field", "5^1", "--group", "foo", "--locus", "inf")) == 2
    assert capsys.readouterr().err == "error: unknown group tag 'foo'\n"


MALFORMED_MAPS = [
    ("fixed-points", "--field", "5^1", "--map", "[a,b;c,d]"),
    ("build-group", "--field", "5^1", "--gens", "[1,x;0,1]"),
]


@pytest.mark.parametrize("argv", MALFORMED_MAPS, ids=" ".join)
def test_malformed_map_names_the_form(argv, capsys):
    # a non-integer entry was answered with int()'s own message
    assert exit_code(argv) == 2
    text = argv[-1]
    assert capsys.readouterr().err == f"error: Moebius map must look like [a,b;c,d], with integer coefficients, got {text!r}\n"


@pytest.mark.parametrize("method", [(), ("--brute",)], ids=["transporter", "bruteforce"])
@pytest.mark.parametrize("ext", ["0", "-3"])
def test_conjugate_refuses_a_degree_below_one_whatever_the_orders(method, ext, capsys):
    # orders 5 and 4: the degree was once checked only when the orders agree
    argv = ("conjugate", "--field", "5^1", "--gens1", "[1,1;0,1]", "--gens2", "[2,0;0,1]", "--ext", ext, *method)
    assert exit_code(argv) == 2
    assert capsys.readouterr() == ("", f"error: extension degree must be >= 1, got {ext}\n")


MALFORMED_CURVES = {
    "5^1:a=x,b=1": "curve spec '5^1:a=x,b=1' must look like p^n:a=...,b=...: "
                   "element of F_5^1 needs 1 integer coefficients, got 'x'",
    "5^2:a=1,0,b=x,1": "curve spec '5^2:a=1,0,b=x,1' must look like p^n:a=...,b=...: "
                       "element of F_5^2 needs 2 integer coefficients, got 'x,1'",
    "5^x:a=1,b=1": "field spec must look like p^n or p^n/c0,c1,...,cn, with integers, got '5^x'",
}


@pytest.mark.parametrize("curve", sorted(MALFORMED_CURVES))
def test_malformed_curve_names_the_form(curve, capsys):
    assert exit_code(("verify-genus1", "--curve", curve)) == 2
    assert capsys.readouterr().err == f"error: {MALFORMED_CURVES[curve]}\n"


def test_tag_with_a_trailing_field_is_refused_without_traceback():
    # it was read as cyclic:2 and answered with exit 0
    cmd = [sys.executable, "-m", "pglcensus", "census", "--field", "5^1", "--group", "cyclic:2:9", "--locus", "0,inf"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: group tag 'cyclic:2:9' must look like cyclic:n, with integer parameters\n"


def test_genus1_level_past_the_point_cap_is_a_usage_error(capsys):
    assert exit_code(("verify-genus1", "--curve", "5^1:a=1,b=1", "--levels", "1,12")) == 2
    assert capsys.readouterr().err == "error: point enumeration capped at q^r <= 10000, got 244140625\n"


def test_verify_main_p7():
    code, out = run_cli("verify-main", "--p", "7", "--levels", "1-2")
    assert code == 0
    rows = json.loads(out)["dichotomy"]
    assert [(r["n"], r["m"], r["oracle"], r["gaussian"]) for r in rows] == [(1, 1, 1, 1), (2, 1, 8, 8), (2, 2, 1, 1)]


class TestOutputStream:
    """Output that cannot be written ends the run without a traceback."""

    def test_stdout_closed(self):
        cmd = [sys.executable, "-m", "pglcensus", "field-info", "--field", "5^1"]
        r = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert r.returncode in (0, 2)
        assert b"Traceback" not in r.stderr

    def test_reader_stops_early(self):
        # about 100 KB of JSON, more than a pipe holds, so the writer is still
        # writing when the reader goes away
        cmd = [sys.executable, "-m", "pglcensus", "additive-subgroups", "--field", "2^6", "--rank", "3"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(400)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() in (0, 2)
        assert len(head) == 400
        assert b"Traceback" not in err and b"BrokenPipe" not in err


# Usage errors that once took minutes: the root-of-unity order search that
# only words the message, and a genus-1 level whose field F_{5^12} was built
# before the point cap was checked.
PROMPT_USAGE_ERRORS = [
    ("build-group", "--field", "5^1", "--group", "cyclic:100000007"),
    ("verify-genus1", "--curve", "5^1:a=1,b=1", "--levels", "1,12"),
    ("verify-genus1", "--curve", "5^1:a=1,b=1", "--ext", "12"),
]


@pytest.mark.parametrize("argv", PROMPT_USAGE_ERRORS, ids=" ".join)
def test_usage_error_comes_at_once(argv):
    cmd = [sys.executable, "-m", "pglcensus", *argv]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


# A subfield degree d that does not divide n is refused before p^d is raised:
# PSL2:30000000 over F5 once ran past 90 s, and PGL2:10000 failed converting
# an integer of more than 4300 digits for the root-of-unity message.
@pytest.mark.parametrize("tag", ["PSL2:100000000", "PGL2:100000000"])
def test_huge_subfield_degree_refused_at_once(tag):
    cmd = [sys.executable, "-m", "pglcensus", "build-group", "--field", "5^1", "--group", tag]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    assert r.returncode == 2
    assert r.stderr == f"error: subfield degree {tag[5:]} does not divide 1\n"


@pytest.mark.parametrize("tag", ["PGL2:10000", "PGL2:2"])
def test_subfield_degree_refused_before_the_root_of_unity(tag, capsys):
    assert exit_code(("build-group", "--field", "5^1", "--group", tag)) == 2
    assert capsys.readouterr().err == f"error: subfield degree {tag[5:]} does not divide 1\n"


def _cell(value) -> str:
    """A JSON value as one csv cell: lists joined by "|", null empty,
    booleans lower case."""
    if isinstance(value, list):
        return "|".join(_cell(v) for v in value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# the commands whose report is one record, with no rows
SINGLE_RECORDS = {
    "field-info": ("field-info", "--field", "3^2"),
    "build-group": ("build-group", "--field", "5^1", "--group", "cyclic:4"),
    "conjugate": ("conjugate", "--field", "7^1", "--gens1", "[0,1;1,0]|[0,1;2,0]", "--gens2", "[0,1;1,0]|[0,1;6,1]"),
    "conjugate-none": ("conjugate", "--field", "5^1", "--gens1", "[0,1;1,0]", "--gens2", "[1,1;0,1]"),
    "verify-p1fp": ("verify-p1fp", "--field", "3^1"),
}


@pytest.mark.parametrize("argv", SINGLE_RECORDS.values(), ids=SINGLE_RECORDS)
def test_csv_writes_a_single_record_as_one_row(argv):
    # a header of the record's keys but the schema, sorted, and one row
    # that parses back to the JSON payload's values
    import csv

    code, out = run_cli(*argv)
    payload = json.loads(out)
    csv_code, text = run_cli(*argv, "--format", "csv")
    assert csv_code == code == 0
    keys = sorted(k for k in payload if k != "schema")
    assert len(keys) >= 5
    assert list(csv.reader(io.StringIO(text))) == [keys, [_cell(payload[k]) for k in keys]]


def test_human_renders_dicts_in_lists_as_json():
    code, out = run_cli(
        "verify-main", "--p", "5", "--levels", "1-2", "--tags", "cyclic:4@0,inf", "--format", "human"
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    growth = [json.loads(part) for part in lines["growth"].split("|")]
    assert growth == json.loads(run_cli("verify-main", "--p", "5", "--levels", "1-2")[1])["growth"]
    assert json.loads(lines["bounded"]) == {
        "constant": 1, "counts": [[1, 1], [2, 1]], "locus": "0,inf", "ok": True, "tag": "cyclic:4"
    }
    assert "True" not in out and "'" not in out


# A field element is its code past the parse: each command builds one FqElem
# per element text of its argv (a locus point, a curve coefficient, a
# polynomial coefficient), and none while it computes.  (command, exit code,
# element texts)
ELEMENT_TEXTS = {
    "census": ("census --field 3^2 --group Zp^1 --locus 1,1", 0, 1),
    "verify-main": ("verify-main --p 2 --levels 1-4", 0, 0),
    "verify-genus1": ("verify-genus1 --curve 7^2:a=1,1,b=3,0 --levels 1-2", 1, 2),
    "ramification": ("ramification --field 5^2 --poly 0,1,1,0,0,0,1,0 --ext 2", 0, 4),
    "additive-subgroups": ("additive-subgroups --field 2^4 --rank 2", 0, 0),
}


@pytest.fixture
def elements_built(monkeypatch):
    """The number of FqElem built, counted as perfbench's tracer counts
    gfq.elems_created: through FqElem.__post_init__, which the constructor
    calls.  monkeypatch restores the method."""
    from pglcensus.gfq import FqElem

    built = [0]
    post_init = FqElem.__post_init__

    def counted(elem):
        built[0] += 1
        post_init(elem)

    monkeypatch.setattr(FqElem, "__post_init__", counted)
    return built


@pytest.mark.parametrize("command", ELEMENT_TEXTS)
def test_no_element_is_built_past_the_parse(command, elements_built):
    line, exit_code, texts = ELEMENT_TEXTS[command]
    assert main(line.split(), out=io.StringIO()) == exit_code
    assert elements_built[0] == texts
