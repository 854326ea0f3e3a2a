"""The named-field values (Record subclasses) behave as frozen dataclasses
did: field order, positional and keyword construction with defaults,
refusal of bad field names, immutability, equality and hashing by exact type
and field values, the __post_init__ checks, copy and pickle, and replace.
A fresh import of the CLI loads none of the dataclasses import chain, and
runs no layer module until a command calls it."""

import copy
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from pglcensus.census import AdditiveSubgroup, CensusQuery, CensusReport, additive_subgroup, enum_actions
from pglcensus.dichotomy import BoundedRow, DichotomyRow, MainTheoremReport
from pglcensus.elliptic import ECurve, FpfDichotomyReport, standard_test_curves, verify_fpf_dichotomy
from pglcensus.gfq import Record, field_make, parse_element
from pglcensus.moebius import parse_point_list
from pglcensus.p1checks import P1FPReport, RamPoint, poly_map_ramification, verify_p1fp
from pglcensus.stdgroups import Fingerprint, SubgroupPGL2, fingerprint, std_cyclic

F5 = field_make(5, 1)
F8 = field_make(2, 3)
E = dict(standard_test_curves())["F5_generic"]
H = std_cyclic(F5, 4)
ROW = DichotomyRow(2, 1, 3, 3, 3, 3)
BOUNDED = BoundedRow("cyclic:4", "0,inf", ((1, 1), (2, 1)), 1)
QUERY = CensusQuery(F5, "cyclic:4", tuple(parse_point_list(F5, "0,inf")), 1)


def _samples():
    """Each type with its field names in order and one valid value per field."""
    yield AdditiveSubgroup, ("spec", "basis"), additive_subgroup(F8, [1, 2])
    yield CensusQuery, ("spec", "group_id", "locus", "r"), QUERY
    yield CensusReport, ("query", "matches", "count", "verdict", "notes"), enum_actions(QUERY)
    yield DichotomyRow, ("n", "m", "census_count", "subspace_count", "oracle_count", "gaussian"), ROW
    yield BoundedRow, ("tag", "locus_text", "counts", "constant"), BOUNDED
    yield MainTheoremReport, ("p", "n_values", "rows", "growth_ok", "bounded_rows"), MainTheoremReport(
        5, (1, 2), (ROW,), ((1, True),), (BOUNDED,)
    )
    yield ECurve, ("spec", "a", "b"), E
    yield FpfDichotomyReport, ("levels", "pairs_checked", "violations"), verify_fpf_dichotomy(E, (1,))
    yield RamPoint, ("point", "index", "tame"), poly_map_ramification(F5, [0, 0, 1], 1)[0]
    yield P1FPReport, ("group_order", "checked", "violations"), verify_p1fp(field_make(2, 1))
    yield SubgroupPGL2, ("spec", "codes", "tag"), H
    yield Fingerprint, ("order", "element_orders", "abelian", "p_regular"), fingerprint(H)


SAMPLES = list(_samples())
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
parametrize = pytest.mark.parametrize("cls,names,value", SAMPLES, ids=IDS)


def _values(value, names):
    return tuple(getattr(value, f) for f in names)


def test_fifteen_types():
    assert len(set(IDS)) == 12
    assert all(issubclass(cls, Record) and type(value) is cls for cls, _, value in SAMPLES)


@parametrize
def test_field_order_and_init(cls, names, value):
    values = _values(value, names)
    assert cls._fields == names
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    for built in (positional, keyword, mixed):
        assert type(built) is cls and _values(built, names) == values
        assert built == value and hash(built) == hash(value)


def test_defaults():
    spec, tag, locus = QUERY.spec, QUERY.group_id, QUERY.locus
    assert CensusQuery(spec, tag, locus).r == 1
    assert CensusQuery(spec, tag, locus) == CensusQuery(spec, tag, locus, 1) == QUERY
    assert CensusQuery(spec, tag, locus, r=2).r == 2
    report = CensusReport(QUERY, (), 0, "finite")
    assert report.notes == "" and "notes" in vars(report)
    assert report == CensusReport(QUERY, (), 0, "finite", "")
    assert CensusReport(QUERY, (), 0, "finite", notes="n").notes == "n"


@parametrize
def test_bad_field_names_refused(cls, names, value):
    values = _values(value, names)
    kw = dict(zip(names, values))
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(**kw, bogus=1)
    with pytest.raises(TypeError, match="missing"):
        cls(**{f: v for f, v in kw.items() if f != names[0]})
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword"):
        value.replace(bogus=1)


@parametrize
def test_immutable(cls, names, value):
    before = _values(value, names)
    for name in (names[0], names[-1], "bogus"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert _values(value, names) == before


@parametrize
def test_eq_and_hash_by_exact_type_and_values(cls, names, value):
    values = _values(value, names)
    # the hash of a frozen dataclass, so set orders are unchanged
    assert hash(value) == hash(values)
    assert value != values and value.__eq__(values) is NotImplemented
    twin = type("Twin", (Record,), {"__annotations__": {f: "object" for f in names}})(*values)
    assert value != twin and twin != value
    sub = type("Sub", (cls,), {})(*values)
    assert value != sub and value.__eq__(sub) is NotImplemented


def test_eq_tells_rows_apart():
    assert ROW == DichotomyRow(n=2, m=1, census_count=3, subspace_count=3, oracle_count=3, gaussian=3)
    assert ROW != ROW.replace(oracle_count=2)
    assert len({ROW, ROW.replace(), ROW.replace(n=3)}) == 2


def test_dataclass_style_repr():
    assert repr(ROW) == (
        "DichotomyRow(n=2, m=1, census_count=3, subspace_count=3, oracle_count=3, gaussian=3)"
    )
    assert repr(BOUNDED) == "BoundedRow(tag='cyclic:4', locus_text='0,inf', counts=((1, 1), (2, 1)), constant=1)"
    # types with their own repr keep it
    assert repr(H) == "SubgroupPGL2(cyclic:4, order 4 over 5^1)"
    assert repr(E) == "ECurve(5^1:a=1,b=1)"


def test_post_init_refusals():
    with pytest.raises(ValueError, match="singular"):
        ECurve(F5, 0, 0)
    with pytest.raises(ValueError, match="singular"):
        E.replace(a=0, b=0)
    with pytest.raises(ValueError, match="characteristic"):
        ECurve(field_make(3, 1), 1, 1)
    point = poly_map_ramification(F5, [0, 0, 1], 1)[0].point
    with pytest.raises(ValueError, match="index"):
        RamPoint(point, 1, True)
    with pytest.raises(ValueError, match="index"):
        RamPoint(point, 2, True).replace(index=0)


def test_curve_coefficient_outside_the_field_refused():
    # either coefficient alone that is no element code of F_5 is refused, not
    # only both: a code of F_25, a negative int and a parsed element
    for bad in (5, -1, parse_element(F5, "1")):
        for a, b in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match="element codes"):
                ECurve(F5, a, b)
            with pytest.raises(ValueError, match="element codes"):
                E.replace(a=a, b=b)


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@parametrize
def test_copy_and_pickle(cls, names, value, how):
    again = ROUND_TRIPS[how](value)
    assert type(again) is cls
    assert again == value and hash(again) == hash(value)
    assert _values(again, names) == _values(value, names)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(again, names[0], None)


def test_cached_generators_stay_out_of_eq_hash_and_replace():
    K = std_cyclic(F5, 4)
    fresh = SubgroupPGL2(K.spec, K.codes, K.tag)
    gens = K.generators
    assert "generators" in vars(K) and K.generators is gens
    assert K == fresh and hash(K) == hash(fresh) and repr(K) == repr(fresh)
    again = K.replace()
    assert again == K and "generators" not in vars(again)
    relabelled = K.replace(tag="other")
    assert "generators" not in vars(relabelled) and relabelled.tag == "other"
    assert pickle.loads(pickle.dumps(K)) == fresh


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# import the CLI in a fresh interpreter, list which of the heavy stdlib
# modules it loaded, then emit a csv report and hash its bytes
STARTUP = textwrap.dedent(
    """
    import hashlib, io, sys
    import pglcensus.cli
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "csv")
    print(sorted(set(heavy) & set(sys.modules)))
    buf = io.StringIO()
    code = pglcensus.cli.main("verify-main --p 2 --levels 1-3 --format csv".split(), out=buf)
    print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest(), sorted(set(heavy) & set(sys.modules)))
    """
)


def test_cli_import_loads_no_dataclasses_chain():
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded, emitted = run.stdout.splitlines()
    assert loaded == "[]"
    # the golden hash of this command (tests/test_golden.py): csv is
    # imported on first use and writes the same bytes, and the layers the
    # command ran loaded none of the chain either
    digest = "d8cb725d71f7ab62c7da2a7ddb50dc58b92a10f78b007d7f251b055326356356"
    assert emitted == f"0 {digest} ['csv']"


LAYERS = ("closure", "gfq", "moebius", "stdgroups", "census", "elliptic")
# the modules of code that one command alone reaches: the package neither
# binds nor looks them up, and the command imports its own
COMMAND_MODULES = ("dichotomy", "conjugacy", "p1checks")

# import the CLI in a fresh interpreter and list the modules that have run,
# then run the command in argv and list them again.  A layer that has not
# run is still of LazyLoader's module type; the type check reads no
# attribute, so it loads nothing.  A command module has run once it is in
# sys.modules.  The import looks up the six layers and nothing else
LAZY = textwrap.dedent(
    f"""
    import importlib.util, io, sys, types
    looked, find_spec = [], importlib.util.find_spec
    importlib.util.find_spec = lambda name, *args: looked.append(name) or find_spec(name, *args)
    import pglcensus.cli
    importlib.util.find_spec = find_spec
    def ran():
        layers = [name for name in {LAYERS} if type(sys.modules["pglcensus." + name]) is types.ModuleType]
        return layers + [name for name in {COMMAND_MODULES} if "pglcensus." + name in sys.modules]
    print(looked == ["pglcensus." + name for name in {LAYERS}], ran())
    print(pglcensus.cli.main(sys.argv[1:], out=io.StringIO()), ran())
    """
)

PGL2 = ["closure", "gfq", "moebius", "stdgroups"]


@pytest.mark.parametrize(
    "argv,ran",
    [
        ("field-info --field 5^2", ["closure", "gfq"]),
        ("fixed-points --field 5^1 --map [1,1;0,1]", ["closure", "gfq", "moebius"]),
        ("build-group --field 5^1 --group cyclic:4", PGL2 + ["census"]),
        ("build-group --field 5^1 --gens [0,1;1,0]", PGL2),
        ("locus --field 5^1 --group cyclic:4", PGL2 + ["census"]),
        ("conjugate --field 5^1 --gens1 [0,1;1,0] --gens2 [0,1;4,0]", PGL2 + ["conjugacy"]),
        ("census --field 5^1 --group cyclic:4 --locus 0,inf", PGL2 + ["census"]),
        ("additive-subgroups --field 2^3 --rank 1", PGL2 + ["census"]),
        ("verify-p1fp --field 3^1", ["closure", "gfq", "moebius", "p1checks"]),
        ("verify-main --p 2 --levels 1-2", PGL2 + ["census", "dichotomy"]),
        ("verify-genus1 --curve 5^1:a=1,b=0", ["closure", "gfq", "elliptic"]),
        ("ramification --field 5^1 --poly 0,0,1", ["closure", "gfq", "moebius", "p1checks"]),
    ],
    ids=[
        "field-info",
        "fixed-points",
        "build-group",
        "build-group-gens",
        "locus",
        "conjugate",
        "census",
        "additive-subgroups",
        "verify-p1fp",
        "verify-main",
        "verify-genus1",
        "ramification",
    ],
)
def test_cli_runs_only_the_layers_its_command_calls(argv, ran):
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", LAZY, *argv.split()], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["True []", f"0 {ran}"]


# the library surface is served from the lazy layers: importing the package
# runs none of them, and each name resolves to its layer's own object
SURFACE = textwrap.dedent(
    f"""
    import sys, types
    import pglcensus
    print([name for name in {LAYERS} if type(sys.modules["pglcensus." + name]) is types.ModuleType])
    from pglcensus import field_make, pp1_infinity, CensusQuery, enum_actions, verify_main_theorem
    for value in (field_make, pp1_infinity, CensusQuery, enum_actions, verify_main_theorem):
        assert getattr(sys.modules[value.__module__], value.__name__) is value
    print(hasattr(pglcensus, "nosuch"), [name for name in ("importlib", "sys") if name in vars(pglcensus)])
    """
)


def test_package_import_runs_no_layer_and_serves_its_names():
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", SURFACE], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "False []"]

