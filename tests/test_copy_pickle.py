"""Parsed field elements and the values and reports built on codes survive
copy, deepcopy and pickle, and keep their field spec as the one interned
object."""

import copy
import pickle

import pytest

from pglcensus.census import CensusQuery, enum_actions
from pglcensus.gfq import field_make, parse_element
from pglcensus.moebius import parse_point_list
from pglcensus.stdgroups import std_cyclic

F5 = field_make(5, 1)
F9 = field_make(3, 2)


def _values():
    yield "FqElem", parse_element(F5, "1")
    yield "FqElem-F9", parse_element(F9, "2,1")
    yield "SubgroupPGL2", std_cyclic(F5, 4)
    yield "CensusReport", enum_actions(CensusQuery(F5, "cyclic:4", tuple(parse_point_list(F5, "0,inf")), r=1))


VALUES = list(_values())
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name,value", VALUES, ids=[n for n, _ in VALUES])
def test_round_trip(name, value, how):
    again = ROUND_TRIPS[how](value)
    assert again == value
    assert hash(again) == hash(value)
    spec = value.query.spec if name == "CensusReport" else value.spec
    again_spec = again.query.spec if name == "CensusReport" else again.spec
    assert again_spec is spec


def test_unpickled_value_is_still_immutable():
    x = pickle.loads(pickle.dumps(parse_element(F5, "1")))
    with pytest.raises(AttributeError):
        x.code = 0
