import json
import tracemalloc

import pytest

from stabgap.casefile import CaseParseError, CaseSpec, parse_case, realize_case
from stabgap.errors import SizeLimitError

TRIANGLE_DOC = {
    "name": "triangle",
    "group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "stabilize_point": 0,
    "edges": [[0, 1], [0, 2], [1, 2]],
}

CAYLEY_DOC = {
    "name": "four-cycle",
    "group": {"degree": 4, "generators": [[1, 2, 3, 0]]},
    "subgroup_generators": [],
    "connection_reps": [[1, 2, 3, 0], [3, 0, 1, 2]],
}


def test_parse_triangle_document():
    spec = parse_case(json.dumps(TRIANGLE_DOC))
    assert spec.name == "triangle"
    assert spec.mode == "stabilize"
    assert spec.degree == 3
    assert spec.generators == ((1, 0, 2), (1, 2, 0))
    assert spec.edges == ((0, 1), (0, 2), (1, 2))


def test_parse_coset_document():
    spec = parse_case(json.dumps(CAYLEY_DOC))
    assert spec.mode == "coset"
    assert spec.subgroup_generators == ()
    assert len(spec.connection_reps) == 2


def test_parse_rejects_bad_json_with_location():
    with pytest.raises(CaseParseError, match=r"line 2, column"):
        parse_case('{"name": "x",\n  "group": }')


def test_parse_rejects_wrong_generator_length():
    doc = dict(TRIANGLE_DOC, group={"degree": 3, "generators": [[1, 0, 2, 3]]})
    with pytest.raises(CaseParseError, match=r"group\.generators\[0\] has length 4"):
        parse_case(json.dumps(doc))


def test_parse_rejects_non_permutation_generator():
    doc = dict(TRIANGLE_DOC, group={"degree": 3, "generators": [[1, 0, 2], [0, 0, 1]]})
    with pytest.raises(CaseParseError, match=r"group\.generators\[1\] is not a permutation"):
        parse_case(json.dumps(doc))


def test_parse_rejects_mode_conflict():
    doc = dict(TRIANGLE_DOC)
    doc["connection_reps"] = [[1, 0, 2]]
    doc["subgroup_generators"] = []
    with pytest.raises(CaseParseError, match="both construction modes"):
        parse_case(json.dumps(doc))


def test_parse_rejects_missing_mode():
    doc = {"name": "x", "group": {"degree": 2, "generators": [[1, 0]]}}
    with pytest.raises(CaseParseError, match="no construction mode"):
        parse_case(json.dumps(doc))


def test_parse_rejects_half_modes():
    doc = {
        "name": "x",
        "group": {"degree": 2, "generators": [[1, 0]]},
        "stabilize_point": 0,
    }
    with pytest.raises(CaseParseError, match="without edges"):
        parse_case(json.dumps(doc))
    doc = {
        "name": "x",
        "group": {"degree": 2, "generators": [[1, 0]]},
        "connection_reps": [[1, 0]],
    }
    with pytest.raises(CaseParseError, match="without subgroup_generators"):
        parse_case(json.dumps(doc))


def test_parse_rejects_out_of_range_and_loops():
    doc = dict(TRIANGLE_DOC, stabilize_point=5)
    with pytest.raises(CaseParseError, match="stabilize_point 5 out of range"):
        parse_case(json.dumps(doc))
    doc = dict(TRIANGLE_DOC, edges=[[0, 0]])
    with pytest.raises(CaseParseError, match=r"edges\[0\]: loop"):
        parse_case(json.dumps(doc))
    doc = dict(TRIANGLE_DOC, edges=[[0, 7]])
    with pytest.raises(CaseParseError, match=r"edges\[0\]: vertex 7 out of range"):
        parse_case(json.dumps(doc))


def test_parse_rejects_unknown_fields_and_options():
    doc = dict(TRIANGLE_DOC, extra=1)
    with pytest.raises(CaseParseError, match="unknown field 'extra'"):
        parse_case(json.dumps(doc))
    doc = dict(TRIANGLE_DOC, options={"bogus": 1})
    with pytest.raises(CaseParseError, match="unknown option 'bogus'"):
        parse_case(json.dumps(doc))


def test_parse_options():
    doc = dict(TRIANGLE_DOC, options={"seed": 9, "tol": 1e-8})
    spec = parse_case(json.dumps(doc))
    assert spec.options.seed == 9
    assert spec.options.tol == 1e-8
    assert spec.options.max_vertices is None


def test_realize_stabilize_mode():
    case = realize_case(parse_case(json.dumps(TRIANGLE_DOC)))
    assert case.graph.n == 3
    assert case.valency == 2
    assert case.stabilizer.order() == 2
    assert len(case.connection) == 4


def test_realize_coset_mode():
    case = realize_case(parse_case(json.dumps(CAYLEY_DOC)))
    assert case.graph.n == 4
    assert case.valency == 2
    assert case.stabilizer.order() == 1


def test_realize_respects_vertex_cap():
    spec = parse_case(json.dumps(TRIANGLE_DOC))
    with pytest.raises(SizeLimitError):
        realize_case(spec, max_vertices=2)


def test_vertex_cap_is_checked_before_the_group_is_built():
    # A short document must not make the group form degree-long arrays.
    doc = {
        "name": "huge",
        "group": {"degree": 2_000_000, "generators": []},
        "stabilize_point": 0,
        "edges": [],
    }
    spec = parse_case(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="2000000 vertices exceed the cap"):
            realize_case(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_spec_mode_property():
    stab = CaseSpec("a", 2, ((1, 0),), stabilize_point=0, edges=((0, 1),))
    coset = CaseSpec(
        "b", 2, ((1, 0),), subgroup_generators=(), connection_reps=(((1, 0)),)
    )
    assert stab.mode == "stabilize"
    assert coset.mode == "coset"
