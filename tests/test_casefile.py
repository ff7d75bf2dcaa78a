import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from stabgap.casefile import CaseParseError, CaseSpec, parse_case, realize_case
from stabgap.errors import SizeLimitError
from stabgap.pipeline import CaseAnalysisError, analyze_case

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


#: Any JSON value, kept small: small integers, so that no document asks for
#: a large degree, and every float JSON can spell (NaN and infinities too).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)

#: Where a document is mutated: a top-level field, or one of the group's.
_FIELDS = (
    "name",
    "group",
    "stabilize_point",
    "edges",
    "subgroup_generators",
    "connection_reps",
    "options",
    "other",
)


@st.composite
def case_documents(draw):
    """A well-formed case document of degree at most 5, in either mode,
    with some options, then with up to two fields dropped or replaced by
    any JSON value."""
    degree = draw(st.integers(1, 5))
    point = st.integers(0, degree - 1)
    perms = st.lists(st.permutations(range(degree)), max_size=3)
    doc = {"name": draw(st.text(min_size=1, max_size=3))}
    doc["group"] = {"degree": degree, "generators": draw(perms)}
    if draw(st.booleans()):
        doc["stabilize_point"] = draw(point)
        doc["edges"] = draw(st.lists(st.lists(point, min_size=2, max_size=2), max_size=8))
    else:
        doc["subgroup_generators"] = draw(perms)
        doc["connection_reps"] = draw(perms)
    keys = st.sampled_from(["tol", "seed", "max_vertices", "max_group_order"])
    doc["options"] = draw(st.dictionaries(keys, st.integers(-1, 200) | st.floats(), max_size=2))
    for _ in range(draw(st.integers(0, 2))):
        where = doc
        if draw(st.booleans()) and isinstance(doc.get("group"), dict):
            where = doc["group"]
            key = draw(st.sampled_from(["degree", "generators", "other"]))
        else:
            key = draw(st.sampled_from(_FIELDS))
        if draw(st.booleans()):
            where.pop(key, None)
        else:
            where[key] = draw(json_values)
    return doc


@settings(max_examples=80, deadline=None)
@given(case_documents() | json_values)
def test_any_json_value_parses_or_is_refused_and_then_analyzes_or_is_refused(value):
    # The only errors are the two the command line reports by case.
    try:
        spec = parse_case(json.dumps(value))
    except CaseParseError:
        return
    try:
        analyze_case(spec)
    except CaseAnalysisError:
        pass
