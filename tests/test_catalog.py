import pytest

from stabgap.casefile import realize_case
from stabgap.catalog import FAMILY_NAMES, _complete, _kneser, builtin_cases
from stabgap.graphs import preserves_edges


def test_catalog_spans_all_families_with_at_least_twenty_cases():
    specs = builtin_cases()
    assert len(specs) >= 20
    names = [s.name for s in specs]
    assert len(set(names)) == len(names)
    for family, prefix in {
        "cycles-dihedral": "cycle-dihedral-",
        "cycles-cyclic": "cycle-cyclic-",
        "complete": "complete-",
        "kneser": "kneser-",
        "johnson": "johnson-",
        "hypercube-translation": "hypercube-",
        "cayley-small": "cayley-",
    }.items():
        assert any(n.startswith(prefix) for n in names), family


def test_catalog_order_is_deterministic():
    assert [s.name for s in builtin_cases()] == [s.name for s in builtin_cases()]


def test_family_selection_and_unknown_family():
    specs = builtin_cases(["complete"])
    assert [s.name for s in specs] == [f"complete-{n}" for n in (3, 4, 5, 6, 7)]
    assert builtin_cases([]) == []
    with pytest.raises(ValueError, match="unknown family"):
        builtin_cases(["nonsense"])
    # user-given order is preserved, duplicates collapse
    specs = builtin_cases(["kneser", "complete", "kneser"])
    assert specs[0].name.startswith("kneser-")


def test_every_case_is_a_valid_transitive_action():
    for spec in builtin_cases():
        case = realize_case(spec)
        assert preserves_edges(case.group, case.graph), spec.name
        assert case.group.is_transitive(), spec.name
        assert case.valency >= 1, spec.name


def test_petersen_is_the_kneser_5_2_case():
    spec = next(s for s in builtin_cases(["kneser"]) if s.name == "kneser-5-2")
    case = realize_case(spec)
    assert case.graph.n == 10
    assert case.valency == 3
    assert case.group.order() == 120
    assert case.stabilizer.order() == 12


def test_cayley_cases_have_regular_actions():
    for spec in builtin_cases(["cayley-small"]):
        case = realize_case(spec)
        assert case.stabilizer.order() == 1, spec.name
        assert case.group.order() == case.graph.n, spec.name


def test_quaternion_case_is_complete_bipartite():
    spec = next(
        s for s in builtin_cases(["cayley-small"]) if s.name == "cayley-q8-ij"
    )
    case = realize_case(spec)
    assert case.graph.n == 8
    assert case.valency == 4
    degrees = {case.graph.degree(v) for v in range(8)}
    assert degrees == {4}
    # bipartition into two 4-sets with all cross edges: 16 edges, no odd cycles
    assert case.graph.edge_count == 16


def test_two_step_case_is_disconnected():
    spec = next(
        s for s in builtin_cases(["cayley-small"]) if s.name == "cayley-z6-two-step"
    )
    case = realize_case(spec)
    # two disjoint triangles
    assert case.graph.n == 6
    assert case.graph.edge_count == 6
    assert case.valency == 2


def test_family_constant_is_exported():
    assert set(FAMILY_NAMES) == {
        "cycles-dihedral",
        "cycles-cyclic",
        "complete",
        "kneser",
        "johnson",
        "hypercube-translation",
        "cayley-small",
    }


@pytest.mark.parametrize(
    "spec, n, k, stabilizer_order, s_size",
    [(_kneser(8, 3), 56, 10, 720, 7200), (_complete(8), 8, 7, 5040, 35280)],
    ids=["kneser-8-3", "complete-8"],
)
def test_group_ladder_case_structure(spec, n, k, stabilizer_order, s_size):
    case = realize_case(spec)
    assert case.graph.n == n
    assert case.valency == k
    assert case.group.order() == 40320
    assert case.stabilizer.order() == stabilizer_order
    assert len(case.connection) == s_size
    assert len(case.connection.representatives) == 1
