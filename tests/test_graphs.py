import inspect
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stabgap import catalog, groups
from stabgap.casefile import realize_case
from stabgap.catalog import builtin_cases
from stabgap.errors import SizeLimitError, StructureError
from stabgap.graphs import (
    CosetGraphSpec,
    SimpleGraph,
    build_coset_graph,
    local_action,
    make_transitive_case,
    preserves_edges,
    sabidussi_isomorphism,
)
from stabgap.groups import (
    ConnectionSet,
    PermutationGroup,
    _inverse_rows,
    double_coset_representatives,
)
from stabgap.perms import Permutation

from cases import (
    ReferenceGraph,
    coset_graph_data,
    cycle_graph,
    cyclic,
    dihedral,
    double_coset,
    kneser_twin,
    petersen_case,
    reference_local_action,
    reference_operator,
    reference_preserves_edges,
    s3,
    symmetric,
    triangle,
)


# -- SimpleGraph -------------------------------------------------------------


def test_graph_basics():
    g = triangle()
    assert g.neighbors(0) == (1, 2)
    assert g.degree(1) == 2
    assert g.has_edge(2, 0)
    assert not g.has_edge(0, 0)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert g.is_regular()


def test_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(StructureError, match="loop"):
        SimpleGraph(2, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph(2, [(0, 2)])


@pytest.mark.parametrize(
    "edges, match",
    [
        ([(0.5, 1)], r"edge \(0\.5, 1\) has a vertex that is not an integer"),
        ([("0", 1)], r"edge \('0', 1\) has a vertex that is not an integer"),
        ([(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair of vertices"),
        ([(0, 1), 2], r"edge 2 is not a pair of vertices"),
        ([(0,)], r"edge \(0,\) is not a pair of vertices"),
    ],
    ids=["float-vertex", "string-vertex", "triple", "scalar", "single"],
)
def test_graph_rejects_malformed_edges_by_name(edges, match):
    with pytest.raises(ValueError, match=match):
        SimpleGraph(3, edges)


def test_graph_first_bad_edge_decides_the_error():
    with pytest.raises(StructureError, match="loop at vertex 0"):
        SimpleGraph(3, [(0, 0), (0, 5)])
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        SimpleGraph(3, [(0, 5), (0, 0)])
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        SimpleGraph(3, [(1, 2), (0, 5), (0.5, 1)])
    with pytest.raises(ValueError, match="not an integer"):
        SimpleGraph(3, [(1, 2), (0.5, 1), (0, 5)])
    with pytest.raises(ValueError, match="not a pair"):
        SimpleGraph(3, [(0, 1, 2), (0, 0)])


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_graph_checks_edge_arrays_whole_and_names_the_first_bad_row(dtype):
    with pytest.raises(StructureError, match="loop at vertex 1"):
        SimpleGraph(3, np.array([[0, 1], [1, 1], [0, 9]], dtype=dtype))
    with pytest.raises(ValueError, match="vertex 9 out of range"):
        SimpleGraph(3, np.array([[0, 2], [2, 9], [1, 1]], dtype=dtype))
    with pytest.raises(ValueError, match="vertex 7 out of range"):
        SimpleGraph(3, [[0, 2], [7, 9], [1, 1]])
    graph = SimpleGraph(3, np.array([[0, 1], [2, 1], [1, 0]], dtype=dtype))
    assert graph.edges() == [(0, 1), (1, 2)]


def test_graph_is_one_read_only_adjacency_matrix():
    g = SimpleGraph(4, np.array([[0, 1], [1, 2], [2, 1], [3, 0]]))
    assert type(g).__slots__ == ("n", "adjacency")
    assert g.adjacency.dtype == bool and not g.adjacency.flags.writeable
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert g.edges() == [(0, 1), (0, 3), (1, 2)] and g.edge_count == 3
    assert g == SimpleGraph(4, [(1, 0), (2, 1), (0, 3)])
    assert hash(g) == hash(SimpleGraph(4, [(1, 0), (2, 1), (0, 3)]))
    assert g != SimpleGraph(5, g.edges())
    assert not g.has_edge(-1, 0) and not g.has_edge(0, 4)


@st.composite
def graphs_and_generators(draw):
    """A random edge set on 1 to 9 vertices, in random order and with
    repeats, and 1 to 3 random generator rows on those vertices."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return n, edges, gens


@settings(max_examples=200, deadline=None)
@given(graphs_and_generators())
def test_graph_queries_match_the_set_based_reference(data):
    n, edges, gens = data
    graph, reference = SimpleGraph(n, edges), ReferenceGraph(n, edges)
    for v in range(n):
        assert graph.neighbors(v) == reference.neighbors(v)
        assert graph.degree(v) == reference.degree(v)
        for w in range(n):
            assert graph.has_edge(v, w) == reference.has_edge(v, w)
    assert graph.edges() == reference.edges()
    assert graph.edge_count == reference.edge_count
    assert graph.is_regular() == reference.is_regular()
    other = SimpleGraph(n, edges[1:])
    assert (graph == other) == (reference == ReferenceGraph(n, edges[1:]))
    group = PermutationGroup(n, [Permutation(list(g)) for g in gens])
    rows = np.array(gens, dtype=np.intp).reshape(-1, n)
    assert preserves_edges(group, graph) == reference_preserves_edges(rows, reference)


# -- action verification -------------------------------------------------------


def test_preserves_edges_complete_graph():
    assert preserves_edges(s3(), triangle())


def test_rotation_does_not_preserve_path():
    path = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert not preserves_edges(cyclic(4), path)


def test_trivial_group_preserves_everything_but_is_intransitive():
    g = PermutationGroup.trivial(3)
    assert preserves_edges(g, triangle())
    assert not g.is_transitive()


# -- connection sets -----------------------------------------------------------


def test_extract_connection_set_triangle():
    conn = ConnectionSet.of_point(s3(), 0, triangle().neighbors(0))
    expected = {
        Permutation([1, 0, 2]),
        Permutation([2, 1, 0]),
        Permutation([1, 2, 0]),
        Permutation([2, 0, 1]),
    }
    assert set(conn.elements) == expected
    assert len(conn) == 2 * 2


def test_extract_connection_set_four_cycle():
    conn = ConnectionSet.of_point(cyclic(4), 0, cycle_graph(4).neighbors(0))
    r = Permutation([1, 2, 3, 0])
    assert set(conn.elements) == {r, r.inverse()}
    assert conn.subgroup.order() == 1


def test_extract_connection_set_petersen():
    case = petersen_case()
    assert len(case.connection) == 36
    assert case.valency == 3
    assert case.stabilizer.order() == 12


def test_case_invariants_on_samples():
    for case in [
        make_transitive_case(s3(), triangle()),
        make_transitive_case(cyclic(4), cycle_graph(4)),
        make_transitive_case(dihedral(6), cycle_graph(6)),
        petersen_case(),
    ]:
        assert len(case.connection) == case.valency * case.stabilizer.order()
        v = case.base_vertex
        assert {s(v) for s in case.connection} == set(case.graph.neighbors(v))


def test_make_case_rejects_bad_actions():
    with pytest.raises(StructureError, match="automorphisms"):
        make_transitive_case(cyclic(4), SimpleGraph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(StructureError, match="transitive"):
        make_transitive_case(PermutationGroup.trivial(3), triangle())
    with pytest.raises(StructureError, match="valency 0"):
        make_transitive_case(
            PermutationGroup(2, [Permutation([1, 0])]), SimpleGraph(2)
        )


def test_make_case_rejects_a_set_off_the_neighborhood(monkeypatch):
    # S built over the other 2-element suborbit {v - 2, v + 2} of the
    # dihedral cycle still has k * |G_v| elements, so only the S({v})
    # check can reject it.
    of_point = ConnectionSet.of_point.__func__

    def other_suborbit(cls, group, point, targets, cap):
        n = group.degree
        return of_point(cls, group, point, [(point - 2) % n, (point + 2) % n], cap)

    monkeypatch.setattr(ConnectionSet, "of_point", classmethod(other_suborbit))
    connection = ConnectionSet.of_point(dihedral(7), 0, (1, 6), 5040)
    assert len(connection) == 2 * 2
    assert sorted(set(connection.rows[:, 0].tolist())) == [2, 5]
    with pytest.raises(StructureError, match=r"S\(\{v\}\) differs"):
        make_transitive_case(dihedral(7), cycle_graph(7))


def test_extract_respects_group_cap():
    with pytest.raises(SizeLimitError):
        ConnectionSet.of_point(s3(), 0, triangle().neighbors(0), cap=4)


def assert_extraction_matches_masked_group(group, graph, vertex):
    """The connection set built from the stabilizer's cosets equals the
    one masked out of the enumerated group: its rows, their inverses
    (by ``argsort``), and its double cosets split generically."""
    conn = ConnectionSet.of_point(group, vertex, graph.neighbors(vertex))
    rows = group.element_array()
    masked = rows[np.isin(rows[:, vertex], graph.neighbors(vertex))]
    reference = np.unique(masked, axis=0)
    assert conn.rows.dtype == masked.dtype
    assert np.array_equal(conn.rows, reference)
    assert not conn.rows.flags.writeable
    inverse = _inverse_rows(conn.rows)
    assert inverse.dtype == masked.dtype
    assert np.array_equal(inverse, np.argsort(reference, axis=1))
    assert conn.contains_rows(inverse).all()
    reps = double_coset_representatives(masked, group.stabilizer(vertex))
    assert conn.representatives.tolist() == [list(g.images) for g in reps]
    assert conn.n_double_cosets == len(reps)
    assert not conn.representatives.flags.writeable
    assert conn.subgroup is group.stabilizer(vertex)


@pytest.mark.parametrize(
    "spec",
    builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)],
    ids=lambda spec: spec.name,
)
def test_extraction_matches_masked_group_on_catalog_cases(spec):
    case = realize_case(spec)
    for vertex in {case.base_vertex, case.graph.n - 1}:
        assert_extraction_matches_masked_group(case.group, case.graph, vertex)


def test_extraction_matches_masked_group_off_the_first_base_point():
    case = petersen_case()
    assert case.group._stabilizer_chain()[0].basepoint not in (3, 7)
    for vertex in (3, 7):
        assert_extraction_matches_masked_group(case.group, case.graph, vertex)
        moved = make_transitive_case(case.group, case.graph, base_vertex=vertex)
        assert len(moved.connection) == 36
        assert sabidussi_isomorphism(moved)


def test_extraction_enumerates_the_stabilizer_only(monkeypatch):
    case = petersen_case()
    group = PermutationGroup(case.graph.n, case.group.generators)
    enumerated = []
    element_array = PermutationGroup.element_array

    def recording(self, *args, **kwargs):
        enumerated.append(self)
        return element_array(self, *args, **kwargs)

    monkeypatch.setattr(PermutationGroup, "element_array", recording)
    subgroups = [
        ConnectionSet.of_point(group, vertex, case.graph.neighbors(vertex)).subgroup
        for vertex in (0, 7)
    ]
    assert len(enumerated) == 2
    assert all(a is b for a, b in zip(enumerated, subgroups))
    assert group._rows is None


# -- coset graphs ---------------------------------------------------------------


def test_coset_graph_triangle():
    h = PermutationGroup(3, [Permutation([0, 2, 1])])
    spec = CosetGraphSpec(s3(), h, (Permutation([1, 0, 2]),))
    graph, case = build_coset_graph(spec)
    assert graph == triangle()
    assert case.valency == 2
    assert case.group.order() == 6
    assert case.stabilizer.order() == 2


def test_coset_graph_cayley_four_cycle():
    r = Permutation([1, 2, 3, 0])
    spec = CosetGraphSpec(
        cyclic(4), PermutationGroup.trivial(4), (r, r.inverse())
    )
    graph, case = build_coset_graph(spec)
    assert graph == cycle_graph(4)
    assert case.group.order() == 4
    assert case.stabilizer.order() == 1


def test_coset_graph_rejects_identity_in_connection():
    h = PermutationGroup(3, [Permutation([0, 2, 1])])
    with pytest.raises(StructureError, match="identity"):
        build_coset_graph(CosetGraphSpec(s3(), h, (Permutation([0, 2, 1]),)))


def test_coset_graph_rejects_non_inverse_closed_connection():
    r = Permutation([1, 2, 3, 0])
    spec = CosetGraphSpec(cyclic(4), PermutationGroup.trivial(4), (r,))
    with pytest.raises(StructureError, match="inverse"):
        build_coset_graph(spec)


def test_coset_graph_rejects_foreign_subgroup():
    h = PermutationGroup(4, [Permutation([1, 0, 3, 2])])
    r = Permutation([1, 2, 3, 0])
    with pytest.raises(StructureError, match="subgroup"):
        build_coset_graph(CosetGraphSpec(cyclic(4), h, (r,)))


def test_coset_graph_respects_vertex_cap():
    r = Permutation([1, 2, 3, 0])
    spec = CosetGraphSpec(
        cyclic(4), PermutationGroup.trivial(4), (r, r.inverse())
    )
    with pytest.raises(SizeLimitError):
        build_coset_graph(spec, max_cosets=2)


def test_coset_graph_round_trip_recovers_decomposition():
    h = PermutationGroup(3, [Permutation([0, 2, 1])])
    a = Permutation([1, 0, 2])
    _, case = build_coset_graph(CosetGraphSpec(s3(), h, (a,)))
    reps = double_coset_representatives(
        set(case.connection.elements), case.stabilizer
    )
    source_reps = double_coset_representatives(double_coset(h, a), h)
    assert len(reps) == len(source_reps) == 1

    r = Permutation([1, 2, 3, 0])
    _, cayley = build_coset_graph(
        CosetGraphSpec(cyclic(4), PermutationGroup.trivial(4), (r, r.inverse()))
    )
    recovered = double_coset_representatives(
        set(cayley.connection.elements), cayley.stabilizer
    )
    assert len(recovered) == 2


def test_coset_graph_rejects_subgroup_outside_group():
    swap = PermutationGroup(4, [Permutation([1, 0, 2, 3])])
    r = Permutation([1, 2, 3, 0])
    with pytest.raises(StructureError, match="subgroup is not contained"):
        build_coset_graph(CosetGraphSpec(cyclic(4), swap, (r, r.inverse())))


def test_coset_graph_rejects_representative_outside_group():
    r = Permutation([1, 2, 3, 0])
    swap = Permutation([1, 0, 2, 3])
    trivial = PermutationGroup.trivial(4)
    with pytest.raises(StructureError, match="representative 2 is not in the group"):
        build_coset_graph(CosetGraphSpec(cyclic(4), trivial, (r, r.inverse(), swap)))
    with pytest.raises(StructureError, match="representative 0 is not in the group"):
        build_coset_graph(CosetGraphSpec(cyclic(4), trivial, (swap,)))


def test_coset_graph_dihedral_150_is_two_cycles():
    r = Permutation([(i + 1) % 150 for i in range(150)])
    spec = CosetGraphSpec(
        dihedral(150), PermutationGroup.trivial(150), (r, r.inverse())
    )
    graph, case = build_coset_graph(spec)
    assert graph.n == 300 and graph.edge_count == 300
    assert case.valency == 2 and graph.is_regular()
    assert case.stabilizer.order() == 1
    # A 2-regular graph is a disjoint union of cycles; find their sizes.
    seen: set[int] = set()
    sizes = []
    for v in range(graph.n):
        if v not in seen:
            component, frontier = {v}, [v]
            while frontier:
                frontier = [
                    w for u in frontier for w in graph.neighbors(u) if w not in component
                ]
                component.update(frontier)
            seen |= component
            sizes.append(len(component))
    assert sizes == [150, 150]


def test_coset_graph_klein_four_group_in_s6():
    s6 = PermutationGroup(
        6, [Permutation.from_cycles(6, (0, 1)), Permutation.from_cycles(6, range(6))]
    )
    klein = PermutationGroup(
        6,
        [
            Permutation.from_cycles(6, (0, 1), (2, 3)),
            Permutation.from_cycles(6, (0, 2), (1, 3)),
        ],
    )
    reps = (Permutation.from_cycles(6, (0, 4)), Permutation.from_cycles(6, (4, 5)))
    graph, case = build_coset_graph(CosetGraphSpec(s6, klein, reps))
    assert graph.n == 180
    assert graph.n * klein.order() == s6.order() == case.group.order()
    assert graph.is_regular()


def _reference_coset_graph(group, subgroup, reps):
    """The coset graph by Permutation products: the coset of x is the set
    {x*h}, cosets are found breadth-first from H, and {xH, yH} is an edge
    when x^-1 y lies in the union of the double cosets HaH.  Returns the
    expected StructureError message, or the edges and induced generators."""
    h = subgroup.elements()
    identity = Permutation.identity(group.degree)

    def coset(x):
        return frozenset(x * y for y in h)

    if any(coset(a) == coset(identity) for a in reps):
        return "identity's double coset"
    s = {x * a * y for a in reps for x in h for y in h}
    if any(x.inverse() not in s for x in s):
        return "not inverse-closed"
    xs, index = [identity], {coset(identity): 0}
    for x in xs:
        for g in group.generators:
            if coset(g * x) not in index:
                index[coset(g * x)] = len(xs)
                xs.append(g * x)
    n = len(xs)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if xs[i].inverse() * xs[j] in s
    ]
    induced = PermutationGroup(
        n, [Permutation([index[coset(g * x)] for x in xs]) for g in group.generators]
    )
    return edges, [g.images for g in induced.generators]


@settings(max_examples=40, deadline=None)
@given(coset_graph_data)
def test_coset_keys_name_each_left_coset_by_one_of_its_rows(drawn):
    # Checked against H's listed elements: key(x) = x*h for some h in H,
    # and key(x) == key(y) exactly when x^-1 y is in H.
    group, subgroup_gens, _ = drawn
    subgroup = PermutationGroup(group.degree, subgroup_gens)
    rows, h = group.element_array(), subgroup.element_array()
    keys = subgroup._coset_keys(rows)
    weights = group.degree ** np.arange(group.degree, dtype=np.int64)

    def in_h(products):
        return np.isin(products.astype(np.int64) @ weights, h.astype(np.int64) @ weights)

    inverse = np.argsort(rows, axis=1)
    m = len(rows)
    assert in_h(inverse[np.arange(m)[:, None], keys]).all()
    quotients = inverse[np.arange(m)[:, None, None], rows[None, :, :]]
    same_key = (keys[:, None, :] == keys[None, :, :]).all(axis=2)
    assert np.array_equal(same_key, in_h(quotients))


def test_coset_graph_lists_no_element_of_the_group(monkeypatch):
    # S_10 over S_3 x S_7 (kneser-10-3's 120 cosets): the only element
    # rows listed are the induced stabilizer's, on the 120 cosets.
    degrees = []
    products = groups._chain_products

    def recorded(levels, degree):
        degrees.append(degree)
        return products(levels, degree)

    monkeypatch.setattr(groups, "_chain_products", recorded)
    case = realize_case(kneser_twin(10, 3), element_cap=10**7)
    assert case.graph.n == 120 and case.group.order() == 3628800
    assert degrees == [120]


def test_coset_graph_of_a_large_group_stays_small():
    # S_10's 3 628 800 element rows alone would take 36 MB.
    tracemalloc.start()
    try:
        realize_case(kneser_twin(10, 3), element_cap=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_coset_graph_refuses_one_coset_past_the_cap(monkeypatch):
    spec = kneser_twin(7, 3)
    assert realize_case(spec, max_vertices=35).graph.n == 35
    with pytest.raises(SizeLimitError, match="exceeds cap 34"):
        realize_case(spec, max_vertices=34)
    # The search stops at the coset past the cap: over D_150 on its 300
    # elements and a cap of 2, H and its two products are all it keys.
    keyed, keys = [], PermutationGroup._coset_keys

    def counted(self, rows):
        keyed.append(len(rows))
        return keys(self, rows)

    monkeypatch.setattr(PermutationGroup, "_coset_keys", counted)
    r = Permutation([(i + 1) % 150 for i in range(150)])
    spec = CosetGraphSpec(dihedral(150), PermutationGroup.trivial(150), (r, r.inverse()))
    with pytest.raises(SizeLimitError, match="exceeds cap 2"):
        build_coset_graph(spec, max_cosets=2)
    assert sum(keyed) == 3


@settings(max_examples=60, deadline=None)
@given(coset_graph_data)
@example(
    (
        symmetric(5),
        [Permutation.from_cycles(5, (0, 1)), Permutation.from_cycles(5, (2, 3, 4))],
        [Permutation.from_cycles(5, (1, 2))],
    )
)
def test_coset_graph_matches_pairwise_reference(drawn):
    group, subgroup_gens, reps = drawn
    subgroup = PermutationGroup(group.degree, subgroup_gens)
    expected = _reference_coset_graph(group, subgroup, reps)
    spec = CosetGraphSpec(group, subgroup, tuple(reps))
    if isinstance(expected, str):
        with pytest.raises(StructureError, match=expected):
            build_coset_graph(spec)
        return
    graph, case = build_coset_graph(spec)
    assert graph.edges() == expected[0]
    assert [g.images for g in case.group.generators] == expected[1]
    assert local_action(case) == reference_local_action(case)


@settings(max_examples=40, deadline=None)
@given(coset_graph_data)
def test_coset_graph_extraction_matches_masked_group(drawn):
    group, subgroup_gens, reps = drawn
    subgroup = PermutationGroup(group.degree, subgroup_gens)
    try:
        graph, case = build_coset_graph(CosetGraphSpec(group, subgroup, tuple(reps)))
    except StructureError:
        return
    for vertex in {0, graph.n - 1}:
        assert_extraction_matches_masked_group(case.group, graph, vertex)


@settings(max_examples=40, deadline=None)
@given(coset_graph_data, st.data())
def test_of_point_set_reads_as_the_listed_set(drawn, data):
    # An ``of_point`` set is held as its cosets and H and lists nothing
    # until its rows are read.  Every read must agree with the rows masked
    # out of the enumerated group, and so must membership of every group
    # element, of permutations outside the group, of rows that repeat an
    # image, and of rows with an image outside the degree.
    group, subgroup_gens, reps = drawn
    subgroup = PermutationGroup(group.degree, subgroup_gens)
    try:
        graph, case = build_coset_graph(CosetGraphSpec(group, subgroup, tuple(reps)))
    except StructureError:
        return
    n = graph.n
    vertex = data.draw(st.integers(0, n - 1))
    group, targets = case.group, graph.neighbors(vertex)
    conn = ConnectionSet.of_point(group, vertex, targets)
    rows = group.element_array()
    masked = rows[np.isin(rows[:, vertex], targets)]
    reps = double_coset_representatives(masked, group.stabilizer(vertex))
    assert len(conn) == len(masked)
    assert conn.n_double_cosets == len(reps)
    assert np.array_equal(conn.operator(), reference_operator(masked))

    queries = np.concatenate([rows, rows[:, ::-1]]).astype(np.int64)
    member = masked[data.draw(st.integers(0, len(masked) - 1))].astype(np.int64)
    column = data.draw(st.integers(0, n - 1))
    bad = np.tile(member, (4, 1))
    bad[0, column] = n  # an image past the degree
    bad[1, column] += 256  # the member again, once cast to uint8
    bad[2, column] = -1
    bad[3, column] = member[(column + 1) % n]  # a repeated image
    queries = np.concatenate([queries, bad])
    members = set(map(tuple, masked.tolist()))
    expected = [tuple(q) in members for q in queries.tolist()]
    assert conn.contains_rows(queries).tolist() == expected
    assert expected[-4:] == [False] * 4 and any(expected)
    for wrong in (queries[0], queries[:, 1:]):
        with pytest.raises(ValueError, match=f"width {n}"):
            conn.contains_rows(wrong)
    assert conn._rows is None

    assert np.array_equal(conn.rows, np.unique(masked, axis=0))
    assert conn.representatives.tolist() == [list(g.images) for g in reps]


def test_realize_forms_no_connection_sized_array():
    # complete-9: |S| = 8 * 8! = 322 560 rows of 9 images, 2.9 MB.  The set
    # is held as its 8 cosets and G_v, so realizing the case stays under
    # |S| * n bytes, and the set's rows are never formed.
    tracemalloc.start()
    try:
        case = realize_case(catalog._complete(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    connection = case.connection
    assert len(connection) == 322_560 and len(connection.cosets) == 8
    assert connection._rows is None
    assert peak < len(connection) * case.graph.n, peak


# -- canonical isomorphism -------------------------------------------------------


def test_sabidussi_triangle_and_petersen():
    assert sabidussi_isomorphism(make_transitive_case(s3(), triangle()))
    assert sabidussi_isomorphism(petersen_case())


def test_sabidussi_detects_corrupted_connection_set():
    # A valid connection set of another orbital: S = {g : g(0) in {2, 4}}
    # draws the distance-2 graph of C6, which differs from C6 at (0, 1).
    case = make_transitive_case(dihedral(6), cycle_graph(6))
    other = ConnectionSet.of_point(case.group, 0, (2, 4))
    assert len(other.representatives) == 1
    result = sabidussi_isomorphism(replace(case, connection=other))
    assert not result.ok
    assert result.violation == (0, 1)


def test_sabidussi_reports_first_violation_pair():
    # The cycle 0-1-2-4-3-5-0 is not the coset graph C6; scanning pairs
    # w1 < w2 in order, the first disagreement is the coset edge {2, 3}.
    case = make_transitive_case(dihedral(6), cycle_graph(6))
    other = SimpleGraph(6, [(0, 1), (1, 2), (2, 4), (4, 3), (3, 5), (5, 0)])
    result = sabidussi_isomorphism(replace(case, graph=other))
    assert not result.ok
    assert result.violation == (2, 3)


def pairwise_sabidussi_violation(case):
    """The first pair w1 < w2 where u_w1^-1 u_w2 in S disagrees with the
    graph, tested one product of transversal rows at a time."""
    t = case.group.transversal(case.base_vertex)
    t = {u[case.base_vertex]: u for u in t.tolist()}
    for w1, w2 in itertools.combinations(range(case.graph.n), 2):
        u_w1_inverse = np.argsort(t[w1])
        in_s = case.connection.contains_rows(u_w1_inverse[t[w2]][None, :])[0]
        if in_s != case.graph.has_edge(w1, w2):
            return (w1, w2)
    return None


def test_sabidussi_gather_matches_pairwise_products():
    cases = [realize_case(spec) for spec in builtin_cases()]
    for n in (6, 8):
        case = make_transitive_case(dihedral(n), cycle_graph(n))
        for far in range(2, n // 2 + 1):
            orbital = ConnectionSet.of_point(case.group, 0, (far, n - far))
            cases.append(replace(case, connection=orbital))
    for case in cases:
        assert sabidussi_isomorphism(case).violation == pairwise_sabidussi_violation(
            case
        )


def test_sabidussi_requires_a_split_over_the_stabilizer():
    # The same edges' set under Z_6, split over its trivial stabilizer.
    case = make_transitive_case(dihedral(6), cycle_graph(6))
    unsplit = ConnectionSet.of_point(cyclic(6), 0, (1, 5))
    assert set(map(tuple, unsplit.rows.tolist())) < set(
        map(tuple, case.connection.rows.tolist())
    )
    with pytest.raises(StructureError, match="stabilizer"):
        sabidussi_isomorphism(replace(case, connection=unsplit))


def test_sabidussi_reads_the_kept_inverses():
    # The coset adjacency is gathered through the kept level's index and
    # inverses at v, so no transversal is sorted and no second n x n
    # inverse table is scattered: the traced peak at n = 1000 stays under
    # 5 n^2 bytes (about 6 n^2 with the sort and the second table).
    case = realize_case(catalog._cycle_dihedral(1000))
    n = case.graph.n
    tracemalloc.start()
    try:
        assert sabidussi_isomorphism(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * n, peak


# -- local action ------------------------------------------------------------------


def test_local_action_petersen_transitive_primitive():
    report = local_action(petersen_case())
    assert report.orbit_count == 1
    assert report.locally_transitive
    assert report.locally_primitive
    assert report.block_system is None


def test_local_action_cyclic_four_cycle_not_transitive():
    report = local_action(make_transitive_case(cyclic(4), cycle_graph(4)))
    assert report.orbit_count == 2
    assert not report.locally_transitive
    assert not report.locally_primitive


def test_local_action_dihedral_cycle_transitive_primitive():
    for n in (5, 6, 8):
        report = local_action(make_transitive_case(dihedral(n), cycle_graph(n)))
        assert report.locally_transitive
        assert report.locally_primitive


def test_local_action_octahedron_imprimitive():
    # complement of a perfect matching on 6 vertices; the full wreath
    # automorphism group is vertex-transitive and the stabilizer acts on
    # the 4 neighbors with the antipodal pairs as blocks
    non_edges = {(0, 3), (1, 4), (2, 5)}
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(6), 2)
        if (u, v) not in non_edges
    ]
    graph = SimpleGraph(6, edges)
    group = PermutationGroup(
        6,
        [
            Permutation.from_cycles(6, (0, 1), (3, 4)),
            Permutation.from_cycles(6, (0, 1, 2), (3, 4, 5)),
            Permutation.from_cycles(6, (0, 3)),
        ],
    )
    assert group.order() == 48
    case = make_transitive_case(group, graph)
    report = local_action(case)
    assert report.locally_transitive
    assert not report.locally_primitive
    blocks = set(report.block_system)
    assert blocks == {(1, 4), (2, 5)}


def test_local_action_valency_one():
    case = make_transitive_case(
        PermutationGroup(2, [Permutation([1, 0])]), SimpleGraph(2, [(0, 1)])
    )
    report = local_action(case)
    assert report.orbit_count == 1
    assert report.locally_transitive
    assert report.locally_primitive
    assert report.block_system is None


def test_local_action_matches_permutation_reference():
    cases = [realize_case(spec) for spec in builtin_cases()]
    cases += [
        make_transitive_case(dihedral(6), cycle_graph(6)),
        make_transitive_case(cyclic(4), cycle_graph(4)),
        petersen_case(),
    ]
    for case in cases:
        assert local_action(case) == reference_local_action(case)


def test_local_action_rejects_a_stabilizer_leaving_the_neighborhood():
    # (1 2) fixes the base vertex 0 of C6 but moves its neighbor 1 to 2.
    case = make_transitive_case(dihedral(6), cycle_graph(6))
    swap = PermutationGroup(6, [Permutation.from_cycles(6, (1, 2))])
    with pytest.raises(StructureError, match="neighborhood"):
        local_action(replace(case, stabilizer=swap))


def _record_calls(monkeypatch, cls, calls):
    """Append the name of every method or classmethod of cls to calls
    whenever it runs."""
    for name, attr in list(vars(cls).items()):
        if isinstance(attr, classmethod):
            func, wrap = attr.__func__, classmethod
        elif inspect.isfunction(attr):
            func, wrap = attr, (lambda f: f)
        else:
            continue

        def recording(*args, _name=name, _func=func, **kwargs):
            calls.append(_name)
            return _func(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrap(recording))


def test_coset_graph_and_local_action_read_rows(monkeypatch):
    # S4 over a subgroup of order 2: 12 cosets, a nontrivial stabilizer.
    h = PermutationGroup(4, [Permutation([1, 0, 2, 3])])
    spec = CosetGraphSpec(symmetric(4), h, (Permutation([2, 1, 0, 3]),))
    calls = []
    with monkeypatch.context() as patch:
        _record_calls(patch, Permutation, calls)
        graph, case = build_coset_graph(spec)
    assert graph.n == 12 and case.stabilizer.order() == 2
    assert "__init__" not in calls
    # The representatives are listed from H's rows when first read, before
    # the calls are recorded.
    representatives = case.connection.representatives
    assert case.connection.n_double_cosets == len(representatives)
    calls.clear()
    _record_calls(monkeypatch, Permutation, calls)
    _record_calls(monkeypatch, PermutationGroup, calls)
    report = local_action(case)
    assert report.orbit_count == len(representatives)
    assert calls == []


def test_local_transitivity_agrees_with_double_coset_count():
    cases = [
        make_transitive_case(s3(), triangle()),
        make_transitive_case(cyclic(4), cycle_graph(4)),
        make_transitive_case(dihedral(6), cycle_graph(6)),
        petersen_case(),
    ]
    for case in cases:
        reps = double_coset_representatives(
            set(case.connection.elements), case.stabilizer
        )
        report = local_action(case)
        assert report.locally_transitive == (len(reps) == 1)


def test_block_systems_are_genuine():
    non_edges = {(0, 3), (1, 4), (2, 5)}
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(6), 2)
        if (u, v) not in non_edges
    ]
    group = PermutationGroup(
        6,
        [
            Permutation.from_cycles(6, (0, 1), (3, 4)),
            Permutation.from_cycles(6, (0, 1, 2), (3, 4, 5)),
            Permutation.from_cycles(6, (0, 3)),
        ],
    )
    case = make_transitive_case(group, SimpleGraph(6, edges))
    report = local_action(case)
    blocks = report.block_system
    neighborhood = set(case.graph.neighbors(case.base_vertex))
    assert sorted(x for block in blocks for x in block) == sorted(neighborhood)
    sizes = {len(block) for block in blocks}
    assert len(sizes) == 1
    assert case.valency % sizes.pop() == 0
    block_set = {frozenset(b) for b in blocks}
    for g in case.stabilizer.generators:
        for block in blocks:
            assert frozenset(g(x) for x in block) in block_set
