import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stabgap import catalog, groups
from stabgap.casefile import realize_case
from stabgap.catalog import builtin_cases
from stabgap.errors import SizeLimitError, StructureError
from stabgap.groups import (
    ConnectionSet,
    PermutationGroup,
    _RowTable,
    _image_dtype,
    _inverse_rows,
    _sorted_distinct,
    double_coset_representatives,
)
from stabgap.perms import Permutation
from stabgap.pipeline import analyze_case

from cases import (
    coset_graph_data,
    cyclic,
    double_coset,
    praeger_xu,
    reference_compose,
    reference_compose_all,
    reference_operator,
    symmetric,
)


def s3():
    return PermutationGroup(3, [Permutation([1, 0, 2]), Permutation([1, 2, 0])])


def c4():
    return PermutationGroup(4, [Permutation([1, 2, 3, 0])])


def sorted_rows(rows):
    """The distinct rows in lexicographic order, by ``np.unique``."""
    return np.unique(rows, axis=0)


def assert_chain_order(group):
    """Row r of ``element_array()`` is u_0 * u_1 * ... for the transversal
    rows u_i picked by r's mixed-radix digits over the chain's
    transversals, level 0 the most significant, formed by fancy indexing."""
    chain = group._stabilizer_chain()
    sizes = [len(level.reps) for level in chain]
    order = group.order()
    assert order == math.prod(sizes)
    index = np.arange(order)
    digits = np.unravel_index(index, sizes) if sizes else ()
    product = np.broadcast_to(np.arange(group.degree), (order, group.degree))
    for level, digit in reversed(list(zip(chain, digits))):
        product = reference_compose(level.reps, digit, product)
    assert np.array_equal(group.element_array(), product)


def pair_action_s5():
    """S_5 acting on the 10 two-subsets of {0..4}, lexicographic indexing."""
    pairs = sorted(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}

    def induce(g):
        return Permutation(
            [idx[tuple(sorted((g[a], g[b])))] for a, b in pairs]
        )

    gens = [induce([1, 0, 2, 3, 4]), induce([1, 2, 3, 4, 0])]
    return PermutationGroup(10, gens), pairs, idx


def brute_force_pair_action():
    pairs = sorted(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    out = set()
    for g in itertools.permutations(range(5)):
        out.add(tuple(idx[tuple(sorted((g[a], g[b])))] for a, b in pairs))
    return {Permutation(p) for p in out}


def test_orbit_cyclic_transitive():
    assert c4().orbit(0) == {0, 1, 2, 3}


def test_orbit_fixed_point():
    g = PermutationGroup(3, [Permutation([0, 2, 1])])
    assert g.orbit(0) == {0}


def test_orbit_closure():
    assert s3().orbit(2) == {0, 1, 2}


def test_order_s3():
    assert s3().order() == 6


def test_order_dihedral_square():
    g = PermutationGroup(4, [Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])])
    assert g.order() == 8


def test_order_trivial():
    assert PermutationGroup.trivial(5).order() == 1


def test_stabilizer_s3():
    stab = s3().stabilizer(0)
    assert stab.order() == 2
    assert Permutation([0, 2, 1]) in stab
    # oracle: filter the full element list
    brute = [g for g in s3().elements() if g(0) == 0]
    assert len(brute) == 2


def test_stabilizer_regular_cyclic_is_trivial():
    assert c4().stabilizer(0).order() == 1


def test_stabilizer_pair_action_order_12():
    group, pairs, idx = pair_action_s5()
    stab = group.stabilizer(idx[(0, 1)])
    assert stab.order() == 12
    brute = [g for g in brute_force_pair_action() if g(idx[(0, 1)]) == idx[(0, 1)]]
    assert len(brute) == 12
    assert all(g in stab for g in brute)


def test_elements_s3():
    els = s3().elements(cap=10)
    assert len(els) == 6
    assert_chain_order(s3())
    assert els[0].is_identity()
    rows = s3().element_array(cap=10)
    assert rows.dtype == np.uint8 and not rows.flags.writeable
    assert [tuple(r) for r in rows.tolist()] == [g.images for g in els]


def test_chain_order_of_small_groups():
    for group in (PermutationGroup.trivial(3), c4(), pair_action_s5()[0]):
        assert_chain_order(group)
    assert c4().element_array().tolist() == [
        [0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]
    ]


def test_elements_pair_action_matches_brute_force():
    group, _, _ = pair_action_s5()
    els = group.elements(cap=200)
    assert len(els) == 120
    assert set(els) == brute_force_pair_action()


def test_elements_cap_exceeded():
    s5 = PermutationGroup(
        5, [Permutation([1, 0, 2, 3, 4]), Permutation([1, 2, 3, 4, 0])]
    )
    with pytest.raises(SizeLimitError):
        s5.elements(cap=50)


def test_membership_matches_enumeration():
    group = PermutationGroup(4, [Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])])
    els = group.elements()
    assert len(els) == group.order()
    assert all(g in group for g in els)
    outside = [
        Permutation(p)
        for p in itertools.permutations(range(4))
        if Permutation(p) not in set(els)
    ]
    assert len(outside) == 24 - 8
    assert all(g not in group for g in outside)


def test_membership_wrong_degree_is_false():
    assert Permutation([1, 0]) not in s3()


def test_orbit_stabilizer_identity():
    cases = [
        (s3(), 0),
        (s3(), 2),
        (c4(), 1),
        (PermutationGroup(4, [Permutation([1, 2, 3, 0]), Permutation([0, 3, 2, 1])]), 0),
        (pair_action_s5()[0], 3),
    ]
    for group, p in cases:
        assert len(group.orbit(p)) * group.stabilizer(p).order() == group.order()


@pytest.mark.parametrize(
    "spec",
    builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)],
    ids=lambda spec: spec.name,
)
def test_stabilizer_of_every_catalog_case(spec):
    # Every vertex: the chain's first base point shares the group's chain,
    # and every other vertex of these transitive actions builds one at it.
    group = realize_case(spec).group
    rows = group.element_array()
    for point in range(group.degree):
        stab = group.stabilizer(point)
        assert len(group.orbit(point)) * stab.order() == group.order()
        assert all(g(point) == point for g in stab.generators)
        fixing = rows[rows[:, point] == point]
        assert stab.order() == len(fixing)
        assert np.array_equal(sorted_rows(stab.element_array()), sorted_rows(fixing))


@pytest.mark.parametrize(
    "spec",
    builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)],
    ids=lambda spec: spec.name,
)
def test_elements_are_numbered_by_their_chain_digits(spec):
    # The group, and its stabilizer at every point: the first base point's
    # shares the group's deeper levels, the others those of a chain built
    # at the point.
    group = realize_case(spec).group
    assert_chain_order(group)
    for point in range(group.degree):
        assert_chain_order(group.stabilizer(point))


@pytest.mark.parametrize(
    "spec",
    builtin_cases() + [catalog._kneser(8, 3)],
    ids=lambda spec: spec.name,
)
def test_conjugated_levels_are_the_transversals_of_their_spans(spec):
    # G_u(b) = u * G_b * u^-1 for the first level's row u with u(b) = point,
    # an oracle independent of the chain built at the point.  The group's
    # deeper levels, conjugated here by u, are transversals of the orbits
    # of their base points u(b_i) under their own conjugated spans, with
    # their inverses, and the spans fix the earlier base points; and they
    # list the elements of the stabilizer at u(b).
    group = realize_case(spec).group
    full = group._stabilizer_chain()
    shared = group.stabilizer(full[0].basepoint).element_array()
    for point in range(group.degree):
        u = full[0].reps[full[0].index[point]].astype(np.intp)
        u_inverse = np.argsort(u)

        def conjugate(rows):
            return u[rows][:, u_inverse]

        fixed = []
        for level in full[1:]:
            b = int(u[level.basepoint])
            span, reps = conjugate(level.span), conjugate(level.reps)
            orbit = groups._transversal(b, span)[0][:, b]
            assert reps[0].tolist() == list(range(group.degree))
            assert sorted(reps[:, b].tolist()) == sorted(orbit.tolist())
            assert np.array_equal(conjugate(level.inverse), np.argsort(reps, axis=1))
            assert (span[:, fixed] == fixed).all()
            fixed.append(b)
        stab = group.stabilizer(point)
        assert np.array_equal(
            sorted_rows(stab.element_array()), sorted_rows(conjugate(shared))
        )


@st.composite
def small_groups(draw):
    """Random generators on 5 to 7 points; about half of the groups keep
    the points below a random cut apart from the rest, so they are
    intransitive and have points outside the first base point's orbit."""
    degree = draw(st.integers(5, 7))
    cut = draw(st.integers(0, degree - 2))
    count = draw(st.integers(1, 3))
    if not cut:
        images = draw(
            st.lists(st.permutations(range(degree)), min_size=count, max_size=count)
        )
    else:
        low = st.permutations(range(cut))
        high = st.permutations(range(cut, degree))
        images = [draw(low) + draw(high) for _ in range(count)]
    return PermutationGroup(degree, [Permutation(list(p)) for p in images])


@settings(max_examples=50, deadline=None)
@given(small_groups())
def test_stabilizer_routes_match_brute_force_random(group):
    # One route at every point, in and off the first base point's orbit:
    # the deeper levels of a chain based at the point, the group's own at
    # its first base point, each stabilizer built once and kept.
    brute = sorted(brute_closure(group.degree, group.generators))
    chain = group._stabilizer_chain()
    for point in range(group.degree):
        stab = group.stabilizer(point)
        assert group.stabilizer(point) is stab
        assert stab._chain is not None
        if chain and point == chain[0].basepoint:
            assert all(a is b for a, b in zip(stab._chain, chain[1:], strict=True))
        fixing = [list(g.images) for g in brute if g(point) == point]
        assert sorted(stab.element_array().tolist()) == fixing
        assert stab.order() * len(group.orbit(point)) == len(brute)
        for g in brute:
            assert (g in stab) == (g(point) == point)


@settings(max_examples=50, deadline=None)
@given(small_groups())
def test_elements_are_numbered_by_their_chain_digits_random(group):
    # Intransitive groups too, whose stabilizers off the first base point
    # read a chain built at the point.
    assert_chain_order(group)
    for point in range(group.degree):
        assert_chain_order(group.stabilizer(point))


@settings(max_examples=50, deadline=None)
@given(small_groups(), st.data())
def test_contains_rows_matches_membership_in_the_elements(group, data):
    # Rows inside the group and random rows, many outside it, sifted as
    # one batch, against membership in the enumerated elements.
    elements = group.element_array()
    members = {tuple(row) for row in elements.tolist()}
    inside = data.draw(st.lists(st.sampled_from(elements.tolist()), max_size=5))
    drawn = data.draw(st.lists(st.permutations(range(group.degree)), max_size=8))
    rows = np.array(inside + drawn, dtype=elements.dtype).reshape(-1, group.degree)
    expected = [tuple(row) in members for row in rows.tolist()]
    assert group._contains_rows(rows).tolist() == expected
    for row, member in zip(rows.tolist(), expected):
        assert (Permutation(row) in group) == member


def test_generators_are_built_when_read():
    group = symmetric(5)
    assert "generators" not in vars(group)
    assert group.generators == group.generators
    assert group.generators is not group.generators
    assert [list(g.images) for g in group.generators] == group._gen_rows.tolist()


@pytest.mark.parametrize("spec", builtin_cases(), ids=lambda spec: spec.name)
def test_group_from_rows_keeps_the_rows_of_its_permutations(spec):
    from_rows = PermutationGroup(spec.degree, np.array(spec.generators))
    from_perms = PermutationGroup(
        spec.degree, [Permutation(images) for images in spec.generators]
    )
    assert from_rows._gen_rows.dtype == from_perms._gen_rows.dtype
    assert np.array_equal(from_rows._gen_rows, from_perms._gen_rows)
    assert from_rows.order() == from_perms.order()


def test_group_generators_are_checked():
    for bad in (
        np.array([[1, 0, 2, 3]]),  # wrong width
        np.array([[1, 1, 0]]),  # not a bijection
        np.array([[1, 0, 3]]),  # image out of range
        [Permutation([1, 0])],  # wrong degree
    ):
        with pytest.raises(ValueError):
            PermutationGroup(3, bad)
    for item in ((1, 0, 2), [1, 0, 2], "102"):
        with pytest.raises(TypeError, match=re.escape(repr(item))):
            PermutationGroup(3, [Permutation([1, 2, 0]), item])
    # An empty array keeps its width.
    assert PermutationGroup(3, np.zeros((0, 3), dtype=np.intp)).order() == 1


#: The 26 benchmark cases: the catalog and the group ladder.
_WORKLOAD_CASES = builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)]


@pytest.mark.parametrize("spec", _WORKLOAD_CASES, ids=lambda spec: spec.name)
def test_realize_builds_one_stabilizer_chain(spec, monkeypatch):
    # The base vertex is the first base point of G's chain, so the vertex
    # stabilizer shares G's deeper levels: realizing a case runs
    # Schreier-Sims once for G, and asking for the stabilizer at the base
    # vertex again forms no Schreier generator and returns the kept group.
    # (Coset mode builds the chains of its other groups too.)
    built = []
    build_chain = PermutationGroup._build_chain

    def counting(group, *args):
        built.append((group, *args))
        return build_chain(group, *args)

    monkeypatch.setattr(PermutationGroup, "_build_chain", counting)
    case = realize_case(spec)

    def builds_of_g():
        return [args for args in built if args[0] is case.group]

    assert builds_of_g() == [(case.group,)]
    case.stabilizer.order()
    case.stabilizer.element_array()

    def refuse(*args):
        raise AssertionError("stabilizer formed Schreier generators")

    monkeypatch.setattr(groups, "_schreier", refuse)
    assert case.group._stabilizer_chain()[0].basepoint == case.base_vertex
    assert case.group.stabilizer(case.base_vertex) is case.stabilizer
    assert builds_of_g() == [(case.group,)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=3))
def test_orbit_stabilizer_identity_random(gen_images):
    group = PermutationGroup(5, [Permutation(p) for p in gen_images])
    for p in range(5):
        assert len(group.orbit(p)) * group.stabilizer(p).order() == group.order()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=3))
def test_order_matches_closure_count_random(gen_images):
    gens = [Permutation(p) for p in gen_images]
    assert PermutationGroup(4, gens).order() == len(brute_closure(4, gens))


def test_empty_connection_set_has_no_members():
    empty = ConnectionSet([], c4())
    assert len(empty) == 0
    assert empty.representatives.shape == (0, 4)
    assert Permutation.identity(4) not in empty
    assert Permutation([1, 2, 3, 0]) not in empty


def test_row_order_and_lookup_at_two_byte_degree():
    # Degree 300 needs uint16 rows; a little-endian row view would put
    # the rotation by 256 before the rotation by 1.
    degree = 300
    rotation = Permutation([(i + 1) % degree for i in range(degree)])
    group = PermutationGroup(degree, [rotation])
    rows = group.element_array()
    assert rows.dtype == np.uint16
    tuples = [tuple(r) for r in rows.tolist()]
    assert tuples == sorted(tuples) and len(set(tuples)) == degree
    assert tuples[0] == tuple(range(degree))

    shuffled = np.random.default_rng(0).permutation(np.concatenate([rows, rows]))
    assert [tuple(r) for r in _sorted_distinct(shuffled).tolist()] == tuples

    connection = ConnectionSet(rows[:0:-1], PermutationGroup.trivial(degree))
    assert [tuple(r) for r in connection.rows.tolist()] == tuples[1:]
    assert len(connection.representatives) == degree - 1

    table = _RowTable(rows[::-1])
    assert table.find(rows).tolist() == list(range(degree))
    swap = Permutation([1, 0] + list(range(2, degree)))
    missing = np.array([swap.images, rows[7]])
    assert table.find(missing).tolist() == [-1, 7]
    assert swap not in connection and Permutation.identity(degree) not in connection
    assert rotation in connection
    empty = _RowTable(rows[:0])
    assert empty.find(rows[:3]).tolist() == [-1, -1, -1]

    # A table over a group's own rows, which are not re-checked.
    own = _RowTable._of_rows(rows)
    assert np.array_equal(own.rows, rows)
    assert own.find(rows[::-1]).tolist() == list(range(degree))[::-1]
    assert own.find(missing).tolist() == [-1, 7]


def test_lookup_confirms_uncast_queries():
    r = Permutation([1, 2, 3, 0])
    connection = ConnectionSet([r, r.inverse()], PermutationGroup.trivial(4))
    # 256 and -256 wrap onto 0 in the rows' uint8 dtype, making r.
    for image in (256, -256, 4, -1):
        query = np.array([[1, 2, 3, image]])
        assert connection.contains_rows(query).tolist() == [False]
    table = connection._table
    queries = np.array([[1, 2, 3, 0], [257, 2, 3, 0], [3, 0, 1, 2], [3, 0, 1, 2 - 512]])
    assert table.find(queries).tolist() == [0, -1, 1, -1]
    for bad in (np.array([1, 2, 3, 0]), np.array([[1, 2, 3]]), np.zeros((1, 1, 4))):
        with pytest.raises(ValueError, match="width 4"):
            table.find(bad)
        with pytest.raises(ValueError, match="width 4"):
            connection.contains_rows(bad)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("width", [3, 12])
def test_row_order_of_empty_and_one_row_sets(dtype, width):
    row = np.arange(width, dtype=dtype)[::-1][None, :]
    for rows in (row[:0], row):
        order, view = groups._lex_order(rows)
        assert order.tolist() == list(range(len(rows)))
        assert np.array_equal(view, groups._row_view(rows[order]))
        assert np.array_equal(_sorted_distinct(rows), rows)
        assert np.array_equal(groups._distinct_moved(rows), rows)
        table = _RowTable._of_rows(rows)
        queries = np.concatenate([row, row[:, ::-1], row + 1]).astype(np.int64)
        assert table.find(queries).tolist() == [len(rows) - 1, -1, -1]


@st.composite
def lex_rows(draw):
    """Rows of uint8 or uint16 images, some wider and some narrower than
    eight bytes, with repeated rows and, sometimes, the same first eight
    bytes in every row."""
    dtype = np.dtype(draw(st.sampled_from([np.uint8, np.uint16])))
    width = draw(st.integers(1, 12))
    top = int(np.iinfo(dtype).max)
    row = st.lists(st.sampled_from([0, 1, 2, top]), min_size=width, max_size=width)
    rows = np.array(draw(st.lists(row, max_size=10)), dtype=dtype).reshape(-1, width)
    if len(rows):
        again = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
        rows = np.concatenate([rows, rows[again]])
        if draw(st.booleans()):
            rows[:, : 8 // dtype.itemsize] = rows[0, : 8 // dtype.itemsize]
    return rows


@settings(max_examples=50, deadline=None)
@given(lex_rows(), st.data())
def test_row_order_and_lookup_match_python(rows, data):
    tuples = [tuple(row) for row in rows.tolist()]
    n, width = rows.shape
    by_row = sorted(range(n), key=lambda i: tuples[i])
    # The values handed back are those of the rows in the order returned.
    order, view = groups._lex_order(rows)
    assert order.tolist() == by_row
    assert np.array_equal(view, groups._row_view(rows[order]))
    first = {}
    for i in by_row:
        first.setdefault(tuples[i], i)
    order, view = groups._lex_order(rows, distinct=True)
    assert order.tolist() == list(first.values())
    assert np.array_equal(view, groups._row_view(rows[order]))
    distinct = sorted(set(tuples))
    assert [tuple(row) for row in _sorted_distinct(rows).tolist()] == distinct
    identity = tuple(range(width))
    moved = list(dict.fromkeys(t for t in tuples if t != identity))
    assert [tuple(row) for row in groups._distinct_moved(rows).tolist()] == moved

    table = _RowTable._of_rows(rows)
    index = {t: i for i, t in enumerate(distinct)}
    top = int(np.iinfo(rows.dtype).max)
    value = st.sampled_from([0, 1, 2, 3, top])
    drawn = data.draw(st.lists(st.tuples(*[value] * width), max_size=6))
    queries = distinct + drawn
    # Images outside the dtype's range, equal to a member's after a cast.
    for t in distinct[:3]:
        column = data.draw(st.integers(0, width - 1))
        queries.append(t[:column] + (t[column] + top + 1,) + t[column + 1 :])
        queries.append(t[:column] + (t[column] - top - 1,) + t[column + 1 :])
    found = table.find(np.array(queries, dtype=np.int64).reshape(-1, width))
    assert found.tolist() == [index.get(q, -1) for q in queries]
    if queries:
        own = np.array(queries[: len(distinct)], dtype=rows.dtype).reshape(-1, width)
        assert table.find(own).tolist() == list(range(len(distinct)))


def test_chain_base_follows_the_generators():
    # Level 0 is based at the smallest point the generators move; each
    # later level's base point is the smallest point moved by the residue
    # that opened it, not the smallest point the level's group moves.
    bases = {"kneser-8-3": [0, 6, 4, 2, 3], "complete-8": [0, 1, 2, 6, 4, 3, 5]}
    for spec in (catalog._kneser(8, 3), catalog._complete(8)):
        chain = realize_case(spec).group._stabilizer_chain()
        assert [level.basepoint for level in chain] == bases[spec.name]


def s4_on_last_points(degree):
    """S_4 acting on the last 4 of the degree's points: every element has
    the same images on the first degree - 4 points, so rows differ only
    past their first eight bytes."""
    fixed = list(range(degree - 4))
    a, b, c, d = range(degree - 4, degree)
    return PermutationGroup(
        degree, [Permutation(fixed + [b, a, c, d]), Permutation(fixed + [b, c, d, a])]
    )


@pytest.mark.parametrize("degree", [12, 300])
def test_tied_keys_keep_whole_row_order(degree):
    group = s4_on_last_points(degree)
    # A table of the group's elements sorts their rows.
    rows = _RowTable._of_rows(group.element_array()).rows
    tuples = [tuple(row) for row in rows.tolist()]
    brute = brute_closure(degree, group.generators)
    assert tuples == sorted(p.images for p in brute)

    point = degree - 4
    h = group.stabilizer(point)
    s = [g for g in brute if g(point) != point]
    reps = sorted({min(double_coset(h, g)) for g in s})
    connection = ConnectionSet(np.array([g.images for g in s]), h)
    assert connection.rows.tolist() == [list(t) for t in tuples if t[point] != point]
    assert connection.representatives.tolist() == [list(g.images) for g in reps]
    assert double_coset_representatives(s, h) == reps
    cycle = Permutation(list(range(point)) + [point + 1, point + 2, point + 3, point])
    with pytest.raises(StructureError, match="inverse"):
        ConnectionSet([g for g in s if g != cycle], PermutationGroup.trivial(degree))
    of_point = ConnectionSet.of_point(group, point, range(point + 1, degree))
    assert np.array_equal(of_point.rows, connection.rows)
    assert np.array_equal(of_point.representatives, connection.representatives)
    assert connection.contains_rows(_inverse_rows(connection.rows)).all()
    assert not connection.contains_rows(rows[:1]).any()


def test_johnson_connection_set_keeps_whole_row_order():
    # Johnson(8, 4) acts on 70 points and its rows tie on their first 8.
    case = realize_case(catalog._johnson(8, 4))
    rows, v = case.connection.rows, case.base_vertex
    tuples = [tuple(row) for row in rows.tolist()]
    assert tuples == sorted(set(tuples))
    orbit = {q: min(case.stabilizer.orbit(q)) for q in {t[v] for t in tuples}}
    reps, seen = [], set()
    for t in tuples:
        if orbit[t[v]] not in seen:
            seen.add(orbit[t[v]])
            reps.append(t)
    assert [tuple(g) for g in case.connection.representatives.tolist()] == reps


def brute_closure(degree, gens):
    """The group generated by gens, closed under products one by one."""
    found = {Permutation.identity(degree)}
    frontier = list(found)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g * x
                if y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return found


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([4, 5]).flatmap(
        lambda d: st.lists(st.permutations(list(range(d))), min_size=0, max_size=3)
    )
)
def test_elements_match_brute_force_closure_random(gen_images):
    degree = len(gen_images[0]) if gen_images else 4
    gens = [Permutation(p) for p in gen_images]
    assert sorted(PermutationGroup(degree, gens).elements()) == sorted(
        brute_closure(degree, gens)
    )


# -- the stabilizer chain against a Permutation reference --------------------


class RefLevel:
    """A chain level holding Permutation objects: the reference layout.
    ``transversal`` keeps its points in the order they were reached, and
    ``verified`` holds the pairs (point, span index) whose Schreier
    generator was seen to sift to the identity."""

    def __init__(self, basepoint, span, transversal):
        self.basepoint = basepoint
        self.span = list(span)
        self.gens = [g for g in span if g(basepoint) != basepoint]
        self.transversal = transversal
        self.verified = set()

    def extend(self, g):
        """Append g to the span: the old points under g first, in order,
        then breadth-first from the new points under the whole span."""
        self.span.append(g)
        t = self.transversal
        queue = []
        for p in list(t):
            q = g(p)
            if q not in t:
                t[q] = g * t[p]
                queue.append(q)
        while queue:
            p = queue.pop(0)
            for s in self.span:
                q = s(p)
                if q not in t:
                    t[q] = s * t[p]
                    queue.append(q)


def ref_transversal(point, degree, gens):
    """Map q -> u_q with u_q(point) = q, grown breadth-first with the
    generators in their given order."""
    t = {point: Permutation.identity(degree)}
    queue = [point]
    while queue:
        p = queue.pop(0)
        rep = t[p]
        for g in gens:
            q = g(p)
            if q not in t:
                t[q] = g * rep
                queue.append(q)
    return t


def ref_sift(levels, g):
    """Strip g through the chain; return (residue, first failing level)."""
    for i, level in enumerate(levels):
        image = g(level.basepoint)
        rep = level.transversal.get(image)
        if rep is None:
            return g, i
        g = rep.inverse() * g
    return g, len(levels)


def ref_absorb(levels, degree, g, j):
    """Add g to level j's generators (a new level past the last opens at
    the smallest point g moves) and to the spans of levels 1..j."""
    if j == len(levels):
        basepoint = min(p for p in range(degree) if g(p) != p)
        levels.append(RefLevel(basepoint, [], {basepoint: Permutation.identity(degree)}))
    levels[j].gens.append(g)
    for level in levels[1 : j + 1]:
        level.extend(g)


def ref_build_chain(degree, generators, first=None):
    """The stabilizer chain based first at the point ``first`` (by default
    the smallest point any generator moves), built one Permutation product
    and one Schreier generator at a time.  Level 0 spans the generators; the
    scan goes bottom-up over each level's unverified pairs, in blocks of
    the pairs ``groups._SCHREIER_BLOCK`` allows at the degree.  Each pair
    of a block in turn is sifted through the deeper levels until it
    sifts to the identity, every residue that is not the identity added
    to the level where it failed and to the spans of levels 1..; after
    a block that added one, the scan resumes at the deepest level that
    took one."""
    if first is None:
        moved = [p for p in range(degree) if any(g(p) != p for g in generators)]
        if not moved:
            return []
        first = moved[0]
    block = max(1, groups._SCHREIER_BLOCK // degree)
    levels = [RefLevel(first, generators, ref_transversal(first, degree, generators))]
    i = 0
    while i >= 0:
        level = levels[i]
        pairs = [
            (q, which)
            for q in list(level.transversal)
            for which in range(len(level.span))
            if (q, which) not in level.verified
        ]
        deepest = None
        for a in range(0, len(pairs), block):
            for q, which in pairs[a : a + block]:
                s, t = level.span[which], level.transversal
                schreier = t[s(q)].inverse() * (s * t[q])
                while True:
                    residue, failed = ref_sift(levels[i + 1 :], schreier)
                    if residue.is_identity():
                        break
                    ref_absorb(levels, degree, residue, i + 1 + failed)
                    deepest = max(i + 1 + failed, deepest or 0)
                level.verified.add((q, which))
            if deepest is not None:
                break
        i = i - 1 if deepest is None else deepest
    return levels


def assert_levels_match_reference(levels, ref):
    """The same base points, strong generators, transversals and index as
    the reference levels."""
    assert [level.basepoint for level in levels] == [level.basepoint for level in ref]
    for level, ref_level in zip(levels, ref):
        assert level.gens.tolist() == [list(g.images) for g in ref_level.gens]
        assert level.reps.tolist() == [
            list(u.images) for u in ref_level.transversal.values()
        ]
        orbit = list(ref_level.transversal)
        assert level.index[orbit].tolist() == list(range(len(orbit)))
        assert (level.index >= 0).sum() == len(orbit)


def assert_chain_matches_reference(group, points=None):
    """The same chain as the reference, and at each of the points (all by
    default) the same transversal, and a stabilizer whose chain is the
    reference chain based at the point past its first level, generated
    by those levels' strong generators in order, each once."""
    assert_levels_match_reference(
        group._stabilizer_chain(), ref_build_chain(group.degree, group.generators)
    )
    for point in range(group.degree) if points is None else points:
        stab = group.stabilizer(point)
        ref = ref_build_chain(group.degree, group.generators, point)[1:]
        assert_levels_match_reference(stab._chain, ref)
        gens = [g for level in ref for g in level.gens]
        assert stab.generators == tuple(dict.fromkeys(gens))
        transversal = group.transversal(point)
        assert transversal.tolist() == [
            list(u.images)
            for u in ref_transversal(point, group.degree, group.generators).values()
        ]
        assert group.orbit(point) == set(transversal[:, point].tolist())
    assert group.is_transitive() == (len(group.transversal(0)) == group.degree)


@pytest.mark.parametrize(
    "spec",
    builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)],
    ids=lambda spec: spec.name,
)
def test_chain_matches_permutation_reference(spec):
    assert_chain_matches_reference(realize_case(spec).group)


def test_chain_matches_permutation_reference_deep_cyclic_orbit():
    # One generator, one orbit 600 breadth-first layers deep.
    assert_chain_matches_reference(
        PermutationGroup(600, [Permutation([(i + 1) % 600 for i in range(600)])]),
        points=(0, 1, 599),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([5, 6]).flatmap(
        lambda d: st.lists(st.permutations(list(range(d))), min_size=1, max_size=3)
    )
)
def test_chain_matches_permutation_reference_random(gen_images):
    degree = len(gen_images[0])
    assert_chain_matches_reference(
        PermutationGroup(degree, [Permutation(p) for p in gen_images])
    )


def test_chain_matches_permutation_reference_in_small_schreier_blocks(monkeypatch):
    # One pair per block: the fixpoint scan resumes at the deepest level
    # after every pair that added a residue, and must add the residues
    # the reference adds in blocks of one pair.
    blocks = []

    def recording(level, at, which):
        blocks.append(len(at))
        return schreier(level, at, which)

    schreier = groups._schreier
    monkeypatch.setattr(groups, "_SCHREIER_BLOCK", 1)
    monkeypatch.setattr(groups, "_schreier", recording)
    catalog_groups = [realize_case(spec).group for spec in builtin_cases()]
    for group in catalog_groups + [pair_action_s5()[0]]:
        blocks.clear()
        group._chain = None
        assert_chain_matches_reference(group, points=(0, 1))
        assert set(blocks) == {1} and len(blocks) > len(group._stabilizer_chain())


@pytest.mark.parametrize("block", [60, 200])
def test_chain_matches_permutation_reference_in_mid_size_schreier_blocks(
    block, monkeypatch
):
    # A few pairs per block: a level's scan runs over several blocks and
    # resumes at the deepest level after each block that took a residue.
    # At these sizes the S_7 and S_8 chains differ from those of a scan
    # that stops at each block's first residue; the chain must equal the
    # reference scanned in the same blocks.
    sizes = []

    def recording(level, at, which):
        sizes.append(len(at))
        return schreier(level, at, which)

    schreier = groups._schreier
    monkeypatch.setattr(groups, "_SCHREIER_BLOCK", block)
    monkeypatch.setattr(groups, "_schreier", recording)
    cases = [catalog._complete(7), catalog._complete(8), catalog._kneser(6, 2)]
    for group in [realize_case(spec).group for spec in cases] + [pair_action_s5()[0]]:
        sizes.clear()
        group._chain = None
        assert_chain_matches_reference(group, points=(0, 1))
        assert 0 < max(sizes) <= max(1, block // group.degree)


# -- the stabilizer chain's certificate and the work its build does --------


def reference_schreier_rows(level):
    """Every Schreier generator u_{s(q)}^-1 * s * u_q of the level, one
    per pair of a transversal row u_q and a span row s, by fancy
    indexing."""
    reps, span = level.reps.astype(np.intp), level.span.astype(np.intp)
    pairs = np.arange(len(reps) * len(span))
    u = reps[pairs // len(span)]
    su = span[pairs % len(span)][pairs[:, None], u] if len(pairs) else u
    back = reps[level.index[su[:, level.basepoint]]]
    return np.argsort(back, axis=1)[pairs[:, None], su] if len(pairs) else su


def reference_sifts_to_identity(levels, rows):
    """Whether each row sifts to the identity through the levels, each
    strip step by fancy indexing."""
    rows = rows.astype(np.intp)
    ok = np.ones(len(rows), dtype=bool)
    for level in levels:
        pos = level.index[rows[:, level.basepoint]]
        ok &= pos >= 0
        inverse = np.argsort(level.reps[np.maximum(pos, 0)].astype(np.intp), axis=1)
        rows = inverse[np.arange(len(rows))[:, None], rows]
    return ok & (rows == np.arange(rows.shape[1])).all(axis=1)


def assert_chain_certificate(group):
    """The chain certifies itself, level by level: each transversal row
    sends the base point to its own orbit point, the index and inverses
    agree with the rows, the orbit is closed under the span, the
    generators and the span fix the earlier base points and the
    generators move the level's own, level 0 spans the group's generators
    and each deeper level the generators of it and the deeper levels, and
    every Schreier generator over the span sifts to the identity through
    the deeper levels, and the build flagged every pair verified."""
    chain = group._stabilizer_chain()
    degree = group.degree
    assert group.order() == math.prod(len(level.reps) for level in chain)
    for i, level in enumerate(chain):
        b, reps = level.basepoint, level.reps
        orbit = reps[:, b].astype(np.intp)
        assert len(set(orbit.tolist())) == len(reps) and orbit[0] == b
        assert np.array_equal(level.index[orbit], np.arange(len(reps)))
        assert (level.index >= 0).sum() == len(reps)
        product = reps.astype(np.intp)[np.arange(len(reps))[:, None], level.inverse]
        assert (product == np.arange(degree)).all()
        assert (level.index[level.span[:, orbit]] >= 0).all()
        earlier = [lv.basepoint for lv in chain[:i]]
        assert (level.span[:, earlier] == earlier).all()
        assert (level.gens[:, earlier] == earlier).all()
        assert len(level.gens) and (level.gens[:, b] != b).all()
        if i == 0:
            assert np.array_equal(level.span, group._gen_rows)
        else:
            deeper = np.vstack([lv.gens for lv in chain[i:]])
            assert np.array_equal(sorted_rows(level.span), sorted_rows(deeper))
        schreier = reference_schreier_rows(level)
        assert reference_sifts_to_identity(chain[i + 1 :], schreier).all()
        assert level.verified.shape == (len(reps), len(level.span))
        assert level.verified.all()


@pytest.mark.parametrize("spec", _WORKLOAD_CASES, ids=lambda spec: spec.name)
def test_chain_certifies_itself(spec):
    assert_chain_certificate(realize_case(spec).group)


@settings(max_examples=50, deadline=None)
@given(small_groups())
def test_chain_certifies_itself_random(group):
    assert_chain_certificate(group)


@pytest.mark.parametrize("r, s", [(5, 1), (7, 2), (15, 3), (16, 1), (20, 1)])
def test_chain_certifies_itself_on_praeger_xu_groups(r, s):
    # Z_2^r x| D_r on the 2^s * r vertices of C(2, r, s): |G_v| = 2^(r-s+1)
    # grows at fixed valency 4, and the chains are up to 20 levels deep,
    # where one block absorbs the most residues.
    spec = praeger_xu(r, s)
    group = PermutationGroup(spec.degree, np.array(spec.generators))
    assert group.order() == 2**r * 2 * r
    assert group.stabilizer(0).order() == 2 ** (r - s + 1)
    assert_chain_certificate(group)


def brute_order(gen_rows):
    """The order of the group the rows generate, by closing the identity
    under left products, every row of a frontier at once; rows are keyed
    by their base-degree value."""
    degree = gen_rows.shape[1]
    weight = degree ** np.arange(degree, dtype=np.int64)
    known = frontier = np.arange(degree)[None, :]
    keys = known @ weight
    while len(frontier):
        products = np.unique(gen_rows[:, frontier].reshape(-1, degree), axis=0)
        fresh = products[~np.isin(products @ weight, keys)]
        known, frontier = np.vstack([known, fresh]), fresh
        keys = np.concatenate([keys, fresh @ weight])
    return len(known)


@st.composite
def s8_subgroups(draw):
    """One to three generators on 8 points, each moving a random number of
    points, relabelled by one random permutation: from small subgroups of
    S_8 up to S_8 itself."""
    relabel = np.array(draw(st.permutations(range(8))))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        moved = draw(st.integers(2, 8))
        g = np.array(list(draw(st.permutations(range(moved)))) + list(range(moved, 8)))
        gens.append(relabel[g[np.argsort(relabel)]])
    return np.array(gens)


@settings(max_examples=40, deadline=None)
@given(s8_subgroups())
def test_order_matches_brute_force_closure_in_s8(gen_rows):
    group = PermutationGroup(8, gen_rows)
    assert group.order() == brute_order(gen_rows)
    assert_chain_certificate(group)


@pytest.mark.parametrize("spec", _WORKLOAD_CASES, ids=lambda spec: spec.name)
def test_chain_build_is_deterministic(spec):
    chains = [
        PermutationGroup(spec.degree, np.array(spec.generators))._stabilizer_chain()
        for _ in range(2)
    ]
    for a, b in zip(*chains):
        assert a.basepoint == b.basepoint
        for name in ("gens", "span", "reps", "index", "inverse"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert len(chains[0]) == len(chains[1])


def watch_chain_build(monkeypatch):
    """Record, during ``_build_chain`` only: the ``_sift`` calls, the rows
    passed to them and those whose residue is the identity, the rows each ``_grow``
    appends, and the ``_transversal`` calls."""
    seen = {"sifts": 0, "sifted": 0, "identity": set(), "grown": 0, "searches": 0}
    building = []
    sift, grow, search = groups._sift, groups._grow, groups._transversal
    build = PermutationGroup._build_chain

    def watched_sift(levels, rows):
        residues, at = sift(levels, rows)
        if building:
            seen["sifts"] += 1
            seen["sifted"] += len(rows)
            identity = ~groups._moved(residues)
            seen["identity"].update(row.tobytes() for row in rows[identity])
        return residues, at

    def watched_grow(reps, *args):
        grown = grow(reps, *args)
        if building:
            seen["grown"] += len(grown) - len(reps)
        return grown

    def watched_search(*args):
        if building:
            seen["searches"] += 1
        return search(*args)

    def watched_build(group, *args):
        building.append(group)
        try:
            return build(group, *args)
        finally:
            building.pop()

    monkeypatch.setattr(groups, "_sift", watched_sift)
    monkeypatch.setattr(groups, "_grow", watched_grow)
    monkeypatch.setattr(groups, "_transversal", watched_search)
    monkeypatch.setattr(PermutationGroup, "_build_chain", watched_build)
    return seen


@pytest.mark.parametrize("spec", _WORKLOAD_CASES, ids=lambda spec: spec.name)
def test_chain_build_composes_each_transversal_row_once(spec, monkeypatch):
    # Level 0 takes the group's transversal, the one breadth-first search
    # of the build, and every deeper level only appends its new rows: the
    # build composes sum(|orbit_i| - 1) rows.  Every Schreier generator of
    # the finished chain was seen to sift to the identity while it was
    # built, so a pair counts as verified only once it has.
    seen = watch_chain_build(monkeypatch)
    group = PermutationGroup(spec.degree, np.array(spec.generators))
    chain = group._stabilizer_chain()
    assert seen["searches"] == 1
    assert seen["grown"] == sum(len(level.reps) - 1 for level in chain)
    for level in chain:
        rows = reference_schreier_rows(level).astype(level.reps.dtype)
        moved = rows[(rows != np.arange(group.degree)).any(axis=1)]
        assert {row.tobytes() for row in moved} <= seen["identity"]


def test_group_ladder_chains_sift_few_rows(monkeypatch):
    # The two group-ladder chains sifted 1 922 rows when every new strong
    # generator re-spanned its levels and the scan re-sifted verified
    # pairs, and 1 108 rows in 46 sifts when the scan stopped at each
    # block's first residue and formed the block again on its next visit.
    # A block that absorbs its residues in place sifts 668 rows in 30.
    seen = watch_chain_build(monkeypatch)
    for spec in (catalog._kneser(8, 3), catalog._complete(8)):
        PermutationGroup(spec.degree, np.array(spec.generators)).order()
    assert 0 < seen["sifts"] <= 36
    assert 0 < seen["sifted"] <= 800


def direct_product(*groups_):
    """The direct product of the groups, each acting on its own block of
    points, in the order given: an intransitive group whose first chain
    level lies in the first factor's points."""
    degree = sum(g.degree for g in groups_)
    gens, offset = [], 0
    for g in groups_:
        for h in g.generators:
            images = list(range(degree))
            images[offset : offset + g.degree] = [offset + x for x in h.images]
            gens.append(Permutation(images))
        offset += g.degree
    return PermutationGroup(degree, gens)


def test_stabilizer_off_the_first_base_point_in_small_schreier_blocks(monkeypatch):
    # Off the first base point's orbit the stabilizer is read off a chain
    # built at the point.  In blocks of one pair or of every pair at once,
    # that chain must be the reference chain at the point scanned in the
    # same blocks.
    blocks = []

    def recording(level, at, which):
        blocks.append(len(at))
        return schreier(level, at, which)

    schreier = groups._schreier
    monkeypatch.setattr(groups, "_schreier", recording)
    s4 = symmetric(4)
    pair_s5 = pair_action_s5()[0]
    cases = [
        (direct_product(s4, cyclic(5)), (4, 8)),
        (direct_product(s3(), pair_s5), (3, 12)),
        (direct_product(cyclic(2), pair_s5, s4), (2, 11, 12, 15)),
    ]
    for product, points in cases:
        for block in (1 << 62, 1):
            monkeypatch.setattr(groups, "_SCHREIER_BLOCK", block)
            group = PermutationGroup(product.degree, product._gen_rows)
            chain = group._stabilizer_chain()
            for point in points:
                assert chain[0].index[point] < 0
                blocks.clear()
                assert_chain_matches_reference(group, points=(point,))
                assert blocks and max(blocks) <= max(1, block // group.degree)
                stab = group.stabilizer(point)
                assert stab.order() * len(group.orbit(point)) == group.order()


@pytest.mark.parametrize("degree", [56, 300])
def test_compositions_match_fancy_indexing(degree):
    # Random rows of uint8 (degree 56) and uint16 (degree 300), in both
    # shapes the group layer composes.
    rng = np.random.default_rng(degree)
    dtype = _image_dtype(degree)
    table = np.argsort(rng.random((30, degree)), axis=1).astype(dtype)
    rows = np.argsort(rng.random((200, degree)), axis=1).astype(dtype)
    which = rng.integers(len(table), size=len(rows))
    pairwise = groups._compose(table, which, rows)
    assert pairwise.dtype == dtype
    assert np.array_equal(pairwise, reference_compose(table, which, rows))
    # As ``_schreier`` broadcasts it: a (points, generators) grid of rows.
    grid = rows[:40].reshape(8, 5, degree)
    back = rng.integers(len(table), size=(8, 5))
    assert np.array_equal(
        groups._compose(table, back, grid), reference_compose(table, back, grid)
    )
    outer = groups._compose_all(table, rows)
    assert outer.shape == (len(table), len(rows), degree) and outer.dtype == dtype
    assert np.array_equal(outer, reference_compose_all(table, rows))
    # One row on either side, as the double-coset split composes them.
    assert np.array_equal(
        groups._compose_all(rows, table[0]), reference_compose_all(rows, table[0])
    )
    assert np.array_equal(
        groups._compose_all(table[0], rows), reference_compose_all(table[0], rows)
    )
    # The compositions are those of the permutations.
    g, h = Permutation(table[which[0]].tolist()), Permutation(rows[0].tolist())
    assert pairwise[0].tolist() == list((g * h).images)
    assert outer[which[0], 0].tolist() == list((g * h).images)


@pytest.mark.parametrize("degree", [1, 7, 256, 300])
def test_inverse_rows_scatter_matches_argsort(degree):
    rng = np.random.default_rng(degree)
    images = np.argsort(rng.random((50, degree)), axis=1)
    for dtype in (_image_dtype(degree), np.int64):
        rows = images.astype(dtype)
        inverse = _inverse_rows(rows)
        assert inverse.dtype == rows.dtype
        assert np.array_equal(inverse, np.argsort(rows, axis=1))
    assert _image_dtype(300) == np.uint16
    assert _inverse_rows(images[:0].astype(np.uint8)).shape == (0, degree)


def test_orbits_compose_no_transversal(monkeypatch):
    def forbidden(*args):
        raise AssertionError("orbits composed a transversal")

    monkeypatch.setattr(groups, "_transversal", forbidden)
    group = pair_action_s5()[0]
    assert group.is_transitive()
    assert group.orbit(3) == set(range(10))
    intransitive = PermutationGroup(5, [Permutation([1, 0, 2, 4, 3])])
    assert not intransitive.is_transitive()
    assert [intransitive.orbit(p) for p in (0, 2, 4)] == [{0, 1}, {2}, {3, 4}]
    with pytest.raises(ValueError, match="out of range"):
        intransitive.orbit(5)


def test_chain_paths_form_no_permutation_products(monkeypatch):
    group, pairs, idx = pair_action_s5()
    inside, outside = group.generators[0], Permutation([1, 0] + list(range(2, 10)))
    calls = []
    for name in ("__mul__", "inverse", "is_identity"):
        original = getattr(Permutation, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(Permutation, name, counting)
    assert group.order() == 120
    first = group._stabilizer_chain()[0].basepoint
    other = idx[(2, 3)]
    assert other != first
    assert group.stabilizer(first).order() == 12
    assert group.stabilizer(other).order() == 12
    assert inside in group and outside not in group
    assert calls == []


def test_benchmark_cases_sort_and_look_up_small_row_sets(monkeypatch):
    # Rows are sorted and looked up by whole-row void values, which cost
    # about twice a fixed-width key on large sets; the analyses of these
    # cases sort only small ones and look none up in a row table (coset
    # mode numbers its cosets by their keys, not through G's rows).
    sorted_rows, found_rows = [], []
    lex_order, find = groups._lex_order, _RowTable.find

    def counted_lex_order(rows, *args, **kwargs):
        sorted_rows.append(len(rows))
        return lex_order(rows, *args, **kwargs)

    def counted_find(self, rows):
        found_rows.append(len(rows))
        return find(self, rows)

    specs = builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)]
    assert len(specs) == 26
    monkeypatch.setattr(groups, "_lex_order", counted_lex_order)
    monkeypatch.setattr(_RowTable, "find", counted_find)
    for spec in specs:
        analyze_case(spec)
    assert sorted_rows and max(sorted_rows) <= 64
    assert found_rows == []


# -- double cosets ---------------------------------------------------------


def h12():
    return PermutationGroup(3, [Permutation([0, 2, 1])])


def test_double_coset_k3():
    dc = double_coset(h12(), Permutation([1, 0, 2]))
    expected = {
        Permutation([1, 0, 2]),
        Permutation([1, 2, 0]),
        Permutation([2, 0, 1]),
        Permutation([2, 1, 0]),
    }
    assert dc == expected


def test_double_coset_trivial_subgroup():
    g = Permutation([1, 2, 0])
    assert double_coset(PermutationGroup.trivial(3), g) == {g}


def test_double_coset_of_subgroup_element_is_subgroup():
    dc = double_coset(h12(), Permutation([0, 2, 1]))
    assert dc == {Permutation([0, 1, 2]), Permutation([0, 2, 1])}


def test_double_coset_size_formula():
    # |HaH| = |H|^2 / |H ∩ aHa^-1|, against brute force over S_4
    s4 = PermutationGroup(
        4, [Permutation([1, 0, 2, 3]), Permutation([1, 2, 3, 0])]
    )
    h = PermutationGroup(4, [Permutation([1, 0, 2, 3]), Permutation([0, 1, 3, 2])])
    h_els = set(h.elements())
    for a in s4.elements():
        dc = double_coset(h, a)
        brute = {x * (a * y) for x in h_els for y in h_els}
        assert dc == brute
        conj = {(a * x) * a.inverse() for x in h_els}
        assert len(dc) == len(h_els) ** 2 // len(h_els & conj)


def test_double_coset_is_union_of_one_sided_cosets():
    h = h12()
    h_els = set(h.elements())
    dc = double_coset(h, Permutation([1, 0, 2]))
    lefts = {frozenset(x * y for y in h_els) for x in dc}
    rights = {frozenset(y * x for y in h_els) for x in dc}
    assert all(c <= dc for c in lefts)
    assert all(c <= dc for c in rights)


def test_decompose_single_double_coset():
    s = double_coset(h12(), Permutation([1, 0, 2]))
    reps = double_coset_representatives(s, h12())
    assert len(reps) == 1
    assert reps[0] == min(s)


def test_decompose_trivial_subgroup_singletons():
    r = Permutation([1, 2, 3, 0])
    reps = double_coset_representatives({r, r.inverse()}, PermutationGroup.trivial(4))
    assert reps == sorted([r, r.inverse()])


def test_decompose_empty():
    assert double_coset_representatives(set(), h12()) == []


def test_decompose_rejects_partial_double_coset():
    s = double_coset(h12(), Permutation([1, 0, 2]))
    s.discard(Permutation([1, 0, 2]))
    with pytest.raises(StructureError):
        double_coset_representatives(s, h12())


def test_double_coset_size_formula_pair_action():
    group, pairs, idx = pair_action_s5()
    h = group.stabilizer(idx[(0, 1)])
    h_els = set(h.elements())
    els = group.elements(cap=200)
    s = {g for g in els if g(idx[(0, 1)]) != idx[(0, 1)]}
    a = min(s)
    dc = double_coset(h, a)
    conj = {(a * x) * a.inverse() for x in h_els}
    assert len(dc) == len(h_els) ** 2 // len(h_els & conj)
    assert dc == {x * (a * y) for x in h_els for y in h_els}


def test_decompose_cosets_partition_the_set():
    group, pairs, idx = pair_action_s5()
    stab = group.stabilizer(idx[(0, 1)])
    els = group.elements(cap=200)
    s = {g for g in els if g(idx[(0, 1)]) != idx[(0, 1)]}
    reps = double_coset_representatives(s, stab)
    cosets = [double_coset(stab, a) for a in reps]
    assert sum(len(c) for c in cosets) == len(s)
    assert set().union(*cosets) == s


# -- inverse closure and connection sets ------------------------------------


def test_connection_set_validates_inverse_closure():
    with pytest.raises(StructureError, match="inverse"):
        ConnectionSet({Permutation([1, 2, 0])}, PermutationGroup.trivial(3))
    assert len(ConnectionSet(double_coset(h12(), Permutation([1, 0, 2])), h12())) == 4
    involutions = {Permutation([1, 0, 2]), Permutation([2, 1, 0])}
    assert len(ConnectionSet(involutions, PermutationGroup.trivial(3))) == 2


def test_connection_set_validates_bi_invariance():
    bad = {Permutation([1, 0, 2]), Permutation([2, 1, 0])}
    with pytest.raises(StructureError, match="bi-invariant"):
        ConnectionSet(bad, h12())


def test_connection_set_holds_sorted_elements():
    s = double_coset(h12(), Permutation([1, 0, 2]))
    conn = ConnectionSet(s, h12())
    assert list(conn.elements) == sorted(s)
    assert len(conn) == 4
    assert Permutation([1, 0, 2]) in conn


def test_connection_set_keeps_its_double_coset_split():
    h = h12()
    s = double_coset(h, Permutation([1, 0, 2]))
    assert ConnectionSet(s, h).representatives.tolist() == [
        list(g.images) for g in double_coset_representatives(s, h)
    ]
    group, pairs, idx = pair_action_s5()
    stab = group.stabilizer(idx[(0, 1)])
    s = {g for g in group.elements(cap=200) if g(idx[(0, 1)]) != idx[(0, 1)]}
    conn = ConnectionSet(s, stab)
    assert conn.representatives.tolist() == [
        list(g.images) for g in double_coset_representatives(s, stab)
    ]
    assert len(conn.representatives) == 2


s4_images = st.permutations(list(range(4)))


def brute_double_coset(h_elements, s):
    return frozenset(a * s * b for a in h_elements for b in h_elements)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(s4_images, min_size=0, max_size=2),
    st.lists(s4_images, min_size=0, max_size=4),
)
def test_double_coset_split_matches_brute_force_random(h_images, seeds):
    h_gens = [Permutation(p) for p in h_images]
    h = PermutationGroup(4, h_gens)
    h_elements = brute_closure(4, h_gens)
    cosets = {brute_double_coset(h_elements, Permutation(p)) for p in seeds}
    union = set().union(*cosets)
    assert double_coset_representatives(union, h) == sorted(min(c) for c in cosets)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(s4_images, min_size=1, max_size=2),
    st.lists(s4_images, min_size=1, max_size=3),
)
def test_double_coset_split_rejects_any_missing_element_random(h_images, seeds):
    h_gens = [Permutation(p) for p in h_images]
    h_elements = brute_closure(4, h_gens)
    assume(len(h_elements) > 1)
    h = PermutationGroup(4, h_gens)
    union = set().union(
        *(brute_double_coset(h_elements, Permutation(p)) for p in seeds)
    )
    for dropped in union:
        with pytest.raises(StructureError, match="not a union of full double cosets"):
            double_coset_representatives(union - {dropped}, h)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(s4_images, min_size=0, max_size=2),
    st.lists(s4_images, min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_connection_set_from_rows_matches_permutations_random(h_images, seeds, rnd):
    h_gens = [Permutation(p) for p in h_images]
    h = PermutationGroup(4, h_gens)
    h_elements = brute_closure(4, h_gens)
    s = set()
    for p in seeds:
        a = Permutation(p)
        s |= brute_double_coset(h_elements, a)
        s |= brute_double_coset(h_elements, a.inverse())
    shuffled = sorted(s)
    rnd.shuffle(shuffled)
    from_perms = ConnectionSet(s, h)
    from_rows = ConnectionSet(np.array([g.images for g in shuffled]), h)
    assert np.array_equal(from_rows.rows, from_perms.rows)
    assert not from_rows.rows.flags.writeable
    assert from_rows.elements == from_perms.elements == tuple(sorted(s))
    assert np.array_equal(from_rows.representatives, from_perms.representatives)
    assert_cosets_partition_the_set(from_rows)
    for p in itertools.permutations(range(4)):
        g = Permutation(p)
        assert (g in from_rows) == (g in from_perms) == (g in s)
    # Dropping any one element: right closure plus inverse closure reject
    # exactly the sets that are not inverse-closed unions of double
    # cosets, a dropped involution (still inverse-closed) included.
    for x in s:
        rest = s - {x}
        valid = all(t.inverse() in rest for t in rest) and all(
            a * t * b in rest for t in rest for a in h_elements for b in h_elements
        )
        if valid:
            assert ConnectionSet(rest, h).elements == tuple(sorted(rest))
        else:
            with pytest.raises(StructureError):
                ConnectionSet(rest, h)


def test_connection_set_looks_up_right_products_only(monkeypatch):
    # One lookup of the inverses, then one of S*h per generator h of the
    # stabilizer; h*S follows from S*h and S = S^-1 and is never looked up.
    group, pairs, idx = pair_action_s5()
    stab = group.stabilizer(idx[(0, 1)])
    gens = len(stab.generators)
    assert gens >= 2
    rows = group.element_array()
    s = rows[rows[:, idx[(0, 1)]] != idx[(0, 1)]]
    calls = []
    find = _RowTable.find

    def counting(self, products):
        calls.append(len(products))
        return find(self, products)

    monkeypatch.setattr(_RowTable, "find", counting)
    conn = ConnectionSet(s, stab)
    assert calls == [len(s)] * (1 + gens)
    assert len(conn.representatives) == 2

    calls.clear()
    assert [g.images for g in double_coset_representatives(s, stab)] == [
        tuple(g) for g in conn.representatives.tolist()
    ]
    assert len(calls) == 1 + gens
    # A double coset that is not inverse-closed has its left products
    # looked up too: H = <(3 4)> commutes with the 3-cycle a.
    a, t = Permutation([1, 2, 0, 3, 4]), Permutation([0, 1, 2, 4, 3])
    calls.clear()
    assert double_coset_representatives({a, a * t}, PermutationGroup(5, [t])) == [a]
    assert len(calls) == 1 + 2


def test_connection_set_of_point_validates_its_targets():
    # G_0 = <(1 2)> moves the target 1 to 2: not a union of double cosets.
    with pytest.raises(StructureError, match="bi-invariant"):
        ConnectionSet.of_point(s3(), 0, [1])
    # Z_4 is regular and {g : g(0) = 1} = {r} misses r^-1.
    with pytest.raises(StructureError, match="inverse-closed"):
        ConnectionSet.of_point(c4(), 0, [1])
    conn = ConnectionSet.of_point(c4(), 0, [1, 3])
    assert conn.rows.tolist() == [[1, 2, 3, 0], [3, 0, 1, 2]]
    assert np.array_equal(conn.representatives, conn.rows)
    # Targets off the point's orbit are not in the set.
    two_orbits = PermutationGroup(4, [Permutation([1, 0, 2, 3])])
    assert ConnectionSet.of_point(two_orbits, 0, [1, 2]).rows.tolist() == [[1, 0, 2, 3]]


def test_connection_set_of_point_ignores_targets_outside_the_points():
    # A target outside 0..degree-1 selects nothing: not the point it would
    # index from the end (-1 is 3, -3 is 1), nor any past the degree.
    for extra in ([-1], [-3], [4], [7, -4], [-5, 99]):
        conn = ConnectionSet.of_point(c4(), 0, [1, 3, *extra])
        assert conn.rows.tolist() == [[1, 2, 3, 0], [3, 0, 1, 2]], extra
    # Alone they select an empty set; -1 would otherwise pick 3 and fail
    # as not inverse-closed.
    for targets in ([-1], [4], []):
        assert len(ConnectionSet.of_point(c4(), 0, targets)) == 0, targets


def affine_7():
    """x -> a*x + b mod 7 with a in {1, 2, 4}: the group of order 21."""
    return PermutationGroup(
        7,
        [
            Permutation([(x + 1) % 7 for x in range(7)]),
            Permutation([2 * x % 7 for x in range(7)]),
        ],
    )


def test_of_point_decides_inverse_closure_on_the_transversal():
    # H = G_0 = {x -> a*x} keeps the squares {1, 2, 4}, so the set is a
    # union of double cosets; but (x -> a*x + b)^-1 sends 0 to -b/a, a
    # non-square, since -1 is not a square mod 7.
    group = affine_7()
    assert group.order() == 21
    with pytest.raises(StructureError, match="inverse-closed"):
        ConnectionSet.of_point(group, 0, [1, 2, 4])
    rows = group.element_array()
    masked = rows[np.isin(rows[:, 0], [1, 2, 4])]
    with pytest.raises(StructureError, match="inverse-closed"):
        ConnectionSet(masked, group.stabilizer(0))
    # All non-zero points: the whole of G - H, which is inverse-closed.
    conn = ConnectionSet.of_point(group, 0, range(1, 7))
    assert len(conn) == 18
    assert conn.contains_rows(_inverse_rows(conn.rows)).all()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        coset_graph_data.map(lambda data: data[0]),
        st.sampled_from([affine_7(), cyclic(8), cyclic(9)]),
    ),
    st.data(),
)
def test_of_point_accepts_exactly_the_inverse_closed_sets(group, data):
    # For a target set that the point's stabilizer H keeps, the set is a
    # union of H-double cosets, so both constructions accept it exactly
    # when it is inverse-closed: of_point on its transversal rows, the
    # element constructor by looking up every inverse.
    point = data.draw(st.integers(0, group.degree - 1))
    h = group.stabilizer(point)
    label = groups._component_minima(group.degree, h._gen_rows)
    orbits = sorted(set(label.tolist()))
    chosen = data.draw(st.lists(st.sampled_from(orbits), min_size=1, unique=True))
    targets = np.flatnonzero(np.isin(label, chosen)).tolist()
    rows = group.element_array()
    masked = rows[np.isin(rows[:, point], targets)]
    try:
        reference = ConnectionSet(masked, h)
    except StructureError as e:
        assert "inverse-closed" in str(e)
        with pytest.raises(StructureError, match="inverse-closed"):
            ConnectionSet.of_point(group, point, targets)
        return
    conn = ConnectionSet.of_point(group, point, targets)
    assert np.array_equal(conn.rows, reference.rows)
    assert_cosets_partition_the_set(conn)
    assert_cosets_partition_the_set(reference)
    assert np.array_equal(conn.representatives, reference.representatives)
    assert np.array_equal(_inverse_rows(conn.rows), _inverse_rows(reference.rows))
    assert conn.contains_rows(_inverse_rows(conn.rows)).all()


def test_of_point_forms_no_inverse_rows_and_looks_nothing_up(monkeypatch):
    # Inverse closure is decided on the k transversal rows: realize
    # inverts and looks up no row of the set.
    inverted, found = [], []
    inverse_rows, find = groups._inverse_rows, _RowTable.find

    def counted_inverse_rows(rows):
        inverted.append(len(rows))
        return inverse_rows(rows)

    def counted_find(table, rows):
        found.append(len(rows))
        return find(table, rows)

    monkeypatch.setattr(groups, "_inverse_rows", counted_inverse_rows)
    monkeypatch.setattr(_RowTable, "find", counted_find)
    case = realize_case(catalog._kneser(8, 3))
    conn, k = case.connection, case.valency
    assert found == []
    assert max(inverted) < len(conn)
    first, second = conn.operator(), conn.operator()
    assert first is not second and np.array_equal(first, second)
    inverse = groups._inverse_rows(conn.rows)
    assert np.array_equal(inverse, np.argsort(conn.rows, axis=1))
    assert inverted[-1] == len(conn) > k


def assert_cosets_partition_the_set(conn):
    """The rows ``cosets`` holds, each composed with every element of H,
    give every row of S exactly once: one row per left coset s*H."""
    cosets = conn.cosets
    assert not cosets.flags.writeable
    h_rows = conn.subgroup.element_array()
    products = reference_compose_all(cosets, h_rows).reshape(-1, conn.degree)
    assert len(cosets) * len(h_rows) == len(products) == len(conn)
    assert np.array_equal(_sorted_distinct(products), conn.rows)


@pytest.mark.parametrize(
    "spec",
    builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)],
    ids=lambda spec: spec.name,
)
def test_cosets_partition_the_set(spec):
    # of_point keeps its transversal rows u_w; the element constructor
    # keeps the smallest row of each left coset, in increasing order.
    conn = realize_case(spec).connection
    assert_cosets_partition_the_set(conn)
    from_rows = ConnectionSet(conn.rows, conn.subgroup)
    assert_cosets_partition_the_set(from_rows)
    assert np.array_equal(_sorted_distinct(from_rows.cosets), from_rows.cosets)
    assert from_rows.cosets[0].tolist() == conn.rows[0].tolist()


@pytest.mark.parametrize(
    "spec",
    builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)],
    ids=lambda spec: spec.name,
)
def test_connection_operator_counts_every_element(spec):
    # The operator equals one scatter over every element of S.
    conn = realize_case(spec).connection
    kernel = conn.operator()
    assert kernel.dtype == float
    assert np.array_equal(kernel, reference_operator(conn.rows))


def test_connection_set_of_point_caps_the_group_order():
    with pytest.raises(SizeLimitError, match="group order 6 exceeds enumeration cap 5"):
        ConnectionSet.of_point(s3(), 0, [1, 2], cap=5)
    with pytest.raises(SizeLimitError, match="group order 6 exceeds enumeration cap 5"):
        s3().element_array(cap=5)
    assert len(ConnectionSet.of_point(s3(), 0, [1, 2], cap=6)) == 4


def test_element_rows_are_checked():
    h = h12()
    good = np.array([[1, 0, 2], [2, 1, 0]])
    assert ConnectionSet(good, PermutationGroup.trivial(3)).rows.tolist() == [
        [1, 0, 2],
        [2, 1, 0],
    ]
    for bad in (
        np.array([[1, 0, 2], [1, 1, 0]]),  # not a bijection
        np.array([[1, 0, 3], [2, 1, 0]]),  # image out of range
        np.array([[-1, 0, 2]]),  # negative image
        np.array([[1, 0, 2, 3]]),  # wrong width
        np.array([1, 0, 2]),  # not 2-D
    ):
        with pytest.raises(ValueError):
            ConnectionSet(bad, h)
        with pytest.raises(ValueError):
            double_coset_representatives(bad, h)


def test_connection_set_membership_wrong_degree_or_type_is_false():
    conn = ConnectionSet(double_coset(h12(), Permutation([1, 0, 2])), h12())
    assert Permutation([1, 0, 2]) in conn
    assert Permutation([1, 0, 2, 3]) not in conn
    assert Permutation([1, 0]) not in conn
    assert (1, 0, 2) not in conn
    assert [1, 0, 2] not in conn
    assert "102" not in conn
