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
    # and every other vertex of these transitive actions conjugates it.
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
    # shares the group's deeper levels, the others conjugate them.
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
    # Each conjugated level holds what ``_transversal`` grows from its own
    # conjugated span, and spans the conjugated generators of its level
    # and the deeper ones, as a level of a chain built from them would.
    group = realize_case(spec).group
    first = group._stabilizer_chain()[0].basepoint
    for point in range(group.degree):
        chain = group.stabilizer(point)._stabilizer_chain()
        for i, level in enumerate(chain):
            reps, index = groups._transversal(level.basepoint, level._span)
            assert level.reps.dtype == reps.dtype
            assert np.array_equal(level.reps, reps)
            assert np.array_equal(level.index, index)
            assert np.array_equal(level.inverse, _inverse_rows(reps))
            spanned = np.vstack([group._gen_rows[:0]] + [lv.gens for lv in chain[i:]])
            assert np.array_equal(level._span, spanned)
            assert (level.gens[:, level.basepoint] != level.basepoint).all()
            fixed = [lv.basepoint for lv in chain[:i]]
            assert (level._span[:, fixed] == fixed).all()
        if point == first:
            assert chain == group._stabilizer_chain()[1:]


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
    brute = sorted(brute_closure(group.degree, group.generators))
    chain = group._stabilizer_chain()
    for point in range(group.degree):
        stab = group.stabilizer(point)
        # Only the Schreier route leaves the chain to be built.
        in_first_orbit = bool(chain) and chain[0].index[point] >= 0
        assert (stab._chain is not None) == in_first_orbit
        fixing = [list(g.images) for g in brute if g(point) == point]
        assert sorted(stab.element_array().tolist()) == fixing
        assert stab.order() * len(group.orbit(point)) == len(brute)
        for g in brute:
            assert (g in stab) == (g(point) == point)


@settings(max_examples=50, deadline=None)
@given(small_groups())
def test_elements_are_numbered_by_their_chain_digits_random(group):
    # Intransitive groups too, whose stabilizers off the first base
    # point's orbit build their own chains.
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


_GUARDED_CASES = [
    catalog._kneser(5, 2),
    catalog._kneser(7, 3),
    catalog._johnson(6, 3),
    catalog._kneser(8, 3),
    catalog._complete(8),
]


@pytest.mark.parametrize("spec", _GUARDED_CASES, ids=lambda spec: spec.name)
def test_realize_builds_one_stabilizer_chain(spec, monkeypatch):
    # The vertex stabilizer's chain is the group's, conjugated: realizing
    # a case runs Schreier-Sims once, and the stabilizer at the base
    # vertex forms no Schreier generator.
    built = []
    build_chain = PermutationGroup._build_chain

    def counting(group):
        built.append(group)
        return build_chain(group)

    monkeypatch.setattr(PermutationGroup, "_build_chain", counting)
    case = realize_case(spec)
    assert built == [case.group]
    case.stabilizer.order()
    case.stabilizer.element_array()
    assert built == [case.group]

    def refuse(*args):
        raise AssertionError("stabilizer formed Schreier generators")

    monkeypatch.setattr(groups, "_schreier", refuse)
    for point in (case.base_vertex, case.group._stabilizer_chain()[0].basepoint):
        stab = case.group.stabilizer(point)
        assert stab.order() == case.stabilizer.order()
    assert built == [case.group]


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

    # A group's own sorted rows make a table without a copy.
    own = _RowTable._sorted(rows, groups._row_keys(rows))
    assert own.rows is rows
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
def test_key_order_of_empty_and_one_row_sets(dtype, width):
    row = np.arange(width, dtype=dtype)[::-1][None, :]
    for rows in (row[:0], row):
        order, keys = groups._lex_order(rows)
        assert order.tolist() == list(range(len(rows)))
        assert np.array_equal(keys, groups._row_keys(rows))
        assert np.array_equal(_sorted_distinct(rows), rows)
        assert np.array_equal(groups._distinct_moved(rows), rows)
        table = _RowTable._sorted(rows, keys)
        queries = np.concatenate([row, row[:, ::-1], row + 1]).astype(np.int64)
        assert table.find(queries).tolist() == [len(rows) - 1, -1, -1]


@st.composite
def key_rows(draw):
    """Rows of uint8 or uint16 images, some wider and some narrower than a
    key, with repeated rows and, sometimes, one shared leading key."""
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
@given(key_rows(), st.data())
def test_key_order_and_lookup_match_python(rows, data):
    tuples = [tuple(row) for row in rows.tolist()]
    n, width = rows.shape
    by_row = sorted(range(n), key=lambda i: tuples[i])
    # The keys handed back are those of the rows in the order returned.
    order, keys = groups._lex_order(rows)
    assert order.tolist() == by_row
    assert np.array_equal(keys, groups._row_keys(rows[order]))
    first = {}
    for i in by_row:
        first.setdefault(tuples[i], i)
    order, keys = groups._lex_order(rows, distinct=True)
    assert order.tolist() == list(first.values())
    assert np.array_equal(keys, groups._row_keys(rows[order]))
    distinct = sorted(set(tuples))
    assert [tuple(row) for row in _sorted_distinct(rows).tolist()] == distinct
    identity = tuple(range(width))
    moved = list(dict.fromkeys(t for t in tuples if t != identity))
    assert [tuple(row) for row in groups._distinct_moved(rows).tolist()] == moved

    table = _RowTable._sorted(rows[order], keys)
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
    # Each level's base point is the smallest point moved by the residue
    # that opened it, not the smallest point the level's group moves.
    bases = {"kneser-8-3": [6, 1, 0, 2, 3, 4], "complete-8": [0, 1, 2, 6, 5, 4, 3]}
    for spec in (catalog._kneser(8, 3), catalog._complete(8)):
        chain = realize_case(spec).group._stabilizer_chain()
        assert [level.basepoint for level in chain] == bases[spec.name]


def s4_on_last_points(degree):
    """S_4 acting on the last 4 of the degree's points: every element has
    the same images on the first degree - 4 points, so rows share keys."""
    fixed = list(range(degree - 4))
    a, b, c, d = range(degree - 4, degree)
    return PermutationGroup(
        degree, [Permutation(fixed + [b, a, c, d]), Permutation(fixed + [b, c, d, a])]
    )


@pytest.mark.parametrize("degree", [12, 300])
def test_tied_keys_keep_whole_row_order(degree, monkeypatch):
    views = []
    row_view = groups._row_view

    def counting(rows):
        views.append(len(rows))
        return row_view(rows)

    monkeypatch.setattr(groups, "_row_view", counting)
    group = s4_on_last_points(degree)
    # The element table sorts the group's rows: all 24 share a key.
    rows = group._element_table().rows
    keys = groups._row_keys(rows)
    assert len(set(keys.tolist())) == 1
    assert views
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
    keys = groups._row_keys(rows)
    assert len(set(keys.tolist())) < len(rows)
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
    """A chain level holding Permutation objects: the reference layout."""

    def __init__(self, basepoint, degree):
        self.basepoint = basepoint
        self.gens = []
        self.transversal = {basepoint: Permutation.identity(degree)}


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


def ref_build_chain(degree, generators):
    """The stabilizer chain built one Permutation product at a time."""
    levels = []

    def effective_gens(i):
        gens = []
        for level in levels[i:]:
            gens.extend(level.gens)
        return gens

    def add_at(g, j):
        if j == len(levels):
            basepoint = min(p for p in range(degree) if g(p) != p)
            levels.append(RefLevel(basepoint, degree))
        levels[j].gens.append(g)
        for i in range(j + 1):
            levels[i].transversal = ref_transversal(
                levels[i].basepoint, degree, effective_gens(i)
            )

    for g in generators:
        residue, at = ref_sift(levels, g)
        if not residue.is_identity():
            add_at(residue, at)

    done = False
    while not done:
        done = True
        for i in range(len(levels) - 1, -1, -1):
            level = levels[i]
            gens = effective_gens(i)
            violation = None
            for q in sorted(level.transversal):
                u_q = level.transversal[q]
                for s in gens:
                    u_sq = level.transversal[s(q)]
                    schreier = u_sq.inverse() * (s * u_q)
                    if schreier.is_identity():
                        continue
                    residue, at = ref_sift(levels[i + 1 :], schreier)
                    if not residue.is_identity():
                        violation = (residue, i + 1 + at)
                        break
                if violation is not None:
                    break
            if violation is not None:
                add_at(*violation)
                done = False
                break
    return levels


def ref_schreier_generators(group, point):
    """The distinct non-identity Schreier generators of the point's
    transversal, q ascending and the group's generators in order."""
    t = ref_transversal(point, group.degree, group.generators)
    gens, seen = [], set()
    for q in sorted(t):
        u_q = t[q]
        for g in group.generators:
            schreier = t[g(q)].inverse() * (g * u_q)
            if not schreier.is_identity() and schreier not in seen:
                gens.append(schreier)
                seen.add(schreier)
    return gens


def ref_conjugated_tail(ref, point):
    """The reference chain's levels past the first, conjugated by the first
    level's transversal element u with u(first base point) = point: for
    each level its base point, generators and transversal, as
    ``PermutationGroup.stabilizer`` must give them at a point of the first
    base point's orbit.  Also the stabilizer's generators: every deeper
    level's conjugated generators in order, each once."""
    u = ref[0].transversal[point]
    u_inv = u.inverse()
    levels = [
        (
            u(level.basepoint),
            [u * g * u_inv for g in level.gens],
            [u * r * u_inv for r in level.transversal.values()],
        )
        for level in ref[1:]
    ]
    gens = []
    for _, level_gens, _ in levels:
        gens += [g for g in level_gens if g not in gens]
    return levels, tuple(gens)


def assert_chain_matches_reference(group, points=None):
    """The same chain as the reference, and at each of the points (all by
    default) the same transversal and the same stabilizer generators:
    in the chain's first orbit, those of the reference chain's tail
    conjugated into the point's stabilizer, with that chain; off it, the
    Schreier generators."""
    ref = ref_build_chain(group.degree, group.generators)
    chain = group._stabilizer_chain()
    assert [level.basepoint for level in chain] == [level.basepoint for level in ref]
    for level, ref_level in zip(chain, ref):
        assert level.gens.tolist() == [list(g.images) for g in ref_level.gens]
        assert level.reps.tolist() == [
            list(u.images) for u in ref_level.transversal.values()
        ]
        orbit = list(ref_level.transversal)
        assert level.index[orbit].tolist() == list(range(len(orbit)))
        assert (level.index >= 0).sum() == len(orbit)
    for point in range(group.degree) if points is None else points:
        stab = group.stabilizer(point)
        if ref and point in ref[0].transversal:
            levels, gens = ref_conjugated_tail(ref, point)
            assert stab.generators == gens
            assert [
                (level.basepoint, level.gens.tolist(), level.reps.tolist())
                for level in stab._chain
            ] == [
                (b, [list(g.images) for g in g_list], [list(r.images) for r in reps])
                for b, g_list, reps in levels
            ]
        else:
            assert stab.generators == tuple(ref_schreier_generators(group, point))
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
    # One orbit point per block: the fixpoint scan sifts each level's
    # Schreier generators in many blocks and must still add the residues
    # the one-batch scan adds.
    blocks = []

    def recording(level, gen_rows, at=slice(None)):
        blocks.append(at)
        return schreier(level, gen_rows, at)

    schreier = groups._schreier
    monkeypatch.setattr(groups, "_SCHREIER_BLOCK", 1)
    monkeypatch.setattr(groups, "_schreier", recording)
    catalog_groups = [realize_case(spec).group for spec in builtin_cases()]
    for group in catalog_groups + [pair_action_s5()[0]]:
        blocks.clear()
        group._chain = None
        assert_chain_matches_reference(group, points=(0, 1))
        assert slice(0, 1) in blocks and len(blocks) > len(group._stabilizer_chain())


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
    # Off the first base point's orbit the stabilizer takes the Schreier
    # route.  Each block drops its own identity rows and repeats; the
    # generator rows must be those of one batch over the whole transversal.
    blocks = []

    def recording(level, gen_rows, at=slice(None)):
        blocks.append(at)
        return schreier(level, gen_rows, at)

    schreier = groups._schreier
    monkeypatch.setattr(groups, "_schreier", recording)
    s4 = symmetric(4)
    pair_s5 = pair_action_s5()[0]
    cases = [
        (direct_product(s4, cyclic(5)), (4, 8)),
        (direct_product(s3(), pair_s5), (3, 12)),
        (direct_product(cyclic(2), pair_s5, s4), (2, 11, 12, 15)),
    ]
    for group, points in cases:
        chain = group._stabilizer_chain()
        for point in points:
            assert chain[0].index[point] < 0
            monkeypatch.setattr(groups, "_SCHREIER_BLOCK", 1 << 62)
            blocks.clear()
            batch = group.stabilizer(point)
            assert len(blocks) == 1
            monkeypatch.setattr(groups, "_SCHREIER_BLOCK", 1)
            blocks.clear()
            blocked = group.stabilizer(point)
            assert len(blocks) == len(group.orbit(point)) > 1
            assert blocked._gen_rows.dtype == batch._gen_rows.dtype
            assert blocked._gen_rows.tolist() == batch._gen_rows.tolist()
            assert blocked.generators == tuple(ref_schreier_generators(group, point))
            assert blocked.order() * len(group.orbit(point)) == group.order()


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


def test_benchmark_cases_sort_and_look_up_by_keys_alone(monkeypatch):
    # No set these cases build has two different rows with one key, so no
    # sort, deduplication or lookup falls back to whole-row void values.
    calls = []
    row_view = groups._row_view

    def counting(rows):
        calls.append(rows.shape)
        return row_view(rows)

    monkeypatch.setattr(groups, "_row_view", counting)
    specs = builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)]
    assert len(specs) == 26
    for spec in specs:
        analyze_case(spec)
    assert calls == []


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
