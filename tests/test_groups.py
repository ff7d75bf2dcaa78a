import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stabgap.errors import SizeLimitError, StructureError
from stabgap.groups import (
    ConnectionSet,
    PermutationGroup,
    double_coset,
    double_coset_representatives,
    is_inverse_closed,
)
from stabgap.perms import Permutation


def s3():
    return PermutationGroup(3, [Permutation([1, 0, 2]), Permutation([1, 2, 0])])


def c4():
    return PermutationGroup(4, [Permutation([1, 2, 3, 0])])


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
    assert els == sorted(els)
    assert els[0].is_identity()
    rows = s3().element_array(cap=10)
    assert rows.dtype == np.uint8 and not rows.flags.writeable
    assert [tuple(r) for r in rows.tolist()] == [g.images for g in els]


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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=3))
def test_orbit_stabilizer_identity_random(gen_images):
    group = PermutationGroup(5, [Permutation(p) for p in gen_images])
    for p in range(5):
        assert len(group.orbit(p)) * group.stabilizer(p).order() == group.order()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=3))
def test_order_matches_closure_count_random(gen_images):
    group = PermutationGroup(4, [Permutation(p) for p in gen_images])
    assert group.order() == len(group.elements())


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
    assert PermutationGroup(degree, gens).elements() == sorted(
        brute_closure(degree, gens)
    )


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


def test_is_inverse_closed_examples():
    s = double_coset(h12(), Permutation([1, 0, 2]))
    assert is_inverse_closed(s)
    assert not is_inverse_closed({Permutation([1, 2, 0])})
    assert is_inverse_closed({Permutation([1, 0, 2]), Permutation([2, 1, 0])})


def test_connection_set_validates_inverse_closure():
    with pytest.raises(StructureError, match="inverse"):
        ConnectionSet({Permutation([1, 2, 0])}, PermutationGroup.trivial(3))


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
    assert ConnectionSet(s, h).representatives == tuple(
        double_coset_representatives(s, h)
    )
    group, pairs, idx = pair_action_s5()
    stab = group.stabilizer(idx[(0, 1)])
    s = {g for g in group.elements(cap=200) if g(idx[(0, 1)]) != idx[(0, 1)]}
    conn = ConnectionSet(s, stab)
    assert conn.representatives == tuple(double_coset_representatives(s, stab))
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
    assert from_rows.representatives == from_perms.representatives
    for p in itertools.permutations(range(4)):
        g = Permutation(p)
        assert (g in from_rows) == (g in from_perms) == (g in s)


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
    with pytest.raises(ValueError):
        is_inverse_closed(np.array([[0, 0]]))
    assert is_inverse_closed(good)


def test_connection_set_membership_wrong_degree_or_type_is_false():
    conn = ConnectionSet(double_coset(h12(), Permutation([1, 0, 2])), h12())
    assert Permutation([1, 0, 2]) in conn
    assert Permutation([1, 0, 2, 3]) not in conn
    assert Permutation([1, 0]) not in conn
    assert (1, 0, 2) not in conn
    assert [1, 0, 2] not in conn
    assert "102" not in conn
