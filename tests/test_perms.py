import pytest
from hypothesis import given, strategies as st

from stabgap.perms import Permutation


def test_compose_left_action_convention():
    # (0 1) then-apply-first (1 2): x -> g(h(x)) gives the 3-cycle (0 1 2)
    g = Permutation([1, 0, 2])
    h = Permutation([0, 2, 1])
    assert (g * h).images == (1, 2, 0)


def test_compose_identity_and_inverse():
    g = Permutation([2, 0, 3, 1])
    e = Permutation.identity(4)
    assert g * e == g
    assert e * g == g
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


def test_call_applies_image():
    g = Permutation([1, 2, 0])
    assert [g(x) for x in range(3)] == [1, 2, 0]


def test_degree_mismatch_raises():
    with pytest.raises(ValueError, match="degree mismatch"):
        Permutation([1, 0]) * Permutation([1, 0, 2])


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0])
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1, 3])


def test_from_cycles():
    assert Permutation.from_cycles(4, (0, 1, 2)).images == (1, 2, 0, 3)
    assert Permutation.from_cycles(3).is_identity()
    with pytest.raises(ValueError, match="disjoint"):
        Permutation.from_cycles(4, (0, 1), (1, 2))


def test_cycle_string():
    assert str(Permutation.from_cycles(5, (0, 1), (2, 3, 4))) == "(0 1)(2 3 4)"
    assert str(Permutation.identity(3)) == "()"


def test_ordering_is_lexicographic_on_images():
    a = Permutation([0, 1, 2])
    b = Permutation([0, 2, 1])
    c = Permutation([1, 0, 2])
    assert a < b < c
    assert sorted([c, a, b]) == [a, b, c]


perm_images = st.permutations(list(range(5)))


@given(perm_images, perm_images, perm_images)
def test_composition_is_associative(p, q, r):
    a, b, c = Permutation(p), Permutation(q), Permutation(r)
    assert (a * b) * c == a * (b * c)


@given(perm_images)
def test_inverse_round_trip(p):
    g = Permutation(p)
    assert g.inverse().inverse() == g
    assert all(g.inverse()(g(x)) == x for x in range(5))


@given(perm_images, perm_images)
def test_products_and_inverses_equal_validated_permutations(p, q):
    a, b = Permutation(p), Permutation(q)
    assert a * b == Permutation([p[x] for x in q])
    assert (a * b).images == tuple(p[x] for x in q)
    inverse = [0] * len(p)
    for x, y in enumerate(p):
        inverse[y] = x
    assert a.inverse() == Permutation(inverse)
    assert a.inverse().images == tuple(inverse)
