"""Shared case builders for the test suite."""

import itertools

from stabgap.errors import SizeLimitError
from stabgap.graphs import SimpleGraph, make_transitive_case
from stabgap.groups import DEFAULT_ELEMENT_CAP, PermutationGroup
from stabgap.perms import Permutation


def triangle():
    return SimpleGraph(3, [(0, 1), (0, 2), (1, 2)])


def s3():
    return PermutationGroup(3, [Permutation([1, 0, 2]), Permutation([1, 2, 0])])


def cycle_graph(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def cyclic(n):
    return PermutationGroup(n, [Permutation([(i + 1) % n for i in range(n)])])


def dihedral(n):
    rot = Permutation([(i + 1) % n for i in range(n)])
    refl = Permutation([(-i) % n for i in range(n)])
    return PermutationGroup(n, [rot, refl])


def triangle_case():
    return make_transitive_case(s3(), triangle())


def petersen_case():
    pairs = sorted(itertools.combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}

    def induce(g):
        return Permutation([idx[tuple(sorted((g[a], g[b])))] for a, b in pairs])

    group = PermutationGroup(10, [induce([1, 0, 2, 3, 4]), induce([1, 2, 3, 4, 0])])
    edges = [
        (idx[a], idx[b])
        for a, b in itertools.combinations(pairs, 2)
        if not set(a) & set(b)
    ]
    graph = SimpleGraph(10, edges)
    return make_transitive_case(group, graph, base_vertex=idx[(0, 1)])


def octahedron_case():
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
    return make_transitive_case(group, SimpleGraph(6, edges))


def double_coset(h, a, cap=DEFAULT_ELEMENT_CAP):
    """The double coset HaH, grown by closing {a} under the generators of H
    on both sides: the brute-force reference for the double-coset split."""
    if a.degree != h.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {h.degree}")
    found = {a}
    frontier = [a]
    while frontier:
        nxt = []
        for x in frontier:
            for g in h.generators:
                for y in (g * x, x * g):
                    if y not in found:
                        if len(found) >= cap:
                            raise SizeLimitError(f"double coset exceeds cap {cap}")
                        found.add(y)
                        nxt.append(y)
        frontier = nxt
    return found
