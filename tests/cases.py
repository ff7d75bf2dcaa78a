"""Shared case builders for the test suite."""

import itertools

from stabgap.errors import SizeLimitError
from stabgap.graphs import LocalActionReport, SimpleGraph, make_transitive_case
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


def _reference_finest_congruence(gens, k, a, b):
    """Finest congruence on {0..k-1} merging a and b under the Permutation
    generators (union-find closure over merged pairs)."""
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        return True

    union(a, b)
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        for g in gens:
            gx, gy = g(x), g(y)
            if union(gx, gy):
                stack.append((gx, gy))
    blocks = {}
    for x in range(k):
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())


def reference_local_action(case):
    """The local action by Permutation objects: each stabilizer generator
    restricted to the base neighborhood through a dict of positions, orbits
    grown point by point, and the first nontrivial finest congruence
    merging 0 with some b as the block system: the reference for
    ``graphs.local_action``."""
    neighborhood = case.graph.neighbors(case.base_vertex)
    k = len(neighborhood)
    position = {w: i for i, w in enumerate(neighborhood)}
    gens = [
        Permutation([position[g(w)] for w in neighborhood])
        for g in case.stabilizer.generators
    ]
    orbits = set()
    for x in range(k):
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = [g(y) for y in frontier for g in gens if g(y) not in orbit]
            orbit.update(frontier)
        orbits.add(frozenset(orbit))
    transitive = len(orbits) == 1
    for b in range(1, k if transitive else 1):
        blocks = _reference_finest_congruence(gens, k, 0, b)
        if 1 < len(blocks[0]) < k:
            system = tuple(tuple(neighborhood[i] for i in block) for block in blocks)
            return LocalActionReport(len(orbits), True, system, False)
    return LocalActionReport(len(orbits), transitive, None, transitive)
