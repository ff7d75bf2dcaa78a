"""Shared case builders for the test suite."""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from stabgap import catalog
from stabgap.casefile import CaseSpec
from stabgap.errors import ConvergenceError, SizeLimitError
from stabgap.graphs import LocalActionReport, SimpleGraph, make_transitive_case
from stabgap.groups import DEFAULT_ELEMENT_CAP, PermutationGroup
from stabgap.harmonic import NormIdentityReport
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


def symmetric(degree):
    transposition = Permutation.from_cycles(degree, (0, 1))
    return PermutationGroup(
        degree, [transposition, Permutation.from_cycles(degree, range(degree))]
    )


#: An ambient group with subgroup generators and connection
#: representatives drawn from its elements.
coset_graph_data = st.sampled_from(
    [symmetric(4), symmetric(5), dihedral(12)]
).flatmap(
    lambda group: st.tuples(
        st.just(group),
        st.lists(st.sampled_from(group.elements()), min_size=0, max_size=2),
        st.lists(st.sampled_from(group.elements()), min_size=1, max_size=3),
    )
)


def ladder_cases():
    """The four cases past the catalog whose seed-0 reports are captured:
    two groups of order 40320 on small matrices, and two larger matrices.
    With the 24 catalog cases they make the 28 hashed reports."""
    return [
        catalog._kneser(8, 3),
        catalog._complete(8),
        catalog._cycle_dihedral(200),
        catalog._hypercube(7),
    ]


def paley(p):
    """The Paley graph P(p), p a prime 1 mod 4, as a stabilize-mode spec:
    edges {x, y} for a nonzero square x - y, under the group generated by
    x -> x + 1 and x -> g*x, g a generator of the nonzero squares.  G_0
    acts regularly on the (p - 1)/2 neighbours of 0."""
    squares = {x * x % p for x in range(1, p)}
    order = {a: len({pow(a, i, p) for i in range(p)}) for a in squares}
    g = min(a for a in squares if order[a] == len(squares))
    return CaseSpec(
        name=f"paley-{p}",
        degree=p,
        generators=(
            tuple((x + 1) % p for x in range(p)),
            tuple(g * x % p for x in range(p)),
        ),
        stabilize_point=0,
        edges=tuple(
            (x, y) for x, y in itertools.combinations(range(p), 2) if y - x in squares
        ),
    )


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


# -- graph references: ``graphs.SimpleGraph`` is one adjacency matrix and
# ``graphs.preserves_edges`` one gather of it; both must answer as the
# set-based graph and its edge-by-edge check do ----------------------------


class ReferenceGraph:
    """An undirected simple graph held as sorted neighbor tuples and a
    frozenset of edges (u, v) with u < v."""

    def __init__(self, n, edges=()):
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(tuple(sorted(s)) for s in adj)
        self._edge_set = frozenset(
            (u, v) for u in range(n) for v in adj[u] if u < v
        )

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self._edge_set

    def edges(self):
        return sorted(self._edge_set)

    @property
    def edge_count(self):
        return len(self._edge_set)

    def is_regular(self):
        return len({len(a) for a in self._adj}) <= 1

    def __eq__(self, other):
        return self.n == other.n and self._edge_set == other._edge_set


def reference_preserves_edges(gen_rows, graph):
    """Whether every generator row maps each edge of the reference graph to
    an edge, checked one moved edge at a time."""
    edges = np.array(graph.edges(), dtype=np.intp).reshape(-1, 2)
    moved = gen_rows[:, edges].reshape(-1, 2).tolist()
    return all(graph.has_edge(u, v) for u, v in moved)


# -- matrix references: ``spectral.build_bipartite`` builds the matrix from
# the subgroup's orbit counts, and ``ConnectionSet.operator`` one column at
# a time; both must reproduce these scatters over every element exactly ------


def reference_bipartite(connection, n):
    """The bipartite matrix as the sum of the permutation matrices of all
    of S: one count of the cells (x, s(x)) over every element s and vertex
    x."""
    cells = (np.arange(n) * n + connection.rows.astype(np.int64)).ravel()
    return np.bincount(cells, minlength=n * n).reshape(n, n)


def reference_operator(rows, weights=None):
    """The operator of convolving by the function on permutation rows that
    takes the given weights (1 each without them): one scatter of every
    row's weight to the cells (x, g^-1(x)), with the inverses found by
    ``argsort``, so (K @ v)(x) = sum_g weight(g) v(g^-1(x)) summed over
    the rows in order."""
    n = rows.shape[1]
    cells = (np.arange(n) * n + np.argsort(rows, axis=1)).ravel()
    spread = None if weights is None else np.repeat(weights, n)
    return np.bincount(cells, spread, minlength=n * n).reshape(n, n)


# -- composition references: ``groups._compose`` and ``groups._compose_all``
# compose by ``take`` and must equal these fancy indexes exactly ---------------


def reference_compose(table, which, rows):
    """Rows composed pairwise with table rows by fancy indexing: row i is
    table[which[i]] * rows[i], with ``which`` one axis short of ``rows``."""
    return table[which[..., None], rows]


def reference_compose_all(table, rows):
    """Every table row composed with every row by fancy indexing."""
    return table[..., rows]


def reference_group_free_identities(n):
    """Lemma 4's shift, centering and scaling identities on one instance
    in exact rationals: p(x) proportional to x + 1, f = p - u, c = 3/2."""
    u = Fraction(1, n)
    total = n * (n + 1) // 2
    p = [Fraction(x + 1, total) for x in range(n)]
    f = [px - u for px in p]
    c = Fraction(3, 2)

    def squares(v):
        return sum(x * x for x in v)

    return (
        squares([fx + u for fx in f]) == squares(f) + u,
        squares([px - u for px in p]) == squares(p) - u,
        squares([c * px for px in p]) == c * c * squares(p),
    )


def reference_norm_identity_trials(n, rows, trials):
    """Lemma 4's exact checks over the rows given, one row at a time: the
    points a row hits are marked by fancy indexing, an image past n - 1
    on a spare cell, and its n images are a bijection exactly when they
    mark all n points.  The group-free identities are decided by
    ``reference_group_free_identities``."""
    non_bijective = 0
    for row in rows:
        hit = np.zeros(n + 1, dtype=bool)
        hit[np.minimum(row.astype(np.intp), n)] = True
        non_bijective += not hit[:n].all()
    return NormIdentityReport(
        trials, len(rows), non_bijective, *reference_group_free_identities(n)
    )


# -- spectral references: the one-family, one-loop, block code in
# ``stabgap.spectral`` must reproduce these bit for bit -----------------------


def reference_lambda1_power_iteration(adjacency, tol=1e-12, max_iter=100_000, seed=0):
    """Top singular value by power iteration on the squared matrix, from a
    random start shifted towards the all-ones vector."""
    n = adjacency.n
    a = adjacency.float_matrix
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1.0
    x /= float(np.linalg.norm(x))
    previous = None
    estimate = 0.0
    for _ in range(max_iter):
        y = a @ x
        estimate = float(np.linalg.norm(y))
        z = a @ y
        norm = float(np.linalg.norm(z))
        if norm <= 1e-300:
            return estimate
        x = z / norm
        if previous is not None and abs(estimate - previous) <= tol * max(1.0, estimate):
            return estimate
        previous = estimate
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        last_estimate=estimate,
    )


def reference_lambda2_power_iteration(adjacency, tol=1e-12, max_iter=100_000, seed=0):
    """Second singular value by power iteration on the squared matrix,
    projecting out the all-ones vector each step."""
    n = adjacency.n
    if n == 1:
        return 0.0
    a = adjacency.float_matrix
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x -= x.mean()
    norm = float(np.linalg.norm(x))
    while norm < 1e-12:
        x = rng.standard_normal(n)
        x -= x.mean()
        norm = float(np.linalg.norm(x))
    x /= norm
    previous = None
    estimate = 0.0
    for _ in range(max_iter):
        y = a @ x
        estimate = float(np.linalg.norm(y))
        z = a @ y
        z -= z.mean()
        norm = float(np.linalg.norm(z))
        if norm <= 1e-300:
            return estimate
        x = z / norm
        if previous is not None and abs(estimate - previous) <= tol * max(1.0, estimate):
            return estimate
        previous = estimate
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        last_estimate=estimate,
    )


def reference_reconstruction(adjacency):
    """(residual, defect) of the two-family singular value decomposition:
    left vectors are the eigenvectors times their eigenvalues' signs, and
    the defect is the worse of the two families'."""
    w, vecs = np.linalg.eigh(adjacency.float_matrix)
    lam = np.abs(w)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    right = vecs[:, order]
    left = right * np.where(w[order] < 0.0, -1.0, 1.0)
    recon = (left * lam) @ right.T
    denom = float(np.linalg.norm(adjacency.float_matrix))
    diff = float(np.linalg.norm(recon - adjacency.float_matrix))
    residual = diff / denom if denom > 0.0 else diff
    eye = np.eye(adjacency.n)
    defect = max(
        float(np.abs(right.T @ right - eye).max()),
        float(np.abs(left.T @ left - eye).max()),
    )
    return residual, defect


def reference_zero_sum_contraction_ok(adjacency, lambda2, trials, rng, slack=1e-9):
    """The zero-sum contraction, one trial at a time, stopping at the first
    violation."""
    a = adjacency.float_matrix
    n = adjacency.n
    for _ in range(trials):
        f = rng.standard_normal(n)
        f -= f.mean()
        nf = float(np.linalg.norm(f))
        if nf == 0.0:
            continue
        if float(np.linalg.norm(a @ f)) > lambda2 * nf * (1.0 + slack):
            return False
    return True
