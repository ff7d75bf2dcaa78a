"""Shared case builders for the test suite."""

import itertools

import numpy as np
from hypothesis import strategies as st

from stabgap.errors import ConvergenceError, SizeLimitError
from stabgap.graphs import LocalActionReport, SimpleGraph, make_transitive_case
from stabgap.groups import DEFAULT_ELEMENT_CAP, PermutationGroup
from stabgap.harmonic import (
    _BLOCK_BYTES,
    NormIdentityReport,
    _draws_by_keys,
    _random_supports,
    _scaled_gaps,
    uniform_distribution,
)
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


def reference_norm_identity_trials(n, rows, trials, rng, tol=1e-12, max_support=24):
    """Lemma 4's randomized norm identities over group element rows, block
    by block as ``harmonic.norm_identity_trials`` draws them, with its
    trial rows gathered by fancy indexing and its norms taken by
    ``np.linalg.norm``: ``norm_identity_trials`` must reproduce the report
    and leave the generator in the same state."""
    uniform = uniform_distribution(n)
    m = min(len(rows), max_support)
    keys = len(rows) if _draws_by_keys(len(rows), m) else 0
    per_trial = 16 * max(m * n, keys)
    block = max(1, _BLOCK_BYTES // per_trial)
    dev_shift = dev_center = dev_conv = dev_scale = 0.0
    for done in range(0, trials, block):
        b = min(block, trials - done)
        f = rng.standard_normal((b, n))
        f -= f.mean(axis=1, keepdims=True)
        p = rng.random((b, n)) + 1e-9
        p /= p.sum(axis=1, keepdims=True)
        c = np.abs(rng.standard_normal(b))

        lhs = np.sum((f + uniform) ** 2, axis=1)
        rhs = np.sum(f**2, axis=1) + 1.0 / n
        dev_shift = max(dev_shift, _scaled_gaps(lhs, rhs))

        lhs = np.sum((p - uniform) ** 2, axis=1)
        rhs = np.sum(p**2, axis=1) - 1.0 / n
        dev_center = max(dev_center, _scaled_gaps(lhs, rhs))

        chosen, weights = _random_supports(rng, len(rows), b, m)
        trial, j = np.nonzero(weights)
        drawn = weights[trial, j]
        targets = (rows[chosen[trial, j]] + (n * trial)[:, None]).ravel()

        def convolve(v):
            spread = (drawn[:, None] * v[trial]).ravel()
            return np.bincount(targets, spread, minlength=b * n).reshape(b, n)

        qp = convolve(p)
        for sign in (1.0, -1.0):
            lhs = np.linalg.norm(convolve(p + sign * uniform), axis=1)
            rhs = np.linalg.norm(qp + sign * uniform, axis=1)
            dev_conv = max(dev_conv, _scaled_gaps(lhs, rhs))

        lhs = np.linalg.norm(c[:, None] * p, axis=1)
        rhs = c * np.linalg.norm(p, axis=1)
        dev_scale = max(dev_scale, _scaled_gaps(lhs, rhs))
    return NormIdentityReport(
        trials=trials,
        max_shift_deviation=dev_shift,
        max_centering_deviation=dev_center,
        max_convolution_deviation=dev_conv,
        max_scaling_deviation=dev_scale,
        tol=tol,
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
