"""Graphs, coset graphs, connection sets, and local action analysis.

A transitive case bundles a graph with a permutation group acting on it
by automorphisms with a single vertex orbit, the base vertex, the point
stabilizer, and the extracted connection set (the elements sending the
base vertex into its neighborhood, always an inverse-closed union of
stabilizer double cosets).

A graph is one read-only n x n boolean adjacency matrix.  Neighbors,
degrees and edges are read off it, the automorphism check is one gather
of it at the images of every directed edge under every generator row,
and Sabidussi's check compares the coset adjacency with it.

A coset graph lists no element of the ambient group, though the group's
order still counts against the element cap: each left coset xH is held
as one canonical row of it, read off H's stabilizer chain.  Vertex 0 is
H, and the other cosets are numbered once, breadth-first from it under
the group's generators in their given order; the induced group's kept
transversal at H then carries H's neighbors to every coset.  The graph
layer reads rows, not ``Permutation`` objects, and tests membership by
sifting whole batches of rows through a group's chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeLimitError, StructureError
from .groups import (
    ConnectionSet,
    DEFAULT_ELEMENT_CAP,
    PermutationGroup,
    _component_minima,
    _compose_all,
    _Elements,
    _image_rows,
    _row_view,
)
from .spectral import DENSE_SIZE_CAP


class SimpleGraph:
    """Undirected simple graph on {0, ..., n-1}, held as one read-only
    n x n boolean ``adjacency`` matrix that every query reads.

    The edges are checked in the order given: the first item that is not
    a pair of integer vertices, names a vertex out of range, or is a loop
    raises.  Repeated edges are merged."""

    __slots__ = ("n", "adjacency")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        u, v = _edge_rows(n, edges).T
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[u, v] = adjacency[v, u] = True
        adjacency.setflags(write=False)
        self.n = n
        self.adjacency = adjacency

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.adjacency[v]).tolist())

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.adjacency[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= min(u, v) and max(u, v) < self.n and bool(self.adjacency[u, v])

    def edges(self) -> list[tuple[int, int]]:
        u, v = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(u.tolist(), v.tolist()))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    def is_regular(self) -> bool:
        degrees = np.count_nonzero(self.adjacency, axis=1)
        return bool((degrees == degrees[0]).all())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimpleGraph) and np.array_equal(
            self.adjacency, other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency.tobytes()))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count})"


def _edge_rows(n: int, edges: Iterable[Sequence[int]]) -> np.ndarray:
    """The edges as an m x 2 intp array, checked whole: ValueError at the
    first item, in the order given, that is not a pair of integers or
    names a vertex outside 0..n-1, and StructureError at the first loop.

    An integer array of pairs, or a list that NumPy reads as one, is
    checked by array comparisons alone.  Otherwise the items are read one
    at a time only up to the first that is not a pair of integers; the
    pairs before it are checked as an array first, so an earlier bad
    vertex or loop is still named first."""
    items = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        rows = np.asarray(items) if len(items) else np.empty((0, 2), np.intp)
    except ValueError:
        rows = None
    if rows is not None and rows.dtype.kind in "iu" and rows.shape[1:] == (2,):
        return _checked_edge_rows(n, rows)
    if isinstance(items, np.ndarray):
        items = items.tolist()
    pairs = []
    for item in items:
        try:
            pair = tuple(item)
        except TypeError:
            pair = ()
        if len(pair) != 2:
            error = f"edge {item!r} is not a pair of vertices"
        elif not all(isinstance(x, (int, np.integer)) for x in pair):
            error = f"edge {item!r} has a vertex that is not an integer"
        else:
            pairs.append(pair)
            continue
        _checked_edge_rows(n, np.array(pairs, dtype=object).reshape(-1, 2))
        raise ValueError(error)
    return _checked_edge_rows(n, np.array(pairs, dtype=object).reshape(-1, 2))


def _checked_edge_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """The m x 2 rows of integer vertices as intp, or the error for the
    first row that names a vertex out of range (its first such vertex)
    or is a loop."""
    outside = (rows < 0) | (rows >= n)
    bad = np.flatnonzero(outside.any(axis=1) | (rows[:, 0] == rows[:, 1]))
    if len(bad):
        row, far = rows[bad[0]], outside[bad[0]]
        if far.any():
            raise ValueError(f"vertex {row[np.argmax(far)]} out of range for {n} vertices")
        raise StructureError(f"loop at vertex {row[0]} not allowed")
    return rows.astype(np.intp)


def preserves_edges(group: PermutationGroup, graph: SimpleGraph) -> bool:
    """True iff every generator maps edges to edges (hence acts by
    automorphisms): one gather of the adjacency at the images of every
    directed edge under every generator row.  Transitivity is reported
    separately via orbits."""
    if group.degree != graph.n:
        raise ValueError(
            f"group degree {group.degree} does not match vertex count {graph.n}"
        )
    u, w = np.nonzero(graph.adjacency)
    gens = group._gen_rows
    return bool(graph.adjacency[gens[:, u], gens[:, w]].all())


@dataclass(frozen=True)
class TransitiveCase:
    """A vertex-transitive action with its extracted connection data."""

    group: PermutationGroup
    graph: SimpleGraph
    base_vertex: int
    connection: ConnectionSet
    stabilizer: PermutationGroup
    valency: int


def make_transitive_case(
    group: PermutationGroup,
    graph: SimpleGraph,
    base_vertex: int = 0,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> TransitiveCase:
    """Validate an action and extract its connection set.

    The set {g in G : g(v) is a neighbor of v} is held as G_v and its
    left cosets (``ConnectionSet.of_point``), so only G_v is enumerated
    and S is not listed; G's order still counts against ``cap``.  Checks:
    action by automorphisms, vertex-transitivity (v's orbit is read off
    G's kept transversal at v, which ``of_point`` and Sabidussi read
    too), regularity, positive valency, |S| = k * |G_v|, and
    S({v}) = neighborhood of v, read off column v of the coset rows.
    """
    if group.degree != graph.n:
        raise ValueError(
            f"group degree {group.degree} does not match vertex count {graph.n}"
        )
    if not 0 <= base_vertex < graph.n:
        raise ValueError(f"base vertex {base_vertex} out of range")
    if not preserves_edges(group, graph):
        raise StructureError("action is not by graph automorphisms")
    if len(group.transversal(base_vertex)) != graph.n:
        raise StructureError("action is not vertex-transitive")
    if not graph.is_regular():
        raise StructureError("graph is not regular")
    valency = graph.degree(base_vertex)
    if valency == 0:
        raise StructureError("valency 0 is not supported (empty connection set)")
    connection = ConnectionSet.of_point(
        group, base_vertex, graph.neighbors(base_vertex), cap
    )
    stab = connection.subgroup
    if len(connection) != valency * stab.order():
        raise StructureError(
            f"|S| = {len(connection)} differs from k*|G_v| = "
            f"{valency * stab.order()}"
        )
    # Each coset u_w*G_v sends v to u_w(v) alone.
    hit = np.bincount(connection.cosets[:, base_vertex], minlength=graph.n) > 0
    if not np.array_equal(hit, graph.adjacency[base_vertex]):
        raise StructureError("S({v}) differs from the neighborhood of v")
    return TransitiveCase(group, graph, base_vertex, connection, stab, valency)


# -- coset graphs ------------------------------------------------------------


@dataclass(frozen=True)
class CosetGraphSpec:
    """Data for a coset graph: an ambient group, a subgroup, and
    double-coset representatives of the connection set, as
    ``Permutation`` objects or a 2-D array of image rows."""

    group: PermutationGroup
    subgroup: PermutationGroup
    representatives: _Elements


def build_coset_graph(
    spec: CosetGraphSpec,
    max_cosets: int = DENSE_SIZE_CAP,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> tuple[SimpleGraph, TransitiveCase]:
    """Construct the coset graph: vertices are left cosets xH of the
    subgroup, with an edge {xH, yH} exactly when the inverse-product
    x^-1 y lies in the connection set, the union of the double cosets
    HaH of the representatives a.

    No element of the group is listed, but its order still counts
    against ``element_cap``.  A coset is held as its key, one row of it
    read off H's chain (``PermutationGroup._coset_keys``).  Vertex 0 is
    H, and the others are numbered breadth-first from it, coset by coset
    under the group's generators in their given order, so the search's
    products are the induced action; it stops at the first layer past
    ``max_cosets``.  H's neighbors are the orbits of the representatives'
    cosets under the induced stabilizer of H, and every coset's are H's,
    moved by the kept transversal row that sends H to it (one gather).

    The left-multiplication action of the group is attached (as the
    induced permutation group on the cosets) and is vertex-transitive.
    """
    group, subgroup = spec.group, spec.subgroup
    if subgroup.degree != group.degree:
        raise ValueError("subgroup degree does not match group degree")
    if not group._contains_rows(subgroup._gen_rows).all():
        raise StructureError("subgroup is not contained in the group")
    reps = _image_rows(spec.representatives, group.degree)
    outside = np.flatnonzero(~group._contains_rows(reps))
    if len(outside):
        raise StructureError(
            f"connection representative {outside[0]} is not in the group"
        )
    if not len(reps):
        raise StructureError("empty connection set")

    group._check_order(element_cap)
    gens = group._gen_rows
    keys = subgroup._coset_keys(np.arange(group.degree, dtype=gens.dtype)[None, :])
    number = {key: 0 for key in _row_view(keys).tolist()}
    layers, moves = [keys], []
    # Breadth-first over the cosets in number order, each under the
    # generators in their given order: a whole layer's products at once.
    for layer in layers:
        products = _compose_all(gens, layer).swapaxes(0, 1).reshape(-1, group.degree)
        products, size = subgroup._coset_keys(products), len(number)
        images = [number.setdefault(k, len(number)) for k in _row_view(products).tolist()]
        if len(number) > max_cosets:
            raise SizeLimitError(f"coset enumeration exceeds cap {max_cosets}")
        moves.append(np.array(images, dtype=np.intp).reshape(len(layer), -1))
        found, at = np.unique(moves[-1], return_index=True)
        if len(number) > size:
            layers.append(products.take(at[found >= size], axis=0))
    n = len(number)
    if n * subgroup.order() != group.order():
        raise StructureError("coset count disagrees with the subgroup index")
    starts = [number[key] for key in _row_view(subgroup._coset_keys(reps)).tolist()]
    if 0 in starts:
        raise StructureError(
            "connection set would contain the identity's double coset"
        )
    induced_group = PermutationGroup(n, np.concatenate(moves).T)
    orbit = induced_group.stabilizer(0).orbit_labels()
    first = np.flatnonzero(np.isin(orbit, orbit[starts]))
    # Row u of the transversal at H sends H to the coset u(0) and H's
    # neighbors to that coset's.
    t = induced_group.transversal(0)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[t[:, :1], t[:, first]] = True
    if not np.array_equal(adjacency, adjacency.T):
        raise StructureError("connection set is not inverse-closed")
    graph = SimpleGraph(n, np.argwhere(np.triu(adjacency, 1)))
    case = make_transitive_case(induced_group, graph, base_vertex=0, cap=element_cap)
    return graph, case


# -- canonical isomorphism check ---------------------------------------------


@dataclass(frozen=True)
class SabidussiResult:
    """Outcome of checking the canonical coset-graph isomorphism.

    The map sends the coset x*Stab to the vertex x(v); a False result
    carries the first vertex pair where edges disagree."""

    ok: bool
    violation: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def sabidussi_isomorphism(case: TransitiveCase) -> SabidussiResult:
    """Check that xG_v -> x(v) is an isomorphism between the coset graph
    on (group, stabilizer, connection set) and the case's graph.

    With u_w sending v to w, w1 < w2 are coset-adjacent when u_w1^-1 u_w2 is
    in S.  That element lies in u_z G_v for z = u_w1^-1(w2), and S is a union
    of G_v double cosets, so it is in S exactly when u_z is: the adjacency is
    one gather from the n transversal rows' membership, through the
    inverses and the index of G's kept level at v, with nothing inverted
    or sorted here.
    """
    n, v, connection = case.graph.n, case.base_vertex, case.connection
    if not connection.subgroup._contains_rows(case.stabilizer._gen_rows).all():
        raise StructureError("connection set is not split over the stabilizer")
    level = case.group._level(v)
    if len(level.reps) != n:
        return SabidussiResult(False, (v, v))
    # member[z]: whether u_z is in S.  The inverse row u_w1^-1, moved to
    # row w1, holds z = u_w1^-1(w2) at each w2.
    member = connection.contains_rows(level.reps).take(level.index)
    coset_adjacency = member[level.inverse][level.index]
    mismatch = np.flatnonzero(np.triu(coset_adjacency != case.graph.adjacency, 1))
    if len(mismatch):
        return SabidussiResult(False, divmod(int(mismatch[0]), n))
    return SabidussiResult(True)


# -- local action -------------------------------------------------------------


@dataclass(frozen=True)
class LocalActionReport:
    """How the vertex stabilizer acts on the base vertex's neighborhood."""

    orbit_count: int
    locally_transitive: bool
    block_system: tuple[tuple[int, ...], ...] | None
    locally_primitive: bool


def _finest_congruence(
    gens: Sequence[Sequence[int]], k: int, a: int, b: int
) -> list[list[int]]:
    """Finest G-congruence on {0..k-1} merging a and b (union-find closure
    over merged pairs: x ~ y forces g[x] ~ g[y] for every image row g)."""
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
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
            gx, gy = g[x], g[y]
            if union(gx, gy):
                stack.append((gx, gy))

    blocks: dict[int, list[int]] = {}
    for x in range(k):
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())


def local_action(case: TransitiveCase) -> LocalActionReport:
    """Restrict the stabilizer to the base neighborhood and classify it.

    The restriction is one gather of the stabilizer's rows at the
    neighbors.  Locally transitive means one orbit; when transitive, the
    classical minimal-block closure over each point pair decides
    primitivity, and the first nontrivial block system found is reported
    (on the actual neighbor vertices).
    """
    neighborhood = list(case.graph.neighbors(case.base_vertex))
    k = len(neighborhood)
    position = np.full(case.graph.n, -1)
    position[neighborhood] = np.arange(k)
    induced = position[case.stabilizer._gen_rows[:, neighborhood]]
    if (induced < 0).any():
        raise StructureError("stabilizer moves a neighbor out of the neighborhood")

    orbits = _component_minima(k, induced)
    orbit_count = int((orbits == np.arange(k)).sum())
    locally_transitive = locally_primitive = orbit_count == 1
    block_system = None
    gens = induced.tolist()
    for b in range(1, k if locally_transitive else 1):
        blocks = _finest_congruence(gens, k, 0, b)
        if 1 < len(blocks[0]) < k:
            block_system = tuple(
                tuple(neighborhood[i] for i in block) for block in blocks
            )
            locally_primitive = False
            break
    return LocalActionReport(
        orbit_count, locally_transitive, block_system, locally_primitive
    )
