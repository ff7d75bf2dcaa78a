"""Permutation groups with deterministic stabilizer chains.

Orbits, point stabilizers via Schreier generators, exact orders, bounded
element enumeration, and double-coset machinery.  Every operation is
deterministic: orbits are grown breadth-first with the generators in their
given order, chains pick the smallest moved point as the next base point,
and element lists are returned in lexicographic order of image tuples.

Permutations are validated once, where they enter as ``Permutation``
objects.  Element sets (the enumerated group, connection sets, the sets
split into double cosets) are held as rows of an integer array of
images, composed a whole array at a time by fancy indexing, and looked
up by the bytes of each row.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeLimitError, StructureError
from .perms import Permutation

#: Default cap on explicit element enumeration.
DEFAULT_ELEMENT_CAP = 10**6


def _image_dtype(degree: int) -> np.dtype:
    """The smallest unsigned integer type that holds the points 0..degree-1."""
    return np.min_scalar_type(max(degree - 1, 0))


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array, in C order."""
    data = rows.tobytes()
    width = rows.shape[1] * rows.itemsize
    return [data[i : i + width] for i in range(0, len(data), width)]


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """The row order that sorts rows lexicographically, first column first."""
    return np.lexsort(rows.T[::-1])


def _transversal(
    point: int, degree: int, gens: Sequence[Permutation]
) -> dict[int, Permutation]:
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


class _ChainLevel:
    """One level of a stabilizer chain: a base point, the strong generators
    assigned to this level (they fix all earlier base points and move this
    one), and a transversal for the base point's orbit under the group at
    this level."""

    __slots__ = ("basepoint", "gens", "transversal")

    def __init__(self, basepoint: int, degree: int):
        self.basepoint = basepoint
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {
            basepoint: Permutation.identity(degree)
        }


class PermutationGroup:
    """A group of permutations of {0, ..., degree-1} given by generators.

    The stabilizer chain (base order 0, 1, 2, ...: each level uses the
    smallest point moved by the group at that level) and the element list
    are built lazily, once, and cached.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        if degree < 1:
            raise ValueError("degree must be positive")
        gens: list[Permutation] = []
        seen: set[Permutation] = set()
        for g in generators:
            if not isinstance(g, Permutation):
                raise TypeError(f"generator {g!r} is not a Permutation")
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if not g.is_identity() and g not in seen:
                gens.append(g)
                seen.add(g)
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self._chain: list[_ChainLevel] | None = None
        self._rows: np.ndarray | None = None
        self._elements: tuple[Permutation, ...] | None = None

    @classmethod
    def trivial(cls, degree: int) -> PermutationGroup:
        return cls(degree, ())

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators) or "()"
        return f"PermutationGroup(degree={self.degree}, <{gens}>)"

    # -- orbits and transversals -------------------------------------------

    def orbit(self, point: int) -> set[int]:
        """The orbit of a point under the group."""
        return set(self.transversal(point))

    def transversal(self, point: int) -> dict[int, Permutation]:
        """Map q -> u_q with u_q(point) = q, grown breadth-first."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range for degree {self.degree}")
        return _transversal(point, self.degree, self.generators)

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def stabilizer(self, point: int) -> PermutationGroup:
        """The point stabilizer, generated by Schreier generators.

        Satisfies the orbit-stabilizer identity
        order(self) == len(orbit(point)) * order(stabilizer(point)).
        """
        t = self.transversal(point)
        gens: list[Permutation] = []
        seen: set[Permutation] = set()
        for q in sorted(t):
            u_q = t[q]
            for g in self.generators:
                u_gq = t[g(q)]
                schreier = u_gq.inverse() * (g * u_q)
                if not schreier.is_identity() and schreier not in seen:
                    gens.append(schreier)
                    seen.add(schreier)
        return PermutationGroup(self.degree, gens)

    # -- stabilizer chain ---------------------------------------------------

    def _sift(self, levels: list[_ChainLevel], g: Permutation) -> tuple[Permutation, int]:
        """Strip g through the chain; return (residue, first failing level)."""
        for i, level in enumerate(levels):
            image = g(level.basepoint)
            rep = level.transversal.get(image)
            if rep is None:
                return g, i
            g = rep.inverse() * g
        return g, len(levels)

    def _build_chain(self) -> list[_ChainLevel]:
        levels: list[_ChainLevel] = []

        def effective_gens(i: int) -> list[Permutation]:
            # The group at level i is generated by the strong generators
            # assigned to level i and to every deeper level.
            gens: list[Permutation] = []
            for level in levels[i:]:
                gens.extend(level.gens)
            return gens

        def add_at(g: Permutation, j: int) -> None:
            if j == len(levels):
                basepoint = min(p for p in range(self.degree) if g(p) != p)
                levels.append(_ChainLevel(basepoint, self.degree))
            levels[j].gens.append(g)
            for i in range(j + 1):
                levels[i].transversal = _transversal(
                    levels[i].basepoint, self.degree, effective_gens(i)
                )

        for g in self.generators:
            residue, at = self._sift(levels, g)
            if not residue.is_identity():
                add_at(residue, at)

        # Fixpoint: every Schreier generator of every level must sift to
        # the identity through the deeper levels.  Scan bottom-up; on a
        # violation, assign the residue to the level where sifting failed
        # and rescan.
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
                        residue, at = self._sift(levels[i + 1 :], schreier)
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

    def _stabilizer_chain(self) -> list[_ChainLevel]:
        if self._chain is None:
            self._chain = self._build_chain()
        return self._chain

    def order(self) -> int:
        """Exact group order (product of orbit sizes along the chain)."""
        n = 1
        for level in self._stabilizer_chain():
            n *= len(level.transversal)
        return n

    def __contains__(self, g: object) -> bool:
        if not isinstance(g, Permutation) or g.degree != self.degree:
            return False
        residue, _ = self._sift(self._stabilizer_chain(), g)
        return residue.is_identity()

    # -- enumeration --------------------------------------------------------

    def element_array(self, cap: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
        """All elements as a read-only array with one row of images per
        element, rows in lexicographic order, if order <= cap.

        The closure is grown breadth-first from the identity: the frontier
        rows x are multiplied on the left by every generator g at once, as
        ``g[x]``, and the products not seen before form the next frontier.
        """
        order = self.order()
        if order > cap:
            raise SizeLimitError(
                f"group order {order} exceeds enumeration cap {cap}"
            )
        if self._rows is None:
            gens = np.array(
                [g.images for g in self.generators], dtype=_image_dtype(self.degree)
            ).reshape(len(self.generators), self.degree)
            frontier = np.arange(self.degree, dtype=gens.dtype)[None, :]
            seen = set(_row_keys(frontier))
            blocks = [frontier]
            while len(frontier):
                products = gens[:, frontier].reshape(-1, self.degree)
                fresh = []
                for i, key in enumerate(_row_keys(products)):
                    if key not in seen:
                        seen.add(key)
                        fresh.append(i)
                frontier = products[fresh]
                blocks.append(frontier)
            rows = np.concatenate(blocks)
            rows = rows[_lex_order(rows)]
            rows.setflags(write=False)
            self._rows = rows
        return self._rows

    def elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> list[Permutation]:
        """All elements, lexicographic by image tuple, if order <= cap."""
        rows = self.element_array(cap)
        if self._elements is None:
            self._elements = tuple(
                [Permutation._trusted(tuple(row.tolist())) for row in rows]
            )
        return list(self._elements)


class _RowTable:
    """Distinct permutations of one degree, sorted lexicographically and
    stacked as the rows of an integer array, with each row's index looked
    up by its bytes."""

    __slots__ = ("perms", "rows", "_index")

    def __init__(self, elements: Iterable[Permutation], degree: int | None = None):
        perms = list(dict.fromkeys(elements))
        if degree is None:
            degree = perms[0].degree if perms else 1
        for s in perms:
            if s.degree != degree:
                raise ValueError(f"degree mismatch: {s.degree} vs {degree}")
        rows = np.array(
            [s.images for s in perms], dtype=_image_dtype(degree)
        ).reshape(len(perms), degree)
        order = _lex_order(rows)
        self.perms = [perms[i] for i in order]
        self.rows = rows[order]
        self._index = {key: i for i, key in enumerate(_row_keys(self.rows))}

    def find(self, rows: np.ndarray) -> np.ndarray | None:
        """The index of each given row, or None if any row is missing."""
        keys = _row_keys(rows.astype(self.rows.dtype, copy=False))
        found = np.fromiter(
            map(self._index.get, keys, itertools.repeat(-1)),
            dtype=np.intp,
            count=len(keys),
        )
        return None if (found < 0).any() else found


def _inverse_closed(table: _RowTable) -> bool:
    # argsort of a row of images is the row of the inverse's images.
    return table.find(np.argsort(table.rows, axis=1)) is not None


def _component_minima(size: int, moves: Sequence[np.ndarray]) -> np.ndarray:
    """The smallest index in the component of each of range(size), for the
    graph with an edge i -- move[i] for every move (each a permutation of
    range(size)).

    Min-label propagation along both directions of every edge, with
    pointer jumping: a label is always an index in the same component.
    """
    label = np.arange(size)
    while True:
        new = label.copy()
        for move in moves:
            np.minimum(new, label[move], out=new)
            new[move] = np.minimum(new[move], label)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _double_coset_split(table: _RowTable, h: PermutationGroup) -> list[Permutation]:
    moves = []
    for g in h.generators:
        g_row = np.array(g.images, dtype=table.rows.dtype)
        for product in (g_row[table.rows], table.rows[:, g_row]):
            found = table.find(product)
            if found is None:
                raise StructureError(
                    "set is not a union of full double cosets of the subgroup"
                )
            moves.append(found)
    label = _component_minima(len(table.perms), moves)
    return [table.perms[i] for i in np.flatnonzero(label == np.arange(len(label)))]


def is_inverse_closed(elements: Iterable[Permutation]) -> bool:
    """True iff the set contains the inverse of each of its elements.

    The elements must share one degree."""
    return _inverse_closed(_RowTable(elements))


def double_coset(
    h: PermutationGroup, a: Permutation, cap: int = DEFAULT_ELEMENT_CAP
) -> set[Permutation]:
    """The double coset HaH, grown by closing {a} under the generators of H
    on both sides.  Never materializes the ambient group."""
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
                            raise SizeLimitError(
                                f"double coset exceeds cap {cap}"
                            )
                        found.add(y)
                        nxt.append(y)
        frontier = nxt
    return found


def double_coset_representatives(
    elements: Iterable[Permutation], h: PermutationGroup
) -> list[Permutation]:
    """Split an H-bi-invariant set into its double cosets.

    Returns the lexicographically smallest element of each double coset,
    in increasing order.  Raises StructureError if the set is not a union
    of full H-double cosets.

    The set is a union of full H-double cosets exactly when it is closed
    under multiplication by each generator of H on either side; the
    double cosets are then the components of the graph those products
    draw on the set.
    """
    return _double_coset_split(_RowTable(elements, h.degree), h)


class ConnectionSet:
    """An inverse-closed union of H-double cosets driving a coset graph.

    Elements are held in lexicographic order.  Inverse closure is checked
    on construction, and H-bi-invariance is decided by splitting the set
    into its H-double cosets; the split is kept as ``representatives``
    (the smallest element of each double coset, in increasing order).
    """

    __slots__ = ("degree", "elements", "subgroup", "representatives", "_pool")

    def __init__(self, elements: Iterable[Permutation], subgroup: PermutationGroup):
        elems = list(dict.fromkeys(elements))
        for s in elems:
            if s.degree != subgroup.degree:
                raise ValueError(
                    f"element degree {s.degree} does not match subgroup degree "
                    f"{subgroup.degree}"
                )
        table = _RowTable(elems, subgroup.degree)
        self.degree = subgroup.degree
        self.elements = tuple(table.perms)
        self.subgroup = subgroup
        self._pool = frozenset(elems)
        if not _inverse_closed(table):
            raise StructureError("connection set is not inverse-closed")
        try:
            reps = _double_coset_split(table, subgroup)
        except StructureError:
            raise StructureError(
                "connection set is not bi-invariant under the subgroup"
            ) from None
        self.representatives = tuple(reps)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g: object) -> bool:
        return g in self._pool

    def __repr__(self) -> str:
        return f"ConnectionSet(degree={self.degree}, size={len(self.elements)})"
