"""Permutation groups with deterministic stabilizer chains.

Orbits, point stabilizers via Schreier generators, exact orders, bounded
element enumeration, and double-coset machinery.  Every operation is
deterministic: orbits are grown breadth-first with the generators in their
given order, chains pick the smallest moved point as the next base point,
and element lists are returned in lexicographic order of image tuples.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import SizeLimitError, StructureError
from .perms import Permutation

#: Default cap on explicit element enumeration.
DEFAULT_ELEMENT_CAP = 10**6


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

    def elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> list[Permutation]:
        """All elements, lexicographic by image tuple, if order <= cap."""
        order = self.order()
        if order > cap:
            raise SizeLimitError(
                f"group order {order} exceeds enumeration cap {cap}"
            )
        if self._elements is None:
            found = {Permutation.identity(self.degree)}
            frontier = list(found)
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.generators:
                        y = g * x
                        if y not in found:
                            found.add(y)
                            nxt.append(y)
                frontier = nxt
            self._elements = tuple(sorted(found))
        return list(self._elements)


def is_inverse_closed(elements: Iterable[Permutation]) -> bool:
    """True iff the set contains the inverse of each of its elements."""
    pool = set(elements)
    return all(s.inverse() in pool for s in pool)


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
    """
    remaining = set(elements)
    for s in remaining:
        if s.degree != h.degree:
            raise ValueError(f"degree mismatch: {s.degree} vs {h.degree}")
    total = len(remaining)
    reps: list[Permutation] = []
    while remaining:
        a = min(remaining)
        try:
            coset = double_coset(h, a, cap=total)
        except SizeLimitError:
            raise StructureError(
                "set is not a union of full double cosets of the subgroup"
            ) from None
        if not coset <= remaining:
            raise StructureError(
                "set is not a union of full double cosets of the subgroup"
            )
        remaining -= coset
        reps.append(a)
    return reps


class ConnectionSet:
    """An inverse-closed union of H-double cosets driving a coset graph.

    Elements are held in lexicographic order.  Inverse closure is checked
    on construction, and H-bi-invariance is decided by splitting the set
    into its H-double cosets; the split is kept as ``representatives``
    (the smallest element of each double coset, in increasing order).
    """

    __slots__ = ("degree", "elements", "subgroup", "representatives", "_pool")

    def __init__(self, elements: Iterable[Permutation], subgroup: PermutationGroup):
        elems = tuple(sorted(set(elements)))
        for s in elems:
            if s.degree != subgroup.degree:
                raise ValueError(
                    f"element degree {s.degree} does not match subgroup degree "
                    f"{subgroup.degree}"
                )
        self.degree = subgroup.degree
        self.elements = elems
        self.subgroup = subgroup
        self._pool = frozenset(elems)
        if not is_inverse_closed(self._pool):
            raise StructureError("connection set is not inverse-closed")
        try:
            reps = double_coset_representatives(self._pool, subgroup)
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
