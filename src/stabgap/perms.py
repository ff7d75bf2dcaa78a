"""Permutations of {0, ..., n-1} stored as immutable image tuples.

Composition follows the left-action convention used throughout the
package: (g * h)(x) = g(h(x)).

Validation happens at the input boundary: ``Permutation(images)`` checks
that the images form a bijection, while products and inverses of
permutations that are already valid are built without re-checking.
Code that handles many elements at once (group enumeration, connection
sets, double cosets) holds them as rows of an integer array instead.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Iterator, Sequence


@functools.total_ordering
class Permutation:
    """A bijection of {0, ..., degree-1} given by its tuple of images,
    ordered by its images (only against another ``Permutation``)."""

    __slots__ = ("images", "_inv")

    def __init__(self, images: Sequence[int]):
        try:
            imgs = tuple(operator.index(x) for x in images)
        except TypeError:
            raise ValueError(f"images must be integers: {tuple(images)!r}") from None
        n = len(imgs)
        seen = bytearray(n)
        for x in imgs:
            if not 0 <= x < n or seen[x]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {imgs!r}")
            seen[x] = 1
        self.images = imgs
        self._inv: Permutation | None = None

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """A permutation from an image tuple already known to be a
        bijection of 0..len-1; the bijection is not re-checked."""
        p = object.__new__(cls)
        p.images = images
        p._inv = None
        return p

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Iterable[int]) -> Permutation:
        """Build a permutation from pairwise disjoint cycles."""
        images = list(range(degree))
        touched = set()
        for cycle in cycles:
            cycle = tuple(cycle)
            if set(cycle) & touched:
                raise ValueError("cycles must be pairwise disjoint")
            touched.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition g * h with (g * h)(x) = g(h(x))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        g = self.images
        return Permutation._trusted(tuple([g[x] for x in other.images]))

    def inverse(self) -> Permutation:
        if self._inv is None:
            imgs = self.images
            inv = [0] * len(imgs)
            for x, y in enumerate(imgs):
                inv[y] = x
            p = Permutation._trusted(tuple(inv))
            p._inv = self
            self._inv = p
        return self._inv

    def is_identity(self) -> bool:
        return all(x == y for x, y in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest point."""
        out = []
        seen = set()
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            x = self.images[start]
            while x != start:
                seen.add(x)
                cycle.append(x)
                x = self.images[x]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"
