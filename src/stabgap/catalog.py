"""Built-in catalog of transitive cases, organized by family.

Families cover cycles with dihedral and with cyclic symmetry, complete
graphs under the full symmetric group, Kneser and Johnson graphs under
the induced symmetric action, hypercubes under translations only (so
the stabilizer is trivial), and small Cayley graphs built through the
coset-graph path.  Desk scale throughout; every generated case is
vertex-transitive by construction.
"""

from __future__ import annotations

import itertools

from .casefile import CaseSpec
from .perms import Permutation

FAMILY_NAMES = (
    "cycles-dihedral",
    "cycles-cyclic",
    "complete",
    "kneser",
    "johnson",
    "hypercube-translation",
    "cayley-small",
)


def _rotation(n: int) -> tuple[int, ...]:
    return tuple((i + 1) % n for i in range(n))


def _reflection(n: int) -> tuple[int, ...]:
    return tuple((-i) % n for i in range(n))


def _transposition(n: int) -> tuple[int, ...]:
    return tuple([1, 0] + list(range(2, n)))


def _cycle(name: str, n: int, generators: tuple) -> CaseSpec:
    """The n-cycle under the given generators, named ``name-n``."""
    return CaseSpec(
        name=f"{name}-{n}",
        degree=n,
        generators=generators,
        stabilize_point=0,
        edges=tuple((i, (i + 1) % n) for i in range(n)),
    )


def _cycle_dihedral(n: int) -> CaseSpec:
    return _cycle("cycle-dihedral", n, (_rotation(n), _reflection(n)))


def _cycle_cyclic(n: int) -> CaseSpec:
    return _cycle("cycle-cyclic", n, (_rotation(n),))


def _complete(n: int) -> CaseSpec:
    return CaseSpec(
        name=f"complete-{n}",
        degree=n,
        generators=(_transposition(n), _rotation(n)),
        stabilize_point=0,
        edges=tuple(itertools.combinations(range(n), 2)),
    )


def _subset_graph(name: str, n: int, m: int, meet: int) -> CaseSpec:
    """The m-subsets of range(n), lexicographically indexed, two adjacent
    when they share exactly ``meet`` points, under the induced action of
    S_n; named ``name-n-m``."""
    subsets = sorted(itertools.combinations(range(n), m))
    index = {s: i for i, s in enumerate(subsets)}

    def induce(images: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            index[tuple(sorted(images[x] for x in s))] for s in subsets
        )

    edges = tuple(
        (index[a], index[b])
        for a, b in itertools.combinations(subsets, 2)
        if len(set(a) & set(b)) == meet
    )
    return CaseSpec(
        name=f"{name}-{n}-{m}",
        degree=len(subsets),
        generators=(induce(_transposition(n)), induce(_rotation(n))),
        stabilize_point=0,
        edges=edges,
    )


def _kneser(n: int, m: int) -> CaseSpec:
    return _subset_graph("kneser", n, m, 0)


def _johnson(n: int, m: int) -> CaseSpec:
    return _subset_graph("johnson", n, m, m - 1)


def _hypercube(d: int) -> CaseSpec:
    n = 1 << d
    generators = tuple(
        tuple(x ^ (1 << bit) for x in range(n)) for bit in range(d)
    )
    edges = tuple(
        (x, x ^ (1 << bit)) for x in range(n) for bit in range(d) if x < x ^ (1 << bit)
    )
    return CaseSpec(
        name=f"hypercube-{d}",
        degree=n,
        generators=generators,
        stabilize_point=0,
        edges=edges,
    )


def _regular_cayley(
    name: str,
    base_generators: list[Permutation],
    connection: list[Permutation],
) -> CaseSpec:
    """A Cayley graph case through the coset-graph path: the coset graph
    of the base group over the trivial subgroup, with the connection set
    as representatives, is the Cayley graph, its cosets the group's
    elements."""
    return CaseSpec(
        name=name,
        degree=base_generators[0].degree,
        generators=tuple(g.images for g in base_generators),
        subgroup_generators=(),
        connection_reps=tuple(s.images for s in connection),
    )


def _cayley_cases() -> list[CaseSpec]:
    # quaternion group on {1,-1,i,-i,j,-j,k,-k}, left multiplication by i, j
    q_i = Permutation([2, 3, 1, 0, 6, 7, 5, 4])
    q_j = Permutation([4, 5, 7, 6, 1, 0, 2, 3])
    s3_swap = Permutation([1, 0, 2])
    s3_adjacent = Permutation([0, 2, 1])
    z6 = Permutation(_rotation(6))
    square = z6 * z6
    return [
        _regular_cayley(
            "cayley-q8-ij", [q_i, q_j], [q_i, q_i.inverse(), q_j, q_j.inverse()]
        ),
        _regular_cayley(
            "cayley-s3-transpositions", [s3_swap, s3_adjacent], [s3_swap, s3_adjacent]
        ),
        # connection generates only the even rotations: two disjoint triangles
        _regular_cayley("cayley-z6-two-step", [z6], [square, square.inverse()]),
    ]


_BUILDERS = {
    "cycles-dihedral": lambda: [_cycle_dihedral(n) for n in (5, 6, 8, 12)],
    "cycles-cyclic": lambda: [_cycle_cyclic(n) for n in (4, 5, 7, 9)],
    "complete": lambda: [_complete(n) for n in (3, 4, 5, 6, 7)],
    "kneser": lambda: [_kneser(5, 2), _kneser(7, 3)],
    "johnson": lambda: [_johnson(5, 2), _johnson(6, 3)],
    "hypercube-translation": lambda: [_hypercube(d) for d in (3, 4, 5, 6)],
    "cayley-small": _cayley_cases,
}


def builtin_cases(families=None) -> list[CaseSpec]:
    """The built-in cases for the requested families (all by default),
    in a deterministic order."""
    if families is None:
        chosen = list(FAMILY_NAMES)
    else:
        chosen = []
        for family in families:
            if family not in _BUILDERS:
                raise ValueError(
                    f"unknown family '{family}' (known: {', '.join(FAMILY_NAMES)})"
                )
            if family not in chosen:
                chosen.append(family)
    out: list[CaseSpec] = []
    for family in chosen:
        out.extend(_BUILDERS[family]())
    return out
