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


def _cycle_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, (i + 1) % n) for i in range(n))


def _cycle_dihedral(n: int) -> CaseSpec:
    return CaseSpec(
        name=f"cycle-dihedral-{n}",
        degree=n,
        generators=(_rotation(n), _reflection(n)),
        stabilize_point=0,
        edges=_cycle_edges(n),
    )


def _cycle_cyclic(n: int) -> CaseSpec:
    return CaseSpec(
        name=f"cycle-cyclic-{n}",
        degree=n,
        generators=(_rotation(n),),
        stabilize_point=0,
        edges=_cycle_edges(n),
    )


def _complete(n: int) -> CaseSpec:
    transposition = tuple([1, 0] + list(range(2, n)))
    return CaseSpec(
        name=f"complete-{n}",
        degree=n,
        generators=(transposition, _rotation(n)),
        stabilize_point=0,
        edges=tuple(itertools.combinations(range(n), 2)),
    )


def _subset_action(n: int, m: int) -> tuple[list[tuple[int, ...]], tuple, tuple]:
    """The induced action of S_n on m-subsets, lexicographically indexed."""
    subsets = sorted(itertools.combinations(range(n), m))
    index = {s: i for i, s in enumerate(subsets)}

    def induce(images: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            index[tuple(sorted(images[x] for x in s))] for s in subsets
        )

    transposition = tuple([1, 0] + list(range(2, n)))
    return subsets, induce(transposition), induce(_rotation(n))


def _kneser(n: int, m: int) -> CaseSpec:
    subsets, g1, g2 = _subset_action(n, m)
    index = {s: i for i, s in enumerate(subsets)}
    edges = tuple(
        (index[a], index[b])
        for a, b in itertools.combinations(subsets, 2)
        if not set(a) & set(b)
    )
    return CaseSpec(
        name=f"kneser-{n}-{m}",
        degree=len(subsets),
        generators=(g1, g2),
        stabilize_point=0,
        edges=edges,
    )


def _johnson(n: int, m: int) -> CaseSpec:
    subsets, g1, g2 = _subset_action(n, m)
    index = {s: i for i, s in enumerate(subsets)}
    edges = tuple(
        (index[a], index[b])
        for a, b in itertools.combinations(subsets, 2)
        if len(set(a) & set(b)) == m - 1
    )
    return CaseSpec(
        name=f"johnson-{n}-{m}",
        degree=len(subsets),
        generators=(g1, g2),
        stabilize_point=0,
        edges=edges,
    )


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
