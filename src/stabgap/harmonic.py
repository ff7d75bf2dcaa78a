"""Checks of the convolution identities behind the chain.

Convolving a vertex function v by a function mu on the group gives
x -> sum_g mu(g) v(g^-1(x)).  ``convolution_matches_matrix`` checks eq2
exactly: convolution by the indicator of the connection set, the set's
own operator ``ConnectionSet.operator``, is the linear map of the
bipartite matrix, cell for cell.  ``norm_identity_trials`` checks lemma
4's norm identities exactly: the convolution identity holds for every
distribution on the group because each element acts on V as a
bijection, and every element is a product of one transversal row per
level of the stabilizer chain, so checking those rows, by one
``bincount``, certifies the whole group.  This reads no random numbers
and forms no element, so a fault in composing the rows into elements
(``groups._chain_products``) is not seen here; eq2 sees it wherever the
subgroup's element rows feed K.  The shift, centering and scaling
identities do not read the group and are decided once each in integers.
``point_mass`` and ``uniform_distribution`` are the vertex-side
distributions the chain reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    ConnectionSet,
    PermutationGroup,
    _Elements,
    _image_rows,
    _sorted_distinct,
)
from .spectral import BipartiteAdjacency


def point_mass(vertex: int, n: int) -> np.ndarray:
    if not 0 <= vertex < n:
        raise ValueError(f"vertex {vertex} out of range for length {n}")
    out = np.zeros(n)
    out[vertex] = 1.0
    return out


def uniform_distribution(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("length must be positive")
    return np.full(n, 1.0 / n)


def convolution_matches_matrix(
    connection: ConnectionSet,
    adjacency: BipartiteAdjacency,
    trials: int | None = None,
    rng: np.random.Generator | None = None,
) -> bool:
    """Check that convolving by the indicator of the connection set is
    exactly the linear map of the bipartite matrix: the set's operator K
    (``ConnectionSet.operator``) equals the matrix in every cell.

    The two sides are two routes to one matrix.  K counts every element
    of the set, u_w*h for each coset row u_w and each of the subgroup's
    element rows h, while ``spectral.build_bipartite`` assembles the
    matrix from the subgroup's orbits and order and the coset rows, with
    no element of the subgroup read.  So a wrong orbit labelling or
    multiplicity shows here, and so do element rows that disagree with
    the subgroup's orbits.  Both hold integer counts, so one exact
    comparison decides the identity for every vector, and K is dropped
    when it returns.  ``trials`` and ``rng`` are read by nothing: they
    remain only for ``perfbench/mirror.py``, which still passes them,
    until the mirror is retired (ROADMAP item 5b).
    """
    n = adjacency.n
    if connection.degree != n:
        raise ValueError(
            f"connection degree {connection.degree} does not match matrix size {n}"
        )
    return bool(np.array_equal(connection.operator(), adjacency.float_matrix))


@dataclass(frozen=True)
class NormIdentityReport:
    """Lemma 4's sub-checks.  The convolution identity
    ||q * (p +- u)|| = ||q * p +- u|| reads the group only through
    q * u = u, which holds for every distribution q exactly when every
    element of the group is a bijection of V: ``rows_checked`` rows were
    checked (the chain's transversal rows for a group, every row given
    otherwise), and ``non_bijective_rows`` of them miss some point.
    ``trials`` is the trial count asked for, only recorded (the
    benchmark's traced runs sum it).  The shift, centering and scaling
    identities do not read the group; each is decided once, exactly
    (``shift_ok``, ``centering_ok``, ``scaling_ok``)."""

    trials: int
    rows_checked: int
    non_bijective_rows: int
    shift_ok: bool
    centering_ok: bool
    scaling_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.non_bijective_rows == 0
            and self.shift_ok
            and self.centering_ok
            and self.scaling_ok
        )


def _non_bijective(rows: np.ndarray, n: int) -> np.ndarray:
    """Which rows of images miss some point of range(n), found by one
    ``bincount`` that gives each row a stretch of n + 1 counters: an
    image past n - 1 lands on the last, so it leaves a point unhit."""
    width = n + 1
    flat = rows.astype(np.intp)
    np.minimum(flat, n, out=flat)
    flat += np.arange(0, len(rows) * width, width)[:, None]
    hits = np.bincount(flat.ravel(), minlength=len(rows) * width)
    # Compared while contiguous, then sliced: a compare of the strided
    # slice would run through NumPy's buffered iterator.
    return (hits != 1).reshape(len(rows), width)[:, :n].any(axis=1)


def _group_free_identities(n: int) -> tuple[bool, bool, bool]:
    """The shift ||f + u||^2 = ||f||^2 + 1/n for a zero-sum f, the
    centering ||p - u||^2 = ||p||^2 - 1/n for a distribution p, and the
    scaling ||c p|| = c ||p||, each decided exactly on one instance in
    Python ints: p(x) = (x + 1) / W with W = n(n + 1)/2, f = p - u and
    c = n.  Scaled by n * W, p is n(x + 1), u is W at every point and
    1/n = ||u||^2 is n * W^2."""
    w = n * (n + 1) // 2
    p = [n * (x + 1) for x in range(n)]
    f = [px - w for px in p]

    def squares(v: list[int]) -> int:
        return sum(x * x for x in v)

    return (
        squares([fx + w for fx in f]) == squares(f) + n * w * w,
        squares([px - w for px in p]) == squares(p) - n * w * w,
        squares([n * px for px in p]) == n * n * squares(p),
    )


def norm_identity_trials(
    n: int,
    group_elements: _Elements | PermutationGroup,
    trials: int,
    rng: np.random.Generator | None = None,
) -> NormIdentityReport:
    """Exact check of lemma 4's four norm identities.  The convolution
    identity holds for every distribution on the group exactly when every
    element acts on V as a bijection (q * u = u), and one ``bincount``
    (``_non_bijective``) checks that in integers for each row checked.

    Given a group, the rows checked are the transversal rows of every
    level of its stabilizer chain, sum |Delta_i| of them, or the identity
    for a chain of no levels.  Every element is a product u_0 * u_1 * ...
    of one row per level (``element_array``'s numbering), and a product of
    bijections is a bijection, so this certifies all of G; no element is
    formed and G is not listed.  Given ``Permutation`` objects or image
    rows, they must be distinct, of degree n, and every one is checked.

    ``trials`` is only recorded in the report, and a negative one raises
    ValueError; ``rng`` is read by nothing.  Both remain for
    ``perfbench/mirror.py`` until the mirror is retired (ROADMAP item
    5b).  The other three identities do not read the group and are
    decided once each (``_group_free_identities``).
    """
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")
    if isinstance(group_elements, PermutationGroup):
        if group_elements.degree != n:
            raise ValueError(f"degree mismatch: {group_elements.degree} vs {n}")
        chain = group_elements._stabilizer_chain()
        rows = np.vstack([level.reps for level in chain] or [np.arange(n)[None, :]])
    else:
        rows = _image_rows(group_elements, n)
        if not len(rows):
            raise ValueError("need at least one group element")
        if len(_sorted_distinct(rows)) != len(rows):
            raise ValueError("group elements must be distinct")
    bad = int(np.count_nonzero(_non_bijective(rows, n)))
    return NormIdentityReport(trials, len(rows), bad, *_group_free_identities(n))
