"""Checks of the convolution identities behind the chain.

Convolving a vertex function v by a function mu on the group gives
x -> sum_g mu(g) v(g^-1(x)).  ``convolution_matches_matrix`` checks eq2
exactly: convolution by the indicator of the connection set, the set's
own operator ``ConnectionSet.operator``, is the linear map of the
bipartite matrix, cell for cell.  ``norm_identity_trials`` checks lemma
4's norm identities exactly: the convolution identity holds for every
distribution on the group because each element acts on V as a
bijection, so the elements of random supports, drawn as indices into the
group's elements in chain order, are checked to be bijections: each
distinct drawn element's row is formed once from the stabilizer chain
(``PermutationGroup._element_rows``) and checked by one ``bincount`` per
block of rows, and a bad one counts as often as it was drawn; the shift,
centering and scaling identities do not read the group and are decided
once each in integers.
``point_mass`` and ``uniform_distribution`` are the vertex-side
distributions the chain reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .groups import (
    DEFAULT_ELEMENT_CAP,
    ConnectionSet,
    PermutationGroup,
    _Elements,
    _image_rows,
    _sorted_distinct,
)
from .spectral import BipartiteAdjacency

#: Most support elements of a norm-identity trial's group-side distribution.
MAX_SUPPORT = 24


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
    element in q's support is a bijection of V: ``trials`` random
    supports drew ``rows_checked`` elements, counted with multiplicity,
    and ``non_bijective_rows`` of those draws are elements whose row
    misses some point.  Each distinct element drawn is formed and checked
    once, as whether it is a bijection does not depend on the draw.  The
    shift, centering and scaling identities do not read the group; each
    is decided once, exactly (``shift_ok``, ``centering_ok``,
    ``scaling_ok``)."""

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


#: Bytes of one block's largest working set: the random keys that pick
#: its supports and their ranks, or the support rows' offset images and
#: hit counts.  The number of trials per block, and of rows per checked
#: block, follow from it.
_BLOCK_BYTES = 1 << 20

#: Bytes of the random keys and their ranks held at once while
#: ``_random_supports`` ranks a block's keys, a chunk of rows at a time.
_KEY_CHUNK_BYTES = 1 << 17


def _draws_by_keys(count: int, m: int) -> bool:
    """Whether ``_random_supports`` picks m of count indices by random
    keys.  Above m * m, a draw with replacement repeats no index with
    probability above exp(-1/2), so redrawing rows with repeats is cheap."""
    return count <= m * m


def _random_supports(
    rng: np.random.Generator, count: int, trials: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """One random support in range(count) per trial: a row of m distinct
    indices and a size drawn from 1..m, the support being the row's first
    ``size`` indices.

    The indices of a row come in random order, so its first ``size`` are
    a uniform sample.  They are the m smallest of count random keys, in
    key order, read off an ``argsort`` of the keys of a chunk of rows at a
    time, or, for a large count, a draw with replacement in which any row
    with a repeated index is drawn again.
    """
    sizes = rng.integers(1, m + 1, size=trials)
    if _draws_by_keys(count, m):
        # The keys are drawn and ranked a chunk of rows at a time, into the
        # m columns kept: the same stream as one (trials, count) draw.
        chosen = np.empty((trials, m), dtype=np.intp)
        step = max(1, _KEY_CHUNK_BYTES // (16 * count))
        for a in range(0, trials, step):
            keys = rng.random((min(step, trials - a), count))
            chosen[a : a + step] = np.argsort(keys, axis=1)[:, :m]
    else:
        chosen = rng.integers(count, size=(trials, m))
        # Only rows just redrawn can hold a repeat.
        redraw = np.arange(trials)
        while True:
            ordered = np.sort(chosen[redraw], axis=1)
            redraw = redraw[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]
            if not len(redraw):
                break
            chosen[redraw] = rng.integers(count, size=(len(redraw), m))
    return chosen, sizes


def _non_bijective(rows: np.ndarray, n: int) -> np.ndarray:
    """Which rows of images miss some point of range(n), found by one
    ``bincount`` that gives each row a stretch of n + 1 counters: an
    image past n - 1 lands on the last, so it leaves a point unhit."""
    width = n + 1
    flat = rows.astype(np.intp)
    np.minimum(flat, n, out=flat)
    flat += np.arange(0, len(rows) * width, width)[:, None]
    hits = np.bincount(flat.ravel(), minlength=len(rows) * width)
    return (hits.reshape(len(rows), width)[:, :n] != 1).any(axis=1)


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
    rng: np.random.Generator,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> NormIdentityReport:
    """Exact check of lemma 4's four norm identities.  The group-side
    distributions' supports are drawn at random from the supplied
    elements: ``Permutation`` objects or image rows, which are checked,
    or a group of order at most ``element_cap`` (SizeLimitError
    otherwise).  A group's elements are indexed as in its
    ``element_array()``, and only the drawn ones are formed, by
    ``_element_rows``: a group with more elements than a block of rows
    is not listed.

    The trials are drawn in blocks, as many per block as fit
    ``_BLOCK_BYTES``.  A trial's support has between 1 and
    ``m = min(|G|, MAX_SUPPORT)`` distinct elements, the first ``size``
    of a row of m drawn indices (``_random_supports``).  The support
    indices of all blocks are kept, in the smallest unsigned type that
    holds |G| - 1, and one ``np.unique`` counts how often each was drawn.
    Only the distinct drawn elements' rows are formed, in blocks of about
    half the rows a block of trials draws, and one ``bincount`` per
    block (``_non_bijective``) checks in integers that each of them hits
    every point of V once, which is exactly what the convolution identity
    needs of them (q * u = u).  A row that fails counts once per draw of
    its element, so the report is the one a check of every drawn row
    would give.  The other three identities do not read the group and are
    decided once each (``_group_free_identities``).
    """
    if isinstance(group_elements, PermutationGroup):
        if group_elements.degree != n:
            raise ValueError(f"degree mismatch: {group_elements.degree} vs {n}")
        group_elements._check_order(element_cap)
        count = group_elements.order()
        element_rows = group_elements._element_rows
    else:
        rows = _image_rows(group_elements, n)
        if not len(rows):
            raise ValueError("need at least one group element")
        if len(_sorted_distinct(rows)) != len(rows):
            raise ValueError("group elements must be distinct")
        count = len(rows)
        element_rows = partial(rows.take, axis=0)
    m = min(count, MAX_SUPPORT)
    # Per trial: at most m rows of n offset images and n hit counts, or
    # |G| random keys and their ranks where ``_random_supports`` draws by
    # keys; 8 bytes each.
    keys = count if _draws_by_keys(count, m) else 0
    per_trial = 16 * max(m * n, keys)
    block = max(1, _BLOCK_BYTES // per_trial)
    # Whether a row is a bijection depends only on the element drawn, so
    # each distinct index is formed and checked once and counted as often
    # as it was drawn.  The draws are held in one array, allocated before
    # the blocks, of the smallest unsigned type that holds |G| - 1.
    drawn = np.empty(trials * m, np.min_scalar_type(count - 1))
    filled = 0
    for done in range(0, trials, block):
        chosen, sizes = _random_supports(rng, count, min(block, trials - done), m)
        picked = chosen[np.arange(m) < sizes[:, None]]
        drawn[filled : filled + len(picked)] = picked
        filled += len(picked)
    distinct, times = np.unique(drawn[:filled], return_counts=True)
    del drawn
    # Per row: an intp index of n images that composes it, then n offset
    # images and n + 1 hit counts, 8 bytes each.  A block of trials draws
    # about _BLOCK_BYTES // (32 * n) rows, (m + 1)/2 per trial; a row
    # block takes half as many.
    step = max(1, _BLOCK_BYTES // (64 * n))
    non_bijective = 0
    for start in range(0, len(distinct), step):
        index = distinct[start : start + step].astype(np.intp)
        bad = _non_bijective(element_rows(index), n)
        non_bijective += int(times[start : start + step][bad].sum())
    return NormIdentityReport(
        trials, filled, non_bijective, *_group_free_identities(n)
    )
