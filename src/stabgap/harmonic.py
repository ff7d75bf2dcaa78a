"""Checks of the convolution identities behind the chain.

Convolving a vertex function v by a function mu on the group gives
x -> sum_g mu(g) v(g^-1(x)).  ``convolution_matches_matrix`` checks eq2
exactly: convolution by the indicator of the connection set, the set's
own operator ``ConnectionSet.operator``, is the linear map of the
bipartite matrix, cell for cell.  ``norm_identity_trials`` checks lemma
4's norm identities exactly: the convolution identity holds for every
distribution on the group because each element acts on V as a
bijection, so the elements of random supports, drawn as indices into the
group's elements in chain order, are checked to be bijections: the
drawn indices are counted by one sort, each distinct drawn element's
row is formed once from the stabilizer chain
(``PermutationGroup._element_rows``) and checked by one ``bincount`` per
block of rows, and a bad one counts as often as it was drawn.  A group
no larger than the trials, when they fit one block, is checked whole
instead, and if every element is a bijection only the supports' sizes
are drawn.  The shift, centering and scaling identities do not read the
group and are decided once each in integers.
``point_mass`` and ``uniform_distribution`` are the vertex-side
distributions the chain reads.
"""

from __future__ import annotations

from collections.abc import Callable
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
    once, as whether it is a bijection does not depend on the draw; on a
    group no larger than the trials every element is, and when none is
    bad ``rows_checked`` is the sum of the drawn support sizes.  The
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


#: Bytes of one block's working set: a block of trials' sizes, drawn
#: indices and their copies (``_drawn_counts``), or a block of support
#: rows' offset images and hit counts.  The number of trials per block,
#: and of rows per checked block, follow from it.
_BLOCK_BYTES = 1 << 20

#: Bytes of the random keys and their ranks held at once while
#: ``_random_supports`` ranks a block's keys, a chunk of rows at a time.
_KEY_CHUNK_BYTES = 1 << 17


def _draws_by_keys(count: int, m: int) -> bool:
    """Whether ``_random_supports`` picks m of count indices by random
    keys.  Above m * m, a draw with replacement repeats no index with
    probability above exp(-1/2), so redrawing rows with repeats is cheap."""
    return count <= m * m


def _trials_per_block(m: int) -> int:
    """Trials drawn per block at support size m: as many as fit
    ``_BLOCK_BYTES`` at 8 + 33 m bytes a trial (``_drawn_counts``)."""
    return max(1, _BLOCK_BYTES // (8 + 33 * m))


def _support_sizes(rng: np.random.Generator, trials: int, m: int) -> np.ndarray:
    """Each trial's support size, drawn from 1..m: the first draw of a
    block of ``_random_supports``."""
    return rng.integers(1, m + 1, size=trials)


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
    sizes = _support_sizes(rng, trials, m)
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
        redraw, ordered = np.arange(trials), np.sort(chosen, axis=1)
        while True:
            # Neighbours compared in one flat pass, each row's last cell
            # then cleared: it met the next row's first.
            same = np.empty(ordered.shape, dtype=bool)
            flat = ordered.reshape(-1)
            np.equal(flat[1:], flat[:-1], out=same.reshape(-1)[:-1])
            same[:, -1] = False
            redraw = redraw[same.any(axis=1)]
            if not len(redraw):
                break
            chosen[redraw] = rng.integers(count, size=(len(redraw), m))
            ordered = np.sort(chosen[redraw], axis=1)
    return chosen, sizes


def _drawn_counts(
    rng: np.random.Generator, count: int, trials: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct index that the supports of ``trials`` random trials
    in range(count) draw (``_random_supports``), ascending, and how often
    it was drawn.

    The trials are drawn in blocks, as many per block as fit
    ``_BLOCK_BYTES`` at 8 + 33 m bytes a trial, which bounds what a block
    holds: a trial's size, its m drawn indices, the with-replacement
    branch's sorted copy and the copy it sorts, and its picked indices,
    at most 8 bytes each, and its m-cell mask.  A block keeps only its
    picked indices, in at least 16 bits, and one in-place sort of all of
    them puts each index's draws in one run.
    """
    block = _trials_per_block(m)
    dtype = np.promote_types(np.min_scalar_type(count - 1), np.uint16)
    parts = [
        _picked_indices(rng, count, min(block, trials - done), m, dtype)
        for done in range(0, trials, block)
    ] or [np.empty(0, dtype)]
    drawn = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts
    # On 16-bit keys NumPy's stable sort is a radix sort; on wider ones it
    # is a timsort, many times slower than the default.
    drawn.sort(kind="stable" if drawn.itemsize == 2 else None)
    # A run starts where the index changes; the end closes the last run.
    edge = np.empty(len(drawn) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(drawn[1:], drawn[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    return drawn[bounds[:-1]], np.diff(bounds)


def _picked_indices(
    rng: np.random.Generator, count: int, trials: int, m: int, dtype: np.dtype
) -> np.ndarray:
    """The indices of one block of ``trials`` random supports, trial by
    trial, in ``dtype``; the block's draws are freed on return."""
    chosen, sizes = _random_supports(rng, count, trials, m)
    return chosen.astype(dtype)[np.arange(m) < sizes[:, None]]


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


def _non_bijective_elements(
    element_rows: Callable[[np.ndarray], np.ndarray], index: np.ndarray, n: int
) -> np.ndarray:
    """Which of the elements at ``index`` miss some point of range(n),
    their rows formed by ``element_rows`` and checked (``_non_bijective``)
    a block at a time."""
    # Per row: an intp index of n images that composes it, then n offset
    # images and n + 1 hit counts, 8 bytes each, so a block of rows holds
    # about half of _BLOCK_BYTES.
    step = max(1, _BLOCK_BYTES // (64 * n))
    bad = np.empty(len(index), dtype=bool)
    for start in range(0, len(index), step):
        block = index[start : start + step].astype(np.intp)
        bad[start : start + step] = _non_bijective(element_rows(block), n)
    return bad


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
    is not listed.  A negative ``trials`` raises ValueError.

    A trial's support has between 1 and ``m = min(|G|, MAX_SUPPORT)``
    distinct elements, the first ``size`` of a row of m drawn indices
    (``_random_supports``).  The trials are drawn in blocks that fit
    ``_BLOCK_BYTES`` (1310 trials at m = 24), and ``_drawn_counts``
    counts how often each index was drawn by one sort of all the support
    indices, held in at least 16 bits.  Only the distinct drawn elements'
    rows are formed, in blocks of about half ``_BLOCK_BYTES``, and one
    ``bincount`` per block (``_non_bijective``) checks in integers that
    each of them hits every point of V once, which is exactly what the
    convolution identity needs of them (q * u = u).  A row that fails
    counts once per draw of its element, so the report is the one a
    check of every drawn row would give.

    When |G| <= trials <= one block, every element's row is formed and
    checked instead: each trial draws at least one element, so this forms
    no more rows than the draws would.  If none is bad, only the sizes
    are drawn (``_support_sizes``, the first draw of ``_random_supports``),
    and ``rows_checked`` is their sum.  If one is, the supports are drawn
    and counted as above, and the report and the random stream after it
    are the drawn path's to the bit.  Either way the report is the one the
    draws give; only the stream after a healthy small group moves.  The
    other three identities do not read the group and are decided once each
    (``_group_free_identities``).
    """
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")
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
    if count <= trials <= _trials_per_block(m):
        # Each trial draws at least one element, so checking all of G
        # forms no more rows than the draws would.
        bad = _non_bijective_elements(element_rows, np.arange(count), n)
        if not bad.any():
            sizes = _support_sizes(rng, trials, m)
            return NormIdentityReport(
                trials, int(sizes.sum()), 0, *_group_free_identities(n)
            )
        distinct, times = _drawn_counts(rng, count, trials, m)
        bad = bad[distinct]
    else:
        distinct, times = _drawn_counts(rng, count, trials, m)
        bad = _non_bijective_elements(element_rows, distinct, n)
    return NormIdentityReport(
        trials, int(times.sum()), int(times[bad].sum()), *_group_free_identities(n)
    )
