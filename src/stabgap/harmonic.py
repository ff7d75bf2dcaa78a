"""Randomized checks of the convolution identities behind the chain.

Convolving a vertex function v by a function mu on the group gives
x -> sum_g mu(g) v(g^-1(x)).  ``convolution_matches_matrix`` checks eq2:
convolution by the indicator of the connection set, the set's own
operator ``ConnectionSet.operator``, is the linear map of the bipartite
matrix.  ``norm_identity_trials`` checks lemma 4's shift, centering,
convolution and scaling identities on random distributions, whose
group-side supports are drawn as indices into the group's elements in
chain order, formed as rows from its stabilizer chain
(``PermutationGroup._element_rows``), and convolved by one scatter per
block of trials; each block's deviations are scaled in one stacked
pass.  ``point_mass`` and
``uniform_distribution`` are the vertex-side distributions the chain
reads.
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

#: Relative tolerance of eq2's real probes, scaled to their magnitude.
MATRIX_REL_TOL = 1e-12

#: Largest deviation the norm-identity trials accept (``NormIdentityReport.tol``).
NORM_IDENTITY_TOL = 1e-12

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
    trials: int,
    rng: np.random.Generator,
) -> bool:
    """Check that convolving by the indicator of the connection set is
    exactly the linear map of the bipartite matrix.

    The two sides are two routes to one matrix.  The indicator's operator
    K (``ConnectionSet.operator``) sums over every element of the set,
    while ``spectral.build_bipartite`` assembles the matrix from the
    subgroup's orbit counts and the set's ``cosets`` alone, so a wrong
    orbit labelling or multiplicity shows here, and so do rows that
    disagree with the cosets.  K is built once and applied to ``trials``
    integer probes and ``trials`` real probes, each set drawn as one block
    with the rows in the order of one-at-a-time draws.  The matrix applies
    through its transpose (probe rows times the matrix), which coincides
    with the plain product by symmetry.  Integer probes must match
    exactly; each real probe within ``MATRIX_REL_TOL`` scaled to its
    operands' magnitude.  Both blocks are drawn whatever the verdict, so
    the generator's state afterwards does not depend on it.
    """
    n = adjacency.n
    if connection.degree != n:
        raise ValueError(
            f"connection degree {connection.degree} does not match matrix size {n}"
        )
    integer = rng.integers(-9, 10, size=(trials, n)).astype(float)
    real = rng.standard_normal((trials, n))
    if not trials:
        return True
    kernel_t = connection.operator().T
    matrix = adjacency.float_matrix
    if not np.array_equal(integer @ kernel_t, integer @ matrix):
        return False
    lhs = real @ kernel_t
    rhs = real @ matrix
    scale = np.maximum(
        1.0, np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1))
    )
    return bool((np.abs(lhs - rhs).max(axis=1) <= MATRIX_REL_TOL * scale).all())


@dataclass(frozen=True)
class NormIdentityReport:
    """Worst scaled deviations seen over randomized norm-identity trials:
    shifting a zero-sum function by the uniform distribution, centering a
    distribution, convolving against a shifted distribution, and scaling."""

    trials: int
    max_shift_deviation: float
    max_centering_deviation: float
    max_convolution_deviation: float
    max_scaling_deviation: float
    tol: float

    @property
    def max_deviation(self) -> float:
        return max(
            self.max_shift_deviation,
            self.max_centering_deviation,
            self.max_convolution_deviation,
            self.max_scaling_deviation,
        )

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tol


#: Bytes of one block's largest working set: the scatter indices and
#: values of its convolutions, or the random keys that pick its supports
#: and their ranks.  The number of trials per block follows from it, so
#: memory does not grow with the trial count or the group order.
_BLOCK_BYTES = 1 << 20


def _sums_of_squares(x: np.ndarray) -> np.ndarray:
    """The sum of squares of each row of a real 2-D array, summed as
    ``np.sum(x**2, axis=1)`` and ``np.linalg.norm`` sum it."""
    return np.add.reduce(x * x, axis=1)


def _draws_by_keys(count: int, m: int) -> bool:
    """Whether ``_random_supports`` picks m of count indices by random
    keys.  Above m * m, a draw with replacement repeats no index with
    probability above exp(-1/2), so redrawing rows with repeats is cheap."""
    return count <= m * m


def _random_supports(
    rng: np.random.Generator, count: int, trials: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """One random distribution on range(count) per trial: a row of m
    distinct indices and a row of weights summing to 1 that are positive
    on the first ``size`` indices and zero past them, for a size drawn
    from 1..m.

    The indices of a row come in random order, so its first ``size`` are
    a uniform sample.  They are the m smallest of count random keys, in
    key order, read off one ``argsort`` of each row's keys, or, for a
    large count, a draw with replacement in which any row with a repeated
    index is drawn again.
    """
    sizes = rng.integers(1, m + 1, size=trials)
    if _draws_by_keys(count, m):
        keys = rng.random((trials, count))
        # The copy lets the (trials, count) ranks go at once.
        chosen = np.argsort(keys, axis=1)[:, :m].copy()
    else:
        chosen = rng.integers(count, size=(trials, m))
        while True:
            ordered = np.sort(chosen, axis=1)
            repeated = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
            if not len(repeated):
                break
            chosen[repeated] = rng.integers(count, size=(len(repeated), m))
    weights = rng.random((trials, m)) + 1e-9
    weights[np.arange(m) >= sizes[:, None]] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    return chosen, weights


def norm_identity_trials(
    n: int,
    group_elements: _Elements | PermutationGroup,
    trials: int,
    rng: np.random.Generator,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> NormIdentityReport:
    """Randomized check of the four norm identities, with the group-side
    distribution supported on random subsets of the supplied elements:
    ``Permutation`` objects or image rows, which are checked, or a group
    of order at most ``element_cap`` (SizeLimitError otherwise).  A
    group's elements are indexed as in its ``element_array()``, and only
    the drawn ones are formed, by ``_element_rows``: a group with more
    elements than a block draws is not listed.

    Each identity is evaluated by two independent numerical routes and
    the deviation is scaled to the operand magnitudes.  The trials are
    drawn and checked in blocks of whole arrays, as many trials per block
    as fit ``_BLOCK_BYTES``.  A block's five (lhs, rhs) row pairs (shift,
    centering, convolution against +uniform and against -uniform,
    scaling) are stacked, their gaps scaled in one pass, and a running
    maximum kept per identity; the centering identity shares Σp² with
    scaling and p - uniform with the -uniform convolution.  A trial's
    group-side distribution has between 1 and min(|G|, MAX_SUPPORT)
    distinct support elements, held as one row of
    ``m = min(|G|, MAX_SUPPORT)`` indices whose weights are zero past the
    support size; convolving by it scatters each weighted value v(y) to
    g(y), which is (q * v)(x) = sum_g q(g) v(g^-1(x)), for the drawn
    support elements only.
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
    uniform = uniform_distribution(n)
    m = min(count, MAX_SUPPORT)
    # Per trial: at most m * n scatter indices and values, or |G| random
    # keys and their ranks where ``_random_supports`` draws by keys; 8
    # bytes each.
    keys = count if _draws_by_keys(count, m) else 0
    per_trial = 16 * max(m * n, keys)
    block = max(1, _BLOCK_BYTES // per_trial)
    worst = np.zeros(5)
    for done in range(0, trials, block):
        b = min(block, trials - done)
        f = rng.standard_normal((b, n))
        f -= np.add.reduce(f, axis=1, keepdims=True) / n
        p = rng.random((b, n)) + 1e-9
        p /= np.add.reduce(p, axis=1, keepdims=True)
        c = np.abs(rng.standard_normal(b))
        chosen, weights = _random_supports(rng, count, b, m)
        # The drawn support entries, as flat positions into the (b, m)
        # weights, row-major: the zero weights past each support size
        # would only add +-0.0 to the sums.
        flat = np.flatnonzero(weights)
        trial = flat // m
        drawn = weights.take(flat)[:, None]
        # Trial t's image of y under each of its support elements, offset
        # into trial t's own stretch of the flattened (b, n) output.
        images = element_rows(chosen.take(flat))
        targets = (images + (n * trial)[:, None]).ravel()

        def convolve(v: np.ndarray) -> np.ndarray:
            spread = v.take(trial, axis=0)
            spread *= drawn
            return np.bincount(targets, spread.ravel(), minlength=b * n).reshape(b, n)

        p_squares = _sums_of_squares(p)
        centered = p - uniform
        qp = convolve(p)
        # One row per identity: shift, centering, convolution against
        # +uniform and against -uniform, scaling.
        lhs = np.stack([
            _sums_of_squares(f + uniform),
            _sums_of_squares(centered),
            np.sqrt(_sums_of_squares(convolve(p + uniform))),
            np.sqrt(_sums_of_squares(convolve(centered))),
            np.sqrt(_sums_of_squares(c[:, None] * p)),
        ])
        rhs = np.stack([
            _sums_of_squares(f) + 1.0 / n,
            p_squares - 1.0 / n,
            np.sqrt(_sums_of_squares(qp + uniform)),
            np.sqrt(_sums_of_squares(qp - uniform)),
            c * np.sqrt(p_squares),
        ])
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        gaps = np.abs(lhs - rhs) / scale
        np.maximum(worst, gaps.max(axis=1), out=worst)
    return NormIdentityReport(
        trials=trials,
        max_shift_deviation=float(worst[0]),
        max_centering_deviation=float(worst[1]),
        max_convolution_deviation=float(worst[2:4].max()),
        max_scaling_deviation=float(worst[4]),
        tol=NORM_IDENTITY_TOL,
    )
