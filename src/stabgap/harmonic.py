"""Convolution of group functions with vertex functions.

A group function is a finitely supported real function on permutations;
convolving it with a vertex function v gives the vertex function
x -> sum_g mu(g) v(g^-1(x)), evaluated by direct summation over the
support, held as rows of images like every element set of the group
layer.  This module also supplies the standard distributions (point
mass, uniform, indicator of a set, uniform on a set) and randomized
checks that the convolution operator agrees with the bipartite matrix
and satisfies the shift/centering/scaling norm identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (
    ConnectionSet, _Elements, _image_rows, _permutations, _sorted_distinct,
)
from .perms import Permutation
from .spectral import BipartiteAdjacency


class GroupFunction:
    """A real function on permutations with finite, distinct support.

    The support, given as ``Permutation`` objects or as image rows, is
    held as read-only ``rows`` in the order given (the order fixes the
    float sums); ``perms`` builds it as ``Permutation`` objects.
    """

    __slots__ = ("degree", "rows", "weights", "_inverse_rows")

    def __init__(self, perms: _Elements, weights):
        rows = _image_rows(perms)
        if not len(rows):
            raise ValueError("support must be nonempty")
        if len(_sorted_distinct(rows)) != len(rows):
            raise ValueError("support permutations must be distinct")
        self._fill(rows, weights)

    @classmethod
    def _trusted(cls, rows: np.ndarray, weights) -> GroupFunction:
        """A group function on rows known to be distinct permutations."""
        mu = object.__new__(cls)
        mu._fill(rows, weights)
        return mu

    def _fill(self, rows: np.ndarray, weights) -> None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(rows),):
            raise ValueError(
                f"expected {len(rows)} weights, got shape {w.shape}"
            )
        rows.setflags(write=False)
        self.degree = rows.shape[1]
        self.rows = rows
        self.weights = w
        self.weights.setflags(write=False)
        # Row i holds the images of the inverse of support permutation i;
        # argsort of a permutation's image array is exactly its inverse
        # (kind="stable" is a radix sort on the small unsigned dtypes).
        self._inverse_rows = np.argsort(rows, axis=1, kind="stable")

    @property
    def perms(self) -> tuple[Permutation, ...]:
        return _permutations(self.rows)

    def mass(self) -> float:
        return float(self.weights.sum())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights**2)))

    def convolve(self, values) -> np.ndarray:
        """(mu * v)(x) = sum_g mu(g) v(g^-1(x)), summed over the support."""
        v = np.asarray(values, dtype=float)
        if v.shape != (self.degree,):
            raise ValueError(
                f"expected a vector of length {self.degree}, got shape {v.shape}"
            )
        return self.weights @ v[self._inverse_rows]


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


def _support(elements: _Elements) -> np.ndarray:
    """A connection set's rows as they are, else the distinct rows, sorted."""
    if isinstance(elements, ConnectionSet):
        rows = elements.rows
    else:
        rows = _sorted_distinct(_image_rows(elements))
    if not len(rows):
        raise ValueError("empty set")
    return rows


def indicator(elements: _Elements) -> GroupFunction:
    """The characteristic function of a set of permutations."""
    rows = _support(elements)
    return GroupFunction._trusted(rows, np.ones(len(rows)))


def uniform_on(elements: _Elements) -> GroupFunction:
    """The uniform probability distribution on a set of permutations;
    its norm is 1/sqrt(set size)."""
    rows = _support(elements)
    return GroupFunction._trusted(rows, np.full(len(rows), 1.0 / len(rows)))


def convolution_matches_matrix(
    connection,
    adjacency: BipartiteAdjacency,
    trials: int,
    rng: np.random.Generator,
    rel_tol: float = 1e-12,
) -> bool:
    """Check that convolving by the indicator of the connection set is
    exactly the linear map of the bipartite matrix.

    The matrix applies through its transpose (summing the matrix column
    at the output vertex), which coincides with the plain product by
    symmetry.  Integer inputs must match exactly; real inputs within
    rel_tol scaled to the operand magnitude.
    """
    chi = indicator(connection)
    transposed = adjacency.float_matrix.T
    n = adjacency.n
    for _ in range(trials):
        f = rng.integers(-9, 10, size=n).astype(float)
        if not np.array_equal(chi.convolve(f), transposed @ f):
            return False
    for _ in range(trials):
        f = rng.standard_normal(n)
        lhs = chi.convolve(f)
        rhs = transposed @ f
        scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
        if float(np.abs(lhs - rhs).max()) > rel_tol * scale:
            return False
    return True


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


def _scaled_gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def norm_identity_trials(
    n: int,
    group_elements: _Elements,
    trials: int,
    rng: np.random.Generator,
    tol: float = 1e-12,
    max_support: int = 24,
) -> NormIdentityReport:
    """Randomized check of the four norm identities, with the group-side
    distribution supported on random subsets of the supplied elements
    (``Permutation`` objects or image rows, such as ``element_array()``).

    Each identity is evaluated by two independent numerical routes and
    the deviation is scaled to the operand magnitudes.
    """
    rows = _image_rows(group_elements, n)
    if not len(rows):
        raise ValueError("need at least one group element")
    if len(_sorted_distinct(rows)) != len(rows):
        raise ValueError("group elements must be distinct")
    uniform = uniform_distribution(n)
    dev_shift = dev_center = dev_conv = dev_scale = 0.0
    for _ in range(trials):
        f = rng.standard_normal(n)
        f -= f.mean()
        p = rng.random(n) + 1e-9
        p /= p.sum()
        c = abs(float(rng.standard_normal()))

        lhs = float(np.sum((f + uniform) ** 2))
        rhs = float(np.sum(f**2)) + 1.0 / n
        dev_shift = max(dev_shift, _scaled_gap(lhs, rhs))

        lhs = float(np.sum((p - uniform) ** 2))
        rhs = float(np.sum(p**2)) - 1.0 / n
        dev_center = max(dev_center, _scaled_gap(lhs, rhs))

        size = int(rng.integers(1, min(len(rows), max_support) + 1))
        chosen = rng.choice(len(rows), size=size, replace=False)
        weights = rng.random(size) + 1e-9
        weights /= weights.sum()
        q = GroupFunction._trusted(rows[chosen], weights)
        qp = q.convolve(p)
        for sign in (1.0, -1.0):
            lhs = float(np.linalg.norm(q.convolve(p + sign * uniform)))
            rhs = float(np.linalg.norm(qp + sign * uniform))
            dev_conv = max(dev_conv, _scaled_gap(lhs, rhs))

        lhs = float(np.linalg.norm(c * p))
        rhs = c * float(np.linalg.norm(p))
        dev_scale = max(dev_scale, _scaled_gap(lhs, rhs))
    return NormIdentityReport(
        trials=trials,
        max_shift_deviation=dev_shift,
        max_centering_deviation=dev_center,
        max_convolution_deviation=dev_conv,
        max_scaling_deviation=dev_scale,
        tol=tol,
    )
