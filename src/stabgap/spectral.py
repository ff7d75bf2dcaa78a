"""The bipartite multigraph matrix and its singular values.

The matrix of the bipartite double of a connection set S counts, for
vertices x and y, the elements of S sending x to y; it is assembled from
the orbits of S's subgroup and the one row per left coset S carries
(``ConnectionSet.cosets``), not from S's rows.  S is inverse-closed, so
the matrix is symmetric, its singular values are the absolute values of
its eigenvalues, and one dense eigendecomposition (LAPACK's
``numpy.linalg.eigh``) gives every singular value and, in one family of
eigenvectors, both singular vector families; above ``RECONSTRUCTION_CAP``
vertices only the values are computed (``numpy.linalg.eigvalsh``).

``lambda2_bracket_ok`` certifies the second singular value by Sylvester's
law of inertia: two Cholesky factorizations show that every zero-sum
vector contracts by less than lambda2 (1 + delta) and that some zero-sum
vector does not contract by lambda2 (1 - delta).  It reads no random
numbers.  The deflated power iteration and the random zero-sum
contraction draws remain for the benchmark's traced copy of the
pipeline; the analysis calls neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SizeLimitError, StructureError
from .groups import ConnectionSet, _component_minima, _inverse_rows

#: Largest size the dense eigensolve accepts, and so the largest
#: ``max_vertices`` an analysis accepts.
DENSE_SIZE_CAP = 4000

#: Largest size whose eigenvectors ``singular_values`` computes, and so the
#: largest the reconstruction check reads.
RECONSTRUCTION_CAP = 200

#: Relative slack of the zero-sum contraction check ||A f|| <= lambda2 ||f||.
CONTRACTION_SLACK = 1e-9

#: Relative width of the bracket ``lambda2_bracket_ok`` puts around lambda2.
BRACKET_DELTA = 1e-9


class BipartiteAdjacency:
    """Symmetric nonnegative integer matrix with constant row sums.

    Row x, column y holds the number of connection elements mapping x to
    y.  Integer entries, symmetry (forced by inverse closure) and
    regularity of row and column sums are validated on construction, not
    trusted.  The matrix is held once, as the read-only float64
    ``float_matrix`` that every numerical routine applies; counts below
    2**53 are exact in it.  ``matrix`` converts it to int64 when read.
    """

    __slots__ = ("float_matrix", "s_size")

    def __init__(self, matrix, s_size: int | None = None):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.issubdtype(m.dtype, np.integer):
            raise ValueError("entries must be integers")
        m = m.astype(np.int64, copy=False)
        if (m < 0).any():
            raise StructureError("entries must be nonnegative")
        if (m != m.T).any():
            raise StructureError("matrix is not symmetric")
        row_sums = m.sum(axis=1)
        if row_sums.size and (row_sums != row_sums[0]).any():
            raise StructureError("row sums are not constant")
        degree = int(row_sums[0]) if row_sums.size else 0
        if s_size is not None and s_size != degree:
            raise StructureError(
                f"row sums {degree} differ from connection size {s_size}"
            )
        f = m.astype(float)
        f.setflags(write=False)
        self.float_matrix = f
        self.s_size = degree

    @property
    def matrix(self) -> np.ndarray:
        """The counts as a new int64 array."""
        return self.float_matrix.astype(np.int64)

    @property
    def n(self) -> int:
        return self.float_matrix.shape[0]

    def apply(self, values) -> np.ndarray:
        return self.float_matrix @ np.asarray(values, dtype=float)

    def dump(self) -> str:
        """Dense integer rows, space-separated, one row per line."""
        return "\n".join(" ".join(str(int(x)) for x in row) for row in self.matrix)

    def __repr__(self) -> str:
        return f"BipartiteAdjacency(n={self.n}, s_size={self.s_size})"


def build_bipartite(connection: ConnectionSet, n: int) -> BipartiteAdjacency:
    """Assemble the matrix from the subgroup's orbit counts.

    The connection set S is the union of k left cosets u_w*H of its
    subgroup H, whose rows u_w it holds as ``cosets``, and the h in H with
    h(x) = z number |H| / |x^H| when z is in x's H-orbit x^H, and none
    otherwise.  So the elements sending x to y number A[x, y] =
    sum_w [u_w^-1(y) in x^H] * |H| / |x^H|, for any H: an r x n matrix
    counting, for each of H's r orbits O and each y, the w with u_w^-1(y)
    in O (one ``bincount`` over k*n cells), whose rows are gathered into A
    and scaled.  Of S only the cosets and |S| are read, and H's orbits are
    component labels over its generator rows, numbered and counted
    without a sort.  No |S|*n array is formed.
    """
    if connection.degree != n:
        raise ValueError(
            f"connection degree {connection.degree} does not match size {n}"
        )
    subgroup = connection.subgroup
    order = subgroup.order()
    inverse = _inverse_rows(connection.cosets)
    label = _component_minima(n, subgroup._gen_rows)
    # H's orbits numbered in the order of their least points: a point's
    # orbit is the rank of its label among the labels x with label[x] = x.
    orbit = (np.cumsum(label == np.arange(n)) - 1)[label]
    size = np.bincount(orbit)
    # orbit(u_w^-1(y))*n + y, formed in int64 (``orbit`` is intp).
    cells = (orbit[inverse] * n + np.arange(n)).ravel()
    counts = np.bincount(cells, minlength=len(size) * n).reshape(-1, n)
    a = counts[orbit] * (order // size)[orbit, None]
    return BipartiteAdjacency(a, s_size=len(connection))


@dataclass(frozen=True)
class SpectralSummary:
    """The spectrum of the symmetric matrix, ordered by absolute value.

    ``eigenvalues`` are signed, in non-increasing order of absolute value
    (ties keep the solver's ascending order); ``values``, their absolute
    values, are the singular values.  Column i of ``vectors`` is a unit
    eigenvector of ``eigenvalues[i]``: it is the right singular vector of
    ``values[i]``, and its product with the eigenvalue's sign the left
    one, so one family serves both.  For repeated values the vectors are
    an arbitrary orthonormal completion; only spans and residuals are
    meaningful.  ``vectors`` is None when only the values were computed.
    """

    eigenvalues: np.ndarray
    values: np.ndarray
    vectors: np.ndarray | None

    @property
    def lambda1(self) -> float:
        return float(self.values[0]) if self.values.size else 0.0

    @property
    def lambda2(self) -> float:
        return float(self.values[1]) if self.values.size > 1 else 0.0


def singular_values(adjacency: BipartiteAdjacency) -> SpectralSummary:
    """Dense eigendecomposition of the (symmetric) matrix, ordered by
    absolute value: ``eigh`` up to ``RECONSTRUCTION_CAP`` vertices, and
    above it ``eigvalsh``, which computes no eigenvectors and takes about
    half the time.

    Sizes above ``DENSE_SIZE_CAP`` raise ``SizeLimitError``.  A LAPACK
    failure to converge raises ``numpy.linalg.LinAlgError``.
    """
    n = adjacency.n
    if n > DENSE_SIZE_CAP:
        raise SizeLimitError(
            f"size {n} exceeds dense eigensolve cap {DENSE_SIZE_CAP}"
        )
    if n > RECONSTRUCTION_CAP:
        w, vecs = np.linalg.eigvalsh(adjacency.float_matrix), None
    else:
        w, vecs = np.linalg.eigh(adjacency.float_matrix)
    order = np.argsort(-np.abs(w), kind="stable")
    eigenvalues = w[order]
    if vecs is not None:
        vecs = vecs[:, order]
    return SpectralSummary(eigenvalues, np.abs(eigenvalues), vecs)


def _power_iteration(
    adjacency: BipartiteAdjacency,
    x: np.ndarray,
    zero_sum: bool,
    tol: float,
    max_iter: int,
) -> float:
    """Power iteration on the squared matrix from the start vector x.

    Each step estimates the singular value as ``||A x||`` and moves x to
    ``A(A x)``, projected onto the zero-sum subspace when ``zero_sum``,
    normalized.  It stops when consecutive estimates agree within tol,
    or when the image vanishes.
    """
    # math.sqrt(v.dot(v)) and z.sum() / n are what np.linalg.norm and
    # z.mean() compute for a 1-D float64 vector, without their wrappers.
    a, n = adjacency.float_matrix, len(x)
    x = x / math.sqrt(x.dot(x))
    previous = None
    estimate = 0.0
    for _ in range(max_iter):
        y = a @ x
        estimate = math.sqrt(y.dot(y))
        z = a @ y
        if zero_sum:
            z -= z.sum() / n
        norm = math.sqrt(z.dot(z))
        if norm <= 1e-300:
            return estimate
        x = z / norm
        if previous is not None and abs(estimate - previous) <= tol * max(1.0, estimate):
            return estimate
        previous = estimate
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        last_estimate=estimate,
    )


def lambda1_power_iteration(
    adjacency: BipartiteAdjacency,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    seed: int = 0,
) -> float:
    """Top singular value by power iteration on the squared matrix.

    For these regular matrices the all-ones direction carries the top
    value, so the start vector is a random one shifted towards it and no
    deflation is needed."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(adjacency.n) + 1.0
    return _power_iteration(adjacency, x, False, tol, max_iter)


def lambda2_power_iteration(
    adjacency: BipartiteAdjacency,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    seed: int = 0,
) -> float:
    """Second singular value by power iteration on the squared matrix
    restricted to the zero-sum subspace.

    The all-ones vector is the top singular vector of a regular matrix,
    so projecting it out each step makes the iteration converge to the
    second singular value; the estimate sequence is non-decreasing.
    """
    n = adjacency.n
    if n == 1:
        return 0.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x -= x.mean()
    while float(np.linalg.norm(x)) < 1e-12:
        x = rng.standard_normal(n)
        x -= x.mean()
    return _power_iteration(adjacency, x, True, tol, max_iter)


def top_value_matches_degree(
    summary: SpectralSummary, adjacency: BipartiteAdjacency, rel_tol: float = 1e-9
) -> bool:
    """Check the regular-bipartite law: the top singular value equals
    t * sqrt(|X| |Y|) where t = (common row sum) / |Y|, i.e. the row sum
    itself here (|X| = |Y|)."""
    expected = adjacency.s_size
    return abs(summary.lambda1 - expected) <= rel_tol * max(1.0, expected)


def lambda2_bracket_ok(adjacency: BipartiteAdjacency, lambda2: float) -> bool:
    """Whether the second singular value lies strictly between
    lambda2 (1 - delta) and lambda2 (1 + delta), delta = ``BRACKET_DELTA``,
    decided for every zero-sum vector at once.

    A is symmetric with row sums |S|, so A^2 fixes the all-ones vector
    with value |S|^2 and M(t) = t^2 I - A^2 + (|S|^2 / n) J has the value
    t^2 there and t^2 - mu^2 on the zero-sum eigenvector of each other
    eigenvalue mu of A.  By Sylvester's law of inertia M(t) is positive
    definite, so its Cholesky factorization succeeds, exactly when every
    zero-sum f has ||A f|| < t ||f||.  The bracket holds when that
    succeeds at t = lambda2 (1 + delta) and fails at t = lambda2 (1 - delta).

    n M(t) = n t^2 I - n A^2 + |S|^2 J is factored.  Its entries, but for
    the diagonal n t^2 term, are integers of absolute value at most
    n |S|^2: exact in float64 while that is below 2**53, and
    ``SizeLimitError`` names the sizes where it is not.
    Every eigenvalue of n M(t) is at most n t^2 and, at either end, at
    least about 2 delta n t^2 away from zero, so the rounding of the
    diagonal and of the factorization cannot turn a verdict while
    n * machine epsilon stays far below delta.

    The second singular value is 0 exactly when n A = |S| J, which is
    decided in integers, and for n = 1 always; then the bracket holds
    when lambda2 is at most delta |S|, the solver's rounding of 0.
    """
    n, s, delta = adjacency.n, adjacency.s_size, BRACKET_DELTA
    if n * s * s >= 2**53:
        raise SizeLimitError(
            f"lambda2 bracket needs n |S|^2 below 2**53, got n = {n}, |S| = {s}"
        )
    a = adjacency.float_matrix
    if (n * a == s).all():
        return lambda2 <= delta * s
    integer_part = s * s - n * (a @ a)

    def contracts_below(t: float) -> bool:
        m = integer_part.copy()
        m.flat[:: n + 1] += n * t * t
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
        return True

    return contracts_below(lambda2 * (1 + delta)) and not contracts_below(
        lambda2 * (1 - delta)
    )


@dataclass(frozen=True)
class ReconstructionReport:
    residual: float
    orthonormality_defect: float


def reconstruction_report(
    summary: SpectralSummary, adjacency: BipartiteAdjacency
) -> ReconstructionReport:
    """Relative Frobenius residual of the reconstruction V diag(eigenvalues)
    V^T, which is the singular-value rank sum, plus the orthonormality
    defect of the eigenvectors (the left singular family's is the same
    number, since it differs from them by column signs only)."""
    a = adjacency.float_matrix
    v = summary.vectors
    if v is None:
        raise ValueError("the summary holds no eigenvectors to reconstruct from")
    recon = (v * summary.eigenvalues) @ v.T
    denom = float(np.linalg.norm(a))
    diff = float(np.linalg.norm(recon - a))
    residual = diff / denom if denom > 0.0 else diff
    defect = float(np.abs(v.T @ v - np.eye(adjacency.n)).max())
    return ReconstructionReport(residual, defect)


def zero_sum_contraction_ok(
    adjacency: BipartiteAdjacency,
    lambda2: float,
    trials: int,
    rng: np.random.Generator,
) -> bool:
    """Check ||A f|| <= lambda2 ||f|| (1 + CONTRACTION_SLACK) on random
    zero-sum f.

    The trials are drawn as one (trials, n) block, whose rows are the
    draws of n normals one trial at a time would give; every trial is
    drawn, whatever the verdict."""
    f = rng.standard_normal((trials, adjacency.n))
    f -= f.mean(axis=1, keepdims=True)
    # The matrix is symmetric, so row i of f A is the image A f_i.
    image = np.linalg.norm(f @ adjacency.float_matrix, axis=1)
    bound = lambda2 * np.linalg.norm(f, axis=1) * (1.0 + CONTRACTION_SLACK)
    return not (image > bound).any()
