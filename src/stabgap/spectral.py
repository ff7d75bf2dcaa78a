"""The bipartite multigraph matrix and its singular values.

The matrix of the bipartite double of a connection set S counts, for
vertices x and y, the elements of S sending x to y.  Since S is
inverse-closed the matrix is symmetric, so its singular values are the
absolute values of its eigenvalues; the dense path diagonalizes with
LAPACK's symmetric eigensolver (``numpy.linalg.eigh``), and a deflated
power iteration provides an independent route to the second singular
value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SizeLimitError, StructureError
from .groups import ConnectionSet

#: Largest size for which the dense eigensolve is attempted by default.
DENSE_SIZE_CAP = 4000


class BipartiteAdjacency:
    """Symmetric nonnegative integer matrix with constant row sums.

    Row x, column y holds the number of connection elements mapping x to
    y.  Symmetry (forced by inverse closure) and regularity of row and
    column sums are validated on construction, not trusted.  A read-only
    float64 copy, ``float_matrix``, is the operator every numerical
    routine applies.
    """

    __slots__ = ("matrix", "float_matrix", "s_size")

    def __init__(self, matrix, s_size: int | None = None):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.issubdtype(m.dtype, np.integer):
            raise ValueError("entries must be integers")
        m = m.astype(np.int64)
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
        m.setflags(write=False)
        f = m.astype(float)
        f.setflags(write=False)
        self.matrix = m
        self.float_matrix = f
        self.s_size = degree

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, values) -> np.ndarray:
        return self.float_matrix @ np.asarray(values, dtype=float)

    def dump(self) -> str:
        """Dense integer rows, space-separated, one row per line."""
        return "\n".join(" ".join(str(int(x)) for x in row) for row in self.matrix)

    def __repr__(self) -> str:
        return f"BipartiteAdjacency(n={self.n}, s_size={self.s_size})"


def build_bipartite(connection: ConnectionSet, n: int) -> BipartiteAdjacency:
    """Assemble the matrix as the sum of the permutation matrices of the
    connection elements, counting the cells (x, s(x)) over all elements s
    and vertices x in one pass."""
    if connection.degree != n:
        raise ValueError(
            f"connection degree {connection.degree} does not match size {n}"
        )
    # x*n + s(x) is formed in int64, never in the rows' small dtype.
    cells = (np.arange(n) * n + connection.rows.astype(np.int64)).ravel()
    a = np.bincount(cells, minlength=n * n).reshape(n, n)
    return BipartiteAdjacency(a, s_size=len(connection))


@dataclass(frozen=True)
class SpectralSummary:
    """Singular values in non-increasing order with optional vector pairs.

    For repeated values the individual vector pairs are an arbitrary
    orthonormal completion; only spans and residuals are meaningful.
    """

    values: np.ndarray
    left_vectors: np.ndarray | None
    right_vectors: np.ndarray | None
    method: str

    @property
    def lambda1(self) -> float:
        return float(self.values[0]) if self.values.size else 0.0

    @property
    def lambda2(self) -> float:
        return float(self.values[1]) if self.values.size > 1 else 0.0


def singular_values(
    adjacency: BipartiteAdjacency,
    keep_vectors: bool = True,
    size_cap: int = DENSE_SIZE_CAP,
) -> SpectralSummary:
    """Dense singular value decomposition of the (symmetric) matrix.

    Singular values are the absolute eigenvalues; the left vector of a
    negative eigenvalue is the negated eigenvector.  A LAPACK failure to
    converge raises ``numpy.linalg.LinAlgError``.
    """
    n = adjacency.n
    if n > size_cap:
        raise SizeLimitError(f"size {n} exceeds dense eigensolve cap {size_cap}")
    w, vecs = np.linalg.eigh(adjacency.float_matrix)
    lam = np.abs(w)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    right = vecs[:, order]
    signs = np.where(w[order] < 0.0, -1.0, 1.0)
    left = right * signs
    return SpectralSummary(
        values=lam,
        left_vectors=left if keep_vectors else None,
        right_vectors=right if keep_vectors else None,
        method="dense-eigen",
    )


def lambda1_power_iteration(
    adjacency: BipartiteAdjacency,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    seed: int = 0,
) -> float:
    """Top singular value by plain power iteration on the squared matrix.

    Used when the matrix is past the dense cap; for these regular
    matrices the all-ones direction carries the top value, so no
    deflation is needed."""
    n = adjacency.n
    a = adjacency.float_matrix
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1.0
    x /= float(np.linalg.norm(x))
    previous = None
    estimate = 0.0
    for _ in range(max_iter):
        y = a @ x
        estimate = float(np.linalg.norm(y))
        z = a @ y
        norm = float(np.linalg.norm(z))
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
    second singular value; the estimate sequence is non-decreasing, and
    the iteration stops when consecutive estimates agree within tol.
    """
    n = adjacency.n
    if n == 1:
        return 0.0
    a = adjacency.float_matrix
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x -= x.mean()
    norm = float(np.linalg.norm(x))
    while norm < 1e-12:
        x = rng.standard_normal(n)
        x -= x.mean()
        norm = float(np.linalg.norm(x))
    x /= norm
    previous = None
    estimate = 0.0
    for _ in range(max_iter):
        y = a @ x
        estimate = float(np.linalg.norm(y))
        z = a @ y
        z -= z.mean()
        norm = float(np.linalg.norm(z))
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


def top_value_matches_degree(
    summary: SpectralSummary, adjacency: BipartiteAdjacency, rel_tol: float = 1e-9
) -> bool:
    """Check the regular-bipartite law: the top singular value equals
    t * sqrt(|X| |Y|) where t = (common row sum) / |Y|, i.e. the row sum
    itself here (|X| = |Y|)."""
    expected = adjacency.s_size
    return abs(summary.lambda1 - expected) <= rel_tol * max(1.0, expected)


@dataclass(frozen=True)
class ReconstructionReport:
    residual: float
    orthonormality_defect: float


def reconstruction_report(
    summary: SpectralSummary, adjacency: BipartiteAdjacency
) -> ReconstructionReport:
    """Relative Frobenius residual of the rank-sum reconstruction plus the
    worst orthonormality defect of the vector families."""
    if summary.left_vectors is None or summary.right_vectors is None:
        raise ValueError("singular vectors were not retained")
    recon = (summary.left_vectors * summary.values) @ summary.right_vectors.T
    denom = float(np.linalg.norm(adjacency.float_matrix))
    diff = float(np.linalg.norm(recon - adjacency.float_matrix))
    residual = diff / denom if denom > 0.0 else diff
    eye = np.eye(adjacency.n)
    defect = max(
        float(np.abs(summary.right_vectors.T @ summary.right_vectors - eye).max()),
        float(np.abs(summary.left_vectors.T @ summary.left_vectors - eye).max()),
    )
    return ReconstructionReport(residual, defect)


def zero_sum_contraction_ok(
    adjacency: BipartiteAdjacency,
    lambda2: float,
    trials: int,
    rng: np.random.Generator,
    slack: float = 1e-9,
) -> bool:
    """Check ||A f|| <= lambda2 ||f|| (1 + slack) on random zero-sum f."""
    a = adjacency.float_matrix
    n = adjacency.n
    for _ in range(trials):
        f = rng.standard_normal(n)
        f -= f.mean()
        nf = float(np.linalg.norm(f))
        if nf == 0.0:
            continue
        if float(np.linalg.norm(a @ f)) > lambda2 * nf * (1.0 + slack):
            return False
    return True
