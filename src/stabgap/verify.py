"""Line-by-line evaluation of the stabilizer-bound inequality chain.

For a transitive case with valency k, stabilizer order m, connection
size |S| = k*m on n vertices, the chain runs from 1/k through the norm
of the convolved point mass to lambda2^2/|S|^2 + 1/n.  Every line is
computed numerically from first principles (convolutions and norms,
never algebraic simplification); consecutive equalities must agree to
working precision.  Every convolution is by a function constant on the
connection set S, so it is a product with S's indicator operator
(divided by |S| for the uniform distribution p_S).  eq2
(``harmonic.convolution_matches_matrix``) proves that operator equal,
cell for cell, to the bipartite matrix A, so the chain's lines read A;
the Cauchy-Schwarz step alone counts p_S * p_v from S's elements, as
|G_v| times one column of its left cosets' rows.  A strict inequality
holds only when its two sides are not equal to working precision, so an
exact tie is never decided by the last bit of a float.  The derived
disjunction is: either the graph is small (n < 2k) or
m^2 < 2*lambda2^2/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .graphs import TransitiveCase
from .harmonic import point_mass, uniform_distribution
from .spectral import BipartiteAdjacency

IDENTITY_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= IDENTITY_TOL * max(1.0, abs(a), abs(b))


def _strictly_less(a: float, b: float) -> bool:
    """a < b, with a tie within IDENTITY_TOL counted as not strictly less."""
    return a < b and not _close(a, b)


def _at_most(a: float, b: float) -> bool:
    """a <= b, with IDENTITY_TOL of slack relative to b."""
    return a <= b + IDENTITY_TOL * max(1.0, b)


@dataclass(frozen=True)
class CauchySchwarzResult:
    """The lower bound 1/k against the squared norm of p_S * p_v."""

    value: float
    bound: float
    ok: bool
    equality: bool


def cauchy_schwarz_step(case: TransitiveCase) -> CauchySchwarzResult:
    """Evaluate ||p_S * p_v||^2 and compare it against 1/k.

    p_S * p_v counts, at each vertex x, the elements s of S with
    s(v) = x, divided by |S|.  Every element of a left coset u_w*G_v of S
    sends v to u_w(v), so the count is |G_v| times one ``bincount`` of
    column v of the coset rows: the same integers, with no row of S and
    no n x n array.  It is supported exactly on the base neighborhood;
    any mass elsewhere is a structural failure, not a tolerance matter
    (cells off it hold exact zeros).
    """
    n = case.graph.n
    column = case.connection.cosets[:, case.base_vertex]
    counts = np.bincount(column, minlength=n) * case.connection.subgroup.order()
    conv = counts / len(case.connection)
    off_support = conv.copy()
    off_support[list(case.graph.neighbors(case.base_vertex))] = 0.0
    if float(np.abs(off_support).max()) != 0.0:
        raise StructureError(
            "p_S * p_v has mass outside the base neighborhood"
        )
    value = float(np.sum(conv**2))
    bound = 1.0 / case.valency
    return CauchySchwarzResult(
        value=value,
        bound=bound,
        ok=_at_most(bound, value),
        equality=abs(value - bound) <= IDENTITY_TOL,
    )


@dataclass(frozen=True)
class ChainDiagnostics:
    """Each line of the inequality chain, computed independently.

    f is the point mass at the base vertex minus the uniform
    distribution; all norms are Euclidean.
    """

    inverse_valency: float
    neighbor_mass: float  # ||p_S * p_v||^2
    recentered: float  # ||p_S * f + U||^2
    split: float  # ||p_S * f||^2 + 1/n
    scaled_convolution: float  # ||chi_S * f||^2 / |S|^2 + 1/n, = A f by eq2
    scaled_matrix: float  # ||A f||^2 / |S|^2 + 1/n
    operator_bound: float  # lambda2^2 ||f||^2 / |S|^2 + 1/n
    final_bound: float  # lambda2^2 / |S|^2 + 1/n
    equalities_ok: bool
    lower_bound_ok: bool
    operator_step_ok: bool
    strict_final_ok: bool
    near_equality_final: bool

    @property
    def ok(self) -> bool:
        return (
            self.equalities_ok
            and self.lower_bound_ok
            and self.operator_step_ok
            and self.strict_final_ok
        )


def evaluate_chain(
    case: TransitiveCase,
    adjacency: BipartiteAdjacency,
    lambda2: float,
) -> ChainDiagnostics:
    """Evaluate each line of the chain for the case.

    The convolutions p_S * p_v, p_S * f and chi_S * f are products with
    the bipartite matrix A, which eq2 proves equal to the connection
    set's operator, the first two divided by |S|; A f is formed once and
    read by every line that convolves f.
    """
    n = case.graph.n
    s_size = len(case.connection)
    matrix = adjacency.float_matrix
    p_v = point_mass(case.base_vertex, n)
    uniform = uniform_distribution(n)
    f = p_v - uniform

    neighbor_mass = float(np.sum((matrix @ p_v / s_size) ** 2))
    a_f = matrix @ f
    p_s_f = a_f / s_size
    recentered = float(np.sum((p_s_f + uniform) ** 2))
    split = float(np.sum(p_s_f**2)) + 1.0 / n
    scaled_matrix = float(np.sum(a_f**2)) / s_size**2 + 1.0 / n
    f_norm_sq = float(np.sum(f**2))
    operator_bound = lambda2**2 * f_norm_sq / s_size**2 + 1.0 / n
    final_bound = lambda2**2 / s_size**2 + 1.0 / n

    equalities_ok = (
        _close(neighbor_mass, recentered)
        and _close(recentered, split)
        and _close(split, scaled_matrix)
    )
    inverse_valency = 1.0 / case.valency
    lower_bound_ok = _at_most(inverse_valency, neighbor_mass)
    operator_step_ok = _at_most(scaled_matrix, operator_bound)
    near_equality = _close(operator_bound, final_bound)
    strict_final = _strictly_less(operator_bound, final_bound)
    return ChainDiagnostics(
        inverse_valency=inverse_valency,
        neighbor_mass=neighbor_mass,
        recentered=recentered,
        split=split,
        scaled_convolution=scaled_matrix,
        scaled_matrix=scaled_matrix,
        operator_bound=operator_bound,
        final_bound=final_bound,
        equalities_ok=equalities_ok,
        lower_bound_ok=lower_bound_ok,
        operator_step_ok=operator_step_ok,
        strict_final_ok=strict_final,
        near_equality_final=near_equality,
    )


@dataclass(frozen=True)
class BoundReport:
    """Verdicts for one case: the disjunction branch, both variants of the
    stabilizer bound, the converse bound, and the small-graph factorial
    bound.

    The proof-form bound m^2 < 2*lambda2^2/k is normative; the statement
    form m < sqrt(2)*lambda2/k (stronger by a factor sqrt(k)) is recorded
    as a diagnostic only.  Both are strict: sides equal within
    IDENTITY_TOL fail them.
    """

    name: str
    n_vertices: int
    valency: int
    group_order: int
    stabilizer_order: int
    s_size: int
    lambda1: float
    lambda2: float
    branch: str  # "small-graph" when n < 2k, else "bound"
    proof_form_ok: bool
    statement_form_ok: bool
    disjunction_ok: bool
    converse_ok: bool
    small_case_ok: bool


def bound_report(
    case: TransitiveCase,
    lambda1: float,
    lambda2: float,
    name: str = "",
    converse_tol: float = 1e-9,
) -> BoundReport:
    n = case.graph.n
    k = case.valency
    m = case.stabilizer.order()
    proof_form = _strictly_less(m * m, 2.0 * lambda2 * lambda2 / k)
    statement_form = _strictly_less(m, math.sqrt(2.0) * lambda2 / k)
    small_case = True
    if n <= 2 * k:
        small_case = m <= case.group.order() <= math.factorial(2 * k)
    return BoundReport(
        name=name,
        n_vertices=n,
        valency=k,
        group_order=case.group.order(),
        stabilizer_order=m,
        s_size=len(case.connection),
        lambda1=lambda1,
        lambda2=lambda2,
        branch="small-graph" if n < 2 * k else "bound",
        proof_form_ok=proof_form,
        statement_form_ok=statement_form,
        disjunction_ok=(n < 2 * k) or proof_form,
        converse_ok=lambda2 <= k * m * (1.0 + converse_tol),
        small_case_ok=small_case,
    )
