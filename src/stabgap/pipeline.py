"""End-to-end analysis of one case and assembly of its report row.

The pipeline realizes the case, counts the connection set's double
cosets, classifies the local action, checks the canonical coset
isomorphism, builds the bipartite matrix, computes its spectrum densely
and certifies the second singular value by two Cholesky factorizations
(``lambda2_bracket_ok``), checks the convolution identity exactly and
lemma 4's norm identities exactly (the transversal rows of the group's
stabilizer chain must act as bijections), and evaluates the inequality
chain and the stabilizer bounds.  No stage draws a random number; the
per-case seed, derived from the base seed and the case name, is only
reported.  Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar, Sequence

from .casefile import _OPTION_KEYS, CaseSpec, realize_case
from .graphs import local_action, sabidussi_isomorphism
from .harmonic import (
    NormIdentityReport,
    convolution_matches_matrix,
    norm_identity_trials,
)
from .spectral import (
    BRACKET_DELTA,
    DENSE_SIZE_CAP,
    RECONSTRUCTION_CAP,
    build_bipartite,
    lambda2_bracket_ok,
    reconstruction_report,
    singular_values,
    top_value_matches_degree,
)
from .verify import (
    ChainDiagnostics,
    bound_report,
    cauchy_schwarz_step,
    evaluate_chain,
)

CSV_COLUMNS = (
    "name",
    "n_vertices",
    "valency_k",
    "group_order",
    "stabilizer_order",
    "s_size",
    "n_double_cosets",
    "locally_transitive",
    "locally_primitive",
    "lambda1",
    "lambda2",
    "sabidussi_ok",
    "eq2_ok",
    "lemma3_ok",
    "lemma4_ok",
    "cauchy_schwarz_ok",
    "chain_ok",
    "prop5_branch",
    "proof_form_ok",
    "statement_form_ok",
    "converse_ok",
    "small_case_factorial_ok",
    "seed",
)

#: Agreement the benchmark's traced copy of the pipeline requires between
#: the dense and power-iteration routes.
POWER_AGREEMENT_TOL = 1e-8
#: Residual and orthonormality ceiling for the reconstruction check.
RECONSTRUCTION_TOL = 1e-8


class CaseAnalysisError(RuntimeError):
    """An analysis failure, tagged with the case name."""

    def __init__(self, case_name: str, cause: BaseException):
        super().__init__(f"case '{case_name}': {cause}")
        self.case_name = case_name
        self.cause = cause


@dataclass(frozen=True)
class AnalyzeOptions:
    tol: float = 1e-9
    seed: int = 0
    max_vertices: int = DENSE_SIZE_CAP
    max_group_order: int = 1_000_000
    # Read by the benchmark's traced copy of the pipeline only.
    dense_cap: ClassVar[int] = DENSE_SIZE_CAP
    matrix_trials: ClassVar[int] = 100
    contraction_trials: ClassVar[int] = 100
    power_tol: ClassVar[float] = 1e-12
    power_max_iter: ClassVar[int] = 200_000
    reconstruction_cap: ClassVar[int] = RECONSTRUCTION_CAP
    # Read by the pipeline.
    identity_trials: ClassVar[int] = 1000

    def __post_init__(self) -> None:
        # Every check tol governs passes at inf and fails at NaN or below 0.
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol!r}")
        for key in ("max_vertices", "max_group_order"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        # Every case is solved densely, so no larger case can finish.
        if self.max_vertices > DENSE_SIZE_CAP:
            raise ValueError(
                f"max_vertices must be at most the dense eigensolve cap "
                f"{DENSE_SIZE_CAP}, got {self.max_vertices}"
            )

    def with_case_options(self, case_options) -> AnalyzeOptions:
        """Apply per-document option overrides."""
        updates = {
            key: getattr(case_options, key)
            for key in _OPTION_KEYS
            if getattr(case_options, key) is not None
        }
        return replace(self, **updates) if updates else self


def case_seed(base_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass(frozen=True)
class CaseReport:
    name: str
    n_vertices: int
    valency_k: int
    group_order: int
    stabilizer_order: int
    s_size: int
    n_double_cosets: int
    locally_transitive: bool
    locally_primitive: bool
    lambda1: float
    lambda2: float
    sabidussi_ok: bool
    eq2_ok: bool
    lemma3_ok: bool
    lemma4_ok: bool
    cauchy_schwarz_ok: bool
    chain_ok: bool
    prop5_branch: str
    proof_form_ok: bool
    statement_form_ok: bool
    converse_ok: bool
    small_case_factorial_ok: bool
    seed: int
    # diagnostics beyond the CSV schema
    disjunction_ok: bool = True
    local_agreement_ok: bool = True
    top_value_ok: bool = True
    # Left out of == and the JSON, and not set by the pipeline: the power
    # iteration's and the contraction draws' results, which only the
    # benchmark's traced copy of the pipeline still computes.
    contraction_ok: bool = field(default=True, compare=False)
    power_lambda2: float = field(default=0.0, compare=False)
    power_gap: float = field(default=0.0, compare=False)
    # Left out of == so that the traced copy, which does not set them,
    # compares equal; lemma3_ok, which reads bracket_ok, is compared.
    bracket_delta: float = field(default=BRACKET_DELTA, compare=False)
    bracket_ok: bool = field(default=True, compare=False)
    reconstruction_ok: bool = True
    svd_residual: float | None = None
    orthonormality_defect: float | None = None
    cs_value: float = 0.0
    cs_equality: bool = False
    singular_spectrum: tuple[float, ...] = ()
    chain: ChainDiagnostics | None = None
    # Left out of ==: lemma 4 checks a group's transversal rows but every
    # row it is given, so rows_checked follows the input; lemma4_ok is
    # compared.
    identity_report: NormIdentityReport | None = field(default=None, compare=False)
    matrix_dump: str | None = None

    @property
    def normative_ok(self) -> bool:
        return all(
            (
                self.sabidussi_ok,
                self.eq2_ok,
                self.lemma3_ok,
                self.lemma4_ok,
                self.cauchy_schwarz_ok,
                self.chain_ok,
                self.converse_ok,
                self.small_case_factorial_ok,
                self.disjunction_ok,
                self.local_agreement_ok,
                self.reconstruction_ok,
            )
        )

    def csv_row(self) -> list[str]:
        return [_fmt(getattr(self, column)) for column in CSV_COLUMNS]

    def to_json_dict(self) -> dict:
        out = {column: getattr(self, column) for column in CSV_COLUMNS}
        out.update(
            {
                "normative_ok": self.normative_ok,
                "disjunction_ok": self.disjunction_ok,
                "local_agreement_ok": self.local_agreement_ok,
                "top_value_ok": self.top_value_ok,
                "bracket_delta": self.bracket_delta,
                "bracket_ok": self.bracket_ok,
                "reconstruction_ok": self.reconstruction_ok,
                "svd_residual": self.svd_residual,
                "orthonormality_defect": self.orthonormality_defect,
                "cauchy_schwarz_value": self.cs_value,
                "cauchy_schwarz_equality": self.cs_equality,
                "singular_values": list(self.singular_spectrum),
            }
        )
        if self.chain is not None:
            out["chain"] = {
                "inverse_valency": self.chain.inverse_valency,
                "neighbor_mass": self.chain.neighbor_mass,
                "recentered": self.chain.recentered,
                "split": self.chain.split,
                "scaled_convolution": self.chain.scaled_convolution,
                "scaled_matrix": self.chain.scaled_matrix,
                "operator_bound": self.chain.operator_bound,
                "final_bound": self.chain.final_bound,
            }
        if self.identity_report is not None:
            out["lemma4"] = asdict(self.identity_report)
        if self.matrix_dump is not None:
            out["matrix_dump"] = self.matrix_dump
        return out


def analyze_case(
    spec: CaseSpec,
    options: AnalyzeOptions = AnalyzeOptions(),
    dump_matrix: bool = False,
) -> CaseReport:
    """Run the full pipeline on one case.  Any failure, a document option
    that ``AnalyzeOptions`` rejects included, is raised as a
    ``CaseAnalysisError`` naming the case."""
    try:
        options = options.with_case_options(spec.options)
        return _analyze(spec, options, dump_matrix)
    except Exception as e:  # noqa: BLE001 - re-tagged with the case name
        raise CaseAnalysisError(spec.name, e) from e


def _analyze(spec: CaseSpec, options: AnalyzeOptions, dump_matrix: bool) -> CaseReport:
    seed = case_seed(options.seed, spec.name)

    case = realize_case(
        spec,
        max_vertices=options.max_vertices,
        element_cap=options.max_group_order,
    )
    group_order = case.group.order()
    n = case.graph.n
    k = case.valency
    stabilizer_order = case.stabilizer.order()

    n_double_cosets = case.connection.n_double_cosets
    local = local_action(case)
    local_agreement = local.locally_transitive == (n_double_cosets == 1)
    sabidussi_ok = bool(sabidussi_isomorphism(case))

    adjacency = build_bipartite(case.connection, n)
    summary = singular_values(adjacency)
    lambda1 = summary.lambda1
    lambda2 = summary.lambda2
    # Eigenvectors are computed up to RECONSTRUCTION_CAP vertices, for this
    # check alone.
    recon = (
        None
        if summary.vectors is None
        else reconstruction_report(summary, adjacency)
    )
    reconstruction_ok = recon is None or (
        recon.residual <= RECONSTRUCTION_TOL
        and recon.orthonormality_defect <= RECONSTRUCTION_TOL
    )
    top_value_ok = top_value_matches_degree(summary, adjacency, rel_tol=options.tol)
    bracket_ok = lambda2_bracket_ok(adjacency, lambda2)
    lemma3_ok = top_value_ok and bracket_ok

    eq2_ok = convolution_matches_matrix(case.connection, adjacency)
    identity_report = norm_identity_trials(n, case.group, options.identity_trials)
    cauchy = cauchy_schwarz_step(case)
    chain = evaluate_chain(case, adjacency, lambda2)
    bounds = bound_report(
        case, lambda1, lambda2, name=spec.name, converse_tol=options.tol
    )

    return CaseReport(
        name=spec.name,
        n_vertices=n,
        valency_k=k,
        group_order=group_order,
        stabilizer_order=stabilizer_order,
        s_size=len(case.connection),
        n_double_cosets=n_double_cosets,
        locally_transitive=local.locally_transitive,
        locally_primitive=local.locally_primitive,
        lambda1=lambda1,
        lambda2=lambda2,
        sabidussi_ok=sabidussi_ok,
        eq2_ok=eq2_ok,
        lemma3_ok=lemma3_ok,
        lemma4_ok=identity_report.ok,
        cauchy_schwarz_ok=cauchy.ok,
        chain_ok=chain.ok,
        prop5_branch=bounds.branch,
        proof_form_ok=bounds.proof_form_ok,
        statement_form_ok=bounds.statement_form_ok,
        converse_ok=bounds.converse_ok,
        small_case_factorial_ok=bounds.small_case_ok,
        seed=seed,
        disjunction_ok=bounds.disjunction_ok,
        local_agreement_ok=local_agreement,
        top_value_ok=top_value_ok,
        bracket_delta=BRACKET_DELTA,
        bracket_ok=bracket_ok,
        reconstruction_ok=reconstruction_ok,
        svd_residual=None if recon is None else recon.residual,
        orthonormality_defect=None if recon is None else recon.orthonormality_defect,
        cs_value=cauchy.value,
        cs_equality=cauchy.equality,
        singular_spectrum=tuple(float(x) for x in summary.values),
        chain=chain,
        identity_report=identity_report,
        matrix_dump=adjacency.dump() if dump_matrix else None,
    )


@dataclass(frozen=True)
class CatalogResult:
    reports: tuple[CaseReport, ...]
    errors: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @property
    def all_normative_ok(self) -> bool:
        return not self.errors and all(r.normative_ok for r in self.reports)


def analyze_many(
    specs: Sequence[CaseSpec],
    options: AnalyzeOptions = AnalyzeOptions(),
) -> CatalogResult:
    """Analyze cases in input order.

    Per-case failures are recorded and the run continues.
    """
    reports = []
    errors = []
    for spec in specs:
        try:
            reports.append(analyze_case(spec, options))
        except CaseAnalysisError as e:
            errors.append((spec.name, str(e)))
    return CatalogResult(tuple(reports), tuple(errors))
