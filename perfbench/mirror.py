"""A traced copy of ``stabgap.pipeline._analyze`` built from public calls.

``traced_analyze`` calls the same public functions as the pipeline, in
the same order, with the same arguments and the same random stream, and
wraps each call in a span.  ``realize_case`` is opened up into the
public calls it makes (group order, element enumeration, connection
extraction), so its cost splits by layer.  The mirror returns the same
``CaseReport`` as ``analyze_case``; the self-test checks that it does.

Spans are ``[case, name, start, end, parent]`` lists held in memory by a
``Tracer``; ``parent`` is the index of the enclosing span, or None.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import bench
from stabgap import (
    CaseAnalysisError,
    CaseReport,
    CosetGraphSpec,
    Permutation,
    PermutationGroup,
    SimpleGraph,
    SizeLimitError,
    bound_report,
    build_bipartite,
    build_coset_graph,
    case_seed,
    cauchy_schwarz_step,
    convolution_matches_matrix,
    double_coset_representatives,
    evaluate_chain,
    lambda1_power_iteration,
    lambda2_power_iteration,
    local_action,
    make_transitive_case,
    norm_identity_trials,
    reconstruction_report,
    sabidussi_isomorphism,
    singular_values,
    top_value_matches_degree,
    zero_sum_contraction_ok,
)
from stabgap.pipeline import POWER_AGREEMENT_TOL, RECONSTRUCTION_TOL

#: Span that encloses one whole case.
CASE_SPAN = "pipeline.case"
#: Span that encloses the opened-up ``realize_case``.
REALIZE_SPAN = "casefile.realize"
#: Spans around single public calls, in pipeline order.  The dense-cap
#: branch's ``spectral.power_lambda1`` runs on no workload and is left out.
LAYER_SPANS = (
    "groups.chain",
    "groups.enumerate",
    "graphs.connection",
    "groups.double_coset",
    "graphs.local_action",
    "graphs.sabidussi",
    "spectral.assemble",
    "spectral.eigensolve",
    "spectral.reconstruction",
    "spectral.top_value",
    "spectral.power_lambda2",
    "spectral.contraction",
    "harmonic.eq2",
    "harmonic.lemma4",
    "verify.cauchy",
    "verify.chain",
    "verify.bounds",
)


class Tracer:
    """Collects the spans of one thread; workloads run serially."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, case: str, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [case, name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()


def self_times(spans, first: int, scale) -> dict[str, float]:
    """Seconds per span name, minus the time covered by child spans.

    ``spans`` is ``Tracer.spans[first:]``; parents are indices into the
    whole list and lie within the slice.  ``scale`` maps each case id to
    the factor its spans' seconds are multiplied by.
    """
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent is not None:
            own[parent - first] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (case, name, *_), seconds in zip(spans, own):
        totals[name] += seconds * scale[case]
    return dict(totals)


def total_times(spans, scale) -> dict[str, float]:
    """Seconds per span name, children included, scaled as in
    ``self_times``."""
    totals: dict[str, float] = defaultdict(float)
    for case, name, start, end, _ in spans:
        totals[name] += (end - start) * scale[case]
    return dict(totals)


def _realize(spec, max_vertices, element_cap, span):
    """``casefile.realize_case``, one span per public call it makes."""
    group = PermutationGroup(
        spec.degree, [Permutation(images) for images in spec.generators]
    )
    with span("groups.chain"):
        group.order()
    if spec.mode == "stabilize":
        if spec.degree > max_vertices:
            raise SizeLimitError(
                f"{spec.degree} vertices exceed the cap {max_vertices}"
            )
        with span("groups.enumerate"):
            group.elements(element_cap)
        graph = SimpleGraph(spec.degree, spec.edges or ())
        with span("graphs.connection"):
            return make_transitive_case(
                group, graph, base_vertex=spec.stabilize_point, cap=element_cap
            )
    subgroup = PermutationGroup(
        spec.degree, [Permutation(images) for images in spec.subgroup_generators]
    )
    reps = tuple(Permutation(images) for images in spec.connection_reps)
    with span("graphs.connection"):
        _, case = build_coset_graph(
            CosetGraphSpec(group, subgroup, reps),
            max_cosets=max_vertices,
            element_cap=element_cap,
        )
    return case


def traced_analyze(spec, options, tracer: Tracer, case_id: str) -> CaseReport:
    """``analyze_case(spec, options)`` with one span per public call."""
    options = options.with_case_options(spec.options)

    def span(name):
        return tracer.span(case_id, name)

    with span(CASE_SPAN):
        seed = case_seed(options.seed, spec.name)
        rng = np.random.default_rng(seed)

        with span(REALIZE_SPAN):
            case = _realize(spec, options.max_vertices, options.max_group_order, span)
        with span("groups.chain"):
            group_order = case.group.order()
        if group_order > options.max_group_order:
            raise SizeLimitError(
                f"group order {group_order} exceeds cap {options.max_group_order}"
            )
        n = case.graph.n
        k = case.valency
        with span("groups.chain"):
            stabilizer_order = case.stabilizer.order()

        with span("groups.double_coset"):
            representatives = double_coset_representatives(
                set(case.connection.elements), case.stabilizer
            )
        with span("graphs.local_action"):
            local = local_action(case)
        local_agreement = local.locally_transitive == (len(representatives) == 1)
        with span("graphs.sabidussi"):
            sabidussi_ok = bool(sabidussi_isomorphism(case))

        with span("spectral.assemble"):
            adjacency = build_bipartite(case.connection, n)
        power_seed = case_seed(seed, "power")
        if n <= options.dense_cap:
            with span("spectral.eigensolve"):
                summary = singular_values(adjacency)
            lambda1 = summary.lambda1
            lambda2 = summary.lambda2
            spectrum = tuple(float(x) for x in summary.values)
            recon = None
            if n <= options.reconstruction_cap:
                with span("spectral.reconstruction"):
                    recon = reconstruction_report(summary, adjacency)
            with span("spectral.top_value"):
                top_value_ok = top_value_matches_degree(
                    summary, adjacency, rel_tol=options.tol
                )
            with span("spectral.power_lambda2"):
                power_lambda2 = lambda2_power_iteration(
                    adjacency,
                    tol=options.power_tol,
                    max_iter=options.power_max_iter,
                    seed=power_seed,
                )
            power_gap = abs(power_lambda2 - lambda2) / max(1.0, lambda2)
        else:
            with span("spectral.power_lambda1"):
                lambda1 = lambda1_power_iteration(
                    adjacency,
                    tol=options.power_tol,
                    max_iter=options.power_max_iter,
                    seed=power_seed,
                )
            with span("spectral.power_lambda2"):
                lambda2 = lambda2_power_iteration(
                    adjacency,
                    tol=options.power_tol,
                    max_iter=options.power_max_iter,
                    seed=power_seed,
                )
            spectrum = ()
            recon = None
            expected = float(adjacency.s_size)
            top_value_ok = abs(lambda1 - expected) <= options.tol * max(1.0, expected)
            power_lambda2 = lambda2
            power_gap = 0.0

        reconstruction_ok = recon is None or (
            recon.residual <= RECONSTRUCTION_TOL
            and recon.orthonormality_defect <= RECONSTRUCTION_TOL
        )
        with span("spectral.contraction"):
            contraction = zero_sum_contraction_ok(
                adjacency, lambda2, options.contraction_trials, rng
            )
        lemma3_ok = top_value_ok and contraction and power_gap <= POWER_AGREEMENT_TOL

        with span("harmonic.eq2"):
            eq2_ok = convolution_matches_matrix(
                case.connection, adjacency, options.matrix_trials, rng
            )
        with span("groups.enumerate"):
            elements = case.group.elements(options.max_group_order)
        with span("harmonic.lemma4"):
            identity_report = norm_identity_trials(
                n, elements, options.identity_trials, rng
            )
        with span("verify.cauchy"):
            cauchy = cauchy_schwarz_step(case)
        with span("verify.chain"):
            chain = evaluate_chain(case, adjacency, lambda2)
        with span("verify.bounds"):
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
            n_double_cosets=len(representatives),
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
            contraction_ok=contraction,
            power_lambda2=power_lambda2,
            power_gap=power_gap,
            reconstruction_ok=reconstruction_ok,
            svd_residual=None if recon is None else recon.residual,
            orthonormality_defect=None if recon is None else recon.orthonormality_defect,
            cs_value=cauchy.value,
            cs_equality=cauchy.equality,
            singular_spectrum=spectrum,
            chain=chain,
            identity_report=identity_report,
        )


def traced_pass(specs, options, tracer: Tracer, tag: str):
    """``analyze_many`` with the mirror in place of ``analyze_case``.  Returns (wall seconds, ``CatalogResult``).  Case
    ids are ``<tag>:<case name>``."""

    def traced(spec, options):
        try:
            return traced_analyze(spec, options, tracer, f"{tag}:{spec.name}")
        except Exception as e:  # noqa: BLE001 - re-tagged as analyze_case does
            raise CaseAnalysisError(spec.name, e) from e

    return bench.run_pass(specs, options, traced)
