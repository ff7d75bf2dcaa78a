import math
import tracemalloc

import numpy as np

from stabgap import catalog
from stabgap.casefile import realize_case
from stabgap.graphs import make_transitive_case
from stabgap.harmonic import point_mass, uniform_distribution
from stabgap.spectral import build_bipartite, singular_values
from stabgap.verify import bound_report, cauchy_schwarz_step, evaluate_chain

from cases import (
    cycle_graph,
    cyclic,
    dihedral,
    petersen_case,
    reference_operator,
    triangle_case,
)


def spectra(case):
    adj = build_bipartite(case.connection, case.graph.n)
    return adj, singular_values(adj)


def four_cycle_case():
    return make_transitive_case(cyclic(4), cycle_graph(4))


# -- Cauchy-Schwarz step --------------------------------------------------------


def test_cauchy_schwarz_triangle_equality():
    result = cauchy_schwarz_step(triangle_case())
    assert abs(result.value - 0.5) <= 1e-15
    assert result.ok
    assert result.equality


def test_cauchy_schwarz_four_cycle_equality():
    result = cauchy_schwarz_step(four_cycle_case())
    assert abs(result.value - 0.5) <= 1e-15
    assert result.equality


def test_cauchy_schwarz_petersen():
    result = cauchy_schwarz_step(petersen_case())
    assert result.ok
    assert result.value >= 1.0 / 3.0 - 1e-12


# -- chain ------------------------------------------------------------------------


def test_chain_triangle_numbers():
    case = triangle_case()
    adj, summary = spectra(case)
    diag = evaluate_chain(case, adj, summary.lambda2)
    assert abs(diag.inverse_valency - 0.5) <= 1e-15
    for line in (
        diag.neighbor_mass,
        diag.recentered,
        diag.split,
        diag.scaled_convolution,
        diag.scaled_matrix,
    ):
        assert abs(line - 0.5) <= 1e-12
    assert abs(diag.final_bound - 7.0 / 12.0) <= 1e-12
    assert diag.ok


def test_chain_f_is_zero_sum_with_known_norm():
    case = petersen_case()
    n = case.graph.n
    f = np.zeros(n)
    f[case.base_vertex] = 1.0
    f -= 1.0 / n
    assert abs(f.sum()) <= 1e-15
    assert abs(np.sum(f**2) - (1.0 - 1.0 / n)) <= 1e-15


def test_chain_holds_on_cases():
    for case in [
        triangle_case(),
        four_cycle_case(),
        petersen_case(),
        make_transitive_case(dihedral(6), cycle_graph(6)),
    ]:
        adj, summary = spectra(case)
        diag = evaluate_chain(case, adj, summary.lambda2)
        assert diag.equalities_ok
        assert diag.lower_bound_ok
        assert diag.operator_step_ok
        assert diag.strict_final_ok
        assert not diag.near_equality_final
        assert diag.ok


# -- bound report -----------------------------------------------------------------


def test_bound_report_triangle_small_graph_branch():
    case = triangle_case()
    adj, summary = spectra(case)
    report = bound_report(case, summary.lambda1, summary.lambda2, name="triangle")
    assert report.branch == "small-graph"
    assert report.n_vertices == 3
    assert report.disjunction_ok
    assert report.converse_ok
    assert report.small_case_ok
    assert case.group.order() <= math.factorial(2 * case.valency)


def test_bound_report_tie_is_not_strict():
    # triangle: k = 2, |G_v| = 2, so the proof form reads 4 < lambda2^2;
    # one ulp above the exact tie lambda2 = 2 must still count as a tie
    case = triangle_case()
    report = bound_report(case, 4.0, np.nextafter(2.0, 3.0))
    assert report.proof_form_ok is False


def test_bound_report_four_cycle_bound_branch():
    case = four_cycle_case()
    adj, summary = spectra(case)
    report = bound_report(case, summary.lambda1, summary.lambda2)
    assert report.branch == "bound"
    assert report.lambda2 == 2.0
    assert report.proof_form_ok  # 1 < 2*(2^2)/2 = 4
    assert report.statement_form_ok  # 1 < sqrt(2)*2/2
    assert report.disjunction_ok
    assert report.converse_ok  # equality: lambda2 = 2 = k|G_v|


def test_bound_report_petersen_probe():
    case = petersen_case()
    adj, summary = spectra(case)
    report = bound_report(case, summary.lambda1, summary.lambda2)
    assert report.branch == "bound"
    assert abs(report.lambda1 - 36.0) <= 1e-9
    assert abs(report.lambda2 - 24.0) <= 1e-9
    assert report.proof_form_ok  # 144 < 2*24^2/3 = 384
    assert not report.statement_form_ok  # 12 >= sqrt(2)*24/3 = 11.31...
    assert report.disjunction_ok
    assert report.converse_ok


def test_converse_never_fails_on_samples():
    for case in [
        triangle_case(),
        four_cycle_case(),
        petersen_case(),
        make_transitive_case(dihedral(8), cycle_graph(8)),
    ]:
        adj, summary = spectra(case)
        report = bound_report(case, summary.lambda1, summary.lambda2)
        assert report.converse_ok
        assert summary.lambda2 <= summary.lambda1 + 1e-12


def test_chain_lines_match_the_direct_convolutions():
    # The chain reads the bipartite matrix, which eq2 proves equal to S's
    # operator; scattering the weights of S's elements one element at a
    # time (the reference operator) gives the same lines to rounding.
    for case in [petersen_case(), realize_case(catalog._kneser(8, 3))]:
        adj, summary = spectra(case)
        chain = evaluate_chain(case, adj, summary.lambda2)
        n, s_size = case.graph.n, len(case.connection)
        p_v = point_mass(case.base_vertex, n)
        f = p_v - uniform_distribution(n)
        rows = case.connection.rows
        p_s = reference_operator(rows, np.full(s_size, 1.0 / s_size))
        chi = reference_operator(rows)
        lines = {
            "neighbor_mass": np.sum((p_s @ p_v) ** 2),
            "split": np.sum((p_s @ f) ** 2) + 1.0 / n,
            "scaled_convolution": np.sum((chi @ f) ** 2) / s_size**2 + 1.0 / n,
        }
        for name, direct in lines.items():
            assert math.isclose(getattr(chain, name), direct, rel_tol=1e-12)
        assert cauchy_schwarz_step(case).value == chain.neighbor_mass


def test_chain_and_cauchy_schwarz_form_no_connection_sized_array():
    # |S| * n bytes is S's rows themselves on kneser-8-3 (7200 x 56 uint8),
    # where a convolution over S's inverse rows gathers 8 * |S| * n bytes.
    case = realize_case(catalog._kneser(8, 3))
    adj, summary = spectra(case)
    budget = len(case.connection) * case.graph.n
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cauchy_schwarz_step(case)
        evaluate_chain(case, adj, summary.lambda2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < budget


def test_chain_and_cauchy_schwarz_form_no_n_by_n_array():
    # With A built, both steps read A and one column of S's rows: on
    # cycle-dihedral-200 (|S| = 4) neither builds S's n x n operator.
    case = realize_case(catalog._cycle_dihedral(200))
    adj, summary = spectra(case)
    n = case.graph.n
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        cauchy_schwarz_step(case)
        evaluate_chain(case, adj, summary.lambda2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
