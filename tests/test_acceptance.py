"""Acceptance suite: every headline guarantee, one test per criterion.

The full built-in catalog is analyzed once (shared fixture) and each
criterion prints a PASS line with the relevant numbers.  The two golden
cases are re-derived here from scratch with brute-force enumeration,
independent of the package's own group algorithms, and checked against
hard-coded golden values; the package computes lambda2 with LAPACK's
eigh, so the independent routes to it are those values and the
Cholesky bracket of criterion 7.
"""

import itertools
import time

import numpy as np
import pytest

from stabgap.casefile import realize_case
from stabgap.catalog import builtin_cases
from stabgap.pipeline import AnalyzeOptions, analyze_many
from stabgap.spectral import build_bipartite, lambda2_bracket_ok

RELATIVE_TOL = 1e-9
POWER_AGREEMENT_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-8
IDENTITY_TOL = 1e-12
RUNTIME_BUDGET_SECONDS = 300.0


@pytest.fixture(scope="module")
def catalog_run():
    specs = builtin_cases()
    start = time.monotonic()
    result = analyze_many(specs, AnalyzeOptions(seed=0))
    elapsed = time.monotonic() - start
    assert not result.errors, result.errors
    return result.reports, elapsed


def _report(reports, name):
    return next(r for r in reports if r.name == name)


def brute_force_matrix(element_tuples, neighborhoods, vertex):
    """Oracle: for each pair (x, y) count the elements with s(x) = y,
    over the elements sending the base vertex into its neighborhood."""
    n = len(next(iter(element_tuples)))
    chosen = [g for g in element_tuples if g[vertex] in neighborhoods]
    matrix = np.zeros((n, n), dtype=int)
    for s in chosen:
        for x in range(n):
            matrix[x, s[x]] += 1
    return matrix, chosen


def test_criterion_01_top_singular_value_law(catalog_run):
    reports, elapsed = catalog_run
    assert len(reports) >= 20
    for r in reports:
        expected = r.valency_k * r.stabilizer_order
        assert abs(r.lambda1 - expected) <= RELATIVE_TOL * max(1.0, expected), r.name
        assert r.top_value_ok, r.name
    assert elapsed <= RUNTIME_BUDGET_SECONDS
    print(
        f"\nACCEPTANCE 1 PASS: lambda1 = k*|G_v| on {len(reports)} cases "
        f"(catalog ran in {elapsed:.1f}s)"
    )


def test_criterion_02_bound_disjunction(catalog_run):
    reports, _ = catalog_run
    for r in reports:
        small = r.n_vertices < 2 * r.valency_k
        # strict as in bound_report: sides within IDENTITY_TOL tie (complete-3)
        lhs = r.stabilizer_order**2
        rhs = 2.0 * r.lambda2**2 / r.valency_k
        proof = lhs < rhs and abs(lhs - rhs) > IDENTITY_TOL * max(1.0, lhs, rhs)
        assert proof == r.proof_form_ok, r.name
        assert small or proof, r.name
        assert r.disjunction_ok, r.name
    print(f"ACCEPTANCE 2 PASS: disjunction holds on all {len(reports)} cases")


def test_criterion_03_triangle_golden_values(catalog_run):
    reports, _ = catalog_run
    r = _report(reports, "complete-3")
    assert r.n_vertices == 3
    assert r.valency_k == 2
    assert r.stabilizer_order == 2
    assert r.s_size == 4

    # oracle: enumerate S_3 by brute force and eigensolve the 3x3 matrix
    elements = set(itertools.permutations(range(3)))
    matrix, chosen = brute_force_matrix(elements, {1, 2}, 0)
    assert len(chosen) == 4
    assert matrix.tolist() == [[0, 2, 2], [2, 1, 1], [2, 1, 1]]
    oracle = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]
    assert np.allclose(oracle, [4.0, 2.0, 0.0], atol=1e-12)
    assert np.allclose(r.singular_spectrum, oracle, atol=RELATIVE_TOL)
    assert abs(r.lambda1 - 4.0) <= RELATIVE_TOL
    assert abs(r.lambda2 - 2.0) <= RELATIVE_TOL
    # exact tie |G_v|^2 = 4 = 2*lambda2^2/k: the strict proof form fails
    assert not r.proof_form_ok
    print(
        "ACCEPTANCE 3 PASS: triangle golden values "
        f"(singular values {[round(x, 12) for x in r.singular_spectrum]})"
    )


def test_criterion_04_petersen_golden_values(catalog_run):
    reports, _ = catalog_run
    r = _report(reports, "kneser-5-2")
    assert r.n_vertices == 10
    assert r.valency_k == 3
    assert r.stabilizer_order == 12
    assert r.s_size == 36
    assert abs(r.lambda1 - 36.0) <= RELATIVE_TOL * 36.0

    # oracle: induce S_5 on the 10 two-subsets by brute force
    pairs = sorted(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    elements = {
        tuple(index[tuple(sorted((g[a], g[b])))] for a, b in pairs)
        for g in itertools.permutations(range(5))
    }
    v = index[(0, 1)]
    neighborhood = {i for i, p in enumerate(pairs) if not set(p) & {0, 1}}
    matrix, chosen = brute_force_matrix(elements, neighborhood, v)
    assert len(chosen) == 36
    oracle_lambda2 = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1][1]
    assert abs(oracle_lambda2 - 24.0) <= 1e-12
    assert abs(r.lambda2 - oracle_lambda2) <= POWER_AGREEMENT_TOL * max(
        1.0, oracle_lambda2
    )
    # the designated probe: the recorded stronger-form column differs from
    # the normative proof-form verdict on this case
    assert r.proof_form_ok
    assert not r.statement_form_ok
    print(
        "ACCEPTANCE 4 PASS: petersen golden values "
        f"(lambda2 = {r.lambda2:.12g}, statement-form recorded "
        f"{str(r.statement_form_ok).lower()})"
    )


def test_criterion_05_norm_identities(catalog_run):
    reports, _ = catalog_run
    specs = {spec.name: spec for spec in builtin_cases()}
    for r in reports:
        assert r.identity_report is not None, r.name
        identities = r.identity_report
        assert identities.trials == 1000, r.name
        # The chain's transversal rows, sum |Delta_i| of them, whose
        # products are the |G| elements.
        chain = realize_case(specs[r.name]).group._stabilizer_chain()
        transversal_rows = sum(len(level.reps) for level in chain)
        assert identities.rows_checked == transversal_rows, r.name
        assert identities.non_bijective_rows == 0, r.name
        assert identities.shift_ok and identities.centering_ok, r.name
        assert identities.scaling_ok, r.name
        assert r.lemma4_ok, r.name
    rows = sum(r.identity_report.rows_checked for r in reports)
    print(
        f"ACCEPTANCE 5 PASS: norm identities decided exactly, 1000 trials/case "
        f"({rows} transversal rows checked as bijections)"
    )


def test_criterion_06_convolution_matches_matrix(catalog_run):
    reports, _ = catalog_run
    for r in reports:
        assert r.eq2_ok, r.name
    print(
        f"ACCEPTANCE 6 PASS: convolution operator equals the matrix cell "
        f"for cell on {len(reports)} cases"
    )


def test_criterion_07_zero_sum_contraction_and_power_agreement(catalog_run):
    # Every zero-sum f has ||A f|| < lambda2 (1 + delta) ||f||, and some has
    # ||A f|| > lambda2 (1 - delta) ||f||: the bracket the report records,
    # and, decided again here, one that a lambda2 off by 1e-6 fails.
    reports, _ = catalog_run
    specs = {spec.name: spec for spec in builtin_cases()}
    for r in reports:
        assert r.bracket_ok and r.bracket_delta == 1e-9, r.name
        assert r.lemma3_ok, r.name
        case = realize_case(specs[r.name])
        adj = build_bipartite(case.connection, case.graph.n)
        assert lambda2_bracket_ok(adj, r.lambda2), r.name
        for factor in (1 + 1e-6, 1 - 1e-6):
            assert not lambda2_bracket_ok(adj, r.lambda2 * factor), r.name
    print(
        f"ACCEPTANCE 7 PASS: lambda2 bracketed within a relative 1e-9 for "
        f"every zero-sum vector on {len(reports)} cases"
    )


def test_criterion_08_svd_reconstruction(catalog_run):
    reports, _ = catalog_run
    checked = 0
    for r in reports:
        if r.n_vertices <= 200:
            assert r.svd_residual is not None, r.name
            assert r.svd_residual <= RECONSTRUCTION_TOL, r.name
            assert r.orthonormality_defect <= RECONSTRUCTION_TOL, r.name
            checked += 1
    assert checked == len(reports)
    worst = max(r.svd_residual for r in reports)
    print(
        f"ACCEPTANCE 8 PASS: reconstruction residual and orthonormality "
        f"within {RECONSTRUCTION_TOL:g} on {checked} cases (worst {worst:.3g})"
    )


def test_criterion_09_coset_isomorphism_and_transitivity_flag(catalog_run):
    reports, _ = catalog_run
    for r in reports:
        assert r.sabidussi_ok, r.name
        assert r.locally_transitive == (r.n_double_cosets == 1), r.name
        assert r.local_agreement_ok, r.name
    print(
        "ACCEPTANCE 9 PASS: canonical coset isomorphism verified and the "
        "locally-transitive flag matches the double-coset count everywhere"
    )


def test_criterion_10_cauchy_schwarz_step(catalog_run):
    reports, _ = catalog_run
    for r in reports:
        assert r.cauchy_schwarz_ok, r.name
        assert r.cs_value >= 1.0 / r.valency_k - IDENTITY_TOL, r.name
    for name in ("complete-3", "cycle-cyclic-4", "cycle-dihedral-5"):
        assert _report(reports, name).cs_equality, name
    print(
        "ACCEPTANCE 10 PASS: 1/k <= ||p_S * p_v||^2 everywhere, with "
        "recorded equality on the triangle and cycle cases"
    )
