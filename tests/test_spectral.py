import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from stabgap import catalog, spectral
from stabgap.casefile import realize_case
from stabgap.errors import ConvergenceError, SizeLimitError, StructureError
from stabgap.graphs import CosetGraphSpec, build_coset_graph, make_transitive_case
from stabgap.groups import ConnectionSet, PermutationGroup
from stabgap.spectral import (
    BipartiteAdjacency,
    build_bipartite,
    lambda1_power_iteration,
    lambda2_power_iteration,
    reconstruction_report,
    singular_values,
    top_value_matches_degree,
    zero_sum_contraction_ok,
)

from cases import (
    coset_graph_data,
    cycle_graph,
    cyclic,
    double_coset,
    petersen_case,
    reference_bipartite,
    reference_lambda1_power_iteration,
    reference_lambda2_power_iteration,
    reference_reconstruction,
    reference_zero_sum_contraction_ok,
    s3,
    triangle_case,
)


def triangle_adjacency():
    case = triangle_case()
    return build_bipartite(case.connection, 3)


# -- matrix construction ------------------------------------------------------


def test_build_triangle_matrix():
    # brute-force oracle: count images of the four connection elements
    adj = triangle_adjacency()
    assert adj.matrix.tolist() == [[0, 2, 2], [2, 1, 1], [2, 1, 1]]
    assert adj.s_size == 4
    assert adj.matrix.sum(axis=1).tolist() == [4, 4, 4]
    assert adj.matrix.sum(axis=0).tolist() == [4, 4, 4]


def test_build_four_cycle_matrix_is_graph_adjacency():
    case = make_transitive_case(cyclic(4), cycle_graph(4))
    adj = build_bipartite(case.connection, 4)
    expected = np.zeros((4, 4), dtype=int)
    for u, v in cycle_graph(4).edges():
        expected[u, v] = expected[v, u] = 1
    assert (adj.matrix == expected).all()


def test_build_single_swap():
    from stabgap.groups import ConnectionSet, PermutationGroup
    from stabgap.perms import Permutation

    conn = ConnectionSet({Permutation([1, 0])}, PermutationGroup.trivial(2))
    adj = build_bipartite(conn, 2)
    assert adj.matrix.tolist() == [[0, 1], [1, 0]]


def test_base_vertex_row_is_stabilizer_order_on_neighbors():
    for case in [triangle_case(), petersen_case()]:
        adj = build_bipartite(case.connection, case.graph.n)
        v = case.base_vertex
        row = adj.matrix[v]
        m = case.stabilizer.order()
        for w in range(case.graph.n):
            expected = m if case.graph.has_edge(v, w) else 0
            assert row[w] == expected


def test_orbit_count_matrix_matches_explicit_reference():
    specs = catalog.builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)]
    for spec in specs:
        case = realize_case(spec)
        n = case.graph.n
        adj = build_bipartite(case.connection, n)
        assert np.array_equal(adj.matrix, reference_bipartite(case.connection, n))


def test_matrix_is_held_once_as_float64():
    # The matrix is held once: one n x n float64 array, 8 * n^2 bytes.
    # ``matrix`` converts it to int64 when read.
    case = realize_case(catalog._hypercube(7))
    n = case.graph.n
    adj = build_bipartite(case.connection, n)
    held = [getattr(adj, name) for name in type(adj).__slots__]
    assert sum(a.nbytes for a in held if isinstance(a, np.ndarray)) == 8 * n * n
    assert adj.float_matrix.dtype == float and not adj.float_matrix.flags.writeable
    assert adj.matrix.dtype == np.int64
    assert np.array_equal(adj.matrix, reference_bipartite(case.connection, n))


def test_matrix_validation_is_unchanged():
    with pytest.raises(ValueError, match="integers"):
        BipartiteAdjacency(np.eye(2))
    with pytest.raises(StructureError, match="nonnegative"):
        BipartiteAdjacency(-np.eye(2, dtype=int))
    with pytest.raises(StructureError, match="symmetric"):
        BipartiteAdjacency(np.array([[1, 1], [0, 2]]))
    with pytest.raises(StructureError, match="row sums"):
        BipartiteAdjacency(np.array([[1, 0], [0, 2]]))
    with pytest.raises(StructureError, match="connection size 3"):
        BipartiteAdjacency(np.eye(2, dtype=np.uint8), s_size=3)
    counts = np.array([[0, 2], [2, 0]], dtype=np.uint8)
    adj = BipartiteAdjacency(counts, s_size=2)
    assert adj.matrix.tolist() == [[0, 2], [2, 0]] and adj.dump() == "0 2\n2 0"


@settings(max_examples=40, deadline=None)
@given(coset_graph_data)
def test_orbit_count_matrix_matches_explicit_reference_on_random_sets(drawn):
    group, subgroup_gens, reps = drawn
    subgroup = PermutationGroup(group.degree, subgroup_gens)
    # On the coset graph, over the stabilizer of vertex 0.
    try:
        graph, case = build_coset_graph(CosetGraphSpec(group, subgroup, tuple(reps)))
    except StructureError:
        pass
    else:
        adj = build_bipartite(case.connection, graph.n)
        assert np.array_equal(adj.matrix, reference_bipartite(case.connection, graph.n))
    # On the group's own points, for S = the union of the H a^(+-1) H, whose
    # left cosets need not be split by any point H fixes.
    elements = set()
    for a in reps:
        elements |= double_coset(subgroup, a) | double_coset(subgroup, a.inverse())
    connection = ConnectionSet(elements, subgroup)
    adj = build_bipartite(connection, group.degree)
    assert np.array_equal(adj.matrix, reference_bipartite(connection, group.degree))


def test_set_with_no_splitting_fixed_point_is_refused():
    # No point splits S_3 into its left cosets: the trivial subgroup fixes
    # every point, but none has six distinct images under S_3, and S_3
    # itself fixes no point.  The set's cosets assemble the matrix all the
    # same: each point goes to each point under two of the six elements.
    elements = s3().elements()
    for subgroup in (PermutationGroup.trivial(3), s3()):
        connection = ConnectionSet(elements, subgroup)
        adj = build_bipartite(connection, 3)
        assert adj.matrix.tolist() == [[2, 2, 2]] * 3
        assert np.array_equal(adj.matrix, reference_bipartite(connection, 3))


def test_assembly_forms_no_connection_sized_array():
    # |S| * n bytes is S's rows themselves: 7200 x 56 uint8 on kneser-8-3,
    # 35 280 x 8 on complete-8.  An |S| x n scatter of int64 cells takes
    # eight times that, and an |S|-long sort of a column of S more than
    # that on complete-8.  At n = 8 one whole column of S's rows, cast to
    # intp for ``bincount``, alone takes |S| * n bytes, so S's operator
    # counts each column a block of rows at a time.
    kneser = realize_case(catalog._kneser(8, 3)).connection
    complete = realize_case(catalog._complete(8)).connection
    builds = (
        (kneser, lambda: build_bipartite(kneser, kneser.degree)),
        (kneser, kneser.operator),
        (complete, lambda: build_bipartite(complete, complete.degree)),
        (complete, complete.operator),
    )
    for connection, build in builds:
        budget = len(connection) * connection.degree
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            build()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < budget, (len(connection), peak, budget)


def test_adjacency_rejects_asymmetric_and_negative():
    with pytest.raises(StructureError, match="symmetric"):
        BipartiteAdjacency(np.array([[0, 1], [0, 0]]))
    with pytest.raises(StructureError, match="nonnegative"):
        BipartiteAdjacency(np.array([[0, -1], [-1, 0]]))
    with pytest.raises(StructureError, match="row sums"):
        BipartiteAdjacency(np.array([[1, 1], [1, 0]]))


def test_adjacency_dump_format():
    adj = triangle_adjacency()
    assert adj.dump().splitlines() == ["0 2 2", "2 1 1", "2 1 1"]


# -- singular values -----------------------------------------------------------


def test_triangle_singular_values_golden():
    adj = triangle_adjacency()
    summary = singular_values(adj)
    assert np.allclose(summary.values, [4.0, 2.0, 0.0], atol=1e-9)
    assert np.allclose(summary.eigenvalues, [4.0, -2.0, 0.0], atol=1e-9)
    assert reconstruction_report(summary, adj).residual <= 1e-12


def test_doubled_complete_graph_matrix_singular_values():
    # 2(J - I) has eigenvalues {4, -2, -2}: a repeated singular value
    adj = BipartiteAdjacency(2 * (np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)))
    summary = singular_values(adj)
    assert np.allclose(summary.values, [4.0, 2.0, 2.0], atol=1e-12)
    report = reconstruction_report(summary, adj)
    assert report.residual <= 1e-12
    assert report.orthonormality_defect <= 1e-12


def test_four_cycle_singular_values():
    case = make_transitive_case(cyclic(4), cycle_graph(4))
    summary = singular_values(build_bipartite(case.connection, 4))
    assert np.allclose(summary.values, [2.0, 2.0, 0.0, 0.0], atol=1e-9)


def test_swap_matrix_singular_values():
    from stabgap.groups import ConnectionSet, PermutationGroup
    from stabgap.perms import Permutation

    conn = ConnectionSet({Permutation([1, 0])}, PermutationGroup.trivial(2))
    summary = singular_values(build_bipartite(conn, 2))
    assert np.allclose(summary.values, [1.0, 1.0], atol=1e-12)


def test_values_sorted_nonnegative_and_counted():
    summary = singular_values(build_bipartite(petersen_case().connection, 10))
    assert summary.values.size == 10
    assert (summary.values >= 0).all()
    assert (np.diff(summary.values) <= 1e-12).all()


def test_singular_values_against_lapack_oracle():
    for case in [triangle_case(), petersen_case()]:
        adj = build_bipartite(case.connection, case.graph.n)
        summary = singular_values(adj)
        oracle = np.sort(np.abs(np.linalg.eigvalsh(adj.matrix)))[::-1]
        assert np.allclose(summary.values, oracle, atol=1e-9)


def test_dense_cap_enforced(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_SIZE_CAP", 2)
    with pytest.raises(SizeLimitError, match="size 3 exceeds dense eigensolve cap 2"):
        singular_values(triangle_adjacency())


def test_top_value_matches_degree():
    for case in [triangle_case(), petersen_case()]:
        adj = build_bipartite(case.connection, case.graph.n)
        assert top_value_matches_degree(singular_values(adj), adj)


# -- reconstruction -------------------------------------------------------------


def test_reconstruction_triangle():
    adj = triangle_adjacency()
    report = reconstruction_report(singular_values(adj), adj)
    assert report.residual <= 1e-8
    assert report.orthonormality_defect <= 1e-8


def test_reconstruction_zero_matrix():
    adj = BipartiteAdjacency(np.zeros((3, 3), dtype=int))
    report = reconstruction_report(singular_values(adj), adj)
    assert report.residual == 0.0


def test_reconstruction_swap_matrix_tight():
    adj = BipartiteAdjacency(np.array([[0, 1], [1, 0]]))
    report = reconstruction_report(singular_values(adj), adj)
    assert report.residual <= 1e-12


# -- second singular value via power iteration -----------------------------------


def test_power_iteration_triangle():
    assert abs(lambda2_power_iteration(triangle_adjacency()) - 2.0) <= 1e-10


def test_power_iteration_matches_dense_on_petersen():
    adj = build_bipartite(petersen_case().connection, 10)
    dense = singular_values(adj).lambda2
    assert abs(lambda2_power_iteration(adj) - dense) <= 1e-8 * max(1.0, dense)


def test_power_iteration_one_by_one():
    adj = BipartiteAdjacency(np.array([[5]]))
    assert lambda2_power_iteration(adj) == 0.0


def test_power_iteration_nonconvergence_carries_estimate():
    adj = build_bipartite(petersen_case().connection, 10)
    with pytest.raises(ConvergenceError) as info:
        lambda2_power_iteration(adj, max_iter=1)
    assert info.value.last_estimate > 0.0


def test_contraction_on_zero_sum_vectors():
    rng = np.random.default_rng(7)
    for case in [triangle_case(), petersen_case()]:
        adj = build_bipartite(case.connection, case.graph.n)
        lam2 = singular_values(adj).lambda2
        assert zero_sum_contraction_ok(adj, lam2, 100, rng)
        # with a zero bound any nonzero image is a violation
        assert not zero_sum_contraction_ok(adj, 0.0, 100, rng)


# -- exactness against the two-loop, two-family, one-trial-at-a-time references --


@pytest.fixture(scope="module")
def reference_matrices():
    """The 24 catalog matrices, Petersen's, and cycle-dihedral-200's (the
    largest a reconstruction check reads, and a slow-gap power iteration)."""
    specs = catalog.builtin_cases() + [catalog._cycle_dihedral(200)]
    matrices = {}
    for spec in specs:
        case = realize_case(spec)
        matrices[spec.name] = build_bipartite(case.connection, case.graph.n)
    matrices["petersen"] = build_bipartite(petersen_case().connection, 10)
    return matrices


def _outcome(power_iteration, adj, **kwargs):
    try:
        return "value", power_iteration(adj, **kwargs)
    except ConvergenceError as e:
        return "error", e.last_estimate


@pytest.mark.parametrize(
    "ours, reference",
    [
        (lambda1_power_iteration, reference_lambda1_power_iteration),
        (lambda2_power_iteration, reference_lambda2_power_iteration),
    ],
)
def test_power_iterations_match_the_two_loop_reference(
    reference_matrices, ours, reference
):
    for name, adj in reference_matrices.items():
        seeds = (0, 1, 2) if name == "cycle-dihedral-200" else (0, 7)
        for seed in seeds:
            got = _outcome(ours, adj, seed=seed)
            assert got == _outcome(reference, adj, seed=seed), (name, seed)
            assert got[0] == "value", (name, seed)
        # the loop's non-convergence path carries the same last estimate
        got = _outcome(ours, adj, max_iter=2)
        assert got == _outcome(reference, adj, max_iter=2), name


def test_reconstruction_matches_the_two_family_reference(reference_matrices):
    for name, adj in reference_matrices.items():
        report = reconstruction_report(singular_values(adj), adj)
        residual, defect = reference_reconstruction(adj)
        assert report.residual == residual, name
        assert report.orthonormality_defect == defect, name


def test_contraction_matches_the_one_trial_reference(reference_matrices):
    for name, adj in reference_matrices.items():
        lam2 = singular_values(adj).lambda2
        for seed in (0, 1):
            ours = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            verdict = zero_sum_contraction_ok(adj, lam2, 100, ours)
            assert verdict == reference_zero_sum_contraction_ok(
                adj, lam2, 100, reference
            ), (name, seed)
            assert verdict, (name, seed)
            assert ours.random() == reference.random(), (name, seed)


def test_contraction_trials_are_the_one_at_a_time_draws(reference_matrices):
    # A bound just above the worst ratio of the one-at-a-time draws passes
    # and one just below it fails, so the block's rows are those draws.
    adj = reference_matrices["petersen"]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(10):
            f = rng.standard_normal(adj.n)
            f -= f.mean()
            worst = max(worst, np.linalg.norm(adj.apply(f)) / np.linalg.norm(f))
        for factor, verdict in ((1 + 1e-6, True), (1 - 1e-6, False)):
            rng = np.random.default_rng(seed)
            assert zero_sum_contraction_ok(adj, worst * factor, 10, rng) is verdict


def test_failing_contraction_draws_every_trial(reference_matrices):
    # The one behaviour change from checking one trial at a time: a
    # failing verdict still draws all trials * n normals.
    adj = reference_matrices["petersen"]
    rng = np.random.default_rng(3)
    assert not zero_sum_contraction_ok(adj, 0.0, 100, rng)
    drawn = np.random.default_rng(3)
    drawn.standard_normal(100 * adj.n)
    assert rng.random() == drawn.random()
    stopped = np.random.default_rng(3)
    assert not reference_zero_sum_contraction_ok(adj, 0.0, 100, stopped)
    assert stopped.random() != drawn.random()
