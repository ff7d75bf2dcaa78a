import numpy as np
import pytest

from stabgap.errors import ConvergenceError, SizeLimitError, StructureError
from stabgap.graphs import make_transitive_case
from stabgap.spectral import (
    BipartiteAdjacency,
    build_bipartite,
    lambda2_power_iteration,
    reconstruction_report,
    singular_values,
    top_value_matches_degree,
    zero_sum_contraction_ok,
)

from cases import cycle_graph, cyclic, petersen_case


from cases import triangle_case


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
    assert summary.method == "dense-eigen"
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


def test_dense_cap_enforced():
    with pytest.raises(SizeLimitError):
        singular_values(triangle_adjacency(), size_cap=2)


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


def test_reconstruction_requires_vectors():
    adj = triangle_adjacency()
    summary = singular_values(adj, keep_vectors=False)
    with pytest.raises(ValueError, match="vectors"):
        reconstruction_report(summary, adj)


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
