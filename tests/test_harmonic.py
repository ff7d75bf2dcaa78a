import tracemalloc

import numpy as np
import pytest

from stabgap import catalog, harmonic
from stabgap.casefile import realize_case
from stabgap.errors import SizeLimitError
from stabgap.groups import ConnectionSet, PermutationGroup
from stabgap.harmonic import (
    convolution_matches_matrix,
    norm_identity_trials,
    point_mass,
    uniform_distribution,
)
from stabgap.perms import Permutation
from stabgap.spectral import (
    BipartiteAdjacency,
    build_bipartite,
    singular_values,
    top_value_matches_degree,
)

from cases import (
    petersen_case,
    reference_bipartite,
    reference_norm_identity_trials,
    reference_random_supports,
    s3,
    triangle_case,
)


def test_convolve_indicator_with_point_mass_triangle():
    case = triangle_case()
    out = case.connection.operator() @ point_mass(0, 3)
    assert out.tolist() == [0.0, 2.0, 2.0]


def test_convolve_with_identity_point_mass_is_identity():
    rng = np.random.default_rng(3)
    f = rng.standard_normal(4)
    identity = ConnectionSet([Permutation.identity(4)], PermutationGroup.trivial(4))
    assert np.array_equal(identity.operator() @ f, f)


def test_convolve_uniform_over_group_averages():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(3)
    group = ConnectionSet(s3().element_array(), PermutationGroup.trivial(3))
    out = group.operator() @ f / len(group)
    assert np.allclose(out, np.full(3, f.sum() / 3), atol=1e-15)


def test_convolve_definition_by_direct_sum():
    # independent evaluation of the defining sum at every vertex
    rng = np.random.default_rng(11)
    f = rng.standard_normal(3)
    connection = triangle_case().connection
    out = connection.operator() @ f / len(connection)
    for x in range(3):
        direct = sum(f[g.inverse()(x)] for g in connection.elements) / len(connection)
        assert abs(out[x] - direct) <= 1e-15


def test_constructors():
    u = uniform_distribution(4)
    assert np.allclose(u, 0.25)
    assert abs(np.linalg.norm(u) - 0.5) <= 1e-15

    pv = point_mass(1, 3)
    assert pv.tolist() == [0.0, 1.0, 0.0]


def test_constructor_errors():
    with pytest.raises(ValueError, match="out of range"):
        point_mass(3, 3)
    with pytest.raises(ValueError, match="positive"):
        uniform_distribution(0)


def test_sum_preservation():
    # Convolving by S's indicator multiplies the sum by |S|.
    rng = np.random.default_rng(9)
    for case in [triangle_case(), petersen_case()]:
        kernel, size = case.connection.operator(), len(case.connection)
        for _ in range(25):
            f = rng.standard_normal(case.graph.n)
            assert abs((kernel @ f).sum() - size * f.sum()) <= 1e-12 * size


def test_probability_convolution_preserves_zero_sum():
    rng = np.random.default_rng(13)
    connection = petersen_case().connection
    q = connection.operator() / len(connection)
    for _ in range(20):
        f = rng.standard_normal(10)
        f -= f.mean()
        assert abs((q @ f).sum()) <= 1e-12


# -- convolution vs matrix ----------------------------------------------------


def test_matrix_consistency_point_mass_triangle():
    case = triangle_case()
    adj = build_bipartite(case.connection, 3)
    kernel = case.connection.operator()
    pv = point_mass(0, 3)
    assert np.array_equal(kernel @ pv, adj.matrix.T.astype(float) @ pv)
    assert np.array_equal(kernel, adj.matrix.T)


def test_matrix_consistency_all_ones_gives_regular_degree():
    case = triangle_case()
    out = case.connection.operator() @ np.ones(3)
    assert np.array_equal(out, np.full(3, float(len(case.connection))))


def test_matrix_consistency_random_trials():
    rng = np.random.default_rng(17)
    for case in [triangle_case(), petersen_case()]:
        adj = build_bipartite(case.connection, case.graph.n)
        assert convolution_matches_matrix(case.connection, adj, 100, rng)


def test_matrix_consistency_detects_wrong_matrix():
    # the rotation-only triangle action has a different bipartite matrix
    from stabgap.graphs import make_transitive_case
    from cases import cyclic, triangle

    case = triangle_case()
    rotation_case = make_transitive_case(cyclic(3), triangle())
    wrong = build_bipartite(rotation_case.connection, 3)
    assert not convolution_matches_matrix(case.connection, wrong)


def test_eq2_rejects_an_orbit_count_matrix_with_the_factor_off():
    # With the multiplicity |G_v|/|x^G_v| doubled the matrix is still
    # symmetric and regular, and its top value still its row sum: only the
    # explicit-S route of eq2 can tell.
    for spec in catalog.builtin_cases():
        case = realize_case(spec)
        right = build_bipartite(case.connection, case.graph.n)
        doubled = BipartiteAdjacency(2 * right.matrix)
        assert top_value_matches_degree(singular_values(doubled), doubled)
        assert convolution_matches_matrix(case.connection, right)
        assert not convolution_matches_matrix(case.connection, doubled)


def test_eq2_rejects_rows_that_disagree_with_the_cosets():
    # The matrix is assembled from the cosets S carries, K from its rows.
    # Keep the cosets of S at the base vertex and take the rows of the set
    # at vertex 1, which has the same size: wherever the two sets have
    # different matrices, eq2 must fail.
    rejected = []
    for spec in catalog.builtin_cases():
        case = realize_case(spec)
        group, graph, v = case.group, case.graph, case.base_vertex
        here = ConnectionSet.of_point(group, v, graph.neighbors(v))
        there = ConnectionSet.of_point(group, 1, graph.neighbors(1))
        swapped = object.__new__(ConnectionSet)
        swapped._fill(there._table, here.subgroup, here.representatives, here.cosets)
        adj = build_bipartite(swapped, graph.n)
        assert np.array_equal(adj.matrix, build_bipartite(here, graph.n).matrix)
        assert convolution_matches_matrix(here, adj)
        if np.array_equal(reference_bipartite(there, graph.n), adj.matrix):
            assert convolution_matches_matrix(swapped, adj)
        else:
            assert not convolution_matches_matrix(swapped, adj)
            rejected.append(spec.name)
    assert len(rejected) >= 14


@pytest.mark.parametrize("trials", [1, 7, 100])
@pytest.mark.parametrize("make_case", [triangle_case, petersen_case])
def test_matrix_consistency_draws_probe_blocks(make_case, trials):
    # eq2 compares two matrices exactly, so the probe block it draws is
    # empty whatever trials asks for: what follows (the lemma-4 trials in
    # the pipeline) starts where it would without eq2, whatever the verdict.
    case = make_case()
    n = case.graph.n
    right = build_bipartite(case.connection, n)
    wrong = BipartiteAdjacency(right.matrix + np.eye(n, dtype=np.int64))
    for adj, verdict in ((right, True), (wrong, False)):
        rng = np.random.default_rng(trials)
        assert convolution_matches_matrix(case.connection, adj, trials, rng) is verdict
        expected = np.random.default_rng(trials)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert rng.random() == expected.random()


def test_matrix_consistency_zero_trials_and_degree_mismatch():
    # trials is read by nothing: a wrong matrix fails even with trials=0.
    triangle, petersen = triangle_case(), petersen_case()
    adj = build_bipartite(petersen.connection, petersen.graph.n)
    wrong = BipartiteAdjacency(adj.matrix + np.eye(adj.n, dtype=np.int64))
    rng = np.random.default_rng(0)
    assert convolution_matches_matrix(petersen.connection, adj, 0, rng)
    assert not convolution_matches_matrix(petersen.connection, wrong, 0, rng)
    for trials in (0, 5):
        with pytest.raises(ValueError, match="degree"):
            convolution_matches_matrix(triangle.connection, adj, trials, rng)


# -- norm identities -----------------------------------------------------------


def test_norm_identity_trials_triangle_and_petersen():
    for case in [triangle_case(), petersen_case()]:
        rng = np.random.default_rng(23)
        report = norm_identity_trials(
            case.graph.n, case.group.elements(), 1000, rng
        )
        assert report.ok, report
        assert report.max_deviation <= 1e-12


def test_shift_identity_degenerate_zero_function():
    n = 4
    u = uniform_distribution(n)
    assert abs(np.sum((np.zeros(n) + u) ** 2) - 1.0 / n) <= 1e-15


def test_centering_identity_point_mass():
    n = 5
    u = uniform_distribution(n)
    pv = point_mass(2, n)
    assert abs(np.sum((pv - u) ** 2) - (1.0 - 1.0 / n)) <= 1e-15


def test_convolution_shift_identity_uniform_case():
    connection = triangle_case().connection
    q = connection.operator() / len(connection)
    u = uniform_distribution(3)
    for sign in (1.0, -1.0):
        lhs = np.linalg.norm(q @ (u + sign * u))
        rhs = np.linalg.norm(q @ u + sign * u)
        assert abs(lhs - rhs) <= 1e-15


def test_norm_identity_trials_rows_match_permutations():
    for case in [triangle_case(), petersen_case()]:
        reports = [
            norm_identity_trials(
                case.graph.n, elements, 200, np.random.default_rng(29)
            )
            for elements in (
                case.group.element_array(),
                case.group.elements(),
                case.group,
            )
        ]
        assert reports[0] == reports[1] == reports[2]
    with pytest.raises(ValueError, match="distinct"):
        twice = [Permutation.identity(3)] * 2
        norm_identity_trials(3, twice, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        norm_identity_trials(4, s3().element_array(), 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="degree"):
        norm_identity_trials(4, s3(), 1, np.random.default_rng(0))
    with pytest.raises(SizeLimitError):
        norm_identity_trials(3, s3(), 1, np.random.default_rng(0), element_cap=5)


@pytest.mark.parametrize(
    "spec",
    catalog.builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)],
    ids=lambda spec: spec.name,
)
def test_norm_identity_trials_match_the_fancy_index_loop(spec):
    # The same report, to the bit, as the loop that gathers its trial rows
    # by fancy indexing, and the same random stream after it.
    case = realize_case(spec)
    rows = case.group.element_array()
    for seed in (0, 7):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        report = norm_identity_trials(case.graph.n, case.group, 1000, rng)
        reference = reference_norm_identity_trials(case.graph.n, rows, 1000, ref_rng)
        assert report == reference
        assert rng.random() == ref_rng.random()


def test_norm_identity_trials_read_a_group_rows_unchecked(monkeypatch):
    # A group's rows are formed from its chain (``_element_rows``) and are
    # distinct by construction, so they are not checked; outside rows are.
    def refuse(*args, **kwargs):
        raise AssertionError("group rows re-checked")

    monkeypatch.setattr(harmonic, "_image_rows", refuse)
    monkeypatch.setattr(harmonic, "_sorted_distinct", refuse)
    case = petersen_case()
    report = norm_identity_trials(
        case.graph.n, case.group, 50, np.random.default_rng(0)
    )
    assert report.ok and report.trials == 50
    with pytest.raises(AssertionError, match="re-checked"):
        norm_identity_trials(
            case.graph.n, case.group.element_array(), 1, np.random.default_rng(0)
        )


def test_norm_identity_trials_never_list_the_group(monkeypatch):
    # kneser-9-4: |G| = 9! rows of 126 images would take 45.7 MB.  The
    # draws list only G_b, 2880 rows, so the traced peak stays under a
    # tenth of |G| * n bytes.  ``element_array`` lists through
    # ``_all_rows``.
    case = realize_case(catalog._kneser(9, 4))
    group, n = case.group, case.graph.n
    listed = []
    all_rows = PermutationGroup._all_rows

    def recording(self):
        listed.append(self)
        return all_rows(self)

    monkeypatch.setattr(PermutationGroup, "_all_rows", recording)
    tracemalloc.start()
    try:
        report = norm_identity_trials(n, group, 1000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert listed == [] and group._rows is None
    assert peak < group.order() * n / 10, peak


def s6():
    return PermutationGroup(
        6, [Permutation([1, 0, 2, 3, 4, 5]), Permutation([1, 2, 3, 4, 5, 0])]
    )


def assert_supports_valid(chosen, weights, count, m):
    assert chosen.shape == weights.shape == (len(chosen), m)
    assert ((0 <= chosen) & (chosen < count)).all()
    ordered = np.sort(chosen, axis=1)
    assert (ordered[:, 1:] != ordered[:, :-1]).all()
    sizes = np.count_nonzero(weights, axis=1)
    assert ((1 <= sizes) & (sizes <= min(count, m))).all()
    # The support is a prefix of the row: positive weights, then zeros.
    assert (weights[np.arange(m) < sizes[:, None]] > 0).all()
    assert np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-15)


# |G| = 1, |G| below max_support, at the largest key draw (24 * 24), and
# above it, where rows are drawn with replacement and redrawn.
@pytest.mark.parametrize("count", [1, 5, 24, 576, 577, 40320])
def test_random_supports_are_distinct_and_sized(count):
    m = min(count, 24)
    chosen, weights = harmonic._random_supports(
        np.random.default_rng(count), count, 500, m
    )
    assert_supports_valid(chosen, weights, count, m)


# The key draws' edges (m * m = 576) and either side of them, a small
# count below m, and a group order far above it; blocks from one trial to
# complete-5's whole block.
@pytest.mark.parametrize(
    "count", [1, 5, 23, 24, 25, 64, 120, 575, 576, 577, 40320]
)
def test_random_supports_match_the_partition_sampler(count):
    # One argsort of the keys picks the same indices, in the same order,
    # as a partition, a sort of the m picked keys and two gathers, and the
    # generator moves on alike.
    m = min(count, 24)
    for seed in (0, 1, 2, 3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for trials in (1, 7, 42, 546):
            chosen, weights = harmonic._random_supports(rng, count, trials, m)
            expected = reference_random_supports(ref_rng, count, trials, m)
            assert chosen.dtype == expected[0].dtype
            assert chosen.tobytes() == expected[0].tobytes()
            assert weights.tobytes() == expected[1].tobytes()
        assert rng.random() == ref_rng.random()


def test_key_drawn_supports_keep_within_two_blocks():
    # complete-5: |G| = 120 is drawn by keys, 546 trials a block.  Each
    # block ranks (546, 120) keys; the ranks past the m kept must not
    # outlive the draw, so the traced peak stays under two block budgets.
    case = realize_case(catalog._complete(5))
    group, n = case.group, case.graph.n
    assert harmonic._draws_by_keys(group.order(), 24)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        report = norm_identity_trials(n, group, 1000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2 * harmonic._BLOCK_BYTES, peak


@pytest.mark.parametrize(
    "rows",
    [
        np.arange(3)[None, :],
        s3().element_array(),
        s6().element_array(),
    ],
    ids=["order-1", "order-6", "order-720"],
)
def test_norm_identity_trials_in_uneven_blocks(monkeypatch, rows):
    # A budget of a few trials per block, and a trial count that is not
    # a multiple of the block size: every trial is drawn once, in full
    # blocks but the last, and every support is distinct and sized.
    n, count = rows.shape[1], len(rows)
    m = min(count, 24)
    monkeypatch.setattr(harmonic, "_BLOCK_BYTES", 7 * 16 * max(m * n, count))
    draws = []
    random_supports = harmonic._random_supports

    def recording(*args):
        draws.append(random_supports(*args))
        return draws[-1]

    monkeypatch.setattr(harmonic, "_random_supports", recording)
    report = norm_identity_trials(n, rows, 51, np.random.default_rng(31))
    assert report.ok and report.trials == 51
    blocks = [len(chosen) for chosen, _ in draws]
    assert 51 % blocks[0] and len(blocks) == -(-51 // blocks[0]) > 1
    assert blocks == [blocks[0]] * (len(blocks) - 1) + [51 % blocks[0]]
    for chosen, weights in draws:
        assert_supports_valid(chosen, weights, count, m)


def test_norm_identity_zero_trials():
    report = norm_identity_trials(3, s3().element_array(), 0, np.random.default_rng(0))
    assert report.trials == 0
    assert report.max_deviation == 0.0 and report.ok


def test_norm_identity_trials_build_no_element_objects(monkeypatch):
    # The trials draw and convolve whole blocks of rows; no per-trial
    # Permutation is built.
    case = petersen_case()
    rows = case.group.element_array()
    built = []

    def count(name, original):
        def counting(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)
        return counting

    monkeypatch.setattr(
        Permutation, "_trusted",
        classmethod(count("Permutation", Permutation._trusted.__func__)),
    )
    monkeypatch.setattr(
        Permutation, "__init__", count("Permutation", Permutation.__init__)
    )
    report = norm_identity_trials(case.graph.n, rows, 1000, np.random.default_rng(37))
    assert report.ok
    assert built == []


