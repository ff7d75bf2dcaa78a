import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stabgap import catalog, harmonic, pipeline
from stabgap.casefile import realize_case
from stabgap.groups import ConnectionSet, PermutationGroup
from stabgap.harmonic import (
    convolution_matches_matrix,
    norm_identity_trials,
    point_mass,
    uniform_distribution,
)
from stabgap.perms import Permutation
from stabgap.pipeline import analyze_case
from stabgap.spectral import (
    BipartiteAdjacency,
    build_bipartite,
    singular_values,
    top_value_matches_degree,
)

from cases import (
    cyclic,
    ladder_cases,
    petersen_case,
    reference_compose_all,
    reference_norm_identity_trials,
    reference_operator,
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
    # Z_4 is regular: {g : g(0) = 0} is the identity alone.
    identity = ConnectionSet.of_point(cyclic(4), 0, [0])
    assert identity.elements == (Permutation.identity(4),)
    assert np.array_equal(identity.operator() @ f, f)


def test_convolve_uniform_over_group_averages():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(3)
    # {g : g(0) in {0, 1, 2}} is the whole group.
    group = ConnectionSet.of_point(s3(), 0, range(3))
    assert len(group) == 6
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
    # The matrix is assembled from H's orbits and the cosets S carries, K
    # from the cosets and H's element rows.  Keep G_v, its orbits and the
    # cosets u_w, and swap in the element rows of G_1, which has the same
    # order, on a copy of the set: K then counts the rows u_w * h over h in
    # G_1, and wherever their matrix differs from the assembled one, eq2
    # must fail.  Only 13 catalog cases have G_v > 1, so the ladder's cases
    # join them.
    rejected = []
    for spec in catalog.builtin_cases() + ladder_cases():
        case = realize_case(spec)
        here, n = case.connection, case.graph.n
        h = here.subgroup
        mixed = PermutationGroup(n, h._gen_rows)
        mixed._chain = h._stabilizer_chain()
        mixed._rows = case.group.stabilizer(1).element_array()
        swapped = copy.copy(here)
        swapped.subgroup = mixed
        adj = build_bipartite(swapped, n)
        assert np.array_equal(adj.matrix, build_bipartite(here, n).matrix)
        assert convolution_matches_matrix(here, adj)
        rows = reference_compose_all(here.cosets, mixed._rows).reshape(-1, n)
        kernel = reference_operator(rows)
        assert np.array_equal(swapped.operator(), kernel)
        if np.array_equal(kernel, adj.matrix):
            assert convolution_matches_matrix(swapped, adj)
        else:
            assert not convolution_matches_matrix(swapped, adj)
            rejected.append(spec.name)
    assert len(rejected) >= 14, rejected


@pytest.mark.parametrize("trials", [1, 7, 100])
@pytest.mark.parametrize("make_case", [triangle_case, petersen_case])
def test_matrix_consistency_draws_probe_blocks(make_case, trials):
    # eq2 compares two matrices exactly, so the probe block it draws is
    # empty whatever trials asks for: what follows starts where it would
    # without eq2, whatever the verdict.
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
        assert report.trials == 1000
        assert report.rows_checked == case.group.order()
        assert report.non_bijective_rows == 0
        assert report.shift_ok and report.centering_ok and report.scaling_ok


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
    # Rows and Permutation objects check the same |G| rows; the group
    # itself checks its chain's transversal rows, and nothing else differs.
    for case in [triangle_case(), petersen_case()]:
        group = case.group
        reports = [
            norm_identity_trials(case.graph.n, elements, 200, np.random.default_rng(29))
            for elements in (group.element_array(), group.elements(), group)
        ]
        assert reports[0] == reports[1]
        assert reports[0].rows_checked == group.order()
        assert reports[2] == replace(reports[0], rows_checked=len(chain_rows(group)))
    with pytest.raises(ValueError, match="distinct"):
        twice = [Permutation.identity(3)] * 2
        norm_identity_trials(3, twice, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        norm_identity_trials(4, s3().element_array(), 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="degree"):
        norm_identity_trials(4, s3(), 1, np.random.default_rng(0))


def chain_rows(group):
    """The transversal rows of every level of the group's chain, level by
    level, or the identity row for a chain of no levels."""
    parts = [level.reps for level in group._stabilizer_chain()]
    return np.concatenate(parts) if parts else np.arange(group.degree)[None, :]


@pytest.mark.parametrize(
    "spec",
    catalog.builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)],
    ids=lambda spec: spec.name,
)
def test_norm_identity_trials_match_the_fancy_index_loop(spec):
    # The same report as the loop that marks each row's images by fancy
    # indexing: over the chain's transversal rows, sum |Delta_i| of them
    # (their product is |G|), for the group, and over every element for
    # its rows up to 5040 of them.
    case = realize_case(spec)
    group, n = case.group, case.graph.n
    sizes = [len(level.reps) for level in group._stabilizer_chain()]
    assert math.prod(sizes) == group.order()
    report = norm_identity_trials(n, group, 1000, np.random.default_rng(0))
    assert report.rows_checked == sum(sizes)
    assert report == reference_norm_identity_trials(n, chain_rows(group), 1000)
    assert report.ok
    if group.order() <= 5040:
        rows = group.element_array()
        listed = norm_identity_trials(n, rows, 1000, np.random.default_rng(0))
        assert listed == reference_norm_identity_trials(n, rows, 1000)


@pytest.mark.parametrize("kind", ["group", "rows"])
def test_norm_identity_trials_check_the_whole_group_from_as_many_trials(kind):
    # S3, at fewer trials than |G|, as many, and more: the trial count is
    # only recorded, so the same rows are checked whatever it is, all six
    # elements given as rows, or the chain's transversal rows, which
    # certify all six, given the group.
    group = s3()
    elements = group if kind == "group" else group.element_array()
    expected = 6 if kind == "rows" else len(chain_rows(group))
    reports = [
        norm_identity_trials(3, elements, trials, np.random.default_rng(trials))
        for trials in (0, 5, 6, 1000)
    ]
    for trials, report in zip((0, 5, 6, 1000), reports):
        assert report == replace(reports[-1], trials=trials)
    assert reports[-1].ok and reports[-1].rows_checked == expected


def test_norm_identity_trials_of_the_trivial_group():
    # A chain of no levels: the identity row alone is checked.
    group = PermutationGroup.trivial(3)
    assert group._stabilizer_chain() == []
    report = norm_identity_trials(3, group, 1000, np.random.default_rng(0))
    assert report.ok and report.rows_checked == 1 and report.non_bijective_rows == 0
    assert report == reference_norm_identity_trials(3, np.arange(3)[None, :], 1000)


@pytest.mark.parametrize("kind", ["group", "rows", "permutations"])
def test_norm_identity_trials_draw_no_random_numbers(kind):
    # Lemma 4 is decided without the generator, so the stream after it is
    # the stream before it.
    case = petersen_case()
    elements = {
        "group": case.group,
        "rows": case.group.element_array(),
        "permutations": case.group.elements(),
    }[kind]
    rng = np.random.default_rng(41)
    rng.random()
    before = rng.bit_generator.state
    assert norm_identity_trials(case.graph.n, elements, 1000, rng).ok
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("kind", ["group", "rows"])
def test_norm_identity_trials_reject_a_negative_trial_count(kind):
    group = s3()
    elements = group if kind == "group" else group.element_array()
    with pytest.raises(ValueError, match="-5"):
        norm_identity_trials(3, elements, -5, np.random.default_rng(0))


def test_norm_identity_trials_read_a_group_rows_unchecked(monkeypatch):
    # A group's rows are its chain's transversal rows, distinct by
    # construction, so they are not checked; outside rows are.
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
    # kneser-9-4: |G| = 9! rows of 126 images would take 45.7 MB.  Lemma 4
    # reads only the chain's transversal rows, 160 of them, so the traced
    # peak stays under a tenth of |G| * n bytes.  ``element_array`` lists
    # through ``_all_rows``.
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


def corrupt_transversal_row(group, level, row):
    """Make row ``row`` of the chain level's transversal send its second
    point where it sends its first, after the chain is built: no longer a
    bijection.  The level's rows are replaced, not written into."""
    chain = group._stabilizer_chain()
    reps = chain[level].reps.copy()
    reps[row, 1] = reps[row, 0]
    chain[level].reps = reps


def test_norm_identity_trials_reject_a_row_that_repeats_an_image(monkeypatch):
    # A group's rows are not re-checked by ``_image_rows``, so a
    # transversal row formed wrong reaches lemma 4 as it is.  One that
    # sends two points to one image is no bijection: lemma 4 must count
    # it, whichever level it is in, and fail, in the report and in the
    # pipeline's verdict.
    spec = catalog._kneser(5, 2)
    case = realize_case(spec)
    n = case.graph.n
    clean = norm_identity_trials(n, case.group, 1000, np.random.default_rng(0))
    assert clean.ok and clean.non_bijective_rows == 0
    assert analyze_case(spec).lemma4_ok
    depth = len(case.group._stabilizer_chain())
    assert depth > 1
    for level in range(depth):
        group = realize_case(spec).group
        corrupt_transversal_row(group, level, -1)
        report = norm_identity_trials(n, group, 1000, np.random.default_rng(0))
        assert report.rows_checked == clean.rows_checked
        assert report.non_bijective_rows == 1
        assert report.ok is False
        assert report.shift_ok and report.centering_ok and report.scaling_ok

    lemma4 = pipeline.norm_identity_trials

    def corrupting(n, group, trials, rng=None):
        corrupt_transversal_row(group, depth - 1, 0)
        return lemma4(n, group, trials, rng)

    monkeypatch.setattr(pipeline, "norm_identity_trials", corrupting)
    report = analyze_case(spec)
    assert report.identity_report.non_bijective_rows == 1
    assert not report.lemma4_ok


def s6():
    return PermutationGroup(
        6, [Permutation([1, 0, 2, 3, 4, 5]), Permutation([1, 2, 3, 4, 5, 0])]
    )


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.intp])
def test_non_bijective_rows_are_counted_one_row_at_a_time(dtype):
    # A repeated image and an image past n - 1 each mark their own row,
    # and neither spills into the row after it, the last row included.
    rows = np.array(
        [[0, 1, 2, 3], [3, 3, 1, 0], [1, 2, 3, 0], [0, 1, 2, 4], [2, 3, 0, 1],
         [0, 1, 2, 9]],
        dtype=dtype,
    )
    bad = harmonic._non_bijective(rows, 4)
    assert bad.tolist() == [False, True, False, True, False, True]
    assert not harmonic._non_bijective(rows[[0, 2, 4]], 4).any()
    assert harmonic._non_bijective(rows[:0], 4).shape == (0,)


@pytest.mark.parametrize(
    "make_spec",
    [lambda: catalog._complete(5), lambda: None],
    ids=["complete-5", "s6"],
)
def test_non_bijective_rows_count_each_bad_transversal_row_once(
    monkeypatch, make_spec
):
    # Corrupting any one transversal row of any one chain level, after the
    # chain is built, makes exactly that row non-bijective: the count is
    # 1, the rows checked are as many as before, and lemma 4 fails, in
    # the report and, for a catalog case, in the pipeline's verdict.
    spec = make_spec()

    def make_group():
        return s6() if spec is None else realize_case(spec).group

    group = make_group()
    n = group.degree
    clean = norm_identity_trials(n, group, 1000, np.random.default_rng(3))
    assert clean.ok
    sizes = [len(level.reps) for level in group._stabilizer_chain()]
    assert clean.rows_checked == sum(sizes) and len(sizes) > 1
    for level, size in enumerate(sizes):
        for row in sorted({0, size // 2, size - 1}):
            group = make_group()
            corrupt_transversal_row(group, level, row)
            report = norm_identity_trials(n, group, 1000, np.random.default_rng(3))
            assert report.non_bijective_rows == 1, (level, row)
            assert report.rows_checked == clean.rows_checked
            assert not report.ok
    if spec is None:
        return
    lemma4 = pipeline.norm_identity_trials

    def corrupting(n, group, trials, rng=None):
        corrupt_transversal_row(group, 0, len(group._stabilizer_chain()[0].reps) - 1)
        return lemma4(n, group, trials, rng)

    monkeypatch.setattr(pipeline, "norm_identity_trials", corrupting)
    report = analyze_case(spec)
    assert report.identity_report.non_bijective_rows == 1
    assert not report.lemma4_ok


def test_norm_identity_zero_trials():
    # trials is only recorded: zero trials still check every row given.
    report = norm_identity_trials(3, s3().element_array(), 0, np.random.default_rng(0))
    assert report.trials == report.non_bijective_rows == 0
    assert report.rows_checked == 6
    assert report.ok


def test_norm_identity_trials_build_no_element_objects(monkeypatch):
    # The rows are checked as one array; no per-row Permutation is built.
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
