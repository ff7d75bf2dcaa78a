import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from stabgap import catalog, graphs, groups, pipeline, spectral
from stabgap.casefile import parse_case, realize_case
from stabgap.catalog import builtin_cases
from stabgap.groups import ConnectionSet, PermutationGroup
from stabgap.perms import Permutation
from stabgap.pipeline import (
    AnalyzeOptions,
    CaseAnalysisError,
    CSV_COLUMNS,
    analyze_case,
    analyze_many,
    case_seed,
)

from cases import coset_twins, ladder_cases

TRIANGLE_DOC = json.dumps(
    {
        "name": "triangle",
        "group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
        "stabilize_point": 0,
        "edges": [[0, 1], [0, 2], [1, 2]],
    }
)


def triangle_spec():
    return parse_case(TRIANGLE_DOC)


def test_analyze_triangle_report_values():
    report = analyze_case(triangle_spec())
    assert report.n_vertices == 3
    assert report.valency_k == 2
    assert report.group_order == 6
    assert report.stabilizer_order == 2
    assert report.s_size == 4
    assert report.n_double_cosets == 1
    assert report.locally_transitive
    assert report.locally_primitive
    assert abs(report.lambda1 - 4.0) <= 1e-9
    assert abs(report.lambda2 - 2.0) <= 1e-9
    assert report.singular_spectrum[2] <= 1e-9
    assert report.prop5_branch == "small-graph"
    assert report.normative_ok
    assert report.cs_equality


def test_csv_row_matches_columns_and_formats():
    report = analyze_case(triangle_spec())
    row = report.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    named = dict(zip(CSV_COLUMNS, row))
    assert named["name"] == "triangle"
    assert named["n_vertices"] == "3"
    assert named["lambda1"] == "4"
    assert named["locally_transitive"] == "true"
    assert named["prop5_branch"] == "small-graph"
    assert named["seed"] == str(report.seed)


def test_json_dict_carries_diagnostics():
    report = analyze_case(triangle_spec(), dump_matrix=True)
    doc = report.to_json_dict()
    assert doc["normative_ok"] is True
    assert doc["singular_values"][0] == pytest.approx(4.0)
    assert doc["chain"]["final_bound"] == pytest.approx(7.0 / 12.0)
    assert doc["matrix_dump"].splitlines() == ["0 2 2", "2 1 1", "2 1 1"]


def test_case_seed_is_stable_and_name_dependent():
    assert case_seed(0, "triangle") == case_seed(0, "triangle")
    assert case_seed(0, "triangle") != case_seed(1, "triangle")
    assert case_seed(0, "a") != case_seed(0, "b")


def test_reports_are_deterministic():
    a = analyze_case(triangle_spec())
    b = analyze_case(triangle_spec())
    assert a.csv_row() == b.csv_row()
    assert a.to_json_dict() == b.to_json_dict()


def test_document_options_override_defaults():
    doc = json.loads(TRIANGLE_DOC)
    doc["options"] = {"seed": 5}
    report = analyze_case(parse_case(json.dumps(doc)))
    assert report.seed == case_seed(5, "triangle")


@pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
def test_options_reject_a_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        AnalyzeOptions(tol=tol)
    doc = {**json.loads(TRIANGLE_DOC), "options": {"tol": tol}}
    with pytest.raises(CaseAnalysisError, match="case 'triangle': tol") as caught:
        analyze_case(parse_case(json.dumps(doc)))
    assert isinstance(caught.value.cause, ValueError)
    assert AnalyzeOptions(tol=0.0).tol == 0.0


@pytest.mark.parametrize("key,value", [("max_vertices", 0), ("max_group_order", -5)])
def test_options_reject_a_cap_below_one(key, value):
    with pytest.raises(ValueError, match=f"{key} must be at least 1, got {value}"):
        AnalyzeOptions(**{key: value})
    doc = {**json.loads(TRIANGLE_DOC), "options": {key: value}}
    with pytest.raises(CaseAnalysisError, match=f"case 'triangle': {key}") as caught:
        analyze_case(parse_case(json.dumps(doc)))
    assert isinstance(caught.value.cause, ValueError)
    assert getattr(AnalyzeOptions(**{key: 1}), key) == 1


def test_non_transitive_action_reports_case_name():
    doc = {
        "name": "stuck",
        "group": {"degree": 3, "generators": [[0, 2, 1]]},
        "stabilize_point": 0,
        "edges": [[0, 1], [0, 2], [1, 2]],
    }
    with pytest.raises(CaseAnalysisError, match="stuck.*not vertex-transitive"):
        analyze_case(parse_case(json.dumps(doc)))


def test_group_order_cap_enforced():
    options = AnalyzeOptions(max_group_order=5)
    with pytest.raises(CaseAnalysisError, match="exceeds"):
        analyze_case(triangle_spec(), options)


def test_options_reject_max_vertices_beyond_the_dense_cap():
    with pytest.raises(ValueError, match="max_vertices .*cap 4000, got 4001"):
        AnalyzeOptions(max_vertices=4001)
    doc = {**json.loads(TRIANGLE_DOC), "options": {"max_vertices": 4001}}
    with pytest.raises(CaseAnalysisError, match="triangle.*max_vertices .*4000"):
        analyze_case(parse_case(json.dumps(doc)))
    assert AnalyzeOptions(max_vertices=4000).max_vertices == 4000
    assert AnalyzeOptions().max_vertices == 4000


def test_analyze_many_keeps_order_and_collects_errors():
    good = triangle_spec()
    bad_doc = {
        "name": "broken",
        "group": {"degree": 3, "generators": [[0, 2, 1]]},
        "stabilize_point": 0,
        "edges": [[0, 1], [0, 2], [1, 2]],
    }
    bad = parse_case(json.dumps(bad_doc))
    result = analyze_many([good, bad, good])
    assert [r.name for r in result.reports] == ["triangle", "triangle"]
    assert len(result.errors) == 1
    assert result.errors[0][0] == "broken"
    assert not result.all_normative_ok


def test_analyze_many_records_a_bad_document_option_and_goes_on():
    good = triangle_spec()
    doc = {**json.loads(TRIANGLE_DOC), "name": "too-big"}
    doc["options"] = {"max_vertices": 4001}
    result = analyze_many([good, parse_case(json.dumps(doc)), good])
    assert [r.name for r in result.reports] == ["triangle", "triangle"]
    assert [name for name, _ in result.errors] == ["too-big"]
    assert "case 'too-big': max_vertices" in result.errors[0][1]


def test_double_coset_count_is_the_connection_split():
    specs = builtin_cases()
    result = analyze_many(specs)
    assert not result.errors, result.errors
    for spec, report in zip(specs, result.reports):
        case = realize_case(spec)
        assert report.n_double_cosets == len(case.connection.representatives)


def test_analysis_never_builds_element_objects(monkeypatch):
    # Every per-case consumer of G and S reads image rows; Permutation
    # objects for all of G or S are built only on request, and the
    # Sabidussi check looks up all its rows at once instead of testing
    # membership one element at a time.
    specs = builtin_cases()

    def refuse(*args, **kwargs):
        raise AssertionError("element objects built during analysis")

    monkeypatch.setattr(PermutationGroup, "elements", refuse)
    monkeypatch.setattr(ConnectionSet, "elements", property(refuse))
    monkeypatch.setattr(ConnectionSet, "__contains__", refuse)
    for spec in specs:
        analyze_case(spec)


@pytest.mark.parametrize(
    "name", ["kneser-8-3", "complete-8", "cayley-q8-ij"]
)
def test_analysis_builds_no_generator_permutations(name, monkeypatch):
    # The pipeline reads generator rows only: ``generators`` builds
    # ``Permutation`` objects when read, and no stage reads it.
    specs = builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)]
    spec = next(spec for spec in specs if spec.name == name)
    reads = []
    generators = PermutationGroup.generators

    def counted(group):
        reads.append(group)
        return generators.fget(group)

    monkeypatch.setattr(PermutationGroup, "generators", property(counted))
    assert analyze_case(spec).sabidussi_ok
    assert reads == []


def test_analysis_builds_no_permutation_at_all(monkeypatch):
    # Rows are the only form in which elements cross a boundary inside
    # the package: analysing the 28 hashed cases builds no Permutation,
    # neither a checked one (generators, representatives) nor a trusted
    # one (double-coset representatives).
    specs = builtin_cases() + ladder_cases()
    built = []
    init, trusted = Permutation.__init__, Permutation._trusted.__func__

    def counted_init(self, images):
        built.append("__init__")
        init(self, images)

    def counted_trusted(cls, images):
        built.append("_trusted")
        return trusted(cls, images)

    monkeypatch.setattr(Permutation, "__init__", counted_init)
    monkeypatch.setattr(Permutation, "_trusted", classmethod(counted_trusted))
    for spec in specs:
        analyze_case(spec)
    assert built == []
    # The counters do count.
    Permutation([1, 0]).inverse()
    assert built == ["__init__", "_trusted"]


def test_analysis_never_lists_the_connection_set(monkeypatch):
    # S is held as its cosets and G_v: analysing the 28 hashed cases forms
    # neither S's rows nor their lookup table, as lemma 4 lists no G.  An
    # ``of_point`` set forms both in ``_row_table``, which the rows, the
    # elements and the representatives all read.
    specs = builtin_cases() + ladder_cases()
    formed, connections = [], []
    row_table, of_point = ConnectionSet._row_table, ConnectionSet.of_point.__func__

    def recording(self):
        formed.append(self)
        return row_table(self)

    def kept(cls, *args, **kwargs):
        connections.append(of_point(cls, *args, **kwargs))
        return connections[-1]

    monkeypatch.setattr(ConnectionSet, "_row_table", recording)
    monkeypatch.setattr(ConnectionSet, "of_point", classmethod(kept))
    for spec in specs:
        analyze_case(spec)
    assert len(connections) == len(specs)
    assert formed == []
    assert all(connection._table is None for connection in connections)
    # The recorder does record.
    assert len(connections[0].rows) == len(connections[0])
    assert formed == [connections[0]]


def test_analysis_draws_no_random_number(monkeypatch):
    # lambda2 is bracketed by two Cholesky factorizations, so neither the
    # power iteration nor the contraction draws run, and no stage draws;
    # the seed is only reported, so seed 1's reports are seed 0's but for
    # it.
    def refuse(*args, **kwargs):
        raise AssertionError("the analysis drew a random number")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for module in (pipeline, spectral):
        for name in ("lambda2_power_iteration", "zero_sum_contraction_ok"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    specs = builtin_cases() + ladder_cases()
    assert len(specs) == 28
    for spec in specs:
        reports = [analyze_case(spec, AnalyzeOptions(seed=seed)) for seed in (0, 1)]
        docs = [report.to_json_dict() for report in reports]
        assert docs[0].pop("seed") == case_seed(0, spec.name)
        assert docs[1].pop("seed") == case_seed(1, spec.name)
        assert docs[0] == docs[1], spec.name
        assert docs[0]["bracket_ok"] and docs[0]["lemma3_ok"], spec.name


def test_report_json_carries_the_bracket_not_the_power_iteration():
    report = analyze_case(triangle_spec())
    doc = report.to_json_dict()
    assert doc["bracket_ok"] is True and doc["bracket_delta"] == 1e-9
    assert not {"power_lambda2", "power_gap", "contraction_ok"} & doc.keys()
    # The power iteration's fields are left out of ==, as are the bracket's.
    assert report == replace(
        report,
        power_lambda2=1.0,
        power_gap=1.0,
        contraction_ok=False,
        bracket_delta=0.5,
        bracket_ok=False,
    )
    assert report != replace(report, lemma3_ok=False)


def test_analysis_grows_the_transversal_at_v_once(monkeypatch):
    # ConnectionSet.of_point and sabidussi_isomorphism both read G's
    # transversal at v, and the stabilizer chain's first level reads one
    # at its base point; the group grows each once and keeps it.  Every
    # breadth-first search is counted: per group and point when made
    # through PermutationGroup.transversal, and none may run outside it
    # (the coset graph reads the induced group's kept transversal at H).
    asked, grown, inside, outside = Counter(), Counter(), [], []
    transversal, bfs = groups.PermutationGroup.transversal, groups._transversal

    def counted_transversal(self, point):
        asked[id(self), point] += 1
        inside.append((id(self), point))
        try:
            return transversal(self, point)
        finally:
            inside.pop()

    def counted_bfs(point, gen_rows):
        if inside:
            grown[inside[-1]] += 1
        else:
            outside.append(point)
        return bfs(point, gen_rows)

    monkeypatch.setattr(groups.PermutationGroup, "transversal", counted_transversal)
    monkeypatch.setattr(groups, "_transversal", counted_bfs)
    specs = builtin_cases() + [catalog._kneser(8, 3), catalog._complete(8)]
    for spec in specs:
        asked.clear()
        grown.clear()
        outside.clear()
        report = analyze_case(spec)
        assert report.sabidussi_ok, spec.name
        # At most once per group and point; G's at v is read twice or more.
        assert grown == Counter(asked.keys()), spec.name
        assert max(asked.values()) >= 2, spec.name
        assert outside == [], spec.name


def test_transversal_is_kept_read_only():
    group = realize_case(catalog._kneser(5, 2)).group
    rows = group.transversal(3)
    assert group.transversal(3) is rows
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    other = group.transversal(4)
    assert other is not rows
    assert sorted(other[:, 4].tolist()) == sorted(rows[:, 3].tolist()) == list(range(10))


def test_analysis_labels_no_orbits_twice(monkeypatch):
    # A group keeps its orbit labels: of_point, the double cosets' count,
    # the representatives and build_bipartite all read the subgroup's, so
    # no component labelling in one analysis repeats its inputs.  One with
    # no moves (a trivial subgroup's, on any set) labels each index by
    # itself after one pass, and is not counted.
    calls = Counter()
    minima = groups._component_minima

    def counted(size, moves):
        if len(moves):
            calls[size, tuple(np.asarray(m).tobytes() for m in moves)] += 1
        return minima(size, moves)

    monkeypatch.setattr(groups, "_component_minima", counted)
    monkeypatch.setattr(graphs, "_component_minima", counted)
    monkeypatch.setattr(spectral, "_component_minima", counted, raising=False)
    for spec in builtin_cases() + ladder_cases():
        calls.clear()
        analyze_case(spec)
        assert max(calls.values(), default=1) == 1, spec.name


def test_analysis_labels_no_orbits_of_the_group(monkeypatch):
    # Transitivity is read off G's kept transversal at v, so no analysis
    # labels the orbits of G's own generator rows.
    calls = []
    minima = groups._component_minima

    def recorded(size, moves):
        calls.append((size, [np.asarray(m).tolist() for m in moves]))
        return minima(size, moves)

    for spec in builtin_cases() + ladder_cases():
        group = realize_case(spec).group
        own = (group.degree, group._gen_rows.tolist())
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(groups, "_component_minima", recorded)
            patch.setattr(graphs, "_component_minima", recorded)
            analyze_case(spec)
        assert calls and own not in calls, spec.name


@pytest.mark.parametrize(
    "spec, twin", coset_twins(), ids=[twin.name for _, twin in coset_twins()]
)
def test_coset_twins_report_as_their_stabilize_mode_cases(spec, twin):
    # The same graph and group, built by coset mode over a nontrivial H.
    assert twin.mode == "coset" and twin.subgroup_generators
    report, coset_report = analyze_case(spec), analyze_case(twin)
    row, coset_row = report.csv_row(), coset_report.csv_row()
    skip = {CSV_COLUMNS.index("name"), CSV_COLUMNS.index("seed")}
    assert [x for i, x in enumerate(row) if i not in skip] == [
        x for i, x in enumerate(coset_row) if i not in skip
    ]
    tol = AnalyzeOptions().tol
    assert coset_report.lambda2 == pytest.approx(report.lambda2, rel=tol)
    assert np.allclose(
        coset_report.singular_spectrum, report.singular_spectrum, rtol=tol, atol=tol
    )


@pytest.mark.parametrize(
    "spec, twin", coset_twins(), ids=[twin.name for _, twin in coset_twins()]
)
def test_coset_mode_labels_the_induced_stabilizer_once(spec, twin, monkeypatch):
    # build_coset_graph reads the orbits of the induced group's stabilizer
    # at H, and ConnectionSet.of_point reads them again: the group keeps
    # that stabilizer, and the stabilizer its labels.
    calls = []
    minima = groups._component_minima

    def counted(size, moves):
        calls.append(size)
        return minima(size, moves)

    monkeypatch.setattr(groups, "_component_minima", counted)
    monkeypatch.setattr(graphs, "_component_minima", counted)
    case = realize_case(twin)
    assert len(calls) == 1
    assert case.stabilizer is case.group.stabilizer(0)


@pytest.mark.parametrize(
    "spec",
    [
        catalog._kneser(7, 3),
        catalog._johnson(6, 3),
        catalog._cycle_dihedral(12),
        catalog._complete(6),
    ],
    ids=lambda spec: spec.name,
)
def test_analysis_at_the_last_vertex_builds_a_second_chain(spec, monkeypatch):
    # A document that stabilizes a vertex other than the first base point
    # of G's chain (the smallest point G moves) reads G_v off a chain
    # built at v: G's own chain, for its order, and that one.  The report
    # is the one at vertex 0.
    last = replace(spec, name=f"{spec.name}-last", stabilize_point=spec.degree - 1)
    built = []
    build_chain = PermutationGroup._build_chain

    def counting(group, *args):
        built.append((group, args))
        return build_chain(group, *args)

    monkeypatch.setattr(PermutationGroup, "_build_chain", counting)
    report = analyze_case(last)
    assert len({id(group) for group, _ in built}) == 1
    assert [args for _, args in built] == [(), (spec.degree - 1,)]
    row, last_row = analyze_case(spec).csv_row(), report.csv_row()
    skip = {CSV_COLUMNS.index("name"), CSV_COLUMNS.index("seed")}
    assert [x for i, x in enumerate(row) if i not in skip] == [
        x for i, x in enumerate(last_row) if i not in skip
    ]
