import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from stabgap.casefile import _OPTION_KEYS, CaseOptions
from stabgap.catalog import builtin_cases
from stabgap.cli import build_parser, main
from stabgap.pipeline import CSV_COLUMNS, AnalyzeOptions, analyze_case, case_seed

from cases import ladder_cases

CATALOG_SEED0 = Path(__file__).parent / "data" / "catalog-seed0.csv"
CATALOG_SEED0_JSON = Path(__file__).parent / "data" / "catalog-seed0.json"
LADDER_SEED0_JSON = Path(__file__).parent / "data" / "ladder-seed0.json"

TRIANGLE_DOC = {
    "name": "triangle",
    "group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "stabilize_point": 0,
    "edges": [[0, 1], [0, 2], [1, 2]],
}


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE_DOC))
    return str(path)


def test_analyze_csv_output(triangle_file, capsys):
    code = main(["analyze", "--input", triangle_file])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["name"] == "triangle"
    assert row["lambda1"] == "4"
    assert row["lambda2"] == "2"
    assert row["sabidussi_ok"] == "true"
    assert row["prop5_branch"] == "small-graph"


def test_analyze_json_output(triangle_file, capsys):
    code = main(["analyze", "--input", triangle_file, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "triangle"
    assert doc["normative_ok"] is True
    assert doc["singular_values"] == pytest.approx([4.0, 2.0, 0.0], abs=1e-9)


def test_analyze_flags_win_over_document_options(tmp_path, capsys):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({**TRIANGLE_DOC, "options": {"seed": 7}}))
    assert main(["analyze", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == case_seed(7, "triangle")
    args = ["analyze", "--input", str(path), "--format", "json", "--seed", "3"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == case_seed(3, "triangle")


def test_analyze_dump_matrix(triangle_file, capsys):
    code = main(["analyze", "--input", triangle_file, "--dump-matrix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 2 2\n2 1 1\n2 1 1" in out


def test_analyze_missing_file_is_operational_error(capsys):
    code = main(["analyze", "--input", "/nonexistent/case.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_analyze_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["analyze", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err


def test_analyze_non_transitive_case(tmp_path, capsys):
    doc = {
        "name": "stuck",
        "group": {"degree": 3, "generators": [[0, 2, 1]]},
        "stabilize_point": 0,
        "edges": [[0, 1], [0, 2], [1, 2]],
    }
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "not vertex-transitive" in err


def test_analyze_group_order_cap(triangle_file, capsys):
    code = main(["analyze", "--input", triangle_file, "--max-group-order", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "exceeds" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_flag_is_operational_error(tol, triangle_file, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    for argv in (
        ["catalog", "--families", "complete", "--out", str(out_path)],
        ["analyze", "--input", triangle_file],
    ):
        assert main(argv + ["--tol", tol]) == 1
        assert "tol must be a finite number >= 0" in capsys.readouterr().err
    assert not out_path.exists()


def test_bad_tol_in_document_is_operational_error(tmp_path, capsys):
    path = tmp_path / "nan-tol.json"
    path.write_text(json.dumps({**TRIANGLE_DOC, "options": {"tol": float("nan")}}))
    assert "NaN" in path.read_text()
    assert main(["analyze", "--input", str(path)]) == 1
    assert "tol must be a finite number >= 0, got nan" in capsys.readouterr().err


def test_max_vertices_beyond_the_dense_cap_is_operational_error(
    triangle_file, tmp_path, capsys
):
    out_path = tmp_path / "report.csv"
    catalog = ["catalog", "--families", "complete", "--out", str(out_path)]
    assert main(catalog + ["--max-vertices", "4001"]) == 1
    assert "max_vertices must be at most the dense eigensolve cap 4000" in (
        capsys.readouterr().err
    )
    assert not out_path.exists()
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**TRIANGLE_DOC, "options": {"max_vertices": 4001}}))
    assert main(["analyze", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "max_vertices" in err and "4000, got 4001" in err
    # the cap itself is accepted
    assert main(catalog + ["--max-vertices", "4000"]) == 0
    path.write_text(json.dumps({**TRIANGLE_DOC, "options": {"max_vertices": 4000}}))
    assert main(["analyze", "--input", str(path)]) == 0


@pytest.mark.parametrize("key,value", [("max_vertices", 0), ("max_group_order", -5)])
def test_cap_flag_below_one_is_one_operational_error(key, value, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    flag = "--" + key.replace("_", "-")
    argv = ["catalog", "--families", "all", "--out", str(out_path), flag, str(value)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} must be at least 1, got {value}\n"
    assert not out_path.exists()


def test_one_option_table():
    # AnalyzeOptions' settable fields, the document options, the option
    # table and both commands' option flags name the same options.
    options = {f.name for f in fields(CaseOptions)}
    assert options == {"tol", "seed", "max_vertices", "max_group_order"}
    assert {f.name for f in fields(AnalyzeOptions) if f.init} == options
    assert set(_OPTION_KEYS) == options
    commands = next(
        action.choices
        for action in build_parser()._actions
        if action.dest == "command"
    )
    own_flags = {
        "analyze": {"help", "input", "format", "dump_matrix"},
        "catalog": {"help", "families", "out"},
    }
    for command, own in own_flags.items():
        dests = {action.dest for action in commands[command]._actions}
        assert dests - own == options, command


def test_catalog_complete_family(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code = main(["catalog", "--families", "complete", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 5
    summary = capsys.readouterr().out
    assert "5 cases: 5 passed" in summary


def test_catalog_empty_families(tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    for families in ("", ",", " , "):
        code = main(["catalog", "--families", families, "--out", str(out_path)])
        assert code == 1
        assert "no families selected" in capsys.readouterr().err
        assert not out_path.exists()


def test_catalog_unknown_family(tmp_path, capsys):
    code = main(["catalog", "--families", "bogus", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "unknown family" in capsys.readouterr().err


def test_catalog_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["--families", "cycles-cyclic,complete", "--seed", "3"]
    assert main(["catalog", *args, "--out", str(a)]) == 0
    assert main(["catalog", *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_catalog_matches_the_checked_in_report(tmp_path):
    # The full catalog report at seed 0 must stay byte-identical to the
    # checked-in capture; regenerate the capture only for an intended
    # change of the report.
    out = tmp_path / "catalog.csv"
    args = ["--families", "all", "--seed", "0", "--out", str(out)]
    assert main(["catalog", *args]) == 0
    assert out.read_bytes() == CATALOG_SEED0.read_bytes()


def json_reports(specs) -> list:
    """The JSON report of each case at seed 0, in order, as ``json.loads``
    reads it back."""
    reports = [analyze_case(spec).to_json_dict() for spec in specs]
    return json.loads(json.dumps(reports, sort_keys=True))


def assert_reports_match(fresh, captured, path="reports"):
    """Equal in every field, floats within 1e-12 (relative or absolute)."""
    if isinstance(captured, dict):
        assert sorted(fresh) == sorted(captured), path
        for key in captured:
            assert_reports_match(fresh[key], captured[key], f"{path}.{key}")
    elif isinstance(captured, list):
        assert len(fresh) == len(captured), path
        for i, (a, b) in enumerate(zip(fresh, captured)):
            assert_reports_match(a, b, f"{path}[{i}]")
    elif isinstance(captured, float):
        assert isinstance(fresh, float), path
        assert math.isclose(fresh, captured, rel_tol=1e-12, abs_tol=1e-12), path
    else:
        assert type(fresh) is type(captured) and fresh == captured, path


def test_catalog_json_matches_the_checked_in_capture():
    # The JSON carries fields the CSV does not (the chain's lines, the
    # spectrum, the deviations); the fields of the 24 catalog cases at
    # seed 0 must match the capture, floats to 1e-12.  Regenerate it with
    # ``PYTHONPATH=src python tests/test_cli.py`` only for an intended
    # change of the report.
    captured = json.loads(CATALOG_SEED0_JSON.read_text())
    assert len(captured) == 24
    assert_reports_match(json_reports(builtin_cases()), captured)


def test_ladder_json_matches_the_checked_in_capture():
    # The same for the four cases past the catalog, captured alongside.
    captured = json.loads(LADDER_SEED0_JSON.read_text())
    specs = ladder_cases()
    assert [report["name"] for report in captured] == [spec.name for spec in specs]
    assert_reports_match(json_reports(specs), captured)


def test_catalog_seed_changes_rows(tmp_path):
    a = tmp_path / "s0.csv"
    b = tmp_path / "s1.csv"
    assert main(["catalog", "--families", "complete", "--out", str(a)]) == 0
    assert (
        main(["catalog", "--families", "complete", "--seed", "1", "--out", str(b)])
        == 0
    )
    rows_a = a.read_text().splitlines()[1]
    rows_b = b.read_text().splitlines()[1]
    assert rows_a.rsplit(",", 1)[1] != rows_b.rsplit(",", 1)[1]


MISSING = "<missing>"


def differences(fresh, captured, path):
    """Each JSON path at which two decoded reports differ, exactly, with
    the captured and the fresh value there; a key or item that only one
    side has is given as missing on the other."""
    if isinstance(captured, dict) and isinstance(fresh, dict):
        for key in sorted(captured.keys() | fresh.keys()):
            yield from differences(
                fresh.get(key, MISSING), captured.get(key, MISSING), f"{path}.{key}"
            )
    elif isinstance(captured, list) and isinstance(fresh, list):
        for i in range(max(len(captured), len(fresh))):
            yield from differences(
                fresh[i] if i < len(fresh) else MISSING,
                captured[i] if i < len(captured) else MISSING,
                f"{path}[{i}]",
            )
    elif type(fresh) is not type(captured) or fresh != captured:
        yield path, captured, fresh


def test_differences_name_each_changed_path():
    captured = [{"name": "a", "lemma4": {"rows_checked": 5, "ok": True}, "x": [1, 2]}]
    fresh = [{"name": "a", "lemma4": {"rows_checked": 6, "ok": True}, "x": [1], "y": 0}]
    assert list(differences(fresh, captured, "f")) == [
        ("f[0].lemma4.rows_checked", 5, 6),
        ("f[0].x[1]", 2, MISSING),
        ("f[0].y", MISSING, 0),
    ]
    assert list(differences(captured, captured, "f")) == []
    # 1 and 1.0 print differently, so they differ.
    assert list(differences([1.0], [1], "f")) == [("f[0]", 1, 1.0)]


if __name__ == "__main__":
    # Rewrite both captures, then print the sha256 of all their reports:
    # each report's ``json.dumps(report, sort_keys=True)``, concatenated,
    # the catalog's first, then the ladder's.  With --check, write nothing;
    # print the first 20 JSON paths at which a fresh report differs from
    # its capture, with both values, and how many differ, and exit 1 if
    # either capture's bytes would change, or if the seed-0 catalog CSV
    # differs from its checked-in bytes.
    import argparse
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate the seed-0 captures.")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the captures instead of rewriting them",
    )
    check = parser.parse_args().check
    dumps, changed, differing = [], [], []
    for path, specs in (
        (CATALOG_SEED0_JSON, builtin_cases()),
        (LADDER_SEED0_JSON, ladder_cases()),
    ):
        reports = json_reports(specs)
        text = json.dumps(reports, indent=1, sort_keys=True) + "\n"
        if not check:
            path.write_text(text)
        elif text != path.read_text():
            changed.append(path.name)
            captured = json.loads(path.read_text())
            differing += differences(reports, captured, path.name)
        dumps += [json.dumps(report, sort_keys=True) for report in reports]
    if check:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / CATALOG_SEED0.name
            main(["catalog", "--families", "all", "--seed", "0", "--out", str(out)])
            if out.read_bytes() != CATALOG_SEED0.read_bytes():
                changed.append(CATALOG_SEED0.name)
    digest = hashlib.sha256("".join(dumps).encode("utf-8")).hexdigest()
    print(f"sha256 of the {len(dumps)} seed-0 reports: {digest}")
    for where, captured, fresh in differing[:20]:
        print(f"{where}: captured {captured!r}, fresh {fresh!r}")
    if differing:
        print(f"{len(differing)} differing paths in all")
    if changed:
        sys.exit(f"differs from the capture: {', '.join(changed)}")
