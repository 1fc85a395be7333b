"""Artifact format owner: text tables, finite-only JSON, and who may write them."""

import ast
import json
from pathlib import Path

import pytest

import dgme
from dgme._meta import numbers, read_json, read_table, write_table
from dgme.errors import DataError


def _read(path, kind="t"):
    seen = []
    meta, header = read_table(path, kind, lambda n, cells: seen.append((n, cells)))
    return meta, header, seen


def test_table_round_trip_quotes_comma_and_quote(tmp_path):
    rows = [["pan,0000", 'say "hi"', "1"], ["plain", "", "2"]]
    write_table(tmp_path / "t.csv", "t", {"seed": 3, "domain": "modern"}, ["a", "b", "c"], rows)
    text = (tmp_path / "t.csv").read_text()
    assert text == ('# dgme-t seed=3 domain=modern\na,b,c\n'
                    '"pan,0000","say ""hi""",1\nplain,,2\n')
    meta, header, seen = _read(tmp_path / "t.csv")
    assert meta == {"seed": "3", "domain": "modern"}
    assert header == ["a", "b", "c"]
    assert seen == [(0, header), (1, rows[0]), (2, rows[1])]


def test_table_skips_blank_lines_and_counts_rows_without_them(tmp_path):
    (tmp_path / "t.csv").write_text("# dgme-t\na,b\n\n1,2\n\n\n3,4\n")
    _, _, seen = _read(tmp_path / "t.csv")
    assert seen == [(0, ["a", "b"]), (1, ["1", "2"]), (2, ["3", "4"])]


def test_table_without_comment_line(tmp_path):
    (tmp_path / "t.csv").write_text("a,b\n1,2\n")
    meta, header, seen = _read(tmp_path / "t.csv")
    assert meta == {} and header == ["a", "b"]
    assert seen[1:] == [(1, ["1", "2"])]


def test_table_ragged_row_names_kind_row_and_counts(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# dgme-t\na,b\n1,2\n\n3,4,5\n")
    with pytest.raises(DataError) as info:
        _read(path, "annotations")
    assert str(info.value) == f"annotations row 2 in {path} has 3 cells, header has 2"


def test_table_missing_file(tmp_path):
    with pytest.raises(DataError, match="features file not found"):
        _read(tmp_path / "none.csv", "features")


@pytest.mark.parametrize("number, message", [
    ("NaN", "non-finite number NaN"),
    ("-Infinity", "non-finite number -Infinity"),
    ("1e999", "non-finite number 1e999"),
    ("1" + "0" * 400, "int too large to convert to float"),
])
def test_json_refuses_numbers_outside_finite_float64(tmp_path, number, message):
    path = tmp_path / "x.json"
    path.write_text('{"a": [1.0, %s]}' % number)
    with pytest.raises(DataError, match=message):
        read_json(path, "stats")


def test_json_keeps_ints_and_floats_in_range(tmp_path):
    path = tmp_path / "x.json"
    payload = {"seed": 7, "big": 10 ** 300, "x": [1.5e308, -2.5e-308]}
    path.write_text(json.dumps(payload))
    back = read_json(path, "stats")
    assert back == payload and type(back["seed"]) is int


def test_numbers_refuses_strings_numpy_would_parse():
    assert numbers([[1, 2.5], [True, -3.0]]) == [[1, 2.5], [True, -3.0]]
    for bad in ("nan", ["1e999"], [[1.0], [None]]):
        with pytest.raises(ValueError, match="expected a number"):
            numbers(bad)


def _calls_and_imports(path: Path):
    tree = ast.parse(path.read_text())
    imports, calls = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imports.add(node.module)
        elif isinstance(node, ast.Call):
            fn = node.func
            calls.add(fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None))
    return imports, calls


def test_only_meta_knows_the_table_format():
    modules = sorted(Path(dgme.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    csv_users = {p.name for p in modules if "csv" in _calls_and_imports(p)[0]}
    comment_writers = {p.name for p in modules if "format_meta" in _calls_and_imports(p)[1]}
    assert csv_users == {"_meta.py"}
    assert comment_writers <= {"_meta.py", "viz.py"}
