"""Command-line behavior: formats, exit codes, atomic output."""

import json
import os
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest

from cvtxor import (
    DEFAULT_GRID_CAP,
    DEFAULT_MATRIX_CAP,
    MatrixKind,
    build_matrix,
    export_csv,
    export_pgm,
    odd_odd_cvt_grid,
)
from cvtxor.cli import run
from cvtxor.matrices import _csv_lines, _rows
from cvtxor.numtheory import _stream_pgm


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_add_prints_the_sum(capsys):
    code, out, err = _capture(capsys, ["add", "3", "5"])
    assert code == 0
    assert out == "8\n"
    assert err == ""


def test_add_trace_lists_every_step(capsys):
    code, out, _ = _capture(capsys, ["add", "3", "5", "--trace"])
    assert code == 0
    assert out == "8\n(3,5) (2,6) (4,4) (8,0) (0,8)\n"


def test_add_binary_rendering(capsys):
    code, out, _ = _capture(capsys, ["add", "3", "5", "--trace", "--binary"])
    assert code == 0
    assert out == "1000\n(11,101) (10,110) (100,100) (1000,0) (0,1000)\n"


def test_classify_names_the_node_class(capsys):
    assert _capture(capsys, ["classify", "6", "2"])[1] == "ContradictoryEvenLeaf\n"
    assert _capture(capsys, ["classify", "0", "8"])[1] == "Root\n"
    assert _capture(capsys, ["classify", "3", "5"])[1] == "OddLeaf\n"
    assert _capture(capsys, ["classify", "2", "6"])[1] == "Internal\n"


def test_preds_lists_pairs_in_order(capsys):
    code, out, _ = _capture(capsys, ["preds", "2", "6"])
    assert code == 0
    assert out == "(1,7)\n(3,5)\n(5,3)\n(7,1)\n"


def test_preds_of_a_leaf_prints_nothing(capsys):
    code, out, _ = _capture(capsys, ["preds", "6", "2"])
    assert code == 0
    assert out == ""


def test_tree_dot_has_one_vertex_per_splitting(capsys):
    code, out, _ = _capture(capsys, ["tree", "18", "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph cvtxor_18 {\n")
    assert sum(1 for line in out.splitlines() if "->" not in line and '"(' in line) == 19


def test_tree_json_parses(capsys):
    code, out, _ = _capture(capsys, ["tree", "8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["node_count"] == 9


def test_stats_report_golden(capsys):
    code, out, _ = _capture(capsys, ["stats", "8"])
    assert code == 0
    assert out == (
        "node_count: 9\n"
        "leaf_count: 5\n"
        "max_depth: 4\n"
        "average_depth: 25/9 (2.777778)\n"
        "nodes_per_depth: 0:1 1:1 2:1 3:2 4:4\n"
    )


def test_matrix_csv_header_and_shape(capsys):
    code, out, _ = _capture(capsys, ["matrix", "--kind", "freq", "--max", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i\\j,0,1,2,3,4,5,6,7,8"
    assert len(lines) == 10


def test_fractal_pgm_golden(capsys):
    code, out, _ = _capture(capsys, ["fractal", "--max", "7"])
    assert code == 0
    assert out == "P2\n4 4\n14\n2 2 2 2\n2 6 2 6\n2 2 10 10\n2 6 10 14\n"


def test_matrix_and_fractal_match_the_library_exports(capsys, tmp_path):
    for kind in MatrixKind:
        code, out, _ = _capture(capsys, ["matrix", "--kind", kind.value, "--max", "13"])
        assert code == 0
        assert out == export_csv(build_matrix(kind, 13))
    target = tmp_path / "grid.pgm"
    assert run(["fractal", "--max", "25", "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == export_pgm(odd_odd_cvt_grid(25))


def test_matrix_and_fractal_rows_are_computed_as_they_are_written():
    # At the default caps a materialised table holds about 17 million
    # cells; the first few lines of a stream must not build it.
    tracemalloc.start()
    try:
        rows = _rows(MatrixKind.PARENT, DEFAULT_MATRIX_CAP, None)
        head = list(islice(_csv_lines(MatrixKind.PARENT, DEFAULT_MATRIX_CAP, rows), 3))
        head += list(islice(_stream_pgm(DEFAULT_GRID_CAP), 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head[1].startswith("0,(0;0),(0;1),")
    assert head[3] == f"P2\n2048 2048\n{2 * DEFAULT_GRID_CAP}\n"
    assert peak < 4 << 20


def test_triangle_marks_prime_splits(capsys):
    code, out, _ = _capture(capsys, ["triangle", "12"])
    assert code == 0
    assert out == (
        "2: 2\n"
        "4: 2 2\n"
        "6: 2 6* 2\n"
        "8: 2 2* 2* 2\n"
        "10: 2 6* 10* 6* 2\n"
        "12: 2 2 10* 10* 2 2\n"
    )


def test_goldbach_summary_is_json(capsys):
    code, out, _ = _capture(capsys, ["goldbach", "--from", "4", "--to", "50"])
    assert code == 0
    payload = json.loads(out)
    assert payload["range"] == [4, 50]
    assert payload["checked"] == 24
    assert payload["counterexamples"] == []
    assert payload["all_odd_leaf_count"] == 23
    assert "per_n" not in payload


def test_goldbach_per_total_detail(capsys):
    code, out, _ = _capture(capsys, ["goldbach", "--from", "10", "--to", "10", "--per-n"])
    assert code == 0
    payload = json.loads(out)
    assert payload["per_n"] == [
        {
            "n": 10,
            "pairs": [
                {"p": 3, "q": 7, "class": "OddLeaf", "depth": 3},
                {"p": 5, "q": 5, "class": "OddLeaf", "depth": 2},
            ],
        }
    ]


def test_usage_errors_exit_one(capsys):
    for argv in (
        ["add", "3"],
        ["add", "-3", "5"],
        ["add", "0x10", "5"],
        ["classify", "2"],
        ["matrix", "--kind", "nope", "--max", "4"],
        ["tree", "8", "--format", "svg"],
        ["nonsense"],
        [],
    ):
        code, _, err = _capture(capsys, argv)
        assert code == 1, argv
        assert err != ""


def test_value_errors_exit_one(capsys):
    code, _, err = _capture(capsys, ["triangle", "7"])
    assert code == 1
    assert "even" in err


def test_cap_violations_exit_two(capsys):
    code, _, err = _capture(capsys, ["tree", str(2**20 + 2)])
    assert code == 2
    assert "limit" in err
    assert _capture(capsys, ["tree", "100", "--limit", "50"])[0] == 2
    assert _capture(capsys, ["matrix", "--kind", "depth", "--max", "5000"])[0] == 2
    assert _capture(capsys, ["fractal", "--max", "4097"])[0] == 2
    assert _capture(capsys, ["preds", "0", str(2**20 + 2)])[0] == 2


def test_env_cap_applies_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("CVTX_LIMIT", "50")
    assert _capture(capsys, ["tree", "100"])[0] == 2
    assert _capture(capsys, ["tree", "100", "--limit", "200"])[0] == 0
    monkeypatch.setenv("CVTX_LIMIT", "banana")
    assert _capture(capsys, ["tree", "100"])[0] == 1


def test_help_exits_zero(capsys):
    assert _capture(capsys, ["--help"])[0] == 0


def test_out_writes_the_same_bytes_atomically(tmp_path, capsys):
    code, out, _ = _capture(capsys, ["tree", "12", "--format", "dot"])
    assert code == 0
    target = tmp_path / "tree12.dot"
    assert run(["tree", "12", "--format", "dot", "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text(encoding="utf-8") == out
    leftovers = [name for name in os.listdir(tmp_path) if name != "tree12.dot"]
    assert leftovers == []


def test_unwritable_output_exits_three(tmp_path, capsys):
    code, _, err = _capture(capsys, ["tree", "8", "--out", str(tmp_path / "no" / "x.dot")])
    assert code == 3
    assert err != ""


def test_failed_run_leaves_no_partial_file(tmp_path, capsys):
    target = tmp_path / "never.csv"
    code = run(["matrix", "--kind", "depth", "--max", "5000", "--out", str(target)])
    capsys.readouterr()
    assert code == 2
    assert not target.exists()


def test_module_entry_point_matches_in_process_output(capsys):
    code, out, _ = _capture(capsys, ["stats", "18"])
    assert code == 0
    proc = subprocess.run(
        [sys.executable, "-m", "cvtxor", "stats", "18"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == out


def test_repeated_runs_are_byte_identical(capsys):
    first = _capture(capsys, ["tree", "25", "--format", "dot"])
    second = _capture(capsys, ["tree", "25", "--format", "dot"])
    assert first == second
