"""Command-line behavior: formats, exit codes, atomic output."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvtxor.tree
from cvtxor import (
    DEFAULT_GRID_CAP,
    DEFAULT_MATRIX_CAP,
    DEFAULT_TREE_CAP,
    MatrixKind,
    build_bottom_up,
    build_matrix,
    build_top_down,
    export_csv,
    export_dot,
    export_json,
    export_pgm,
    goldbach_sweep,
    odd_odd_cvt_grid,
    prime_sieve,
    tree_stats,
)
from cvtxor.cli import _per_n_lines, run
from cvtxor.matrices import _csv_lines, _rows
from cvtxor.numtheory import _splits, _stream_pgm
from cvtxor.tree import _CHUNK, _chunks, _dot_lines, _json_lines, _slices
from oracles import goldbach_document, goldbach_json


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


def test_add_prints_sums_past_the_default_int_string_bound():
    # CPython converts at most 4300 digits between int and str unless told otherwise
    nines = "9" * 4300
    proc = subprocess.run(
        [sys.executable, "-m", "cvtxor", "add", nines, "1"], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1" + "0" * 4300 + "\n", "")
    proc = subprocess.run(
        [sys.executable, "-m", "cvtxor", "add", nines + "9", "1"], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stderr.endswith("error: argument x: expected at most 4300 digits, got 4301\n")


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


def test_tree_json_golden(capsys):
    code, out, _ = _capture(capsys, ["tree", "2", "--format", "json"])
    assert code == 0
    assert out == (
        "{\n"
        '  "n": 2,\n'
        '  "node_count": 3,\n'
        '  "nodes": [\n'
        "    {\n"
        '      "x": 0,\n'
        '      "y": 2,\n'
        '      "depth": 0,\n'
        '      "class": "Root",\n'
        '      "parent": null\n'
        "    },\n"
        "    {\n"
        '      "x": 1,\n'
        '      "y": 1,\n'
        '      "depth": 2,\n'
        '      "class": "OddLeaf",\n'
        '      "parent": [\n'
        "        2,\n"
        "        0\n"
        "      ]\n"
        "    },\n"
        "    {\n"
        '      "x": 2,\n'
        '      "y": 0,\n'
        '      "depth": 1,\n'
        '      "class": "Internal",\n'
        '      "parent": [\n'
        "        0,\n"
        "        2\n"
        "      ]\n"
        "    }\n"
        "  ]\n"
        "}\n"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["tree", "1000"], "9104107306fbbdf5c92d1e893f8d696ab087be5cb390f23d369835b5aa520a40"),
        (
            ["tree", "1000", "--format", "json"],
            "213af3164083f8656570e551f2a774c9a4f1e395e3578bdf541d2a0ac17f0a66",
        ),
        (["stats", "1000"], "9926dc1e7fd49fa5015417c0d267083f1d106d2cd2b42509e31ad535d726011c"),
        (
            ["triangle", "4094"],
            "66fc5df04c8900f2acfc3fe54b1d3d50079836907cb00271d576c4f0eabda8ba",
        ),
        (
            ["triangle", "4094", "--binary"],
            "cba970292b3d7f79bcc7f26fdc43cbe9f852f1eabb8b8cbba6958c807da11fd1",
        ),
        # 128 DOT chunks, the last one short, and 129 JSON chunks, the last one a single node
        (["tree", "131071"], "052f5f751ab30a3f2229d3620a737a9736dccf5b34e4131c5fe8151e627fca76"),
        (
            ["tree", "131072", "--format", "json"],
            "11ff76e01493e6a1749fafa5f4b407137d66a5d6393cc10845649d1adde4c0d7",
        ),
    ],
)
def test_tree_outputs_match_their_sha256_goldens(capsys, argv, digest):
    code, out, _ = _capture(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("n", [0, 1, 1024, 4095, 1000])
def test_tree_and_stats_output_equals_the_top_down_library_build(capsys, n):
    # The CLI builds bottom-up; claim 9 says it must not matter.
    tree = build_top_down(n)
    assert _capture(capsys, ["tree", str(n)]) == (0, export_dot(tree), "")
    assert _capture(capsys, ["tree", str(n), "--format", "json"]) == (0, export_json(tree), "")
    code, out, _ = _capture(capsys, ["stats", str(n)])
    fields = dict(line.split(": ") for line in out.splitlines())
    st = tree_stats(tree)
    assert code == 0
    assert int(fields["node_count"]) == st.node_count
    assert int(fields["leaf_count"]) == st.leaf_count
    assert int(fields["max_depth"]) == st.max_depth
    assert Fraction(fields["average_depth"].split()[0]) == st.average_depth
    per_depth = dict(map(int, item.split(":")) for item in fields["nodes_per_depth"].split())
    assert per_depth == st.nodes_per_depth


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2048, 32767, 32768])
def test_tree_output_at_chunk_edges_equals_the_top_down_export(capsys, n):
    # 1023 ends on a full chunk, 1024 on a one-node chunk; the lanes of a
    # chunk's depth walk grow from 2 to 3 bytes at 32768.
    tree = build_top_down(n)
    assert _capture(capsys, ["tree", str(n)]) == (0, export_dot(tree), "")
    assert _capture(capsys, ["tree", str(n), "--format", "json"]) == (0, export_json(tree), "")


def test_tree_and_stats_build_no_tree(capsys, monkeypatch):
    argvs = [["tree", "300"], ["tree", "300", "--format", "json"], ["stats", "300"]]
    expected = [_capture(capsys, argv) for argv in argvs]

    def forbidden(*args, **kwargs):
        raise AssertionError("a tree was built")

    # Both builders construct a CvtXorTree from the module's globals, so
    # patching it too catches a build through any other name.
    for name in ("build_top_down", "build_bottom_up", "CvtXorTree"):
        monkeypatch.setattr(cvtxor.tree, name, forbidden)
    assert [_capture(capsys, argv) for argv in argvs] == expected
    with pytest.raises(AssertionError):
        build_bottom_up(3)  # this module's own name for it, bound before the patch


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


def test_tree_lines_are_rendered_as_they_are_written():
    tree = build_bottom_up(1 << 17)
    tracemalloc.start()
    try:
        head = list(islice(_dot_lines(tree.n, _slices(tree)), 3))
        head += list(islice(_json_lines(tree.n, _slices(tree)), 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head[1] == '  "(0,131072)" [shape=doublecircle];\n'
    assert head[3] == '{\n  "n": 131072,\n  "node_count": 131073,\n  "nodes": ['
    assert peak < 1 << 20


def test_cli_tree_source_holds_one_chunk_at_a_time():
    # The closed-form chunks at the default cap: no tree, so the first
    # pieces cost what they do at any n.
    n = DEFAULT_TREE_CAP
    tracemalloc.start()
    try:
        head = list(islice(_json_lines(n, _chunks(n)), 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head[1].startswith('\n    {\n      "x": 0,\n      "y": 1048576,\n      "depth": 0,')
    assert peak < 1 << 20


def test_tree_lines_come_a_chunk_of_nodes_at_a_time():
    # Each piece is one write: unbuffered stdout (python -u) makes it one system call.
    n = 1 << 17
    bound = 2 * -(-n // _CHUNK) + 5
    assert sum(1 for _ in _dot_lines(n, _chunks(n, depths=False))) <= bound
    assert sum(1 for _ in _json_lines(n, _chunks(n))) <= bound


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


GOLDBACH_RANGES = [(4, 4), (10, 10), (4, 100), (6, 40), (1020, 1030)]  # 1024 lies inside the last


@pytest.mark.parametrize("per_n", [False, True])
@pytest.mark.parametrize("start, stop", GOLDBACH_RANGES)
def test_goldbach_bytes_equal_the_json_dumps_oracle(capsys, start, stop, per_n):
    argv = ["goldbach", "--from", str(start), "--to", str(stop)] + ["--per-n"] * per_n
    assert _capture(capsys, argv) == (0, goldbach_json(start, stop, per_n), "")


@st.composite
def _even_windows(draw, top=3000):
    """start <= stop, both even in 4..top, at most 100 totals wide."""
    start = 2 * draw(st.integers(2, top // 2))
    return start, min(top, start + 2 * draw(st.integers(0, 99)))


@settings(max_examples=40)
@given(_even_windows())
@example((4, 4))
@example((6, 6))
@example((2998, 3000))
@example((3000, 3000))
@example((4, 3000))
def test_goldbach_window_bytes_equal_the_json_dumps_oracle(window):
    start, stop = window
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["goldbach", "--from", str(start), "--to", str(stop)]) == 0
    assert out.getvalue() == goldbach_json(start, stop, False)


@pytest.mark.parametrize("start, stop", [(4, 100), (1020, 1030), (50000, 50060)])
def test_goldbach_per_n_bytes_equal_the_library_sweep(capsys, start, stop):
    summary = goldbach_sweep(start, stop, per_n=True)
    detail = [
        (r.n, [(x.p, x.q, x.node_class.value, x.depth) for x in r.pairs]) for r in summary.reports
    ]
    expected = goldbach_document(
        summary.start, summary.stop, summary.counterexamples, summary.all_odd_leaf_count, detail
    )
    argv = ["goldbach", "--per-n", "--from", str(start), "--to", str(stop)]
    assert _capture(capsys, argv) == (0, expected, "")


@pytest.mark.parametrize(
    "bounds, code",
    [
        (["--from", "4", "--to", "101"], 1),  # odd end
        (["--from", "100", "--to", "4"], 1),  # end below the start
        (["--from", "4", "--to", "100", "--limit", "50"], 2),  # end above the cap
    ],
)
def test_goldbach_per_n_rejects_bad_input_before_writing(capsys, tmp_path, bounds, code):
    argv = ["goldbach", "--per-n", *bounds]
    got, out, err = _capture(capsys, argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run([*argv, "--out", str(tmp_path / "doc.json")]) == code
    capsys.readouterr()
    assert os.listdir(tmp_path) == []


def test_goldbach_per_n_lines_are_rendered_as_they_are_written():
    # About 1.8 * 10^9 prime splits have totals in 4..2^20; the head of the
    # stream must scan only the totals it writes.
    stop = 1 << 20
    sieve = prime_sieve(stop)
    tracemalloc.start()
    try:
        lines = _per_n_lines('{\n  "checked": 0\n}', _splits(range(4, stop + 1, 2), sieve))
        head = list(islice(lines, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head[0] == '{\n  "checked": 0,\n  "per_n": ['
    assert head[2].startswith(',\n    {\n      "n": 6,\n      "pairs": [\n')
    assert peak < 1 << 20


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
    assert _capture(capsys, ["triangle", "4096"])[0] == 2
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


def _imported(*args):
    """Names of the modules that `python -X importtime ARGS` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
    assert proc.returncode == 0
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_stats_loads_only_the_modules_it_needs():
    loaded = _imported("-m", "cvtxor", "stats", "8") - _imported("-c", "pass")
    assert {"cvtxor", "cvtxor.cli", "cvtxor.tree"} <= loaded
    assert loaded.isdisjoint({"cvtxor.matrices", "cvtxor.numtheory", "json"})


def test_repeated_runs_are_byte_identical(capsys):
    first = _capture(capsys, ["tree", "25", "--format", "dot"])
    second = _capture(capsys, ["tree", "25", "--format", "dot"])
    assert first == second
