"""Smoke runs of the scripts in scripts/, in-process on tiny inputs."""

import runpy
import sys
from pathlib import Path

from cvtxor import build_top_down, export_dot, export_pgm, odd_odd_cvt_grid

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_tree_gallery_writes_the_dot_export(monkeypatch, tmp_path, capsys):
    _run_script(monkeypatch, "tree_gallery.py", "8", "--outdir", str(tmp_path))
    written = (tmp_path / "tree_8.dot").read_text(encoding="utf-8")
    assert written == export_dot(build_top_down(8))
    assert "DOT files in" in capsys.readouterr().out


def test_render_fractal_writes_the_pgm_export(monkeypatch, tmp_path, capsys):
    target = tmp_path / "fractal.pgm"
    _run_script(monkeypatch, "render_fractal.py", "--max", "15", "--out", str(target))
    assert target.read_text(encoding="utf-8") == export_pgm(odd_odd_cvt_grid(15))
    assert "(8x8)" in capsys.readouterr().out


def test_goldbach_scan_finds_no_counterexample(monkeypatch, capsys):
    _run_script(monkeypatch, "goldbach_scan.py", "--to", "1000")
    out = capsys.readouterr().out
    assert "checked 499 even totals in [4, 1000]" in out
    assert "counterexamples: none" in out
