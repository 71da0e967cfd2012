"""The package root's public surface: complete, unique and documented."""

import inspect
import subprocess
import sys
from pathlib import Path

import cvtxor

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_module_constant_is_importable_from_the_root():
    from cvtxor import DEFAULT_EXPONENT_CAP

    assert DEFAULT_EXPONENT_CAP == 24


def test_all_names_are_unique_and_resolve():
    assert len(cvtxor.__all__) == len(set(cvtxor.__all__))
    for name in cvtxor.__all__:
        assert hasattr(cvtxor, name), name


def test_every_public_function_is_in_the_readme_surface_list():
    # The paragraph that lists the package-root surface, not just any
    # mention elsewhere in the README.
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (surface,) = [p for p in paragraphs if "package root" in p]
    functions = [n for n in cvtxor.__all__ if inspect.isfunction(getattr(cvtxor, n))]
    assert [n for n in functions if f"`{n}`" not in surface] == []


def test_star_import_binds_every_name_in_all():
    # A fresh interpreter, so that the star import is the first lookup.
    code = (
        "from cvtxor import *\n"
        "import cvtxor\n"
        "print([n for n in cvtxor.__all__ if globals().get(n) is not getattr(cvtxor, n)])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
