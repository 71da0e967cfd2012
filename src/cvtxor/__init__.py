"""Carry/xor split addition and the structures it generates.

Addition of naturals splits into a carry word (AND, shifted left) and
a carry-free sum word (XOR); iterating the split converges to the sum.
Running the step backwards over all splittings of one total yields a
tree, dense tables of those trees give three analysis matrices, the
carry word over odd pairs draws a fractal, and the prime splittings of
an even total sit among the tree's leaves.

The surface loads on first use (PEP 562), so `python -m cvtxor` imports
only the modules its command needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("core", "matrices", "numtheory", "tree")


def __getattr__(name):
    """Bind every module and each one's `__all__` here on the first lookup
    that misses, `__all__` included; later lookups find them directly."""
    if "__all__" not in globals():
        modules = [import_module(f"{__name__}.{module}") for module in _MODULES]
        surface = {key: getattr(m, key) for m in modules for key in m.__all__}
        globals().update(surface, __all__=[*surface, "__version__"])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
