"""Carry/xor split addition and the structures it generates.

Addition of naturals splits into a carry word (AND, shifted left) and
a carry-free sum word (XOR); iterating the split converges to the sum.
Running the step backwards over all splittings of one total yields a
tree, dense tables of those trees give three analysis matrices, the
carry word over odd pairs draws a fractal, and the prime splittings of
an even total sit among the tree's leaves.
"""

from . import core, matrices, numtheory, tree
from .core import *
from .matrices import *
from .numtheory import *
from .tree import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *matrices.__all__, *numtheory.__all__, *tree.__all__, "__version__"]
