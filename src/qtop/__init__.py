"""Question calculus on finite topologies.

A question is a topology on a finite set of irreducible assertions;
its open sets are the candidate answers.  This package provides the
bit-vector set kernel, the elimination operator and its three-way
classification, negation questions and machine pairing, exhaustive
enumeration of the question space on small ground sets, and a JSON
wire format with a CLI.
"""

from . import calculus, core, enumeration, negation, wire
from .core import *
from .calculus import *
from .negation import *
from .enumeration import *
from .wire import *

__version__ = "0.1.0"

# The one enumeration kernel is pure Python; benchmark records name it.
KERNEL_BACKEND = "python"

# The modules' own __all__, joined by +=, a form static checkers read.
__all__ = ["KERNEL_BACKEND"]
__all__ += core.__all__
__all__ += calculus.__all__
__all__ += negation.__all__
__all__ += enumeration.__all__
__all__ += wire.__all__
