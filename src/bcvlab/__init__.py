"""bcvlab: a numerical laboratory for finite Bernoulli convolutions.

Generate the 2**N-point sets of partial sums ``sum a_n lambda^n`` (floating
point, or exactly for algebraic lambda), study their spacing distributions,
pair correlations and gap statistics against the Poisson model, and analyze
the algebraic side: Pisot/Garsia classification, {0,±1}-polynomial zeros, and
subshift growth rates that control coincidence counts.

Each module's ``__all__`` is the one list of its public names; the package
exports the two error types and every name of those lists.
"""

__version__ = "0.1.0"

from .errors import DomainError, SizeCapError
from .pointset import *
from .algebraic import *
from .stats import *
from .sweep import *

__all__ = ["DomainError", "SizeCapError", *pointset.__all__, *algebraic.__all__,
           *stats.__all__, *sweep.__all__]
