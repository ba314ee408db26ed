"""Gaussian simulator of coherent-light quantum links between atomic ensembles.

The package models collective light-spin passes, measurement-induced
entanglement between two distant samples, and continuous-variable
teleportation, entirely within the Gaussian formalism (mean vectors and
covariance matrices).  A companion grid integrator re-derives the pass
channel from the microscopic propagation equations.

Each layer's ``__all__`` is its one list of public names; the package
re-exports every layer's list, and nothing else.
"""

from .gaussian import *
from .interaction import *
from .maxwell_bloch import *
from .protocols import *

__version__ = "0.1.0"
