"""Lattice random-walk factorization and recovery from half-line data.

The package splits into layers: ``lattice`` holds finite measures on the
integer lattice and their arithmetic; ``data`` is the observation model
(convolution powers restricted to the nonnegative half-line); ``ladder``
computes first-passage laws, truncated transforms with certified bounds,
and the factorization check; ``reconstruct`` inverts the observation model
class by class; ``montecarlo`` validates the exact laws against seeded
simulation; ``generators`` and ``cli`` wrap everything for experiments.

Each module's ``__all__`` is its public surface, and the package re-exports
every module's but ``cli``'s.
"""

from . import data, errors, generators, ladder, lattice, montecarlo, reconstruct

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *lattice.__all__,
    *data.__all__,
    *ladder.__all__,
    *reconstruct.__all__,
    *montecarlo.__all__,
    *generators.__all__,
]

# after __all__ reads the modules: this rebinds ``lattice`` to the function
from .errors import *
from .lattice import *
from .data import *
from .ladder import *
from .reconstruct import *
from .montecarlo import *
from .generators import *
