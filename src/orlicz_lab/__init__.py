"""Weighted Orlicz-Sobolev toolbox: Young-function calculus, discrete
modular norms, energy functionals, constrained eigen-minimization, and the
three-solution region calculator, with a batch CLI on top.

The import surface mirrors the layering: ``young`` holds the scalar
calculus, ``norms`` the grids and Luxemburg machinery, ``functionals`` the
energies I and J with their derivatives, ``eigensolver`` the projected
minimization and level sweeps, ``region`` the multiplier-window analysis.
"""

__version__ = "0.1.0"

from . import errors, young, norms, functionals, eigensolver, region
from .errors import *  # noqa: F401,F403
from .young import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .eigensolver import *  # noqa: F401,F403
from .region import *  # noqa: F401,F403

# the package exports exactly what its layers export
__all__ = ["__version__", *errors.__all__, *young.__all__, *norms.__all__,
           *functionals.__all__, *eigensolver.__all__, *region.__all__]
