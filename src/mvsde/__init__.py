"""Tamed Euler particle schemes for measure-dependent SDEs.

The package simulates interacting particle systems whose drift and
diffusion depend on the empirical measure, either through averaged
interaction kernels or through direct functionals of the particle
cloud.  All schemes are fully explicit; superlinear coefficients are
handled by taming, never by implicit solves.

Layout
------
model        coefficient families and the scheme's coefficient algebra
taming       taming variants and their parameters
rng          counter-based Brownian tableau, refinement-coupled
ensemble     particle-cloud container and empirical statistics
scheme       one-step maps and the simulation loop
metrics      Wasserstein-2 estimators and rate fitting
probes       numerical checks of the structural inequalities
experiments  convergence / stability / contraction drivers
config       INI config grammar, validation, canonical emission
cli          the `mvsde` command-line entry point
"""

from ._core import backend_name
from ._version import VERSION as __version__
from .config import emit_config, theoretical_constants
from .metrics import EXACT_ASSIGNMENT_CAP, w2
from .model import make_model
from .taming import TamedModel

# the names the README documents; everything else is reached through
# its submodule
__all__ = [
    "EXACT_ASSIGNMENT_CAP", "TamedModel", "backend_name", "emit_config",
    "make_model", "theoretical_constants", "w2", "__version__",
]
