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

Importing the package first loads NumPy with its OpenBLAS capped at one
thread, unless NumPy is already loaded or OPENBLAS_NUM_THREADS is set:
the pool OpenBLAS would start spins on a CPU the repetitions could use,
and the one BLAS call, sliced W2's matrix-vector product, gives the same
bytes on one thread. The environment is restored right after.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    # OpenBLAS reads the variable once, when NumPy loads it
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
