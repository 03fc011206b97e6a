"""Taming transforms that keep the explicit Euler step stable.

A tamed model divides coefficients by a state-dependent denominator that
grows with the polynomial index q of the base model and shrinks as the
step count n grows, so the continuous-time coefficients are recovered in
the limit while single-step increments stay bounded:

    variant "finite":  b, sigma  -> / (1 + n^(-1/2) |x|^(2q))
                       f, g      -> / (1 + n^(-1/2) |x - y|^(2q))
    variant "ergodic": b, sigma  -> / (1 + n^(-1/2) |x|^q)
                       f, g      -> / (1 + n^(-1/2) |x - y|^q)
    variant "strong_order_candidate":
                       b         -> / (1 + n^(-1) |x|^(4q))
                       f         -> / (1 + n^(-1) |x - y|^(4q))
                       sigma, g untouched
    variant "off":     no change (plain Euler)

The denominator divides even when q == 0 (|.|^0 == 1, so it is the
constant 1 + n^(-1/2)); only "off" leaves coefficients exactly alone.
"""

import math

import numpy as np

from . import model as model_mod
from ._core import power

VARIANTS = ("finite", "ergodic", "strong_order_candidate", "off")


class TamedModel:
    """A CoefficientModel together with a taming rule at step count n."""

    __slots__ = ("base", "n", "variant")

    def __init__(self, base, n, variant="finite"):
        if variant not in VARIANTS:
            raise ValueError("unknown taming variant %r; known: %s"
                             % (variant, ", ".join(VARIANTS)))
        n = int(n)
        if n < 1:
            raise ValueError("step count n must be >= 1, got %d" % n)
        self.base = base
        self.n = n
        self.variant = variant

    def __repr__(self):
        return ("TamedModel(%r, n=%d, variant=%r)"
                % (self.base.family_id, self.n, self.variant))


def taming_parameters(tm):
    """Resolved taming factors and exponents for a TamedModel.

    Returns
    -------
    dict with keys
        gamma : float, weight in the denominator (0 for variant "off")
        e_self : float, |x| exponent for b and sigma
        e_kernel : float, |x - y| exponent for f and g
        tame_sigma, tame_g : bool, whether the diffusion parts are tamed
    """
    q = tm.base.q
    if tm.variant == "finite":
        return dict(gamma=1.0 / math.sqrt(tm.n), e_self=2.0 * q,
                    e_kernel=2.0 * q, tame_sigma=True, tame_g=True)
    if tm.variant == "ergodic":
        return dict(gamma=1.0 / math.sqrt(tm.n), e_self=q,
                    e_kernel=q, tame_sigma=True, tame_g=True)
    if tm.variant == "strong_order_candidate":
        return dict(gamma=1.0 / float(tm.n), e_self=4.0 * q,
                    e_kernel=4.0 * q, tame_sigma=False, tame_g=False)
    return dict(gamma=0.0, e_self=0.0, e_kernel=0.0,
                tame_sigma=False, tame_g=False)


def _rpow(r2, e):
    # |x|^e from the squared norm r2, as the C kernels take it: r2 and
    # r2 * r2 for e in {2, 4}, 1 for e = 0, any other e by the one power
    # rule of mvsde._core.power
    if e == 2.0:
        return r2
    if e == 4.0:
        return r2 * r2
    if e == 0.0:
        return np.ones_like(r2)
    return power(np.sqrt(r2), e)


def self_denominator(tm, x):
    """1 + gamma |x|^e_self, per point of x (..., d) -> (...)."""
    par = taming_parameters(tm)
    if par["gamma"] == 0.0:
        return np.ones(np.asarray(x).shape[:-1])
    x = np.asarray(x, dtype=np.float64)
    r2 = np.sum(x * x, axis=-1)
    return 1.0 + par["gamma"] * _rpow(r2, par["e_self"])


def kernel_weight(tm, x, y):
    """1 / (1 + gamma |x - y|^e_kernel), per pair -> (...)."""
    par = taming_parameters(tm)
    dx = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    if par["gamma"] == 0.0:
        return np.ones(dx.shape[:-1])
    r2 = np.sum(dx * dx, axis=-1)
    return 1.0 / (1.0 + par["gamma"] * _rpow(r2, par["e_kernel"]))


def tamed_drift_b(tm, t, x, mu=None):
    """Tamed measure-dependent drift; shape as eval_drift_b."""
    out = model_mod.eval_drift_b(tm.base, t, x, mu)
    den = self_denominator(tm, x)
    return out / den[..., None]


def tamed_sigma(tm, t, x, mu=None):
    """Tamed measure-dependent diffusion; shape as eval_sigma."""
    out = model_mod.eval_sigma(tm.base, t, x, mu)
    if not taming_parameters(tm)["tame_sigma"]:
        return out
    den = self_denominator(tm, x)
    return out / den[..., None, None]


def tamed_kernel_f(tm, x, y):
    """Tamed interaction drift kernel; shape as eval_kernel_f."""
    out = model_mod.eval_kernel_f(tm.base, x, y)
    return out * kernel_weight(tm, x, y)[..., None]


def tamed_kernel_g(tm, x, y):
    """Tamed interaction diffusion kernel; shape as eval_kernel_g."""
    out = model_mod.eval_kernel_g(tm.base, x, y)
    if not taming_parameters(tm)["tame_g"]:
        return out
    return out * kernel_weight(tm, x, y)[..., None, None]
