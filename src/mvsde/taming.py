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

This module only resolves a variant and n into taming parameters. The
tamed coefficients themselves come from the one path the scheme runs:
model.self_terms for b and sigma, and model.pair_terms, on the pair
kernel's per-pair factors mvsde._core.pairwise_py.pair_factors, for f and
g, each called with taming_parameters(tm).
"""

import math

VARIANTS = ("finite", "ergodic", "strong_order_candidate", "off")
# taming_parameters of the variant "off": the untamed coefficients
UNTAMED = dict(gamma=0.0, e_self=0.0, e_kernel=0.0, tame_sigma=False,
               tame_g=False)


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
    return dict(UNTAMED)
