"""Taming transforms that keep the explicit Euler step stable.

A tamed model divides coefficients by a state-dependent denominator that
grows with the polynomial index q of the base model and shrinks as the
step count n grows, so the continuous-time coefficients are recovered in
the limit while single-step increments stay bounded:

    variant "finite":  b, sigma  -> / (1 + n^(-1/2) |x|^(2q))
                       f, g      -> / (1 + n^(-1/2) |x - y|^(2q))
    variant "ergodic": b, sigma  -> / (1 + n^(-1/2) |x|^q)
                       f, g      -> / (1 + n^(-1/2) |x - y|^q)
    variant "off":     no change (plain Euler)

So a variant is two numbers, which TamedModel works out once: the weight
gamma (n^(-1/2), or 0 for "off") and the exponent e (2q, q or 0). The
denominator divides even when q == 0 (|.|^0 == 1, so it is the constant
1 + n^(-1/2)); only gamma == 0 leaves coefficients exactly alone.

The tamed coefficients themselves come from the one path the scheme runs:
model.self_terms for b and sigma, and model.pair_terms, on the pair
kernel's per-pair factors mvsde._core.pairwise_py.pair_factors, for f and
g, each called with (tm.gamma, tm.e).
"""

import math

from .model import whole_number

VARIANTS = ("finite", "ergodic", "off")


class TamedModel:
    """A CoefficientModel together with a taming rule at step count n:
    the weight gamma and the exponent e of the denominator 1 + gamma |.|^e
    (see the module docstring)."""

    __slots__ = ("base", "n", "variant", "gamma", "e")

    def __init__(self, base, n, variant="finite"):
        if variant not in VARIANTS:
            raise ValueError("unknown taming variant %r; known: %s"
                             % (variant, ", ".join(VARIANTS)))
        n = whole_number(n, "step count n")
        if n < 1:
            raise ValueError("step count n must be >= 1, got %d" % n)
        self.base = base
        self.n = n
        self.variant = variant
        if variant == "off":
            self.gamma = self.e = 0.0
        else:
            self.gamma = 1.0 / math.sqrt(n)
            self.e = 2.0 * base.q if variant == "finite" else base.q

    def __repr__(self):
        return ("TamedModel(%r, n=%d, variant=%r)"
                % (self.base.family_id, self.n, self.variant))
