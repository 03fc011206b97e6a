"""Coefficient models for interacting-particle simulations.

A model bundles the four coefficient maps of a mean-field equation

    dX_t = { b(t, X_t, mu_t) + int f(X_t, y) mu_t(dy) } dt
         + { sigma(t, X_t, mu_t) + int g(X_t, y) mu_t(dy) } dW_t

where mu_t is approximated by the empirical measure of N particles. Every
family in this module is expressed through one canonical parameterization:

    b(t, x, mu)    = beta1 * x + betaq * x * |x|^q_b + coupling(x, mu)
    sigma(t, x, mu)= s0 * I + s1 * diag(x) + c_s * diag(mean(mu) - x)
    f(x, y)        = (kf1 + kfq * |x - y|^q_f) * (x - y)
    g(x, y)        = c_g * diag(x - y)

with coupling = lam * mean(mu) in "functional" measure mode and
kap_pair * (mean(mu) - x) in "pairwise" mode (where b and sigma are averages
of two-argument maps over the atoms, evaluated through the atom mean as
above). All maps are autonomous; the time argument is accepted for
interface uniformity.

self_terms and pair_terms are the scheme's tamed coefficients, the
algebra scheme.step and the pair kernel run, at a taming weight gamma and
exponent e (taming.TamedModel); eval_* are both at gamma = 0, untamed.

Diagonal terms (s1, c_s, c_g) require a square noise, l == d.
"""

import numbers

import numpy as np

from ._core.pairwise_py import pair_factors, pair_r2, power, tame_power

# the canonical coefficients; a family's canon leaves out those that are 0
COEFFICIENTS = ("beta1", "betaq", "q_b", "lam", "kap_pair", "s0", "s1",
                "c_s", "kf1", "kfq", "q_f", "c_g")


class CoefficientModel:
    """Immutable bundle of coefficient maps and their parameters.

    Attributes
    ----------
    family_id : str
        Name of the coefficient family.
    d : int
        State dimension.
    l : int
        Driving-noise dimension.
    q : float
        Polynomial-growth index of the family (0 means globally Lipschitz).
    params : dict
        Family-facing parameters after merging overrides into defaults.
    measure_mode : str
        "functional" (coefficients read the measure through its mean) or
        "pairwise" (b and sigma are atom averages of two-argument maps).
    """

    __slots__ = ("family_id", "d", "l", "q", "params",
                 "measure_mode") + COEFFICIENTS

    def __init__(self, family_id, d, l, q, params, measure_mode, canon):
        self.family_id = family_id
        self.d = int(d)
        self.l = int(l)
        self.q = float(q)
        self.params = dict(params)
        self.measure_mode = measure_mode
        for name in COEFFICIENTS:
            object.__setattr__(self, name, float(canon.get(name, 0.0)))
        # the scheme adds both couplings, so a model has only its mode's
        other = "lam" if measure_mode == "pairwise" else "kap_pair"
        if getattr(self, other) != 0.0:
            raise ValueError("%s must be 0 in the %s measure mode, got %r"
                             % (other, measure_mode, getattr(self, other)))

    def __setattr__(self, name, value):
        if hasattr(self, "c_g"):
            raise AttributeError("CoefficientModel is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return ("CoefficientModel(family_id=%r, d=%d, l=%d, q=%g, "
                "measure_mode=%r)" % (self.family_id, self.d, self.l,
                                      self.q, self.measure_mode))


def _canon_cubic_mean_field(p):
    return dict(betaq=-1.0, q_b=p["q"], lam=p["lam"], s0=p["sigma0"],
                kfq=-p["c_f"], q_f=p["q"], c_g=p["c_g"])


def _canon_ergodic_dissipative(p):
    return dict(beta1=-1.0, betaq=-1.0, q_b=p["q"], s1=p["eps"],
                kf1=-p["kappa1"], kfq=-p["kappaq"], q_f=p["q"])


def _canon_pairwise_vlasov(p):
    return dict(beta1=-p["a1"], betaq=-p["a3"], q_b=p["q"],
                kap_pair=p["kappa"], s0=p["nu"], c_s=p["c_s"],
                kfq=-p["c_f"], q_f=p["q"], c_g=p["c_g"])


def _canon_lipschitz_baseline(p):
    return dict(beta1=-p["a"], lam=p["lam"], s0=p["sigma0"],
                kf1=-p["kappa"], c_g=p["c_g"])


def _canon_anti_dissipative(p):
    return dict(betaq=1.0, q_b=p["q"], s0=p["sigma0"])


FAMILIES = {
    # superlinear drift -x|x|^q with mean attraction and odd polynomial
    # interaction kernel; the workhorse for strong-rate runs
    "cubic-mean-field": dict(
        defaults=dict(q=2.0, lam=0.5, sigma0=0.3, c_f=1.0, c_g=1.0),
        canon=_canon_cubic_mean_field,
        measure_mode="functional"),
    # fully dissipative drift and kernel with multiplicative noise; decays
    # toward a unique stationary law, used by the contraction experiment
    "ergodic-dissipative": dict(
        defaults=dict(q=2.0, eps=0.2, kappa1=0.5, kappaq=0.5),
        canon=_canon_ergodic_dissipative,
        measure_mode="functional"),
    # two-argument drift/diffusion averaged over atoms; exercises the
    # pairwise measure mode for particle-count convergence runs
    "pairwise-vlasov": dict(
        defaults=dict(q=2.0, a1=0.5, a3=1.0, kappa=0.5, c_s=0.2, nu=0.0,
                      c_f=1.0, c_g=0.2),
        canon=_canon_pairwise_vlasov,
        measure_mode="pairwise"),
    # globally Lipschitz control family (q = 0)
    "lipschitz-baseline": dict(
        defaults=dict(q=0.0, a=1.0, lam=0.3, sigma0=0.5, kappa=0.5,
                      c_g=0.2),
        canon=_canon_lipschitz_baseline,
        measure_mode="functional"),
    # drift +x|x|^q violates one-sided Lipschitz dissipativity; exists so
    # negative probe tests have something to fail on
    "anti-dissipative": dict(
        defaults=dict(q=2.0, sigma0=0.5),
        canon=_canon_anti_dissipative,
        measure_mode="functional"),
}


def whole_number(value, what="value"):
    """value as an int: an int, or an integral float such as 16.0. A bool,
    a fractional or non-finite number and a non-number raise ValueError
    naming `what`. The rule of every count and dimension: config's int
    fields, make_model's d and l, and TamedModel's n."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral)
                 or float(value).is_integer())):
        return int(value)
    raise ValueError("%s must be a whole number, got %r" % (what, value))


def make_model(family_id, d=1, l=None, params=None):
    """Construct a CoefficientModel from a named family.

    Parameters
    ----------
    family_id : str
        Key into FAMILIES.
    d : int
        State dimension (>= 1); an integral float such as 2.0 is taken,
        a fractional one or a bool is refused (whole_number).
    l : int, optional
        Noise dimension, under the same rule; defaults to d.
    params : dict, optional
        Overrides merged into the family defaults. Unknown keys raise, and
        so does a growth order q < 0.

    Returns
    -------
    CoefficientModel
    """
    if family_id not in FAMILIES:
        raise ValueError("unknown family %r; known: %s"
                         % (family_id, ", ".join(sorted(FAMILIES))))
    spec = FAMILIES[family_id]
    merged = dict(spec["defaults"])
    for key, val in (params or {}).items():
        if key not in merged:
            raise ValueError("family %r has no parameter %r (known: %s)"
                             % (family_id, key,
                                ", ".join(sorted(merged))))
        merged[key] = float(val)
    if not merged["q"] >= 0.0:
        raise ValueError("growth order q must be >= 0, got %r (a negative "
                         "q divides by zero where two particles "
                         "coincide); set q to 0 or more" % merged["q"])
    d = whole_number(d, "dimension d")
    l = d if l is None else whole_number(l, "dimension l")
    if d < 1 or l < 1:
        raise ValueError("dimensions must be >= 1, got d=%d l=%d" % (d, l))
    canon = spec["canon"](merged)
    model = CoefficientModel(family_id, d, l, merged["q"], merged,
                             spec["measure_mode"], canon)
    if l != d and (model.s1 != 0.0 or model.c_s != 0.0
                   or model.c_g != 0.0):
        raise ValueError("diagonal noise terms require l == d "
                         "(got d=%d l=%d)" % (d, l))
    return model


def _measure_mean(model, mu):
    """Mean of the atoms (..., M, d) of an empirical measure: (..., d)."""
    if mu is None:
        if model.lam != 0.0 or model.kap_pair != 0.0 or model.c_s != 0.0:
            raise ValueError("model %r requires a measure argument"
                             % model.family_id)
        return None
    return np.asarray(mu, dtype=np.float64).mean(axis=-2)


def self_terms(model, gamma, e, x, mean, k):
    """Self drift b_n (..., d) and noise diagonal sigma_n (..., k) of the
    scheme at states x (..., d), for the taming weight gamma and exponent
    e (taming.TamedModel) and the measure's mean (None if unread).

    In scheme.step's order, which the fused kernel repeats: the coupling,
    kap_pair * (mean - x) and then lam * mean (a model has at most one of
    them), joins the self drift before the drift and the noise diagonal
    are divided by 1 + gamma |x|^e, a division gamma = 0 skips. The
    squared norm |x|^2 is summed once, for |x|^q_b and the denominator.
    """
    r2 = np.sum(x * x, axis=-1)
    b = model.beta1 * x
    if model.betaq != 0.0:
        b = b + model.betaq * x * power(np.sqrt(r2), model.q_b)[..., None]
    if model.kap_pair != 0.0:
        b = b + model.kap_pair * (mean - x)
    if model.lam != 0.0:
        b = b + model.lam * mean
    diag = np.full(x.shape[:-1] + (k,), model.s0)
    if model.s1 != 0.0:
        diag = diag + model.s1 * x[..., :k]
    if model.c_s != 0.0:
        diag = diag + model.c_s * (mean - x)[..., :k]
    if gamma != 0.0:
        den = 1.0 + gamma * tame_power(r2, e)
        b = b / den[..., None]
        diag = diag / den[..., None]
    return b, diag


def pair_terms(model, gamma, e, x, y, k):
    """Per-pair drift f_n (..., d) and noise diagonal g_n (..., k) of the
    scheme: pair_factors, the pair kernel's algebra, at the sequential
    squared radius of x - y; gamma and e as in self_terms, both f and g
    tamed."""
    dx = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    cf, cgw = pair_factors(pair_r2(dx), model.kf1, model.kfq, model.q_f,
                           model.c_g, gamma, e, 1.0)
    return cf[..., None] * dx, cgw[..., None] * dx[..., :k]


def _diagonal(model, diag):
    # (..., d, l) matrix with diag on its leading diagonal
    out = np.zeros(diag.shape[:-1] + (model.d, model.l))
    idx = np.arange(diag.shape[-1])
    out[..., idx, idx] = diag
    return out


def eval_drift_b(model, t, x, mu=None):
    """Measure-dependent drift b(t, x, mu), (..., d): self_terms' untamed
    drift. t is ignored (autonomous coefficients); mu is an atom array
    (..., M, d) whose batch axes broadcast against those of x."""
    x = np.asarray(x, dtype=np.float64)
    return self_terms(model, 0.0, 0.0, x, _measure_mean(model, mu), 0)[0]


def eval_sigma(model, t, x, mu=None):
    """Measure-dependent diffusion sigma(t, x, mu) as a (..., d, l) matrix:
    self_terms' untamed noise diagonal."""
    x = np.asarray(x, dtype=np.float64)
    return _diagonal(model, self_terms(model, 0.0, 0.0, x,
                                       _measure_mean(model, mu),
                                       min(model.d, model.l))[1])


def eval_kernel_f(model, x, y):
    """Interaction drift kernel f(x, y) = (kf1 + kfq |x-y|^q_f)(x - y):
    pair_terms' untamed drift."""
    return pair_terms(model, 0.0, 0.0, x, y, 0)[0]


def eval_kernel_g(model, x, y):
    """Interaction diffusion kernel g(x, y) = c_g diag(x - y), (..., d, l):
    pair_terms' untamed noise diagonal."""
    return _diagonal(model, pair_terms(model, 0.0, 0.0, x, y,
                                       min(model.d, model.l))[1])


def _pair_arguments(model, name, x, y):
    # x broadcast against y, which stands in for the measure's mean
    if model.measure_mode != "pairwise":
        raise ValueError("%s needs a pairwise-mode model" % name)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.broadcast_to(x, np.broadcast_shapes(x.shape, y.shape)), y


def eval_pair_drift(model, t, x, y):
    """Two-argument drift of pairwise mode: b(t, x, mu) = mean_y btilde,
    self_terms' untamed drift with y as the mean."""
    x, y = _pair_arguments(model, "eval_pair_drift", x, y)
    return self_terms(model, 0.0, 0.0, x, y, 0)[0]


def eval_pair_sigma(model, t, x, y):
    """Two-argument diffusion of pairwise mode, (..., d, l): self_terms'
    untamed noise diagonal with y as the mean."""
    x, y = _pair_arguments(model, "eval_pair_sigma", x, y)
    return _diagonal(model, self_terms(model, 0.0, 0.0, x, y,
                                       min(model.d, model.l))[1])
