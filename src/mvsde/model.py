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
of two-argument maps over the atoms). All maps are autonomous; the time
argument is accepted for interface uniformity.

Diagonal terms (s1, c_s, c_g) require a square noise, l == d.
"""

import numpy as np

from ._core import power

MEASURE_MODES = ("functional", "pairwise")


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

    __slots__ = (
        "family_id", "d", "l", "q", "params", "measure_mode",
        "beta1", "betaq", "q_b", "lam", "kap_pair",
        "s0", "s1", "c_s", "kf1", "kfq", "q_f", "c_g",
    )

    def __init__(self, family_id, d, l, q, params, measure_mode, canon):
        self.family_id = family_id
        self.d = int(d)
        self.l = int(l)
        self.q = float(q)
        self.params = dict(params)
        self.measure_mode = measure_mode
        for name in ("beta1", "betaq", "q_b", "lam", "kap_pair", "s0",
                     "s1", "c_s", "kf1", "kfq", "q_f", "c_g"):
            object.__setattr__(self, name, float(canon.get(name, 0.0)))

    def __setattr__(self, name, value):
        if hasattr(self, "c_g"):
            raise AttributeError("CoefficientModel is immutable")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return ("CoefficientModel(family_id=%r, d=%d, l=%d, q=%g, "
                "measure_mode=%r)" % (self.family_id, self.d, self.l,
                                      self.q, self.measure_mode))


def _canon_cubic_mean_field(p):
    return dict(beta1=0.0, betaq=-1.0, q_b=p["q"], lam=p["lam"],
                s0=p["sigma0"], kf1=0.0, kfq=-p["c_f"], q_f=p["q"],
                c_g=p["c_g"])


def _canon_ergodic_dissipative(p):
    return dict(beta1=-1.0, betaq=-1.0, q_b=p["q"], s1=p["eps"],
                kf1=-p["kappa1"], kfq=-p["kappaq"], q_f=p["q"])


def _canon_pairwise_vlasov(p):
    return dict(beta1=-p["a1"], betaq=-p["a3"], q_b=p["q"],
                kap_pair=p["kappa"], s0=p["nu"], c_s=p["c_s"],
                kf1=0.0, kfq=-p["c_f"], q_f=p["q"], c_g=p["c_g"])


def _canon_lipschitz_baseline(p):
    return dict(beta1=-p["a"], betaq=0.0, q_b=0.0, lam=p["lam"],
                s0=p["sigma0"], kf1=-p["kappa"], kfq=0.0, q_f=0.0,
                c_g=p["c_g"])


def _canon_anti_dissipative(p):
    return dict(beta1=0.0, betaq=1.0, q_b=p["q"], s0=p["sigma0"])


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


def make_model(family_id, d=1, l=None, params=None):
    """Construct a CoefficientModel from a named family.

    Parameters
    ----------
    family_id : str
        Key into FAMILIES.
    d : int
        State dimension (>= 1).
    l : int, optional
        Noise dimension; defaults to d.
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
    d = int(d)
    l = d if l is None else int(l)
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


def _atoms(mu):
    """Atom array of an empirical measure: (..., M, d)."""
    if mu is None:
        return None
    return np.asarray(mu, dtype=np.float64)


def _measure_mean(model, mu):
    atoms = _atoms(mu)
    if atoms is None:
        if model.lam != 0.0 or model.kap_pair != 0.0 or model.c_s != 0.0:
            raise ValueError("model %r requires a measure argument"
                             % model.family_id)
        return None
    return atoms.mean(axis=-2)


def _norm(x):
    return np.sqrt(np.sum(x * x, axis=-1))


def _self_drift(model, x):
    out = model.beta1 * x
    if model.betaq != 0.0:
        r = _norm(x)
        out = out + model.betaq * x * power(r, model.q_b)[..., None]
    return out


def eval_drift_b(model, t, x, mu=None):
    """Measure-dependent drift b(t, x, mu).

    Parameters
    ----------
    model : CoefficientModel
    t : float or array
        Ignored by the built-in families (autonomous coefficients).
    x : (..., d) array
    mu : measure, optional
        Atom array (..., M, d).
        Batch axes must broadcast against those of x.

    Returns
    -------
    (..., d) array
    """
    x = np.asarray(x, dtype=np.float64)
    if model.measure_mode == "pairwise":
        atoms = _atoms(mu)
        if atoms is None:
            if model.kap_pair != 0.0:
                raise ValueError("model %r requires a measure argument"
                                 % model.family_id)
            return _self_drift(model, x)
        # literal atom average so it reproduces mean-over-atoms of
        # eval_pair_drift bit for bit
        return eval_pair_drift(model, t, x[..., None, :], atoms).mean(axis=-2)
    out = _self_drift(model, x)
    mean = _measure_mean(model, mu)
    if mean is not None and model.lam != 0.0:
        out = out + model.lam * mean
    return out


def eval_sigma(model, t, x, mu=None):
    """Measure-dependent diffusion sigma(t, x, mu) as a (..., d, l) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if model.measure_mode == "pairwise":
        atoms = _atoms(mu)
        if atoms is None:
            if model.c_s != 0.0:
                raise ValueError("model %r requires a measure argument"
                                 % model.family_id)
            return eval_pair_sigma(model, t, x, x)
        # literal atom average of the two-argument diffusion
        return eval_pair_sigma(model, t, x[..., None, :], atoms).mean(axis=-3)
    batch = x.shape[:-1]
    out = np.zeros(batch + (model.d, model.l))
    k = min(model.d, model.l)
    idx = np.arange(k)
    diag = np.full(batch + (k,), model.s0)
    if model.s1 != 0.0:
        diag = diag + model.s1 * x[..., :k]
    if model.c_s != 0.0:
        mean = _measure_mean(model, mu)
        diag = diag + model.c_s * (mean - x)[..., :k]
    out[..., idx, idx] = diag
    return out


def eval_kernel_f(model, x, y):
    """Interaction drift kernel f(x, y) = (kf1 + kfq |x-y|^q_f)(x - y)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - y
    coeff = np.full(dx.shape[:-1], model.kf1)
    if model.kfq != 0.0:
        coeff = coeff + model.kfq * power(_norm(dx), model.q_f)
    return coeff[..., None] * dx


def eval_kernel_g(model, x, y):
    """Interaction diffusion kernel g(x, y) = c_g diag(x - y), (..., d, l)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - y
    batch = dx.shape[:-1]
    out = np.zeros(batch + (model.d, model.l))
    if model.c_g != 0.0:
        k = min(model.d, model.l)
        idx = np.arange(k)
        out[..., idx, idx] = model.c_g * dx[..., :k]
    return out


def eval_pair_drift(model, t, x, y):
    """Two-argument drift of pairwise mode: b(t, x, mu) = mean_y btilde."""
    if model.measure_mode != "pairwise":
        raise ValueError("eval_pair_drift needs a pairwise-mode model")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _self_drift(model, x) + model.kap_pair * (y - x)


def eval_pair_sigma(model, t, x, y):
    """Two-argument diffusion of pairwise mode, (..., d, l)."""
    if model.measure_mode != "pairwise":
        raise ValueError("eval_pair_sigma needs a pairwise-mode model")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    batch = np.broadcast_shapes(x.shape, y.shape)[:-1]
    out = np.zeros(batch + (model.d, model.l))
    k = min(model.d, model.l)
    idx = np.arange(k)
    diag = np.full(batch + (k,), model.s0)
    if model.c_s != 0.0:
        diag = diag + model.c_s * (y - x)[..., :k]
    out[..., idx, idx] = diag
    return out
