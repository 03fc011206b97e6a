"""Monte Carlo probes for the structural inequalities behind the scheme.

Each probe draws random point tuples from a ball, moves every term of one
inequality to the left, and reports the worst (largest) margin over the
sample. A margin <= 0 at every sampled point means the inequality held on
the sample; probes are diagnostics, not proofs.

Conventions
-----------
* Measures are realized as 2-atom empiricals; the squared W2 distance
  between two 2-atom uniform empiricals has the closed form
  min(|a1-b1|^2 + |a2-b2|^2, |a1-b2|^2 + |a2-b1|^2) / 2.
* Reference constants are closed-form overestimates computed from the
  canonical family parameters. They deliberately take no credit from
  destabilizing terms (positive betaq or kfq), so a family built to
  violate dissipativity fails its probe with a positive margin.
* Inequalities whose right side is a single constant times a positive
  factor also report the fitted constant: the smallest constant that
  would have made every sampled inequality hold (largest admissible
  value for dissipativity credits, where the constant enters negated).
  Zero-difference samples are skipped in the fit to avoid 0/0.
* Margins are evaluated against guarded references: credit constants
  (entering negated) are shaved, and allowance constants inflated, by a
  relative 1e-6, so families whose analytic supremum exactly equals the
  reference cannot flip sign through float roundoff. Reported reference
  and fitted constants are the unguarded values.

The "ergodic" probe set encodes cross-weighted dissipation inequalities
whose reference constants are derived for the quadratic-index structure
(q = q_b = q_f = 2, no measure coupling, no additive noise); it refuses
other models rather than report margins against invalid references.
"""

from dataclasses import dataclass

import numpy as np

from .model import (eval_drift_b, eval_kernel_f, eval_kernel_g,
                    eval_pair_drift, eval_pair_sigma, eval_sigma)

_CREDIT_GUARD = 1.0 - 1e-6
_ALLOW_GUARD = 1.0 + 1e-6
# moment orders in the inequality weights: p0 the baseline moment order,
# p1 the rate-section weight, p the particle-convergence weight
_MOMENT_ORDERS = {"p0": 4.0, "p1": 4.0, "p": 2.0}

PROBE_SETS = {
    "finite_horizon": (
        "b_sigma_coercivity",
        "b_sigma_monotonicity",
        "fg_kernel_monotonicity",
        "f_local_lipschitz",
    ),
    "kernel_growth": (
        "fg_radial_coercivity",
        "g_squared_local_lipschitz",
        "f_polynomial_growth",
        "g_squared_growth",
    ),
    "antisymmetry": (
        "f_antisymmetry",
        "f_weighted_odd_growth",
        "fg_antisym_coercivity",
    ),
    "rate": (
        "b_polynomial_lipschitz",
        "b_sigma_rate_monotonicity",
        "fg_rate_monotonicity",
        "b_sigma_time_holder",
    ),
    "pairwise_poc": (
        "pair_coercivity",
        "pair_monotonicity",
        "pair_second_arg_lipschitz",
        "fg_pair_weighted_growth",
        "fg_pair_monotonicity",
    ),
    "ergodic": (
        "erg_b_sigma_dissipativity",
        "erg_fg_dissipativity",
        "erg_b_growth",
        "erg_f_growth",
        "erg_b_sigma_contraction",
        "erg_fg_contraction",
        "erg_b_sigma_cross",
        "erg_fg_cross",
        "erg_b_cross_growth",
        "erg_f_cross_growth",
    ),
}

# Assumption sets each built-in family is documented to satisfy at any
# radius (the reference constants are radius-free overestimates, except
# the two weighted-growth probes whose references grow with the radius).
DOCUMENTED_SETS = {
    "cubic-mean-field": ("finite_horizon", "kernel_growth",
                         "antisymmetry", "rate"),
    "ergodic-dissipative": ("finite_horizon", "kernel_growth",
                            "antisymmetry", "rate", "ergodic"),
    "pairwise-vlasov": ("finite_horizon", "kernel_growth",
                        "antisymmetry", "rate", "pairwise_poc"),
    "lipschitz-baseline": ("finite_horizon", "kernel_growth",
                           "antisymmetry", "rate"),
    "anti-dissipative": (),
}


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of probing one inequality on one sample batch.

    Attributes
    ----------
    assumption_id : str
        Name of the probed inequality.
    sample_count : int
        Number of sampled point tuples.
    worst_margin : float
        Largest value of LHS - RHS over the sample; <= 0 means the
        inequality held everywhere.
    fitted_constant : float
        Empirically fitted leading constant (NaN when the inequality
        has no single leading constant, e.g. exact antisymmetry).
    holds : bool
        worst_margin <= 0.
    reference_constant : float
        The documented constant the margin was evaluated against.
    """

    assumption_id: str
    sample_count: int
    worst_margin: float
    fitted_constant: float
    holds: bool
    reference_constant: float


def _ball(rng, count, d, radius):
    z = rng.standard_normal((count, d))
    nrm = np.sqrt(np.sum(z * z, axis=1, keepdims=True))
    nrm[nrm == 0.0] = 1.0
    u = rng.random((count, 1))
    return radius * u ** (1.0 / d) * (z / nrm)


def _nrm2(v):
    return np.sum(v * v, axis=-1)


def _dot(u, v):
    return np.sum(u * v, axis=-1)


def _frob2(m):
    return np.sum(m * m, axis=(-2, -1))


class _Samples:
    """One batch of probe inputs shared by all inequalities of a set."""

    def __init__(self, model, count, radius, seed):
        rng = np.random.default_rng(seed)
        d = model.d
        self.x = _ball(rng, count, d, radius)
        self.xp = _ball(rng, count, d, radius)
        self.y = _ball(rng, count, d, radius)
        self.yp = _ball(rng, count, d, radius)
        # two 2-atom empirical measures per sample
        self.mu = np.stack([_ball(rng, count, d, radius),
                            _ball(rng, count, d, radius)], axis=1)
        self.nu = np.stack([_ball(rng, count, d, radius),
                            _ball(rng, count, d, radius)], axis=1)
        self.t = rng.random(count)
        self.tp = rng.random(count)
        a1, a2 = self.mu[:, 0, :], self.mu[:, 1, :]
        b1, b2 = self.nu[:, 0, :], self.nu[:, 1, :]
        straight = _nrm2(a1 - b1) + _nrm2(a2 - b2)
        crossed = _nrm2(a1 - b2) + _nrm2(a2 - b1)
        self.w2sq = np.minimum(straight, crossed) / 2.0
        self.w2sq_origin = (_nrm2(a1) + _nrm2(a2)) / 2.0


def _fit_max(lhs, factor):
    ok = factor > 0.0
    if not np.any(ok):
        return float("nan")
    return float(np.max(lhs[ok] / factor[ok]))


def _fit_min(lhs, factor):
    # largest admissible credit constant: LHS <= -C * factor
    ok = factor > 0.0
    if not np.any(ok):
        return float("nan")
    return float(np.min(-lhs[ok] / factor[ok]))


def _pos(v):
    return max(0.0, v)


# ---------------------------------------------------------------- finite

def _p_b_sigma_coercivity(model, s, pp):
    b = eval_drift_b(model, s.t, s.x, s.mu)
    sig = eval_sigma(model, s.t, s.x, s.mu)
    lhs = _dot(s.x, b) + (pp["p0"] - 1.0) * _frob2(sig)
    factor = 1.0 + _nrm2(s.x) + s.w2sq_origin
    k = min(model.d, model.l)
    ref = (_pos(model.beta1) + abs(model.lam) + 2.0 * abs(model.kap_pair)
           + 3.0 * (pp["p0"] - 1.0)
           * (model.s1 ** 2 + 2.0 * model.c_s ** 2 + k * model.s0 ** 2))
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_b_sigma_monotonicity(model, s, pp):
    db = (eval_drift_b(model, s.t, s.x, s.mu)
          - eval_drift_b(model, s.t, s.xp, s.nu))
    ds = (eval_sigma(model, s.t, s.x, s.mu)
          - eval_sigma(model, s.t, s.xp, s.nu))
    lhs = _dot(s.x - s.xp, db) + _frob2(ds)
    factor = _nrm2(s.x - s.xp) + s.w2sq
    ref = (_pos(model.beta1) + abs(model.lam) + 2.0 * abs(model.kap_pair)
           + 2.0 * model.s1 ** 2 + 4.0 * model.c_s ** 2)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_fg_kernel_monotonicity(model, s, pp):
    df = eval_kernel_f(model, s.x, s.y) - eval_kernel_f(model, s.xp, s.yp)
    dg = eval_kernel_g(model, s.x, s.y) - eval_kernel_g(model, s.xp, s.yp)
    du = (s.x - s.y) - (s.xp - s.yp)
    lhs = _dot(du, df) + (pp["p0"] - 1.0) * _frob2(dg)
    factor = _nrm2(du)
    ref = _pos(model.kf1) + (pp["p0"] - 1.0) * model.c_g ** 2
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_f_local_lipschitz(model, s, pp):
    df = eval_kernel_f(model, s.x, s.y) - eval_kernel_f(model, s.xp, s.yp)
    u = np.sqrt(_nrm2(s.x - s.y))
    up = np.sqrt(_nrm2(s.xp - s.yp))
    du = np.sqrt(_nrm2((s.x - s.y) - (s.xp - s.yp)))
    lhs = np.sqrt(_nrm2(df))
    factor = (1.0 + u + up) ** model.q * du
    ref = abs(model.kf1) + abs(model.kfq) * (1.0 + model.q_f)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


# ---------------------------------------------------------------- growth

def _p_fg_radial_coercivity(model, s, pp):
    f = eval_kernel_f(model, s.x, s.y)
    g = eval_kernel_g(model, s.x, s.y)
    u = s.x - s.y
    lhs = 2.0 * _dot(u, f) + (pp["p0"] - 1.0) * _frob2(g)
    factor = 1.0 + _nrm2(u)
    ref = 2.0 * _pos(model.kf1) + (pp["p0"] - 1.0) * model.c_g ** 2
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_g_squared_local_lipschitz(model, s, pp):
    dg = eval_kernel_g(model, s.x, s.y) - eval_kernel_g(model, s.xp, s.yp)
    u = np.sqrt(_nrm2(s.x - s.y))
    up = np.sqrt(_nrm2(s.xp - s.yp))
    du2 = _nrm2((s.x - s.y) - (s.xp - s.yp))
    lhs = _frob2(dg)
    factor = (1.0 + u + up) ** model.q * du2
    ref = model.c_g ** 2
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_f_polynomial_growth(model, s, pp):
    f = eval_kernel_f(model, s.x, s.y)
    u = np.sqrt(_nrm2(s.x - s.y))
    lhs = np.sqrt(_nrm2(f))
    factor = (1.0 + u) ** (model.q + 1.0)
    ref = abs(model.kf1) + abs(model.kfq)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_g_squared_growth(model, s, pp):
    g = eval_kernel_g(model, s.x, s.y)
    u = np.sqrt(_nrm2(s.x - s.y))
    lhs = _frob2(g)
    factor = (1.0 + u) ** (model.q + 2.0)
    ref = model.c_g ** 2
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


# ---------------------------------------------------------- antisymmetry

def _p_f_antisymmetry(model, s, pp):
    resid = eval_kernel_f(model, s.x, s.y) + eval_kernel_f(model, s.y, s.x)
    margin = np.max(np.abs(resid), axis=-1)
    return margin, float("nan"), 0.0


def _p_f_weighted_odd_growth(model, s, pp):
    f = eval_kernel_f(model, s.x, s.y)
    rx = np.sqrt(_nrm2(s.x))
    ry = np.sqrt(_nrm2(s.y))
    p0 = pp["p0"]
    lhs = (rx ** (p0 - 2.0) - ry ** (p0 - 2.0)) * _dot(s.x + s.y, f)
    factor = rx ** p0 + ry ** p0
    ref = (_pos(model.kf1)
           + _pos(model.kfq) * (2.0 * pp["radius"]) ** model.q_f)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_fg_antisym_coercivity(model, s, pp):
    f = eval_kernel_f(model, s.x, s.y)
    g = eval_kernel_g(model, s.x, s.y)
    u = s.x - s.y
    lhs = _dot(u, f) + 2.0 * (pp["p0"] - 1.0) * _frob2(g)
    factor = 1.0 + _nrm2(u)
    ref = _pos(model.kf1) + 2.0 * (pp["p0"] - 1.0) * model.c_g ** 2
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


# ------------------------------------------------------------------ rate

def _p_b_polynomial_lipschitz(model, s, pp):
    db = (eval_drift_b(model, s.t, s.x, s.mu)
          - eval_drift_b(model, s.t, s.xp, s.nu))
    rx = np.sqrt(_nrm2(s.x))
    rxp = np.sqrt(_nrm2(s.xp))
    dx = np.sqrt(_nrm2(s.x - s.xp))
    lhs = np.sqrt(_nrm2(db))
    factor = (1.0 + rx + rxp) ** model.q * dx + np.sqrt(s.w2sq)
    ref = (abs(model.beta1) + abs(model.betaq) * (1.0 + model.q_b)
           + abs(model.lam) + abs(model.kap_pair))
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_b_sigma_rate_monotonicity(model, s, pp):
    db = (eval_drift_b(model, s.t, s.x, s.mu)
          - eval_drift_b(model, s.t, s.xp, s.nu))
    ds = (eval_sigma(model, s.t, s.x, s.mu)
          - eval_sigma(model, s.t, s.xp, s.nu))
    lhs = _dot(s.x - s.xp, db) + (pp["p1"] - 1.0) * _frob2(ds)
    factor = _nrm2(s.x - s.xp) + s.w2sq
    ref = (_pos(model.beta1) + abs(model.lam) + 2.0 * abs(model.kap_pair)
           + (pp["p1"] - 1.0) * (2.0 * model.s1 ** 2
                                 + 4.0 * model.c_s ** 2))
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_fg_rate_monotonicity(model, s, pp):
    df = eval_kernel_f(model, s.x, s.y) - eval_kernel_f(model, s.xp, s.yp)
    dg = eval_kernel_g(model, s.x, s.y) - eval_kernel_g(model, s.xp, s.yp)
    du = (s.x - s.y) - (s.xp - s.yp)
    lhs = _dot(du, df) + 2.0 * (pp["p1"] - 1.0) * _frob2(dg)
    factor = _nrm2(du)
    ref = _pos(model.kf1) + 2.0 * (pp["p1"] - 1.0) * model.c_g ** 2
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_b_sigma_time_holder(model, s, pp):
    db = (eval_drift_b(model, s.t, s.x, s.mu)
          - eval_drift_b(model, s.tp, s.x, s.mu))
    ds = (eval_sigma(model, s.t, s.x, s.mu)
          - eval_sigma(model, s.tp, s.x, s.mu))
    lhs = np.sqrt(_nrm2(db)) + np.sqrt(_frob2(ds))
    factor = np.sqrt(np.abs(s.t - s.tp))
    return lhs - 0.0 * factor, _fit_max(lhs, factor), 0.0


# -------------------------------------------------------------- pairwise

def _need_pairwise(model):
    if model.measure_mode != "pairwise":
        raise ValueError("pairwise_poc probes need a pairwise-mode model, "
                         "got %r" % model.family_id)


def _p_pair_coercivity(model, s, pp):
    _need_pairwise(model)
    b = eval_pair_drift(model, s.t, s.x, s.y)
    sig = eval_pair_sigma(model, s.t, s.x, s.y)
    lhs = _dot(s.x, b) + (pp["p0"] - 1.0) * _frob2(sig)
    factor = _nrm2(s.x) + _nrm2(s.y)
    # no credit for an additive noise floor: s0 != 0 cannot satisfy a
    # right side without constant term, so it is deliberately left out
    ref = (_pos(model.beta1) + 2.0 * abs(model.kap_pair)
           + 3.0 * (pp["p0"] - 1.0)
           * (model.s1 ** 2 + 2.0 * model.c_s ** 2))
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_pair_monotonicity(model, s, pp):
    _need_pairwise(model)
    db = (eval_pair_drift(model, s.t, s.x, s.y)
          - eval_pair_drift(model, s.t, s.xp, s.yp))
    ds = (eval_pair_sigma(model, s.t, s.x, s.y)
          - eval_pair_sigma(model, s.t, s.xp, s.yp))
    lhs = _dot(s.x - s.xp, db) + 2.0 * (pp["p"] - 1.0) * _frob2(ds)
    factor = _nrm2(s.x - s.xp) + _nrm2(s.y - s.yp)
    ref = (_pos(model.beta1) + 2.0 * abs(model.kap_pair)
           + 2.0 * (pp["p"] - 1.0) * (2.0 * model.s1 ** 2
                                      + 4.0 * model.c_s ** 2))
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_pair_second_arg_lipschitz(model, s, pp):
    _need_pairwise(model)
    db = (eval_pair_drift(model, s.t, s.x, s.y)
          - eval_pair_drift(model, s.t, s.x, s.yp))
    lhs = np.sqrt(_nrm2(db))
    factor = np.sqrt(_nrm2(s.y - s.yp))
    ref = abs(model.kap_pair)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_fg_pair_weighted_growth(model, s, pp):
    df = eval_kernel_f(model, s.x, s.y) - eval_kernel_f(model, s.xp, s.yp)
    dxn = np.sqrt(_nrm2(s.x - s.xp))
    dyn = np.sqrt(_nrm2(s.y - s.yp))
    p = pp["p"]
    weight = dxn ** (p - 2.0) - dyn ** (p - 2.0)
    lhs = weight * _dot((s.x + s.y) - (s.xp + s.yp), df)
    factor = dxn ** p + dyn ** p
    # radius-dependent certified bound; see module docstring
    ref = (4.0 * (abs(model.kf1) + abs(model.kfq) * (1.0 + model.q_f))
           * (1.0 + 4.0 * pp["radius"]) ** model.q_f)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_fg_pair_monotonicity(model, s, pp):
    df = eval_kernel_f(model, s.x, s.y) - eval_kernel_f(model, s.xp, s.yp)
    dg = eval_kernel_g(model, s.x, s.y) - eval_kernel_g(model, s.xp, s.yp)
    du = (s.x - s.y) - (s.xp - s.yp)
    lhs = _dot(du, df) + 4.0 * (pp["p"] - 1.0) * _frob2(dg)
    factor = _nrm2(du)
    ref = _pos(model.kf1) + 4.0 * (pp["p"] - 1.0) * model.c_g ** 2
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


# --------------------------------------------------------------- ergodic

def _need_ergodic_structure(model):
    if not (model.q == 2.0 and model.q_b == 2.0 and model.q_f == 2.0):
        raise ValueError("ergodic probes require quadratic growth index "
                         "q = q_b = q_f = 2, got q=%g q_b=%g q_f=%g"
                         % (model.q, model.q_b, model.q_f))
    if (model.lam != 0.0 or model.kap_pair != 0.0 or model.c_s != 0.0
            or model.s0 != 0.0):
        raise ValueError("ergodic probe references are derived for models "
                         "without measure coupling or additive noise "
                         "(lam = kap_pair = c_s = s0 = 0); %r violates that"
                         % model.family_id)


def _p_erg_b_sigma_dissipativity(model, s, pp):
    _need_ergodic_structure(model)
    b = eval_drift_b(model, s.t, s.x, s.mu)
    sig = eval_sigma(model, s.t, s.x, s.mu)
    lhs = _dot(s.x, b) + _frob2(sig)
    r2 = _nrm2(s.x)
    factor = (1.0 + r2 ** (model.q / 2.0)) * r2
    ref = min(-model.beta1 - model.s1 ** 2, -model.betaq)
    return lhs + (_CREDIT_GUARD * ref) * factor, _fit_min(lhs, factor), ref


def _p_erg_fg_dissipativity(model, s, pp):
    _need_ergodic_structure(model)
    f = eval_kernel_f(model, s.x, s.y)
    g = eval_kernel_g(model, s.x, s.y)
    u = s.x - s.y
    lhs = _dot(u, f) + 2.0 * _frob2(g)
    r2 = _nrm2(u)
    factor = (1.0 + r2 ** (model.q / 2.0)) * r2
    ref = min(-model.kf1 - 2.0 * model.c_g ** 2, -model.kfq)
    return lhs + (_CREDIT_GUARD * ref) * factor, _fit_min(lhs, factor), ref


def _p_erg_b_growth(model, s, pp):
    _need_ergodic_structure(model)
    db = (eval_drift_b(model, s.t, s.x, s.mu)
          - eval_drift_b(model, s.t, s.xp, s.nu))
    a = _nrm2(s.x)
    b = _nrm2(s.xp)
    lhs = _nrm2(db)
    factor = (1.0 + a ** model.q + b ** model.q) * _nrm2(s.x - s.xp)
    ref = max(2.0 * model.beta1 ** 2,
              2.0 * (model.betaq * (1.0 + model.q_b)) ** 2)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_erg_f_growth(model, s, pp):
    _need_ergodic_structure(model)
    df = eval_kernel_f(model, s.x, s.y) - eval_kernel_f(model, s.xp, s.yp)
    a = _nrm2(s.x - s.y)
    b = _nrm2(s.xp - s.yp)
    lhs = _nrm2(df)
    factor = (1.0 + a ** model.q + b ** model.q) * _nrm2(
        (s.x - s.y) - (s.xp - s.yp))
    ref = max(2.0 * model.kf1 ** 2,
              2.0 * (model.kfq * (1.0 + model.q_f)) ** 2)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_erg_b_sigma_contraction(model, s, pp):
    _need_ergodic_structure(model)
    db = (eval_drift_b(model, s.t, s.x, s.mu)
          - eval_drift_b(model, s.t, s.xp, s.nu))
    ds = (eval_sigma(model, s.t, s.x, s.mu)
          - eval_sigma(model, s.t, s.xp, s.nu))
    lhs = _dot(s.x - s.xp, db) + 2.0 * _frob2(ds)
    wx = _nrm2(s.x) ** (model.q / 2.0)
    wxp = _nrm2(s.xp) ** (model.q / 2.0)
    factor = (1.0 + wx + wxp) * _nrm2(s.x - s.xp)
    ref = min(-model.beta1 - 2.0 * model.s1 ** 2, -model.betaq / 2.0)
    return lhs + (_CREDIT_GUARD * ref) * factor, _fit_min(lhs, factor), ref


def _p_erg_fg_contraction(model, s, pp):
    _need_ergodic_structure(model)
    df = eval_kernel_f(model, s.x, s.y) - eval_kernel_f(model, s.xp, s.yp)
    dg = eval_kernel_g(model, s.x, s.y) - eval_kernel_g(model, s.xp, s.yp)
    du = (s.x - s.y) - (s.xp - s.yp)
    lhs = _dot(du, df) + 4.0 * _frob2(dg)
    wu = _nrm2(s.x - s.y) ** (model.q / 2.0)
    wup = _nrm2(s.xp - s.yp) ** (model.q / 2.0)
    factor = (1.0 + wu + wup) * _nrm2(du)
    ref = min(-model.kf1 - 4.0 * model.c_g ** 2, -model.kfq / 2.0)
    return lhs + (_CREDIT_GUARD * ref) * factor, _fit_min(lhs, factor), ref


def _p_erg_b_sigma_cross(model, s, pp):
    _need_ergodic_structure(model)
    bx = eval_drift_b(model, s.t, s.x, s.mu)
    bxp = eval_drift_b(model, s.t, s.xp, s.nu)
    sx = eval_sigma(model, s.t, s.x, s.mu)
    sxp = eval_sigma(model, s.t, s.xp, s.nu)
    wx = _nrm2(s.x) ** (model.q / 2.0)
    wxp = _nrm2(s.xp) ** (model.q / 2.0)
    cb = bx * wxp[:, None] - bxp * wx[:, None]
    cs = sx * wxp[:, None, None] - sxp * wx[:, None, None]
    lhs = _dot(s.x - s.xp, cb) + 2.0 * _frob2(cs)
    dx2 = _nrm2(s.x - s.xp)
    allow = abs(model.beta1) / 2.0
    credit = _CREDIT_GUARD * (-model.betaq - 2.0 * model.s1 ** 2)
    margin = lhs - ((_ALLOW_GUARD * allow) * (1.0 + wx + wxp)
                    - credit * wx * wxp) * dx2
    fitted = _fit_max(lhs + credit * wx * wxp * dx2,
                      (1.0 + wx + wxp) * dx2)
    return margin, fitted, allow


def _p_erg_fg_cross(model, s, pp):
    _need_ergodic_structure(model)
    fx = eval_kernel_f(model, s.x, s.y)
    fxp = eval_kernel_f(model, s.xp, s.yp)
    gx = eval_kernel_g(model, s.x, s.y)
    gxp = eval_kernel_g(model, s.xp, s.yp)
    wu = _nrm2(s.x - s.y) ** (model.q / 2.0)
    wup = _nrm2(s.xp - s.yp) ** (model.q / 2.0)
    cf = fx * wup[:, None] - fxp * wu[:, None]
    cg = gx * wup[:, None, None] - gxp * wu[:, None, None]
    du = (s.x - s.y) - (s.xp - s.yp)
    lhs = _dot(du, cf) + 4.0 * _frob2(cg)
    du2 = _nrm2(du)
    allow = abs(model.kf1) / 2.0
    credit = _CREDIT_GUARD * (-model.kfq - 4.0 * model.c_g ** 2)
    margin = lhs - ((_ALLOW_GUARD * allow) * (1.0 + wu + wup)
                    - credit * wu * wup) * du2
    fitted = _fit_max(lhs + credit * wu * wup * du2,
                      (1.0 + wu + wup) * du2)
    return margin, fitted, allow


def _p_erg_b_cross_growth(model, s, pp):
    _need_ergodic_structure(model)
    bx = eval_drift_b(model, s.t, s.x, s.mu)
    bxp = eval_drift_b(model, s.t, s.xp, s.nu)
    wx = _nrm2(s.x) ** (model.q / 2.0)
    wxp = _nrm2(s.xp) ** (model.q / 2.0)
    cb = bx * wxp[:, None] - bxp * wx[:, None]
    lhs = _nrm2(cb)
    w2x = wx * wx
    w2xp = wxp * wxp
    factor = (1.0 + w2x + w2xp + w2x * w2xp) * _nrm2(s.x - s.xp)
    ref = max(model.beta1 ** 2, 2.0 * model.betaq ** 2)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _p_erg_f_cross_growth(model, s, pp):
    _need_ergodic_structure(model)
    fx = eval_kernel_f(model, s.x, s.y)
    fxp = eval_kernel_f(model, s.xp, s.yp)
    wu = _nrm2(s.x - s.y) ** (model.q / 2.0)
    wup = _nrm2(s.xp - s.yp) ** (model.q / 2.0)
    cf = fx * wup[:, None] - fxp * wu[:, None]
    lhs = _nrm2(cf)
    w2u = wu * wu
    w2up = wup * wup
    factor = (1.0 + w2u + w2up + w2u * w2up) * _nrm2(
        (s.x - s.y) - (s.xp - s.yp))
    ref = max(model.kf1 ** 2, 2.0 * model.kfq ** 2)
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


_REGISTRY = {
    "b_sigma_coercivity": _p_b_sigma_coercivity,
    "b_sigma_monotonicity": _p_b_sigma_monotonicity,
    "fg_kernel_monotonicity": _p_fg_kernel_monotonicity,
    "f_local_lipschitz": _p_f_local_lipschitz,
    "fg_radial_coercivity": _p_fg_radial_coercivity,
    "g_squared_local_lipschitz": _p_g_squared_local_lipschitz,
    "f_polynomial_growth": _p_f_polynomial_growth,
    "g_squared_growth": _p_g_squared_growth,
    "f_antisymmetry": _p_f_antisymmetry,
    "f_weighted_odd_growth": _p_f_weighted_odd_growth,
    "fg_antisym_coercivity": _p_fg_antisym_coercivity,
    "b_polynomial_lipschitz": _p_b_polynomial_lipschitz,
    "b_sigma_rate_monotonicity": _p_b_sigma_rate_monotonicity,
    "fg_rate_monotonicity": _p_fg_rate_monotonicity,
    "b_sigma_time_holder": _p_b_sigma_time_holder,
    "pair_coercivity": _p_pair_coercivity,
    "pair_monotonicity": _p_pair_monotonicity,
    "pair_second_arg_lipschitz": _p_pair_second_arg_lipschitz,
    "fg_pair_weighted_growth": _p_fg_pair_weighted_growth,
    "fg_pair_monotonicity": _p_fg_pair_monotonicity,
    "erg_b_sigma_dissipativity": _p_erg_b_sigma_dissipativity,
    "erg_fg_dissipativity": _p_erg_fg_dissipativity,
    "erg_b_growth": _p_erg_b_growth,
    "erg_f_growth": _p_erg_f_growth,
    "erg_b_sigma_contraction": _p_erg_b_sigma_contraction,
    "erg_fg_contraction": _p_erg_fg_contraction,
    "erg_b_sigma_cross": _p_erg_b_sigma_cross,
    "erg_fg_cross": _p_erg_fg_cross,
    "erg_b_cross_growth": _p_erg_b_cross_growth,
    "erg_f_cross_growth": _p_erg_f_cross_growth,
}


def probe_assumptions(model, assumption_set, count=10000, radius=5.0,
                      seed=97):
    """Probe one named set of inequalities on a random sample batch.

    The inequality weights use the fixed moment orders p0 = 4 (baseline),
    p1 = 4 (rate section) and p = 2 (particle convergence).

    Parameters
    ----------
    model : CoefficientModel
    assumption_set : str
        Key into PROBE_SETS, or a single inequality name.
    count : int
        Number of sampled point tuples (>= 1).
    radius : float
        Radius of the sampling ball.
    seed : int
        Seed of the sampling generator.

    Returns
    -------
    list of AssumptionReport
        One report per inequality, in the set's declared order.
    """
    if count < 1:
        raise ValueError("count must be >= 1, got %d" % count)
    if assumption_set in PROBE_SETS:
        names = PROBE_SETS[assumption_set]
    elif assumption_set in _REGISTRY:
        names = (assumption_set,)
    else:
        raise ValueError("unknown assumption set %r; known sets: %s"
                         % (assumption_set,
                            ", ".join(sorted(PROBE_SETS))))
    samples = _Samples(model, int(count), float(radius), seed)
    pp = dict(_MOMENT_ORDERS, radius=float(radius))
    reports = []
    for name in names:
        margin, fitted, ref = _REGISTRY[name](model, samples, pp)
        worst = float(np.max(margin))
        reports.append(AssumptionReport(
            assumption_id=name,
            sample_count=int(count),
            worst_margin=worst,
            fitted_constant=fitted,
            holds=bool(worst <= 0.0),
            reference_constant=float(ref),
        ))
    return reports


def documented_sets(model):
    """Probe sets the model's family is documented to satisfy."""
    return DOCUMENTED_SETS.get(model.family_id, ())
