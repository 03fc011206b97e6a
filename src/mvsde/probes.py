"""Monte Carlo probes for the structural inequalities behind the scheme.

Each probe draws random point tuples from a ball, moves every term of one
inequality to the left, and reports the worst (largest) margin over the
sample. A margin <= 0 at every sampled point means the inequality held on
the sample; probes are diagnostics, not proofs.

Sides and shapes
----------------
All probes of one call share one sample batch and evaluate each
coefficient at most once on it: they read the coefficients from three
sides of the batch, each evaluated on first use and then kept. A side is
a point pair (v, v') with a drift pair (a, a') and a diffusion pair
(s, s'), and a side that reads measures carries their squared W2
distances, w2sq between its two and w2sq_origin from its first to
delta_0:

* own: b and sigma at (x, mu) and (x', nu), with v = x;
* kernel: f and g at (x, y) and (x', y'), with v = x - y;
* pair: the Vlasov kernels btilde and sigmatilde at (x, y) and (x', y'),
  with v = x. Every family's b and sigma are linear in the measure, so
  btilde(x, y) = b(x, delta_y): b and sigma at the one-atom measures y
  and y', where W2(delta_y, delta_y')^2 = |y - y'|^2 and
  W2(delta_y, delta_0)^2 = |y|^2. So pair_coercivity and
  pair_monotonicity are the own forms read on the pair side.

Only f(y, x), b and sigma at the second time t', and the pair drift at
(x, y') are evaluated outside the sides. Each inequality shape is
written once, over a side: coercivity w_dot <v, a> + w_frob |s|_F^2,
monotonicity <v - v', a - a'> + w |s - s'|_F^2, and the five ergodic
shapes (dissipativity, growth, contraction, cross and cross growth) over
the own side with (beta1, betaq, q_b, s1, weight 1) or the kernel side
with (kf1, kfq, q_f, c_g, weight 2).

Conventions
-----------
* Measures are realized as 2-atom empiricals; the squared W2 distance
  between two 2-atom uniform empiricals has the closed form
  min(|a1-b1|^2 + |a2-b2|^2, |a1-b2|^2 + |a2-b1|^2) / 2.
* Reference constants are closed-form overestimates computed from the
  canonical family parameters. They deliberately take no credit from
  destabilizing terms (positive betaq or kfq), so a family built to
  violate dissipativity fails its probe with a positive margin.
* The pair drift btilde(x, y) = self(x) + lam y + kap_pair (y - x) has
  derivative (lam + kap_pair) I in y, so pair_second_arg_lipschitz takes
  |kap_pair| + |lam|.
* Inequalities whose right side is a single constant times a positive
  factor also report the fitted constant: the smallest constant that
  would have made every sampled inequality hold (largest admissible
  value for dissipativity credits, where the constant enters negated).
  Zero-difference samples are skipped in the fit to avoid 0/0.
* Margins are evaluated against guarded references by one rule
  (_allowance and _credit): credit constants (entering negated) are
  shaved, and allowance constants inflated, by a relative 1e-6, so
  families whose analytic supremum exactly equals the reference cannot
  flip sign through float roundoff. Reported reference and fitted
  constants are the unguarded values.
* Array powers go through pairwise_py.power, or sqrt for the sampler's
  u^(1/2), so no result depends on the SIMD loops NumPy picks by CPU.

The "ergodic" probe set encodes cross-weighted dissipation inequalities
whose reference constants are derived for the quadratic-index structure
(q = q_b = q_f = 2, no measure coupling, no additive noise); it refuses
other models rather than report margins against invalid references.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._core.pairwise_py import power
from .model import eval_drift_b, eval_kernel_f, eval_kernel_g, eval_sigma

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
    return radius * (np.sqrt(u) if d == 2 else power(u, 1.0 / d)) * (z / nrm)


def _nrm2(v):
    return np.sum(v * v, axis=-1)


def _norm(v):
    return np.sqrt(_nrm2(v))


def _dot(u, v):
    return np.sum(u * v, axis=-1)


def _frob2(m):
    return np.sum(m * m, axis=(-2, -1))


class _Side:
    """A point pair (v, v') with the drift pair (a, a') and the diffusion
    pair (s, s') at its two evaluation points, and the squared W2
    distances of its measures: w2sq between the two, w2sq_origin from the
    first to delta_0 (None on the kernel side, which reads none)."""

    def __init__(self, v, vp, drift, diffusion, at, atp, w2sq=None,
                 w2sq_origin=None):
        self.v = v
        self.vp = vp
        self.dv = v - vp
        self.a = drift(*at)
        self.ap = drift(*atp)
        self.s = diffusion(*at)
        self.sp = diffusion(*atp)
        self.w2sq = w2sq
        self.w2sq_origin = w2sq_origin


class _Samples:
    """One batch of probe inputs shared by all inequalities of a set."""

    def __init__(self, model, count, radius, seed):
        rng = np.random.default_rng(seed)
        d = model.d
        self._model = model
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

    @cached_property
    def own(self):
        m = self._model
        a1, a2 = self.mu[:, 0, :], self.mu[:, 1, :]
        b1, b2 = self.nu[:, 0, :], self.nu[:, 1, :]
        straight = _nrm2(a1 - b1) + _nrm2(a2 - b2)
        crossed = _nrm2(a1 - b2) + _nrm2(a2 - b1)
        return _Side(self.x, self.xp, partial(eval_drift_b, m, self.t),
                     partial(eval_sigma, m, self.t),
                     (self.x, self.mu), (self.xp, self.nu),
                     np.minimum(straight, crossed) / 2.0,
                     (_nrm2(a1) + _nrm2(a2)) / 2.0)

    @cached_property
    def kernel(self):
        m = self._model
        return _Side(self.x - self.y, self.xp - self.yp,
                     partial(eval_kernel_f, m), partial(eval_kernel_g, m),
                     (self.x, self.y), (self.xp, self.yp))

    @cached_property
    def pair(self):
        m = self._model
        return _Side(self.x, self.xp, partial(eval_drift_b, m, self.t),
                     partial(eval_sigma, m, self.t),
                     (self.x, self.y[:, None]), (self.xp, self.yp[:, None]),
                     _nrm2(self.y - self.yp), _nrm2(self.y))


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


def _allowance(lhs, factor, ref):
    """(margin, fitted, ref) of LHS <= ref * factor, ref inflated by the
    guard."""
    return lhs - (_ALLOW_GUARD * ref) * factor, _fit_max(lhs, factor), ref


def _credit(lhs, factor, ref):
    """(margin, fitted, ref) of LHS <= -ref * factor, ref shaved by the
    guard."""
    return lhs + (_CREDIT_GUARD * ref) * factor, _fit_min(lhs, factor), ref


def _pos(v):
    return max(0.0, v)


# ---------------------------------------------------------------- shapes

def _coercivity(side, w_dot, w_frob):
    return w_dot * _dot(side.v, side.a) + w_frob * _frob2(side.s)


def _monotonicity(side, w):
    return _dot(side.dv, side.a - side.ap) + w * _frob2(side.s - side.sp)


def _local_weight(side, q):
    # (1 + |v| + |v'|)^q of the polynomial local Lipschitz bounds
    return power(1.0 + _norm(side.v) + _norm(side.vp), q)


# ---------------------------------------------------------------- finite

def _p_b_sigma_coercivity(side, model, s, pp):
    # b_sigma_coercivity on the own side, pair_coercivity on the pair side
    o = getattr(s, side)
    lhs = _coercivity(o, 1.0, pp["p0"] - 1.0)
    factor = 1.0 + _nrm2(o.v) + o.w2sq_origin
    k = min(model.d, model.l)
    ref = (_pos(model.beta1) + abs(model.lam) + 2.0 * abs(model.kap_pair)
           + 3.0 * (pp["p0"] - 1.0)
           * (model.s1 ** 2 + 2.0 * model.c_s ** 2 + k * model.s0 ** 2))
    return _allowance(lhs, factor, ref)


def _p_b_sigma_monotonicity(side, k, order, model, s, pp):
    # b_sigma_monotonicity (own side, noise weight 1), the rate set's
    # (own, p1 - 1) and pair_monotonicity (pair, 2 (p - 1)): weight k, or
    # k (order - 1) of the set's moment order
    o = getattr(s, side)
    w = k if order is None else k * (pp[order] - 1.0)
    factor = _nrm2(o.dv) + o.w2sq
    # summed as base + w (2 s1^2 + 4 c_s^2); with w = 1 this has the bits
    # of ((base + 2 s1^2) + 4 c_s^2) unless both s1 and c_s are nonzero,
    # which no family sets
    ref = (_pos(model.beta1) + abs(model.lam) + 2.0 * abs(model.kap_pair)
           + w * (2.0 * model.s1 ** 2 + 4.0 * model.c_s ** 2))
    return _allowance(_monotonicity(o, w), factor, ref)


def _p_fg_monotonicity(k, order, model, s, pp):
    # the kernel monotonicity of the finite, rate and pairwise sets, with
    # noise weight k (order - 1) of the set's moment order
    w = k * (pp[order] - 1.0)
    ref = _pos(model.kf1) + w * model.c_g ** 2
    return _allowance(_monotonicity(s.kernel, w), _nrm2(s.kernel.dv), ref)


def _p_fg_coercivity(w_dot, k, model, s, pp):
    # radial (w_dot 2, k 1) and antisymmetric (w_dot 1, k 2) kernel
    # coercivity, with noise weight k (p0 - 1)
    w_frob = k * (pp["p0"] - 1.0)
    lhs = _coercivity(s.kernel, w_dot, w_frob)
    ref = w_dot * _pos(model.kf1) + w_frob * model.c_g ** 2
    return _allowance(lhs, 1.0 + _nrm2(s.kernel.v), ref)


def _p_f_local_lipschitz(model, s, pp):
    k = s.kernel
    lhs = _norm(k.a - k.ap)
    factor = _local_weight(k, model.q) * _norm(k.dv)
    ref = abs(model.kf1) + abs(model.kfq) * (1.0 + model.q_f)
    return _allowance(lhs, factor, ref)


# ---------------------------------------------------------------- growth

def _p_g_squared_local_lipschitz(model, s, pp):
    k = s.kernel
    lhs = _frob2(k.s - k.sp)
    factor = _local_weight(k, model.q) * _nrm2(k.dv)
    return _allowance(lhs, factor, model.c_g ** 2)


def _p_f_polynomial_growth(model, s, pp):
    lhs = _norm(s.kernel.a)
    factor = power(1.0 + _norm(s.kernel.v), model.q + 1.0)
    return _allowance(lhs, factor, abs(model.kf1) + abs(model.kfq))


def _p_g_squared_growth(model, s, pp):
    lhs = _frob2(s.kernel.s)
    factor = power(1.0 + _norm(s.kernel.v), model.q + 2.0)
    return _allowance(lhs, factor, model.c_g ** 2)


# ---------------------------------------------------------- antisymmetry

def _p_f_antisymmetry(model, s, pp):
    resid = s.kernel.a + eval_kernel_f(model, s.y, s.x)
    margin = np.max(np.abs(resid), axis=-1)
    return margin, float("nan"), 0.0


def _p_f_weighted_odd_growth(model, s, pp):
    rx = _norm(s.x)
    ry = _norm(s.y)
    p0 = pp["p0"]
    lhs = (power(rx, p0 - 2.0) - power(ry, p0 - 2.0)) * _dot(s.x + s.y,
                                                              s.kernel.a)
    factor = power(rx, p0) + power(ry, p0)
    ref = (_pos(model.kf1)
           + _pos(model.kfq) * (2.0 * pp["radius"]) ** model.q_f)
    return _allowance(lhs, factor, ref)


# ------------------------------------------------------------------ rate

def _p_b_polynomial_lipschitz(model, s, pp):
    o = s.own
    lhs = _norm(o.a - o.ap)
    factor = _local_weight(o, model.q) * _norm(o.dv) + np.sqrt(o.w2sq)
    ref = (abs(model.beta1) + abs(model.betaq) * (1.0 + model.q_b)
           + abs(model.lam) + abs(model.kap_pair))
    return _allowance(lhs, factor, ref)


def _p_b_sigma_time_holder(model, s, pp):
    db = s.own.a - eval_drift_b(model, s.tp, s.x, s.mu)
    ds = s.own.s - eval_sigma(model, s.tp, s.x, s.mu)
    lhs = _norm(db) + np.sqrt(_frob2(ds))
    return _allowance(lhs, np.sqrt(np.abs(s.t - s.tp)), 0.0)


# -------------------------------------------------------------- pairwise

def _p_pair_second_arg_lipschitz(model, s, pp):
    lhs = _norm(s.pair.a - eval_drift_b(model, s.t, s.x, s.yp[:, None]))
    return _allowance(lhs, _norm(s.y - s.yp),
                      abs(model.kap_pair) + abs(model.lam))


def _p_fg_pair_weighted_growth(model, s, pp):
    df = s.kernel.a - s.kernel.ap
    dxn = _norm(s.x - s.xp)
    dyn = _norm(s.y - s.yp)
    p = pp["p"]
    weight = power(dxn, p - 2.0) - power(dyn, p - 2.0)
    lhs = weight * _dot((s.x + s.y) - (s.xp + s.yp), df)
    factor = power(dxn, p) + power(dyn, p)
    # radius-dependent certified bound; see module docstring
    ref = (4.0 * (abs(model.kf1) + abs(model.kfq) * (1.0 + model.q_f))
           * (1.0 + 4.0 * pp["radius"]) ** model.q_f)
    return _allowance(lhs, factor, ref)


# --------------------------------------------------------------- ergodic
#
# Each ergodic shape runs over one side with that side's constants: c1
# the linear drift constant, cq the polynomial one and qc its growth
# index, cn the linear noise constant and w the noise weight.

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


def _ergodic(shape, side, model, s, pp):
    """Run one ergodic shape over the own or the kernel side."""
    _need_ergodic_structure(model)
    if side == "own":
        return shape(s.own, model.q, model.beta1, model.betaq, model.q_b,
                     model.s1, 1.0)
    return shape(s.kernel, model.q, model.kf1, model.kfq, model.q_f,
                 model.c_g, 2.0)


def _erg_dissipativity(side, q, c1, cq, qc, cn, w):
    r2 = _nrm2(side.v)
    factor = (1.0 + power(r2, q / 2.0)) * r2
    ref = min(-c1 - w * cn ** 2, -cq)
    return _credit(_coercivity(side, 1.0, w), factor, ref)


def _erg_growth(side, q, c1, cq, qc, cn, w):
    weight = 1.0 + power(_nrm2(side.v), q) + power(_nrm2(side.vp), q)
    ref = max(2.0 * c1 ** 2, 2.0 * (cq * (1.0 + qc)) ** 2)
    return _allowance(_nrm2(side.a - side.ap), weight * _nrm2(side.dv), ref)


def _erg_contraction(side, q, c1, cq, qc, cn, w):
    lhs = _monotonicity(side, 2.0 * w)
    wv = power(_nrm2(side.v), q / 2.0)
    wvp = power(_nrm2(side.vp), q / 2.0)
    factor = (1.0 + wv + wvp) * _nrm2(side.dv)
    ref = min(-c1 - 2.0 * w * cn ** 2, -cq / 2.0)
    return _credit(lhs, factor, ref)


def _cross_drift(side, q):
    # weights |v|^q/2, |v'|^q/2 and the cross-weighted drift difference
    wv = power(_nrm2(side.v), q / 2.0)
    wvp = power(_nrm2(side.vp), q / 2.0)
    return wv, wvp, side.a * wvp[:, None] - side.ap * wv[:, None]


def _erg_cross(side, q, c1, cq, qc, cn, w):
    wv, wvp, ca = _cross_drift(side, q)
    cs = side.s * wvp[:, None, None] - side.sp * wv[:, None, None]
    lhs = _dot(side.dv, ca) + 2.0 * w * _frob2(cs)
    dv2 = _nrm2(side.dv)
    allow = abs(c1) / 2.0
    credit = _CREDIT_GUARD * (-cq - 2.0 * w * cn ** 2)
    margin = lhs - ((_ALLOW_GUARD * allow) * (1.0 + wv + wvp)
                    - credit * wv * wvp) * dv2
    fitted = _fit_max(lhs + credit * wv * wvp * dv2,
                      (1.0 + wv + wvp) * dv2)
    return margin, fitted, allow


def _erg_cross_growth(side, q, c1, cq, qc, cn, w):
    wv, wvp, ca = _cross_drift(side, q)
    w2v = wv * wv
    w2vp = wvp * wvp
    factor = (1.0 + w2v + w2vp + w2v * w2vp) * _nrm2(side.dv)
    return _allowance(_nrm2(ca), factor, max(c1 ** 2, 2.0 * cq ** 2))


_REGISTRY = {
    "b_sigma_coercivity": partial(_p_b_sigma_coercivity, "own"),
    "b_sigma_monotonicity": partial(_p_b_sigma_monotonicity, "own", 1.0,
                                    None),
    "fg_kernel_monotonicity": partial(_p_fg_monotonicity, 1.0, "p0"),
    "f_local_lipschitz": _p_f_local_lipschitz,
    "fg_radial_coercivity": partial(_p_fg_coercivity, 2.0, 1.0),
    "g_squared_local_lipschitz": _p_g_squared_local_lipschitz,
    "f_polynomial_growth": _p_f_polynomial_growth,
    "g_squared_growth": _p_g_squared_growth,
    "f_antisymmetry": _p_f_antisymmetry,
    "f_weighted_odd_growth": _p_f_weighted_odd_growth,
    "fg_antisym_coercivity": partial(_p_fg_coercivity, 1.0, 2.0),
    "b_polynomial_lipschitz": _p_b_polynomial_lipschitz,
    "b_sigma_rate_monotonicity": partial(_p_b_sigma_monotonicity, "own",
                                         1.0, "p1"),
    "fg_rate_monotonicity": partial(_p_fg_monotonicity, 2.0, "p1"),
    "b_sigma_time_holder": _p_b_sigma_time_holder,
    "pair_coercivity": partial(_p_b_sigma_coercivity, "pair"),
    "pair_monotonicity": partial(_p_b_sigma_monotonicity, "pair", 2.0,
                                 "p"),
    "pair_second_arg_lipschitz": _p_pair_second_arg_lipschitz,
    "fg_pair_weighted_growth": _p_fg_pair_weighted_growth,
    "fg_pair_monotonicity": partial(_p_fg_monotonicity, 4.0, "p"),
    "erg_b_sigma_dissipativity": partial(_ergodic, _erg_dissipativity, "own"),
    "erg_fg_dissipativity": partial(_ergodic, _erg_dissipativity, "kernel"),
    "erg_b_growth": partial(_ergodic, _erg_growth, "own"),
    "erg_f_growth": partial(_ergodic, _erg_growth, "kernel"),
    "erg_b_sigma_contraction": partial(_ergodic, _erg_contraction, "own"),
    "erg_fg_contraction": partial(_ergodic, _erg_contraction, "kernel"),
    "erg_b_sigma_cross": partial(_ergodic, _erg_cross, "own"),
    "erg_fg_cross": partial(_ergodic, _erg_cross, "kernel"),
    "erg_b_cross_growth": partial(_ergodic, _erg_cross_growth, "own"),
    "erg_f_cross_growth": partial(_ergodic, _erg_cross_growth, "kernel"),
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
        Radius of the sampling ball (finite and > 0).
    seed : int
        Seed of the sampling generator.

    Returns
    -------
    list of AssumptionReport
        One report per inequality, in the set's declared order.
    """
    if count < 1:
        raise ValueError("count must be >= 1, got %d" % count)
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError("radius must be finite and > 0, got %r" % radius)
    if assumption_set in PROBE_SETS:
        names = PROBE_SETS[assumption_set]
    elif assumption_set in _REGISTRY:
        names = (assumption_set,)
    else:
        raise ValueError("unknown assumption set %r; known sets: %s"
                         % (assumption_set,
                            ", ".join(sorted(PROBE_SETS))))
    samples = _Samples(model, int(count), radius, seed)
    pp = dict(_MOMENT_ORDERS, radius=radius)
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
