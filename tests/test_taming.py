"""Taming algebra of the scheme's own coefficients: frozen values,
dominance, monotonicity, exactness.

Every check calls model.self_terms and model.pair_terms, the functions
scheme.step and the pair kernel run, with taming_parameters(tm).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde.model import (eval_drift_b, eval_kernel_f, eval_kernel_g,
                         eval_sigma, make_model, pair_terms, self_terms)
from mvsde.taming import UNTAMED, VARIANTS, TamedModel, taming_parameters


def _cubic(q=2.0):
    return make_model("cubic-mean-field", d=1,
                      params={"lam": 0.0, "q": q})


def _drift(tm, x, atoms=None):
    mean = None if atoms is None else atoms.mean(axis=-2)
    return self_terms(tm.base, taming_parameters(tm), x, mean, 0)[0]


def test_finite_variant_value():
    # b(2) = -8, denominator 1 + 4^{-1/2} |2|^4 = 9 -> -8/9
    tm = TamedModel(_cubic(), 4, "finite")
    out = _drift(tm, np.array([2.0]))
    assert out[0] == -8.0 / 9.0


def test_ergodic_variant_value():
    # q = 1: b(1) = -1, denominator 1 + 4^{-1/2} |1|^1 = 1.5 -> -2/3
    tm = TamedModel(_cubic(q=1.0), 4, "ergodic")
    out = _drift(tm, np.array([1.0]))
    assert out[0] == -2.0 / 3.0


def test_candidate_variant_value_and_untamed_diffusion():
    # drift denominator 1 + 4^{-1} |1|^8 = 1.25 -> -0.8
    m = make_model("cubic-mean-field", d=1,
                   params={"lam": 0.0, "sigma0": 0.3})
    tm = TamedModel(m, 4, "strong_order_candidate")
    par = taming_parameters(tm)
    out = _drift(tm, np.array([1.0]))
    assert out[0] == -1.0 / 1.25
    x = np.array([3.0])
    mu = np.array([[1.0]])
    assert np.array_equal(self_terms(m, par, x, mu[0], 1)[1],
                          np.diagonal(eval_sigma(m, 0.0, x, mu)))
    assert np.array_equal(pair_terms(m, par, x, mu[0], 1)[1],
                          np.diagonal(eval_kernel_g(m, x, mu[0])))


def test_off_variant_is_identity():
    m = make_model("cubic-mean-field", d=2)
    tm = TamedModel(m, 64, "off")
    par = taming_parameters(tm)
    # the one untamed definition, handed out as a copy
    assert par == UNTAMED and par is not UNTAMED
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 2))
    atoms = rng.normal(size=(5, 2))
    y = rng.normal(size=(20, 2))
    b, s = self_terms(m, par, x, atoms.mean(axis=0), 2)
    assert np.array_equal(b, eval_drift_b(m, 0.0, x, atoms))
    assert np.array_equal(s, np.diagonal(eval_sigma(m, 0.0, x, atoms),
                                         axis1=-2, axis2=-1))
    f, g = pair_terms(m, par, x, y, 2)
    assert np.array_equal(f, eval_kernel_f(m, x, y))
    assert np.array_equal(g, np.diagonal(eval_kernel_g(m, x, y),
                                         axis1=-2, axis2=-1))


def test_variant_and_n_validation():
    m = _cubic()
    with pytest.raises(ValueError, match="variant"):
        TamedModel(m, 4, "nope")
    with pytest.raises(ValueError, match="n must be"):
        TamedModel(m, 0)
    assert set(VARIANTS) == {"finite", "ergodic",
                             "strong_order_candidate", "off"}


def test_pair_weight_symmetric_bits():
    # g_n = w c_g (x - y) with w symmetric in (x, y): exactly antisymmetric
    tm = TamedModel(make_model("cubic-mean-field", d=3), 16, "finite")
    par = taming_parameters(tm)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=(30, 3))
    g_xy = pair_terms(tm.base, par, x, y, 3)[1]
    assert np.array_equal(g_xy, -pair_terms(tm.base, par, y, x, 3)[1])
    assert (g_xy != 0.0).all()


def test_tamed_kernel_antisymmetry_exact():
    for variant in ("finite", "ergodic", "strong_order_candidate"):
        tm = TamedModel(make_model("cubic-mean-field", d=2), 16, variant)
        par = taming_parameters(tm)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=(50, 2))
        s = (pair_terms(tm.base, par, x, y, 0)[0]
             + pair_terms(tm.base, par, y, x, 0)[0])
        assert (s == 0.0).all()


def test_dominance_and_monotonicity_exact():
    """|b^n| <= |b|, scaled bound, and growth in n, all with zero slack."""
    rng = np.random.default_rng(42)
    for fam in ("cubic-mean-field", "ergodic-dissipative",
                "pairwise-vlasov", "lipschitz-baseline",
                "anti-dissipative"):
        m = make_model(fam, d=2)
        x = rng.normal(scale=2.0, size=(500, 2))
        atoms = rng.normal(size=(500, 4, 2))
        raw = eval_drift_b(m, 0.0, x, atoms)
        nr = np.sqrt((raw * raw).sum(-1))
        prev = None
        for n in (1, 4, 16, 256):
            tam = _drift(TamedModel(m, n, "finite"), x, atoms)
            nt = np.sqrt((tam * tam).sum(-1))
            assert (nt <= nr).all()
            r = np.sqrt((x * x).sum(-1))
            mask = r > 0
            bound = np.sqrt(float(n)) * nr[mask] / r[mask] ** (2.0 * m.q)
            assert (nt[mask] <= bound).all()
            if prev is not None:
                assert (prev <= nt).all()
            prev = nt


def test_taming_parameters_table():
    m = _cubic()  # q = 2
    p = taming_parameters(TamedModel(m, 4, "finite"))
    assert p["gamma"] == 0.5 and p["e_self"] == 4.0 and p["tame_g"]
    p = taming_parameters(TamedModel(m, 4, "ergodic"))
    assert p["gamma"] == 0.5 and p["e_self"] == 2.0
    p = taming_parameters(TamedModel(m, 4, "strong_order_candidate"))
    assert p["gamma"] == 0.25 and p["e_self"] == 8.0
    assert not p["tame_sigma"] and not p["tame_g"]
    p = taming_parameters(TamedModel(m, 4, "off"))
    assert p["gamma"] == 0.0


def test_q_zero_denominator_is_constant():
    # q = 0: every drift value is divided by the constant 1 + 4^{-1/2}
    m = make_model("lipschitz-baseline", d=1, params={"lam": 0.0})
    tm = TamedModel(m, 4, "finite")
    x = np.array([[0.5], [-3.0], [0.0]])
    assert np.array_equal(_drift(tm, x),
                          eval_drift_b(m, 0.0, x) / 1.5)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-50, 50), n=st.sampled_from([1, 4, 16, 64, 256, 1024]))
def test_scalar_dominance_property(x, n):
    tm = TamedModel(_cubic(), n, "finite")
    raw = eval_drift_b(tm.base, 0.0, np.array([x]), None)[0]
    tam = _drift(tm, np.array([x]))[0]
    assert abs(tam) <= abs(raw)
    # large-state increments stay bounded: |b^n| h <= sqrt(h) |x|^{1-2q}...
    # the crude uniform consequence used by the scheme is |b^n| <= sqrt(n)/h
    # times nothing blowing up; check the direct denominator identity
    den = 1.0 + (1.0 / np.sqrt(n)) * (x * x) * (x * x)
    assert tam == raw / den
