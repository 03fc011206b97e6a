"""Taming algebra of the scheme's own coefficients: frozen values,
dominance, monotonicity, exactness.

Every check calls model.self_terms and model.pair_terms, the functions
scheme.step and the pair kernel run, with (tm.gamma, tm.e).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde.model import (eval_drift_b, eval_kernel_f, eval_kernel_g,
                         eval_sigma, make_model, pair_terms, self_terms)
from mvsde.taming import VARIANTS, TamedModel


def _cubic(q=2.0):
    return make_model("cubic-mean-field", d=1,
                      params={"lam": 0.0, "q": q})


def _drift(tm, x, atoms=None):
    mean = None if atoms is None else atoms.mean(axis=-2)
    return self_terms(tm.base, tm.gamma, tm.e, x, mean, 0)[0]


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


def test_off_variant_is_identity():
    m = make_model("cubic-mean-field", d=2)
    tm = TamedModel(m, 64, "off")
    # the untamed coefficients of eval_*
    assert (tm.gamma, tm.e) == (0.0, 0.0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 2))
    atoms = rng.normal(size=(5, 2))
    y = rng.normal(size=(20, 2))
    b, s = self_terms(m, tm.gamma, tm.e, x, atoms.mean(axis=0), 2)
    assert np.array_equal(b, eval_drift_b(m, 0.0, x, atoms))
    assert np.array_equal(s, np.diagonal(eval_sigma(m, 0.0, x, atoms),
                                         axis1=-2, axis2=-1))
    f, g = pair_terms(m, tm.gamma, tm.e, x, y, 2)
    assert np.array_equal(f, eval_kernel_f(m, x, y))
    assert np.array_equal(g, np.diagonal(eval_kernel_g(m, x, y),
                                         axis1=-2, axis2=-1))


def test_variant_and_n_validation():
    m = _cubic()
    for variant in ("nope", "strong_order_candidate"):
        with pytest.raises(ValueError, match="unknown taming variant %r; "
                           "known: finite, ergodic, off" % variant):
            TamedModel(m, 4, variant)
    with pytest.raises(ValueError, match="n must be"):
        TamedModel(m, 0)
    assert VARIANTS == ("finite", "ergodic", "off")


@pytest.mark.parametrize("n", [2.5, True, False, float("inf"),
                               float("nan"), "4", None])
def test_step_count_must_be_a_whole_number(n):
    """config's rule for an int field: no fractional n that would run at
    int(n), and no bool."""
    with pytest.raises(ValueError, match="step count n must be a whole "
                       "number, got %s" % re.escape(repr(n))):
        TamedModel(_cubic(), n)


def test_integral_step_counts_are_taken():
    for n in (16.0, np.float64(16.0), np.int64(16), 16):
        tm = TamedModel(_cubic(), n)
        assert type(tm.n) is int and tm.n == 16
        assert tm.gamma == 0.25


def test_pair_weight_symmetric_bits():
    # g_n = w c_g (x - y) with w symmetric in (x, y): exactly antisymmetric
    tm = TamedModel(make_model("cubic-mean-field", d=3), 16, "finite")
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=(30, 3))
    g_xy = pair_terms(tm.base, tm.gamma, tm.e, x, y, 3)[1]
    assert np.array_equal(g_xy,
                          -pair_terms(tm.base, tm.gamma, tm.e, y, x, 3)[1])
    assert (g_xy != 0.0).all()


def test_tamed_kernel_antisymmetry_exact():
    for variant in ("finite", "ergodic"):
        tm = TamedModel(make_model("cubic-mean-field", d=2), 16, variant)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=(50, 2))
        s = (pair_terms(tm.base, tm.gamma, tm.e, x, y, 0)[0]
             + pair_terms(tm.base, tm.gamma, tm.e, y, x, 0)[0])
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
    # (gamma, e) of each variant at n = 4 and q = 2, and at q = 1.5
    for q, table in ((2.0, dict(finite=(0.5, 4.0), ergodic=(0.5, 2.0),
                                off=(0.0, 0.0))),
                     (1.5, dict(finite=(0.5, 3.0), ergodic=(0.5, 1.5),
                                off=(0.0, 0.0)))):
        for variant, want in table.items():
            tm = TamedModel(_cubic(q), 4, variant)
            assert (tm.gamma, tm.e) == want, (q, variant)


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
