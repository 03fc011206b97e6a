"""W2 route agreement, closed-form oracles, and rate fitting."""

import itertools
import math

import numpy as np
import pytest

from mvsde.ensemble import ParticleEnsemble
from mvsde.metrics import (EXACT_ASSIGNMENT_CAP, W2_METHODS,
                           fit_loglog_slope, fit_semilog, w2, w2_sliced)


def _brute_force_w2(a, b):
    """Minimum over all permutations, fsum of squared distances."""
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = math.fsum(
            float(np.sum((a[i] - b[j]) ** 2)) for i, j in enumerate(perm))
        best = min(best, total)
    return math.sqrt(best / n)


def test_translation_oracle():
    # atoms shifted by 1: quantile coupling pairs 0-1 and 2-3
    assert w2([0.0, 2.0], [1.0, 3.0]) == 1.0


def test_identity_is_zero():
    gen = np.random.default_rng(7)
    a = gen.normal(size=(12, 2))
    assert w2(a, a, method="exact_assignment") == 0.0
    assert w2(a[:, :1], a[:, :1], method="sorted_1d") == 0.0
    v, se = w2_sliced(a, a, n_projections=8)
    assert v == 0.0 and se == 0.0


def test_two_atom_closed_form():
    # straight pairing costs 4 + 5, crossed costs 1 + 0
    a = np.array([[0.0, 0.0], [2.0, 0.0]])
    b = np.array([[2.0, 0.0], [0.0, 1.0]])
    got = w2(a, b, method="exact_assignment")
    assert got == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_exact_assignment_matches_brute_force():
    gen = np.random.default_rng(42)
    for _ in range(50):
        n = int(gen.integers(1, 8))
        d = int(gen.integers(1, 4))
        a = gen.normal(scale=2.0, size=(n, d))
        b = gen.normal(scale=2.0, size=(n, d))
        got = w2(a, b, method="exact_assignment")
        want = _brute_force_w2(a, b)
        assert abs(got - want) <= 1e-10


def test_sorted_matches_exact_assignment_1d():
    gen = np.random.default_rng(43)
    for _ in range(50):
        n = int(gen.integers(2, 65))
        a = gen.normal(scale=3.0, size=(n, 1))
        b = gen.normal(scale=3.0, size=(n, 1)) + gen.normal()
        fast = w2(a, b, method="sorted_1d")
        exact = w2(a, b, method="exact_assignment")
        assert abs(fast - exact) <= 1e-10


def test_metric_axioms():
    gen = np.random.default_rng(44)
    for _ in range(10):
        a = gen.normal(size=(9, 2))
        b = gen.normal(size=(9, 2))
        c = gen.normal(size=(9, 2))
        ab = w2(a, b, method="exact_assignment")
        ba = w2(b, a, method="exact_assignment")
        assert ab == pytest.approx(ba, rel=1e-12)
        bc = w2(b, c, method="exact_assignment")
        ac = w2(a, c, method="exact_assignment")
        assert ac <= ab + bc + 1e-12


def test_unequal_counts_sorted_1d():
    # quantile functions differ by 1 on [1/2, 2/3) and -2 on [2/3, 1]:
    # squared distance 1/6 + 4/3 = 3/2
    got = w2([0.0, 1.0], [0.0, 0.0, 3.0])
    assert got == pytest.approx(math.sqrt(1.5), rel=1e-14)


def test_sliced_reduces_to_sorted_in_1d():
    gen = np.random.default_rng(45)
    a = gen.normal(size=(17, 1))
    b = gen.normal(size=(17, 1)) + 0.4
    v, se = w2_sliced(a, b, n_projections=16)
    # every unit projection in d = 1 is a sign flip, which sorting absorbs
    assert v == w2(a, b, method="sorted_1d")
    assert se == 0.0
    assert w2(a, b, method="sliced", n_projections=4) == v


def test_sliced_stderr_positive_in_higher_dim():
    gen = np.random.default_rng(46)
    a = gen.normal(size=(32, 3))
    b = gen.normal(size=(32, 3)) * 1.5
    v, se = w2_sliced(a, b, n_projections=32)
    assert v > 0.0 and se > 0.0


def test_accepts_ensembles_and_arrays():
    states = np.array([[0.0], [2.0]])
    ens_a = ParticleEnsemble(states)
    ens_b = ParticleEnsemble(states + 1.0)
    raw = w2(states, states + 1.0)
    assert w2(ens_a, ens_b) == raw
    assert w2(ens_a, states + 1.0) == raw
    # bare 1-d vectors are promoted to columns
    assert w2(states.ravel(), states.ravel() + 1.0) == raw


def test_w2_validation():
    a = np.zeros((3, 2))
    with pytest.raises(ValueError, match="unknown W2 method"):
        w2(a, a, method="swapped")
    with pytest.raises(ValueError, match="d == 1"):
        w2(a, a, method="sorted_1d")
    with pytest.raises(ValueError, match="dimension mismatch"):
        w2(a, np.zeros((3, 1)), method="exact_assignment")
    with pytest.raises(ValueError, match="equal atom counts"):
        w2(a, np.zeros((4, 2)), method="exact_assignment")
    with pytest.raises(ValueError, match="capped at"):
        w2(np.zeros((5, 2)), np.ones((5, 2)),
           method="exact_assignment", cap=4)
    with pytest.raises(ValueError, match="nonempty"):
        w2(np.zeros((0, 2)), a)
    assert EXACT_ASSIGNMENT_CAP == 512
    assert W2_METHODS == ("sorted_1d", "exact_assignment", "sliced")


def test_fit_loglog_slope_oracle():
    fit = fit_loglog_slope([1.0, 4.0, 16.0], [1.0, 2.0, 4.0])
    assert fit.slope == pytest.approx(0.5, abs=1e-14)
    assert fit.intercept == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert len(fit.points) == 3


def test_fit_drops_bad_points():
    clean = fit_loglog_slope([1.0, 2.0, 4.0], [3.0, 6.0, 12.0])
    noisy = fit_loglog_slope(
        [1.0, 0.0, 2.0, float("nan"), 4.0, -5.0],
        [3.0, 1.0, 6.0, 1.0, 12.0, 1.0])
    assert noisy.slope == clean.slope
    assert noisy.points == clean.points


def test_fit_validation():
    with pytest.raises(ValueError, match="at least two"):
        fit_loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError, match="at least two"):
        fit_loglog_slope([1.0, -1.0, float("inf")], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="coincide"):
        fit_loglog_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# values whose natural log NumPy's AVX-512 loop rounds differently from
# libm's log
_LOG_SENSITIVE = (0.835375126358897, 1.025517446524156, 1.7262404083786356,
                  0.8111660400450988, 0.9938696412323598)


def _ols(x, y):
    mx, my = float(np.mean(x)), float(np.mean(y))
    slope = float(np.sum((x - mx) * (y - my))) / float(np.sum((x - mx) ** 2))
    return slope, my - slope * mx


def test_fits_take_libm_log():
    """fit_loglog_slope and fit_semilog, the ergodic driver's decay fit,
    take libm log per element, as math.log does, so a fit does not depend
    on the CPU.

    This only bites on a CPU with NumPy's AVX-512 loops, where np.log
    differs from math.log on about 0.1 % of values, the ones above among
    them; elsewhere both logs agree and the test passes either way.
    """
    xs = np.array([0.5, 1.0, 2.0, 4.0, 8.0]) * np.array(_LOG_SENSITIVE)
    ys = np.array(_LOG_SENSITIVE)
    lx = np.array([math.log(v) for v in xs.tolist()])
    ly = np.array([math.log(v) for v in ys.tolist()])
    fit = fit_loglog_slope(xs, ys)
    assert (fit.slope, fit.intercept) == _ols(lx, ly)
    assert fit_semilog(xs, ys)[:2] == _ols(xs, ly)
