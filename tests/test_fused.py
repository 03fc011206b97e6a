"""The fused C step kernel against the NumPy step, bit for bit.

simulate runs mvsde_advance on the C backend and scheme.step otherwise;
both must give the same trajectories, step counters, overflow flags and
sign bits. The kernel is compiled here (conftest.py) and switched in and
out through scheme.bind_advance, so these tests run on either backend.
"""

import numpy as np
import pytest

from mvsde import scheme
from mvsde._core import _Coeffs, load_compiled, pair_aggregate_py
from mvsde.experiments import _DivergenceTracker
from mvsde.model import FAMILIES, make_model
from mvsde.rng import initial_law, make_tableau
from mvsde.taming import TamedModel

VARIANTS = ("off", "finite", "ergodic", "strong_order_candidate")
COEFF_NAMES = [name for name, _ in _Coeffs._fields_]


@pytest.fixture(scope="module")
def advance(compiled_library):
    return load_compiled(compiled_library)[1]


def _simulate(monkeypatch, advance, tm, T, n, tab, law, n_particles=None,
              callbacks=()):
    """simulate on the fused kernel (advance) or on the NumPy step (None)."""
    monkeypatch.setattr(scheme, "bind_advance", advance)
    monkeypatch.setattr(scheme, "pair_aggregate", pair_aggregate_py)
    return scheme.simulate(tm, scheme.TimeGrid(T, n), tab, initial=law,
                           n_particles=n_particles, callbacks=callbacks)


def _assert_same_arrays(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _assert_same_run(got, want):
    (ens_a, recs_a), (ens_b, recs_b) = got, want
    assert (ens_a.t_index, ens_a.overflow_flag, ens_a.diverged_step) == (
        ens_b.t_index, ens_b.overflow_flag, ens_b.diverged_step)
    _assert_same_arrays(ens_a.states, ens_b.states)
    for rec_a, rec_b in zip(recs_a, recs_b):
        assert rec_a.recorded_steps == rec_b.recorded_steps
        for x, y in zip(rec_a.states, rec_b.states):
            _assert_same_arrays(x, y)


def _covered(monkeypatch, advance, tm):
    """Whether simulate would run tm on the fused kernel."""
    monkeypatch.setattr(scheme, "bind_advance", advance)
    ens = scheme.ParticleEnsemble(np.zeros((1, tm.base.d)))
    grid = scheme.TimeGrid(1.0, tm.n)
    return scheme._fused_kernel(tm, grid, ens) is not None


@pytest.mark.parametrize("d", (1, 2, 3, 8, 9))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fused_simulate_matches_step(monkeypatch, advance, family, d):
    model = make_model(family, d=d)
    law = initial_law("gaussian", 0.0, 1.5)
    n, T = 8, 1.0
    ran = full = 0
    for variant in VARIANTS:
        tm = TamedModel(model, n, variant)
        if not _covered(monkeypatch, advance, tm):
            continue
        for size in (1, 7, 64, 130, 300):
            # two spare streams, so noise rows are strided
            tab = make_tableau(7, size + 2, model.l, T, n)
            runs = []
            for kernel in (advance, None):
                rec = scheme.StateRecorder(stride=3)
                ens = _simulate(monkeypatch, kernel, tm, T, n, tab, law,
                                n_particles=size, callbacks=[rec])
                runs.append((ens, [rec]))
            _assert_same_run(*runs)
            ran += 1
            full += runs[0][0].t_index == n
    assert ran >= 15  # off, finite and ergodic at least
    assert full >= ran - 5  # only plain Euler at the larger sizes diverges


@pytest.mark.parametrize("callbacks", ["none", "recorder", "trackers"])
def test_fused_overflow_matches_step(monkeypatch, advance, callbacks):
    model = make_model("anti-dissipative", d=2)
    tm = TamedModel(model, 2, "off")
    tab = make_tableau(3, 10, 2, 40.0, 2)
    results = []
    for kernel in (advance, None):
        rec = scheme.StateRecorder(stride=5)
        moments, diverge = scheme.MomentTracker(4.0), _DivergenceTracker()
        cbs = {"none": [], "recorder": [rec],
               "trackers": [moments, diverge]}[callbacks]
        ens = _simulate(monkeypatch, kernel, tm, 40.0, 2, tab,
                        initial_law("point", 3.0), callbacks=cbs)
        results.append(((ens, [rec]), (moments.values, diverge.step)))
    (fused, fused_tracked), (ref, ref_tracked) = results
    _assert_same_run(fused, ref)
    assert fused_tracked == ref_tracked
    ens = fused[0]
    assert ens.overflow_flag and ens.diverged_step == ens.t_index < 80


def _one_step(advance, x, **coeffs):
    """One fused step from x with zero noise; other coefficients zero."""
    values = dict.fromkeys(COEFF_NAMES, 0.0)
    values.update(h=1.0, k_noise=0, **coeffs)
    states = x.copy()
    run = advance(values, states, np.empty_like(states))
    assert run(np.zeros((1,) + x.shape), 0, 1) == 1
    return states


@pytest.mark.parametrize("size", (7, 8, 127, 128, 129, 300, 9000))
def test_fused_mean_order_d1(advance, size):
    x = np.random.default_rng(size).standard_cauchy((size, 1))
    x[0] = 0.0
    # particle 0 moves to 0 + (0 * 0 + 1 * mean) * 1 = mean exactly
    got = _one_step(advance, x, lam=1.0)[0]
    assert np.array_equal(got, x.mean(axis=0))
    if size == 9000:
        plain = 0.0
        for v in x[:, 0]:
            plain += v
        assert plain / size != x.mean(axis=0)[0]  # the order matters here


@pytest.mark.parametrize("d", range(1, 13))
def test_fused_row_r2_order(advance, d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(256, d)) * 10.0 ** rng.integers(-4, 5, (256, d))
    r2 = np.sum(x * x, axis=-1)
    want = x + (x / (1.0 + r2)[:, None] + 0.0) * 1.0
    _assert_same_arrays(
        _one_step(advance, x, beta1=1.0, gamma=1.0, e_self=2.0), want)
    if d >= 8:
        plain = np.zeros(len(x))
        for c in range(d):
            plain = plain + x[:, c] * x[:, c]
        assert not np.array_equal(plain, r2)  # the order matters here


def test_fused_adds_short_circuited_pair_sums(advance):
    # with an all-zero kernel step still adds F = 0: -0.0 + (-0.0 + 0.0)
    # is +0.0, where -0.0 + -0.0 would stay -0.0
    x = np.full((5, 2), -0.0)
    got = _one_step(advance, x, beta1=1.0)
    _assert_same_arrays(got, x + (1.0 * x + 0.0) * 1.0)
    assert not np.signbit(got).any()


@pytest.mark.parametrize("family, q, variant", [
    ("cubic-mean-field", 3.0, "finite"),  # q_b = 3
    ("cubic-mean-field", 2.0, "strong_order_candidate"),  # e_self = 8
    ("pairwise-vlasov", 2.0, "strong_order_candidate"),
])
def test_uncovered_exponents_take_step_path(monkeypatch, advance, family, q,
                                            variant):
    model = make_model(family, d=2, params={"q": q})
    tm = TamedModel(model, 8, variant)
    assert not _covered(monkeypatch, advance, tm)
    calls = []
    step = scheme.step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(scheme, "step", counted)
    tab = make_tableau(5, 9, 2, 1.0, 8)
    law = initial_law("gaussian", 0.0, 1.0)
    runs = []
    for kernel in (advance, None):
        rec = scheme.StateRecorder(stride=3)
        ens = _simulate(monkeypatch, kernel, tm, 1.0, 8, tab, law,
                        callbacks=[rec])
        runs.append((ens, [rec]))
    assert len(calls) == 16  # every step of both runs went through step
    _assert_same_run(*runs)


def test_recorder_next_step():
    rec = scheme.StateRecorder(stride=4)
    assert [rec.next_step(k, 10) for k in (0, 3, 4, 8, 9)] == [4, 4, 8, 10, 10]
    rec = scheme.StateRecorder(steps=[6, 2, 2, 9])
    assert [rec.next_step(k, 8) for k in (0, 2, 5, 6)] == [2, 6, 6, 8]


def test_bound_kernel_refuses_noise_it_would_overrun(advance):
    values = dict.fromkeys(COEFF_NAMES, 0.0)
    values.update(h=1.0, k_noise=2)
    states = np.zeros((4, 2))
    run = advance(values, states, np.empty_like(states))
    for block in (np.zeros((3, 3, 2)), np.zeros((3, 4, 1)),
                  np.zeros((3, 4, 2), dtype=np.float32),
                  np.zeros((3, 2, 4)).transpose(0, 2, 1)):
        with pytest.raises(ValueError, match="does not cover"):
            run(block, 0, 1)
    block = np.zeros((3, 5, 2))
    assert run(block, 1, 2) == 2
    for first, steps in ((2, 2), (-1, 1), (4, 0)):
        with pytest.raises(ValueError, match="outside the noise block"):
            run(block, first, steps)
    with pytest.raises(ValueError, match="C-contiguous"):
        advance(values, states, np.empty((2, 4)).T)
