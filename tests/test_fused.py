"""The fused C step kernel against the NumPy step, bit for bit.

simulate runs mvsde_advance on the C backend, for every model, and
scheme.step otherwise; both must give the same trajectories, step
counters, overflow flags and sign bits at every growth order q. The
kernel is compiled here (conftest.py) and switched in and out through
scheme.bind_advance, so these tests run on either backend.
"""

import itertools
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import mvsde
from mvsde import ensemble, rng, scheme
from mvsde._core import _Coeffs, load_compiled
from mvsde.cli import main
from mvsde.config import make_config
from mvsde.experiments import (DIVERGENCE_NORM, _DivergenceTracker,
                               run_moment_stability, run_strong_rate)
from mvsde.model import FAMILIES, make_model
from mvsde.rng import initial_law, make_tableau
from mvsde.taming import TamedModel

VARIANTS = ("off", "finite", "ergodic")
COEFF_NAMES = [name for name, _ in _Coeffs._fields_]


@pytest.fixture(scope="module")
def advance(compiled_library):
    return load_compiled(compiled_library)[0]


def _simulate(monkeypatch, advance, tm, tab, law, size=None, callbacks=()):
    """simulate on the fused kernel (advance) or on the NumPy step (None),
    from the first `size` (default tab.N) initial states law draws."""
    monkeypatch.setattr(scheme, "bind_advance", advance)
    states = rng.sample_initial(tab, tab.N if size is None else size,
                                tm.base.d, law)
    return scheme.simulate(tm, tab, states, callbacks=callbacks)


def _strided(total, stride):
    """Every stride-th step of a total-step grid, and the last one."""
    return sorted(set(range(0, total + 1, stride)) | {total})


def _assert_same_arrays(a, b):
    """Equal raw bytes: NaN payloads and sign bits count."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_same_run(got, want):
    (ens_a, recs_a), (ens_b, recs_b) = got, want
    assert (ens_a.t_index, ens_a.overflow_flag) == (ens_b.t_index,
                                                    ens_b.overflow_flag)
    _assert_same_arrays(ens_a.states, ens_b.states)
    for rec_a, rec_b in zip(recs_a, recs_b):
        assert rec_a.recorded_steps == rec_b.recorded_steps
        for x, y in zip(rec_a.states, rec_b.states):
            _assert_same_arrays(x, y)


def _assert_fused_matches_step(monkeypatch, advance, family, d):
    model = make_model(family, d=d)
    law = initial_law("gaussian", 0.0, 1.5)
    n, T = 8, 1.0
    ran = full = 0
    for variant in VARIANTS:
        tm = TamedModel(model, n, variant)
        for size in (1, 7, 64, 130, 300):
            # two spare streams, so noise rows are strided
            tab = make_tableau(7, size + 2, model.l, T, n)
            runs = []
            for kernel in (advance, None):
                rec = scheme.StateRecorder(_strided(n, 3))
                ens = _simulate(monkeypatch, kernel, tm, tab, law,
                                size=size, callbacks=[rec])
                runs.append((ens, [rec]))
            _assert_same_run(*runs)
            ran += 1
            full += runs[0][0].t_index == n
    assert ran == 15  # every variant at every size
    assert full >= ran - 5  # only plain Euler at the larger sizes diverges


@pytest.mark.parametrize("d", (1, 2, 3, 8, 9))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fused_simulate_matches_step(monkeypatch, advance, family, d):
    _assert_fused_matches_step(monkeypatch, advance, family, d)


@pytest.mark.parametrize("d", (1, 3, 9))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fused_kernel_built_with_fma_matches_step(monkeypatch, fma_library,
                                                  family, d):
    # with FMA instructions available, only -ffp-contract=off keeps the
    # compiler from fusing the kernel's multiplies and adds
    _assert_fused_matches_step(monkeypatch, load_compiled(fma_library)[0],
                               family, d)


@pytest.mark.parametrize("callbacks", ["none", "recorder", "trackers"])
def test_fused_overflow_matches_step(monkeypatch, advance, callbacks):
    model = make_model("anti-dissipative", d=2)
    tm = TamedModel(model, 2, "off")
    tab = make_tableau(3, 10, 2, 40.0, 2)
    results = []
    for kernel in (advance, None):
        rec = scheme.StateRecorder(_strided(80, 5))
        moments, diverge = scheme.MomentTracker(4.0), _DivergenceTracker()
        cbs = {"none": [], "recorder": [rec],
               "trackers": [moments, diverge]}[callbacks]
        ens = _simulate(monkeypatch, kernel, tm, tab,
                        initial_law("point", 3.0), callbacks=cbs)
        results.append(((ens, [rec]), (moments.values, diverge.step)))
    (fused, fused_tracked), (ref, ref_tracked) = results
    _assert_same_run(fused, ref)
    assert fused_tracked == ref_tracked
    ens = fused[0]
    assert ens.overflow_flag and ens.t_index < 80


class _Blocks:
    """Callback that observes every step and records each block it gets."""

    def __init__(self):
        self.blocks = []

    def observe(self, ens):
        self.blocks.append((ens.t_index, ens.r2_block.copy()))


def _per_step_observers(rec, powers):
    """Moments and divergence step recomputed from every recorded state.

    These are the per-state formulas the observers applied after every step
    before they observed blocks: math.fsum over np.power of the norms, inf
    for a non-finite norm, and the first state with a non-finite entry or a
    squared norm above DIVERGENCE_NORM**2.
    """
    moments = {p: [] for p in powers}
    diverged = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x in zip(rec.recorded_steps, rec.states):
            norms = np.sqrt(np.sum(x * x, axis=-1))
            for p in powers:
                if not np.isfinite(norms).all():
                    moments[p].append(math.inf)
                    continue
                try:
                    moments[p].append(math.fsum(np.power(norms, p))
                                      / len(x))
                except OverflowError:
                    moments[p].append(math.inf)
            if diverged is None and (
                    not np.isfinite(x).all()
                    or np.sum(x * x, axis=-1).max()
                    > DIVERGENCE_NORM * DIVERGENCE_NORM):
                diverged = k
    return moments, diverged


POWERS = (1.5, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("rows", (2, 3, None))
@pytest.mark.parametrize("size", (1, 7, 257))
@pytest.mark.parametrize("d", (1, 3, 9))
def test_block_observers_match_per_step(monkeypatch, advance, d, size,
                                        rows):
    if rows is not None:
        # small blocks, so they split mid-run and around the overflow step
        monkeypatch.setattr(scheme, "_OBS_ELEMENTS", rows * size)
    cubic = make_model("cubic-mean-field", d=d, params=dict(
        lam=0.0, sigma0=0.0, c_f=0.0, c_g=0.0))
    cases = (  # a tamed run with noise, and plain Euler from 3.0 overflowing
        (TamedModel(make_model("cubic-mean-field", d=d), 8, "finite"),
         2.0, initial_law("gaussian", 0.0, 1.5)),
        (TamedModel(cubic, 2, "off"), 40.0, initial_law("point", 3.0)))
    for tm, T, law in cases:
        tab = make_tableau(13, size, tm.base.l, T, tm.n)
        runs = []
        for kernel in (advance, None):
            moments = [scheme.MomentTracker(p) for p in POWERS]
            diverge, blocks = _DivergenceTracker(), _Blocks()
            ens = _simulate(monkeypatch, kernel, tm, tab, law,
                            callbacks=moments + [diverge, blocks])
            runs.append((ens, moments, diverge, blocks))
        rec = scheme.StateRecorder(range(tab.total_steps + 1))
        _simulate(monkeypatch, None, tm, tab, law, callbacks=[rec])
        want, diverged = _per_step_observers(rec, POWERS)
        (ens, moments, diverge, blocks), ref = runs
        assert (ens.t_index, ens.overflow_flag) == (ref[0].t_index,
                                                    ref[0].overflow_flag)
        assert len(blocks.blocks) == len(ref[3].blocks)
        for (k_a, r2_a), (k_b, r2_b) in zip(blocks.blocks, ref[3].blocks):
            assert k_a == k_b
            _assert_same_arrays(r2_a, r2_b)
        # the blocks cover steps 0 .. t_index once each, in order
        ends = [k for k, _ in blocks.blocks]
        sizes = [len(r2) for _, r2 in blocks.blocks]
        assert ends[0] == 0 and sizes[0] == 1
        assert [a + b for a, b in zip(ends, sizes[1:])] == ends[1:]
        assert ends[-1] == ens.t_index
        if rows is not None:
            assert max(sizes) == min(rows, ens.t_index)
        assert rec.recorded_steps == list(range(ens.t_index + 1))
        for tracker, other, p in zip(moments, ref[1], POWERS):
            assert np.array_equal(tracker.values, want[p])
            assert np.array_equal(other.values, want[p])
        assert diverge.step == ref[2].step == diverged
    # the plain arm crossed the trust region before it overflowed
    assert diverged is not None and ens.overflow_flag
    assert diverged < ens.t_index


def test_divergence_tracker_boundary(monkeypatch, advance):
    threshold2 = DIVERGENCE_NORM * DIVERGENCE_NORM
    assert threshold2 == 1e20  # 1e10 squared is exact
    above = np.nextafter(threshold2, np.inf)
    ens = scheme.ParticleEnsemble(np.zeros((2, 1)))
    ens.t_index = 6
    ens.r2_block = np.array([[0.0, threshold2], [threshold2, 1.0],
                             [above, 0.0]])  # steps 4, 5, 6
    tracker = _DivergenceTracker()
    tracker.observe(ens)
    assert tracker.step == 6
    ens.r2_block = ens.r2_block[:2]
    tracker = _DivergenceTracker()
    tracker.observe(ens)
    assert tracker.step is None
    # through simulate on both backends: a model that never moves, at
    # norm 1e10 (not flagged) and one ulp above it (flagged at step 0)
    frozen = make_model("lipschitz-baseline", d=1, params=dict(
        a=0.0, lam=0.0, kappa=0.0, sigma0=0.0, c_g=0.0))
    tm = TamedModel(frozen, 2, "off")
    tab = make_tableau(1, 3, 1, 2.0, 2)
    for start, step in ((DIVERGENCE_NORM, None),
                        (np.nextafter(DIVERGENCE_NORM, np.inf), 0)):
        for kernel in (advance, None):
            tracker = _DivergenceTracker()
            _simulate(monkeypatch, kernel, tm, tab,
                      initial_law("point", start), callbacks=[tracker])
            assert tracker.step == step


def _first_bad_row(r2):
    """The first row of r2 with an entry not <= DIVERGENCE_NORM**2, or
    None: the element-wise test the tracker's row maxima replace."""
    bad = np.flatnonzero(
        ~(r2 <= DIVERGENCE_NORM * DIVERGENCE_NORM).all(axis=1))
    return int(bad[0]) if bad.size else None


def test_divergence_tracker_matches_the_element_test():
    """nan, +inf, exactly 1e20 and one ulp above it, alone and together,
    at every place in a row, and random blocks: the tracker's first
    divergence step is the element-wise test's."""
    threshold2 = DIVERGENCE_NORM * DIVERGENCE_NORM
    above = np.nextafter(threshold2, np.inf)
    gen = np.random.default_rng(5)
    blocks = []
    for special in ([np.nan], [np.inf], [threshold2], [above],
                    [np.nan, np.inf], [threshold2, np.nan],
                    [0.0, threshold2]):
        for place in range(3):
            block = gen.random((4, 3)) * threshold2
            block[2, place:place + len(special)] = special[:3 - place]
            blocks.append(block)
    for _ in range(200):
        k, n = gen.integers(1, 9), gen.integers(1, 9)
        block = gen.random((k, n)) * 2.0 * threshold2
        picks = gen.random((k, n))
        block[picks < 0.05] = np.nan
        block[(picks > 0.05) & (picks < 0.1)] = np.inf
        block[(picks > 0.1) & (picks < 0.15)] = threshold2
        block[(picks > 0.15) & (picks < 0.2)] = above
        # most random blocks hold a bad row; some are cleared of them
        if gen.random() < 0.3:
            block = np.where(block <= threshold2, block, 0.5)
        blocks.append(block)
    ens = scheme.ParticleEnsemble(np.zeros((1, 1)))
    found = set()
    for block in blocks:
        ens.t_index, ens.r2_block = 40, block
        tracker = _DivergenceTracker()
        tracker.observe(ens)
        want = _first_bad_row(block)
        assert tracker.step == (None if want is None
                                else 40 - len(block) + 1 + want)
        found.add(want is None)
    assert found == {True, False}


# criterion 3's model: pure cubic drift, no diffusion and no kernel
_PURE_CUBIC = dict(lam=0.0, sigma0=0.0, c_f=0.0, c_g=0.0)


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its calls."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_noise_free_stability_run_draws_no_increments(monkeypatch, advance,
                                                      tmp_path, backend):
    kernel = advance if backend == "c" else None
    monkeypatch.setattr(scheme, "bind_advance", kernel)
    draws = _counted(monkeypatch, rng, "philox_uniforms")
    cfg = make_config("moment-stability", params=dict(_PURE_CUBIC),
                      N=64, T=100.0, n=2, p0=4.0, initial="point 3.0",
                      initial_b="point 3.0", out_dir=str(tmp_path))
    rep = run_moment_stability(cfg)
    assert rep.verdict["contrast"] is True
    assert draws == []


@pytest.mark.parametrize("backend", ["c", "numpy"])
def test_noisy_rep_draws_its_table_once(monkeypatch, advance, tmp_path,
                                        backend):
    kernel = advance if backend == "c" else None
    monkeypatch.setattr(scheme, "bind_advance", kernel)
    tables = _counted(monkeypatch, rng, "_draw")
    reads = _counted(monkeypatch, rng, "level_increments")
    cfg = make_config("strong-rate", reps=2, threads=1, levels=[4, 8],
                      n_max=32, T=1.0, N=8, p0=16.0,
                      initial="gaussian 0.0 1.0",
                      out_dir=str(tmp_path))
    run_strong_rate(cfg)
    # the reference and both levels of a rep read one table, drawn once
    assert len(tables) == 2 and tables[0][0] is not tables[1][0]
    assert len(reads) >= 6


def _noise_free_cases():
    """(tm, T, law) for plain and tamed arms at d in {1, 3}, with and
    without the pair kernel, overflowing, finite and from -0.0."""
    for d in (1, 3):
        for c_f in (0.0, 1.0):
            model = make_model("cubic-mean-field", d=d,
                               params=dict(_PURE_CUBIC, c_f=c_f))
            for variant in ("off", "finite"):
                for n, T, law in (
                        (2, 40.0, initial_law("point", 3.0)),
                        (8, 2.0, initial_law("gaussian", 0.0, 1.5)),
                        (4, 1.0, initial_law("point", -0.0))):
                    yield TamedModel(model, n, variant), T, law


def test_noise_free_runs_match_the_noise_path(monkeypatch, advance):
    """Skipping the noise of a model without it changes no bit.

    The reference adds (s + G) dW = +-0 at every step with a drawn table,
    as every run did before noise-free models stopped reading one."""
    widths = (scheme._noise_width, lambda base: min(base.d, base.l))
    overflowed = 0
    for tm, T, law in _noise_free_cases():
        assert widths[0](tm.base) == 0
        for kernel in (advance, None):
            runs = []
            for width in widths:
                monkeypatch.setattr(scheme, "_noise_width", width)
                tab = make_tableau(11, 17, tm.base.l, T, tm.n)
                moments, blocks = scheme.MomentTracker(4.0), _Blocks()
                diverge = _DivergenceTracker()
                ens = _simulate(monkeypatch, kernel, tm, tab, law,
                                callbacks=[moments, diverge, blocks])
                runs.append((ens, moments, diverge, blocks, tab))
            (ens, moments, diverge, blocks, tab), ref = runs
            assert tab._store is None and ref[4]._store is not None
            assert (ens.t_index, ens.overflow_flag) == (
                ref[0].t_index, ref[0].overflow_flag)
            _assert_same_arrays(ens.states, ref[0].states)
            assert len(blocks.blocks) == len(ref[3].blocks)
            for (k_a, r2_a), (k_b, r2_b) in zip(blocks.blocks,
                                                ref[3].blocks):
                assert k_a == k_b
                _assert_same_arrays(r2_a, r2_b)
            _assert_same_arrays(np.array(moments.values),
                                np.array(ref[1].values))
            assert diverge.step == ref[2].step
            overflowed += ens.overflow_flag
    # on both backends: the four plain arms from 3.0, and at d = 3 with
    # the pair kernel the plain arm from the gaussian
    assert overflowed == 10


def _one_step(advance, x, dw=None, obs=None, **coeffs):
    """(steps done, states) of one fused step from x; coefficients not
    given are zero and h is 1. dw holds the (N, l) noise rows, zero noise
    by default; obs, a (1, N) array, receives the new squared norms."""
    values = dict.fromkeys(COEFF_NAMES, 0.0)
    values.update(h=1.0, k_noise=0)
    values.update(coeffs)
    states = x.copy()
    run = advance(values, states, np.empty_like(states))
    block = np.zeros((1,) + x.shape) if dw is None else dw[None]
    return run(block, 1, obs), states


@pytest.mark.parametrize("size", (7, 8, 127, 128, 129, 300, 9000))
def test_fused_mean_order_d1(advance, size):
    x = np.random.default_rng(size).standard_cauchy((size, 1))
    x[0] = 0.0
    # particle 0 moves to 0 + (0 * 0 + 1 * mean) * 1 = mean exactly
    done, got = _one_step(advance, x, lam=1.0)
    assert done == 1
    got = got[0]
    assert np.array_equal(got, x.mean(axis=0))
    if size == 9000:
        plain = 0.0
        for v in x[:, 0]:
            plain += v
        assert plain / size != x.mean(axis=0)[0]  # the order matters here


@pytest.mark.parametrize("d", range(1, 13))
def test_fused_row_r2_order(advance, d):
    """row_norms sums each row's squares in np.sum(x * x, axis=-1)'s order,
    which the taming denominator 1 + r2 exposes bit for bit."""
    rng = np.random.default_rng(d)
    x = rng.normal(size=(256, d)) * 10.0 ** rng.integers(-4, 5, (256, d))
    r2 = np.sum(x * x, axis=-1)
    want = x + (x / (1.0 + r2)[:, None] + 0.0) * 1.0
    done, got = _one_step(advance, x, beta1=1.0, gamma=1.0, e=2.0)
    assert done == 1
    _assert_same_arrays(got, want)
    if d >= 8:
        plain = np.zeros(len(x))
        for c in range(d):
            plain = plain + x[:, c] * x[:, c]
        assert not np.array_equal(plain, r2)  # the order matters here


def test_fused_adds_short_circuited_pair_sums(advance):
    # with an all-zero kernel step still adds F = 0: -0.0 + (-0.0 + 0.0)
    # is +0.0, where -0.0 + -0.0 would stay -0.0
    x = np.full((5, 2), -0.0)
    done, got = _one_step(advance, x, beta1=1.0)
    assert done == 1
    _assert_same_arrays(got, x + (1.0 * x + 0.0) * 1.0)
    assert not np.signbit(got).any()


# Every value of each self-term switch of the fused step: q_b (None: no
# growth term, betaq = 0), the taming exponent e (None: gamma = 0; then
# each case of the denominator: 0, 2, 4 and libm pow), the measure
# coupling (lam in the functional mode, kap_pair in the pairwise one), c_s,
# s1 and the noise width k_noise (0, below d, d).
_SELF_SWITCHES = list(itertools.product(
    (None, 0.0, 1.0, 2.0, 1.5), (None, 0.0, 2.0, 4.0, 3.0),
    (None, "lam", "kap_pair"), (0.0, 0.4), (0.0, 0.2), ("none", "part",
                                                        "full")))
_SWEEP_SIZES = (1, 2, 3, 5, 64)
_SWEEP_CLOUDS = ("random", "signed zeros", "overflow mid-row",
                 "overflow last")


def _sweep_cases(d):
    """The switch combinations one dimension runs, each with its N, cloud
    and pair kernel: the full product, shuffled and dealt over d = 1..9,
    the sizes, the clouds and the kernel on or off, so every combination
    runs once and every dimension sees every value of every switch."""
    order = np.random.default_rng(17).permutation(len(_SELF_SWITCHES))
    for j, idx in enumerate(order):
        if 1 + j % 9 == d:
            yield (_SELF_SWITCHES[idx], _SWEEP_SIZES[j // 9 % 5],
                   _SWEEP_CLOUDS[j // 45 % 4], j // 180 % 2 == 1)


def _sweep_cloud(kind, n, d, rng):
    x = rng.normal(scale=1.5, size=(n, d)) * 10.0 ** rng.integers(-2, 2,
                                                                  (n, d))
    if kind == "signed zeros":
        x = np.where(rng.random((n, d)) < 0.7,
                     np.where(rng.random((n, d)) < 0.5, -0.0, 0.0), x)
    elif kind == "overflow mid-row":
        x[n // 2, d // 2] = 1.7e308  # grows past the float range
    elif kind == "overflow last":
        x[n - 1, d - 1] = -1.7e308
    return x


@pytest.mark.parametrize("build", ("default", "fma", "baseline"))
@pytest.mark.parametrize("d", range(1, 10))
def test_fused_self_terms_match_step(request, build, d):
    """One fused step against scheme.step at every self-term switch, d from
    1 to 9 (both sides of np_sum's 7 | 8 boundary), N in {1, 2, 3, 5, 64},
    on random, signed-zero and overflowing clouds, with and without the
    pair kernel, on the default build (whose AVX2 clone an AVX2 CPU runs),
    the -mfma build and the build without the AVX2 clone: the same steps
    done, state bytes and squared-norm bytes."""
    library = request.getfixturevalue(
        "compiled_library" if build == "default" else build + "_library")
    advance = load_compiled(library)[0]
    rng = np.random.default_rng(d)
    n_level = 8
    overflowed = 0
    exponents = set()
    for switches, size, cloud, pair in _sweep_cases(d):
        q_b, e, coupling, c_s, s1, width = switches
        exponents.add(e)
        base = types.SimpleNamespace(
            d=d, l={"none": 0, "part": d // 2, "full": d}[width],
            beta1=1.0, betaq=0.0 if q_b is None else -1.0,
            q_b=0.0 if q_b is None else q_b,
            lam=0.5 if coupling == "lam" else 0.0,
            kap_pair=0.7 if coupling == "kap_pair" else 0.0,
            s0=0.3, s1=s1, c_s=c_s, kf1=0.3 if pair else 0.0,
            kfq=0.2 if pair else 0.0, q_f=2.0, c_g=0.25 if pair else 0.0)
        tm = types.SimpleNamespace(base=base, n=n_level,
                                   gamma=0.0 if e is None else 0.35,
                                   e=0.0 if e is None else e)
        k = scheme._noise_width(base)
        x = _sweep_cloud(cloud, size, d, rng)
        dw = rng.normal(scale=n_level ** -0.5, size=(size, base.l))

        ens = scheme.ParticleEnsemble(x)
        alive = scheme.step(ens, tm, dw)
        assert ens.t_index == 1 and ens.overflow_flag == (not alive)
        want_obs = np.empty((1, size))
        scheme._squared_norms(ens.states, want_obs[0])

        obs = np.full((1, size), np.nan)
        done, got = _one_step(
            advance, x, dw, obs, h=1.0 / n_level, beta1=base.beta1,
            betaq=base.betaq, q_b=base.q_b, lam=base.lam,
            kap_pair=base.kap_pair, s0=base.s0, s1=s1, c_s=c_s,
            gamma=tm.gamma, e=tm.e, kf1=base.kf1, kfq=base.kfq,
            q_f=base.q_f, c_g=base.c_g, k_noise=k)
        case = (switches, size, cloud, pair)
        assert done == (1 if alive else 0), case
        _assert_same_arrays(got, ens.states)
        _assert_same_arrays(obs, want_obs)
        overflowed += not alive
    # most cases on the two overflowing clouds leave the float range
    assert overflowed >= 25
    # every dimension runs gamma = 0 (None) and each exponent case of the
    # denominator: 0, 2, 4 and libm pow
    special = (None, 0.0, 2.0, 4.0)
    assert {e if e in special else "pow" for e in exponents} == {
        None, 0.0, 2.0, 4.0, "pow"}


def _counted_runs(monkeypatch, advance, tm, tab, law):
    """C and NumPy runs of tm with a recorder, and the step calls of each."""
    step_calls = _counted(monkeypatch, scheme, "step")
    runs, calls = [], []
    for kernel in (advance, None):
        before = len(step_calls)
        rec = scheme.StateRecorder(
            _strided(rng._whole_steps(tm.n, tab.T), 3))
        ens = _simulate(monkeypatch, kernel, tm, tab, law,
                        callbacks=[rec])
        runs.append((ens, [rec]))
        calls.append(len(step_calls) - before)
    return runs, calls


@pytest.mark.parametrize("family, q, variant", [
    ("cubic-mean-field", 3.0, "finite"),  # q_b = 3
    ("cubic-mean-field", 1.5, "finite"),  # e = 3
    ("pairwise-vlasov", 1.5, "finite"),
])
def test_non_special_exponents_run_fused(monkeypatch, advance, family, q,
                                         variant):
    # exponents outside every special case: libm pow on both backends
    model = make_model(family, d=2, params={"q": q})
    tm = TamedModel(model, 8, variant)
    tab = make_tableau(5, 9, 2, 1.0, 8)
    runs, calls = _counted_runs(monkeypatch, advance, tm, tab,
                                initial_law("gaussian", 0.0, 1.0))
    assert calls == [0, 8]  # C never calls step, NumPy every step
    _assert_same_run(*runs)


@pytest.mark.parametrize("d", (1, 3, 9))
@pytest.mark.parametrize("q", (1.0, 1.5, 3.0))
def test_backends_agree_at_every_q(monkeypatch, advance, q, d):
    """Whole runs at growth order q, every taming variant, both measure
    modes: the fused kernel and step agree bit for bit."""
    law = initial_law("gaussian", 0.0, 1.5)
    for family in ("cubic-mean-field", "pairwise-vlasov"):
        model = make_model(family, d=d, params={"q": q})
        tab = make_tableau(17, 19, model.l, 1.0, 8)
        for variant in VARIANTS:
            tm = TamedModel(model, 8, variant)
            runs, calls = _counted_runs(monkeypatch, advance, tm, tab, law)
            assert calls[0] == 0
            _assert_same_run(*runs)


def test_recorder_keeps_and_refusals(monkeypatch, advance):
    tm = TamedModel(make_model("cubic-mean-field", d=1), 8, "finite")
    law = initial_law("gaussian", 0.0, 1.0)
    # unsorted and repeated steps are recorded once each, in step order
    for kernel in (advance, None):
        tab = make_tableau(1, 4, 1, 1.0, 8)
        rec = scheme.StateRecorder([6, 2, 8, 2, 6])
        _simulate(monkeypatch, kernel, tm, tab, law, callbacks=[rec])
        assert rec.recorded_steps == [2, 6, 8]
        assert rec.states.shape == (3, 4, 1)
        # and no step at all is recorded as none
        rec = scheme.StateRecorder([])
        _simulate(monkeypatch, kernel, tm, tab, law, callbacks=[rec])
        assert rec.recorded_steps == [] and rec.states.shape == (0, 4, 1)
    # steps outside the grid and a second recorder are refused before
    # the tableau is drawn, on both backends
    tab = make_tableau(1, 4, 1, 1.0, 8)
    for kernel in (advance, None):
        with pytest.raises(ValueError, match=r"steps \[-1, 99\] are "
                           "outside the grid's steps 0 to 8"):
            _simulate(monkeypatch, kernel, tm, tab, law,
                      callbacks=[scheme.StateRecorder([-1, 3, 99])])
        with pytest.raises(ValueError, match="at most one StateRecorder"):
            _simulate(monkeypatch, kernel, tm, tab, law,
                      callbacks=[scheme.StateRecorder([0]),
                                 scheme.MomentTracker(2.0),
                                 scheme.StateRecorder([8])])
    assert tab._store is None


class _BlockRecorder(scheme.StateRecorder):
    """StateRecorder that also notes how many states each observe added."""

    def __init__(self, steps):
        super().__init__(steps)
        self.sizes = []

    def observe(self, ens):
        before = len(self.recorded_steps)
        super().observe(ens)
        self.sizes.append(len(self.recorded_steps) - before)


def _counting(advance, calls):
    """bind_advance over advance, appending each bound kernel's list of
    call step counts to calls."""

    def bind(coeffs, states, scratch):
        run = advance(coeffs, states, scratch)
        steps = []
        calls.append(steps)

        def counted(block, n_steps, *rest):
            steps.append(n_steps)
            return run(block, n_steps, *rest)

        return counted

    return bind


def _states_by_hand(tm, total, tab, law):
    """{k: state after step k} of a loop of scheme.step, up to the last
    step run: the states a recorder must copy."""
    ens = scheme.ParticleEnsemble(rng.sample_initial(tab, tab.N, tm.base.d,
                                                     law))
    dw = rng.level_increments(tab, tm.n, 0, total)
    out = {0: ens.states.copy()}
    for k in range(total):
        alive = scheme.step(ens, tm, dw[k])
        out[k + 1] = ens.states.copy()
        if not alive:
            break
    return out


@pytest.mark.parametrize("rows", (None, 1, 3))
@pytest.mark.parametrize("case", ("tamed", "overflow"))
def test_recorder_rows_match_across_backends(monkeypatch, advance, case,
                                             rows):
    if case == "tamed":
        tm = TamedModel(make_model("cubic-mean-field", d=3), 8, "finite")
        T, law = 2.0, initial_law("gaussian", 0.0, 1.5)
        tab = make_tableau(13, 9, 3, T, 8)
    else:  # plain Euler overflowing mid-run
        tm = TamedModel(make_model("anti-dissipative", d=2), 2, "off")
        T, law = 40.0, initial_law("point", 3.0)
        tab = make_tableau(3, 10, 2, T, 2)
    if rows is not None:
        # blocks of `rows` steps, with or without an every-step observer
        monkeypatch.setattr(scheme, "_CHUNK_ELEMENTS", rows * tab.N * tab.l)
        monkeypatch.setattr(scheme, "_OBS_ELEMENTS", rows * tab.N)
    total = tab.total_steps
    want = _states_by_hand(tm, total, tab, law)
    last = max(want)
    assert (last < total) == (case == "overflow")
    recorders = (_strided(total, 3), range(total + 1),
                 [total, last, last - 1, 1, 0, last])
    for steps in recorders:
        kept = sorted(set(k for k in steps if k <= last))
        for moments in (False, True):  # with an every-step observer
            runs, calls = [], []
            for kernel in (_counting(advance, calls), None):
                rec = _BlockRecorder(steps)
                extra = [scheme.MomentTracker(4.0)] if moments else []
                ens = _simulate(monkeypatch, kernel, tm, tab, law,
                                callbacks=[rec] + extra)
                assert ens.t_index == last
                assert rec.recorded_steps == kept
                for k, x in zip(rec.recorded_steps, rec.states, strict=True):
                    _assert_same_arrays(x, want[k])
                runs.append((ens, [rec]))
            _assert_same_run(*runs)
            assert runs[0][1][0].sizes == rec.sizes
            assert sum(rec.sizes) == len(kept)
            # one kernel call per block, up to the overflowing step
            span = rows or total
            assert calls == [[min(span, total - k)
                              for k in range(0, last, span)]]
    # the overflowing step itself was recorded
    assert case == "tamed" or last in rec.recorded_steps


def test_recording_every_step_is_one_kernel_call(monkeypatch, advance):
    """Every state of 32 steps at N = 1024, d = 3 (3 MB of rows) is
    recorded in one kernel call: the recorder's rows bound no block."""
    tm = TamedModel(make_model("cubic-mean-field", d=3), 32, "finite")
    tab = make_tableau(5, 1024, 3, 1.0, 32)
    calls = []
    rec = scheme.StateRecorder(range(33))
    _simulate(monkeypatch, _counting(advance, calls), tm, tab,
              initial_law("gaussian", 0.0, 1.0), callbacks=[rec])
    assert calls == [[32]]
    assert rec.recorded_steps == list(range(33))
    assert rec.states.shape == (33, 1024, 3)


def test_strong_rate_runs_one_kernel_call_per_simulate(monkeypatch, advance,
                                                      tmp_path):
    """The strong-rate benchmark config (N = 64, levels 16 .. 512 against
    n_max = 1024) records states without stopping the kernel: the
    reference run and each level take one call."""
    calls = []
    monkeypatch.setattr(scheme, "bind_advance", _counting(advance, calls))
    cfg = make_config("strong-rate", reps=1, N=64, out_dir=str(tmp_path))
    assert (cfg.n_max, tuple(cfg.levels)) == (1024, (16, 32, 64, 128, 256,
                                                     512))
    run_strong_rate(cfg)
    assert calls == [[1024], [16], [32], [64], [128], [256], [512]]


def test_bound_kernel_refuses_noise_it_would_overrun(advance):
    values = dict.fromkeys(COEFF_NAMES, 0.0)
    values.update(h=1.0, k_noise=2)
    states = np.zeros((4, 2))
    run = advance(values, states, np.empty_like(states))
    for block in (np.zeros((3, 3, 2)), np.zeros((3, 4, 1)),
                  np.zeros((3, 4, 2), dtype=np.float32),
                  np.zeros((3, 2, 4)).transpose(0, 2, 1)):
        with pytest.raises(ValueError, match="does not cover"):
            run(block, 1)
    block = np.zeros((3, 5, 2))
    assert run(block, 2) == 2
    for steps in (4, -1):
        with pytest.raises(ValueError, match="outside the noise block"):
            run(block, steps)
    with pytest.raises(ValueError, match="C-contiguous"):
        advance(values, states, np.empty((2, 4)).T)


def test_bound_kernel_refuses_states_it_would_overrun(advance):
    values = dict.fromkeys(COEFF_NAMES, 0.0)
    values.update(h=1.0, k_noise=0)
    states = np.zeros((4, 2))
    run = advance(values, states, np.empty_like(states))
    block = np.zeros((3, 4, 0))
    keep = np.array([1, 0, 1], dtype=np.uint8)
    assert run(block, 3, None, keep, np.empty((2, 4, 2))) == 3
    for bad in (keep[:2], keep.astype(bool), keep.reshape(3, 1),
                np.repeat(keep, 2)[::2]):
        with pytest.raises(ValueError, match="does not flag 3 steps"):
            run(block, 3, None, bad, np.empty((2, 4, 2)))
    for bad in (np.empty((1, 4, 2)), np.empty((2, 4, 2), dtype=np.float32),
                np.empty((2, 4, 3)), np.empty((2, 2, 4)).transpose(0, 2, 1)):
        with pytest.raises(ValueError, match="does not hold 2 states"):
            run(block, 3, None, keep, bad)
    # only the flags of the steps run count
    assert run(block, 1, None, keep, np.empty((1, 4, 2))) == 1
    for args in ((keep, None), (None, np.empty((2, 4, 2)))):
        with pytest.raises(ValueError, match="keep and rec come together"):
            run(block, 3, None, *args)


# (command, INI, data file, report file); the simulate config runs q = 3,
# an exponent outside NumPy's power fast path
_DRIVER_CONFIGS = (
    ("moment-stability",
     "[run]\nexperiment = moment-stability\nreps = 2\nout_dir = %s\n"
     "[model]\nd = 3\n[grid]\nT = 50.0\nn = 2\n[ensemble]\nN = 33\n"
     "initial = gaussian 0.0 1.0\n",
     "moment_stability_errors.csv", "moment_stability_report.json"),
    ("simulate",
     "[run]\nexperiment = simulate\nout_dir = %s\n[model]\nd = 3\n"
     "q = 3.0\n[grid]\nT = 1.0\nn = 32\n[ensemble]\nN = 33\n"
     "initial = gaussian 0.0 1.0\n",
     "simulate_final.csv", "simulate_report.json"),
    ("strong-rate",
     "[run]\nexperiment = strong-rate\nreps = 2\nout_dir = %s\n"
     "[grid]\nlevels = 4,8\nn_max = 32\n[ensemble]\nN = 8\n"
     "initial = gaussian 0.0 1.0\n",
     "strong_rate_errors.csv", "strong_rate_report.json"),
    ("ergodic",
     "[run]\nexperiment = ergodic\nreps = 2\nout_dir = %s\n"
     "[grid]\nT = 2.0\nn = 20\n[ensemble]\nN = 16\n"
     "initial = gaussian 0.0 1.0\ninitial_b = gaussian 3.0 1.0\n",
     "ergodic_errors.csv", "ergodic_report.json"),
)


def _outputs(out_dir, data, report):
    with open(os.path.join(out_dir, data), "rb") as fh:
        data_bytes = fh.read()
    with open(os.path.join(out_dir, report), "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    backend = [ln for ln in lines if ln.lstrip().startswith(b'"backend"')]
    return data_bytes, [ln for ln in lines if ln not in backend], backend


def test_driver_bytes_match_across_backends(monkeypatch, compiled_library,
                                            tmp_path, capsys):
    """moment-stability, a q = 3 simulate, strong-rate and ergodic write
    the same bytes on C and on NumPy.

    The C run has every compiled kernel switched in, the NumPy run is a
    fresh interpreter with MVSDE_FORCE_FALLBACK=1; only the config echo's
    backend line may differ. This pins the C row sum of the moments to
    math.fsum at driver level, overflowing plain arm included, the power
    rule of both backends at an exponent outside {0, 1, 2, 4}, and the
    states the kernel records for the two drivers that read a
    StateRecorder.
    """
    advance, fsum_rows, uniforms, ndtri = load_compiled(compiled_library)
    monkeypatch.setattr(scheme, "bind_advance", advance)
    monkeypatch.setattr(ensemble, "fsum_rows", fsum_rows)
    monkeypatch.setattr("mvsde.rng.philox_uniforms", uniforms)
    monkeypatch.setattr("mvsde.rng.ndtri", ndtri)
    reports = []
    for command, ini, data, report in _DRIVER_CONFIGS:
        runs = []
        for label in ("c", "numpy"):
            out_dir = str(tmp_path / command / label)
            path = tmp_path / ("%s-%s.ini" % (command, label))
            path.write_text(ini % out_dir)
            argv = [command, "--config", str(path)]
            if label == "c":
                assert main(argv) in (0, 2)
                capsys.readouterr()
            else:
                src = os.path.dirname(os.path.dirname(mvsde.__file__))
                env = dict(os.environ, MVSDE_FORCE_FALLBACK="1",
                           PYTHONPATH=src)
                code = subprocess.run(
                    [sys.executable, "-m", "mvsde"] + argv, env=env,
                    capture_output=True, timeout=300).returncode
                assert code in (0, 2)
            runs.append(_outputs(out_dir, data, report))
        (data_c, json_c, _), (data_numpy, json_numpy, backend) = runs
        assert data_c == data_numpy, command
        assert json_c == json_numpy, command
        assert backend == [b'    "backend": "numpy"\n'], command
        reports.append(b"".join(json_c))
    assert b'"inf"' in reports[0]  # the plain arm overflowed
    assert b'"q": 3.0' in reports[1]
