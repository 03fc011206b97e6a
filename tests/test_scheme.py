"""Stepping oracles, divergence handling, and trajectory reproducibility."""

import os
import subprocess
import sys

import numpy as np
import pytest

from mvsde.ensemble import ParticleEnsemble
from mvsde.model import FAMILIES, make_model, pair_terms, self_terms
from mvsde.rng import initial_law, make_tableau, sample_initial
from mvsde.scheme import (MomentTracker, StateRecorder, _noise_width,
                          simulate, step)
from mvsde.taming import VARIANTS, TamedModel


def _pure_cubic(**extra):
    params = {"lam": 0.0, "sigma0": 0.0, "c_f": 0.0, "c_g": 0.0}
    params.update(extra)
    return make_model("cubic-mean-field", d=1, params=params)


def test_grid_basics():
    """simulate at level n runs the n T steps of the grid t_k = k / n."""
    m = _pure_cubic()
    tab = make_tableau(1, 2, 1, 3.0, 4)
    for n, steps in ((4, 12), (2, 6), (1, 3)):
        mom = MomentTracker(2.0)
        ens = simulate(TamedModel(m, n, "finite"), tab, np.ones((2, 1)),
                       callbacks=[mom])
        assert ens.t_index == steps and len(mom.values) == steps + 1
    with pytest.raises(ValueError, match="whole number of steps"):
        make_tableau(1, 2, 1, 1.3, 2)  # n T not whole
    with pytest.raises(ValueError, match="whole number of steps"):
        simulate(TamedModel(m, 1, "finite"), make_tableau(1, 2, 1, 1.5, 4),
                 np.ones((2, 1)))  # 1.5 steps at level 1
    for T in (1e307, 1e400, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="whole number of steps"):
            make_tableau(1, 2, 1, T, 128)  # n T beyond the float range


def test_single_step_oracle():
    """Hand-computed tamed step: x=1, h=1/4, b=-x^3, sigma=0.5, dW=0.75.

    The finite variant tames b AND sigma by 1 + 4^{-1/2}|1|^4 = 1.5:
    x' = 1 + 0.25 * (-1/1.5) + (0.5/1.5) * 0.75 = 1 - 1/6 + 1/4.
    """
    m = _pure_cubic(sigma0=0.5)
    tm = TamedModel(m, 4, "finite")
    ens = ParticleEnsemble(np.array([[1.0]]))
    step(ens, tm, np.array([[0.75]]))
    want = 1.0 + 0.25 * (-1.0 / 1.5) + (0.5 / 1.5) * 0.75
    assert ens.states[0, 0] == pytest.approx(want, rel=1e-15)
    assert ens.t_index == 1


def test_two_particle_kernel_step():
    """Pure antisymmetric interaction, untamed, h=1: {1,-1} -> {-4,+4}.

    f(1,-1) = -(2)(4) = -8, atom average over {1,-1} gives -4;
    self-drift -x^3 adds -1, so x' = 1 + 1*(-5) = -4.
    """
    m = _pure_cubic(c_f=1.0)
    tm = TamedModel(m, 1, "off")
    ens = ParticleEnsemble(np.array([[1.0], [-1.0]]))
    step(ens, tm, dW=np.zeros((2, 1)))
    assert ens.states[0, 0] == -4.0
    assert ens.states[1, 0] == 4.0


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_step_matches_explicit_euler_update(family, variant):
    """One step equals, bit for bit, the Euler update built from the tamed
    coefficients:

    x + h (b_n(x, mu) + mean_j f_n(x, x_j))
      + (diag sigma_n(x, mu) + mean_j diag g_n(x, x_j)) dW,

    with mu the empirical measure of the old state, the pair means summed
    in ascending j, and d = 8 and 9 past NumPy's sequential reductions.
    """
    n_part, n = 7, 16
    rng = np.random.default_rng(20261017)
    for d in (1, 2, 3, 8, 9):
        tm = TamedModel(make_model(family, d=d), n, variant)
        k = _noise_width(tm.base)
        x = rng.normal(scale=1.2, size=(n_part, d))
        dW = rng.normal(scale=n ** -0.5, size=(n_part, d))
        b, s = self_terms(tm.base, tm.gamma, tm.e, x, x.mean(axis=0), k)
        f, g = pair_terms(tm.base, tm.gamma, tm.e, x[:, None, :],
                          x[None, :, :], k)
        f_sum, g_sum = np.zeros((n_part, d)), np.zeros((n_part, k))
        for j in range(n_part):
            f_sum += f[:, j]
            g_sum += g[:, j]
        want = x + (b + f_sum / n_part) * (1.0 / n)
        want[:, :k] += (s + g_sum / n_part) * dW[:, :k]
        ens = ParticleEnsemble(x)
        assert step(ens, tm, dW)
        assert np.array_equal(ens.states, want), d


def test_untamed_blowup_iterates():
    """x0=3, h=0.5, b=-x^3: first iterates -10.5, 568.3125, then overflow."""
    m = _pure_cubic()
    tm = TamedModel(m, 2, "off")
    ens = ParticleEnsemble(np.full((4, 1), 3.0))
    step(ens, tm, np.zeros((4, 1)))
    assert (ens.states == -10.5).all()
    step(ens, tm, np.zeros((4, 1)))
    assert (ens.states == 568.3125).all()
    k = 2
    while not ens.overflow_flag and k < 20:
        step(ens, tm, np.zeros((4, 1)))
        k += 1
    assert ens.overflow_flag and ens.t_index == k <= 20
    assert not step(ens, tm, np.zeros((4, 1)))  # frozen after overflow
    assert ens.t_index == k


def test_tamed_same_start_stays_finite():
    m = _pure_cubic()
    tm = TamedModel(m, 2, "finite")
    tab = make_tableau(1, 4, 1, 100.0, 2)
    ens = simulate(tm, tab, np.full((4, 1), 3.0))
    assert not ens.overflow_flag
    assert np.all(np.abs(ens.states) <= 3.0)


def test_simulate_reproducible_and_level_consistent():
    m = make_model("cubic-mean-field", d=2)
    tab = make_tableau(21, 8, 2, 1.0, 32)
    tm = TamedModel(m, 32, "finite")
    states = sample_initial(tab, 8, 2, initial_law("gaussian"))
    a = simulate(tm, tab, states)
    b = simulate(tm, tab, states)
    assert np.array_equal(a.states, b.states)


def test_simulate_callbacks_and_trackers():
    m = _pure_cubic(sigma0=0.2)
    tab = make_tableau(3, 4, 1, 1.0, 8)
    tm = TamedModel(m, 8, "finite")
    mom = MomentTracker(2.0)
    rec = StateRecorder(range(0, 9, 4))
    simulate(tm, tab, np.ones((4, 1)), callbacks=(mom, rec))
    assert len(mom.values) == 9 and mom.values[0] == 1.0
    assert rec.recorded_steps == [0, 4, 8]
    assert rec.states[0].shape == (4, 1)


def test_simulate_prefix_particles_share_noise():
    """A smaller run is bit-equal to the head of a larger ensemble run.

    This only holds for particle-independent dynamics (no interaction,
    no measure terms), where the doubling coupling is exact.
    """
    m = _pure_cubic(sigma0=0.5)
    tab = make_tableau(17, 16, 1, 1.0, 16)
    tm = TamedModel(m, 16, "finite")
    law = initial_law("gaussian")
    small = simulate(tm, tab, sample_initial(tab, 4, 1, law))
    big = simulate(tm, tab, sample_initial(tab, 16, 1, law))
    assert np.array_equal(small.states, big.states[:4])


@pytest.mark.parametrize("steps", [[2.5, 3.9], [True], ["4"]])
def test_recorder_steps_must_be_whole_numbers(steps):
    """A recorder's steps follow model.whole_number: a fractional step is
    refused, never truncated to a step it does not name."""
    with pytest.raises(ValueError, match="step must be a whole number"):
        StateRecorder(steps)


def test_recorder_takes_integral_float_steps():
    m = _pure_cubic(sigma0=0.2)
    tab = make_tableau(3, 4, 1, 1.0, 8)
    recs = [StateRecorder([4.0, 8.0, 0.0]), StateRecorder([4, 8, 0])]
    for rec in recs:
        simulate(TamedModel(m, 8, "finite"), tab, np.ones((4, 1)),
                 callbacks=(rec,))
        assert rec.recorded_steps == [0, 4, 8]
    assert np.array_equal(recs[0].states, recs[1].states)


def test_center_of_mass_nearly_conserved():
    # antisymmetric attraction kappa*(mean - x) with no self drift and no
    # noise: the empirical mean is exactly conserved up to float crumbs
    m = make_model("lipschitz-baseline", d=1,
                   params=dict(a=0.0, lam=0.0, kappa=0.5,
                               sigma0=0.0, c_g=0.0))
    tab = make_tableau(9, 32, 1, 1.0, 64)
    tm = TamedModel(m, 64, "off")
    rec = StateRecorder([0, 64])
    simulate(tm, tab, sample_initial(tab, 32, 1, initial_law("gaussian")),
             callbacks=(rec,))
    first = rec.states[0].mean()
    last = rec.states[-1].mean()
    assert abs(last - first) < 1e-12


@pytest.mark.parametrize("family, name", [
    ("cubic-mean-field", "sigma0"), ("cubic-mean-field", "c_g"),
    ("ergodic-dissipative", "eps"), ("pairwise-vlasov", "nu"),
    ("pairwise-vlasov", "c_s")])
def test_noise_width_sees_every_diffusion_coefficient(family, name):
    # s0, s1, c_s and c_g: each one alone makes the model read its noise
    silent = {"cubic-mean-field": dict(sigma0=0.0, c_g=0.0),
              "ergodic-dissipative": dict(eps=0.0),
              "pairwise-vlasov": dict(nu=0.0, c_s=0.0, c_g=0.0)}[family]
    assert _noise_width(make_model(family, d=3, params=silent)) == 0
    noisy = make_model(family, d=3, params=dict(silent, **{name: 0.25}))
    assert _noise_width(noisy) == 3


def test_simulate_argument_validation():
    # the noise-free model reads no increments, the noisy one does: both
    # have the level, the states and the model checked against the tableau
    for m in (_pure_cubic(), _pure_cubic(sigma0=0.5)):
        tab = make_tableau(1, 4, 1, 1.0, 8)
        tm = TamedModel(m, 8)
        states = np.zeros((4, 1))
        with pytest.raises(ValueError, match="must divide n_max=8"):
            simulate(TamedModel(m, 3), tab, states)
        with pytest.raises(ValueError, match=r"states must be \(N, 1\)"):
            simulate(tm, tab, np.zeros((5, 1)))  # more than tableau.N
        with pytest.raises(ValueError, match=r"states must be \(N, 1\)"):
            simulate(tm, tab, np.zeros((4, 2)))  # wrong width
        with pytest.raises(ValueError, match="does not match tableau l=1"):
            simulate(TamedModel(make_model("cubic-mean-field", d=2), 8),
                     tab, np.zeros((4, 2)))
        assert tab._store is None  # refused before any step


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_simulate_refuses_non_finite_states(value):
    # the backends would write different bytes from such a state: the C
    # pair loop skips the diagonal pair, whose term is nan in NumPy's
    m = make_model("pairwise-vlasov", d=3)
    tab = make_tableau(1, 5, 3, 1.0, 8)
    states = np.zeros((5, 3))
    states[2, 1] = value
    with pytest.raises(ValueError, match="states must be finite"):
        simulate(TamedModel(m, 8), tab, states)
    assert tab._store is None  # refused before any step


def test_divergence_freezes_state():
    m = _pure_cubic()
    tm = TamedModel(m, 2, "off")
    tab = make_tableau(1, 2, 1, 100.0, 2)
    rec = StateRecorder(range(tab.total_steps + 1))
    ens = simulate(tm, tab, np.full((2, 1), 3.0), callbacks=[rec])
    assert ens.overflow_flag
    assert ens.t_index < tab.total_steps
    # the overflowing step was the last one run, and the state froze there
    assert rec.recorded_steps[-1] == ens.t_index
    assert not np.isfinite(rec.states[-1]).all()
    assert np.isfinite(rec.states[-2]).all()


# moment orders of the sup tests: the filtered even orders, the filter's
# cap p = 8, and orders every row of which is evaluated
_SUP_ORDERS = (0.5, 2.0, 3.0, 4.0, 6.0, 7.25, 8.0)
_BIG = np.finfo(np.float64).max


def _sup_blocks():
    """(name, r2) cases for the sup tests: blocks of squared norms, each a
    (rows, N) array."""
    rng = np.random.default_rng(2029)
    yield "point masses", np.full((40, 7), 9.0)
    yield "point mass at 0", np.zeros((5, 3))
    for scale in (1e-3, 1.0, 1e3, 1e40):
        yield "spread %g" % scale, rng.exponential(scale, (60, 33))
    # a row that sets the sup, then a row whose moment is a few ulps above
    # or below it, one to three norms nudged by an ulp; each case rides the
    # bound's margin, so a bound that rounds below a moment skips a row
    # that raises the sup
    for case in range(150):
        base = rng.exponential(1.0, int(rng.integers(1, 40)))
        nudged = base.copy()
        at = rng.integers(0, len(base), int(rng.integers(1, 4)))
        nudged[at] = np.nextafter(nudged[at], np.inf if case % 3 else 0.0)
        yield "near the sup %d" % case, np.array([base, nudged])
    # permutations: the same multiset, so the same fsum and moment
    yield "permuted", np.array([rng.permutation(base) for _ in range(6)])
    yield "subnormal", rng.uniform(0.0, 1.0, (30, 9)) * 10.0 ** rng.uniform(
        -330.0, -150.0, (30, 9))
    yield "smallest subnormals", np.array(
        [[5e-324] * 4, [0.0, 5e-324, 1e-323, 0.0], [1e-323] * 4])
    roots = {2: np.sqrt, 3: np.cbrt, 4: lambda a: np.sqrt(np.sqrt(a))}
    for k, root in roots.items():
        # pairs of norms whose k-th powers sum to within a few ulps of the
        # float range's edge: the float sum of the products r2^k and the
        # correctly rounded sum of the powers overflow on different rows
        a = rng.uniform(0.2, 0.8, 200) * _BIG
        b = (_BIG - a) + rng.integers(-12, 13, 200) * 2.0 ** -53 * _BIG
        yield "overflow edge k=%d" % k, root(np.stack([a, b], axis=1))
    spread = rng.exponential(1.0, (12, 6))
    spread[3, 2] = np.inf
    spread[7, 0] = np.nan
    spread[9, :] = np.nan
    spread[10, :] = np.inf
    yield "inf and nan", spread
    yield "inf first", np.array([[np.inf, 1.0], [2.0, 3.0], [np.nan, 0.0]])
    yield "nan only", np.array([[1.0, 2.0], [np.nan, 1.0], [3.0, 4.0]])


def _sup_mismatches():
    """Every (case, p, split) where MomentTracker's sup, with or without a
    series, is not max(moments_from_r2(all rows)) bit for bit."""
    from types import SimpleNamespace

    from mvsde.ensemble import moments_from_r2

    rng = np.random.default_rng(7)
    bad = []
    for name, r2 in _sup_blocks():
        r2 = np.ascontiguousarray(r2, dtype=np.float64)
        for p in _SUP_ORDERS:
            want = max(moments_from_r2(r2, p).tolist()).hex()
            # one block, one row per block, random cuts
            rows = len(r2)
            splits = ([], list(range(1, rows)), sorted(set(
                rng.integers(1, rows + 1, size=3).tolist()) - {rows}))
            for cuts in splits:
                bare, full = MomentTracker(p, series=False), MomentTracker(p)
                for lo, hi in zip([0] + cuts, cuts + [rows]):
                    ens = SimpleNamespace(r2_block=r2[lo:hi])
                    bare.observe(ens)
                    full.observe(ens)
                got = (bare.sup.hex(), full.sup.hex(), max(full.values).hex())
                if got != (want,) * 3 or bare.values is not None:
                    bad.append("%s p=%r cuts %s: %s, want %s"
                               % (name, p, cuts, got, want))
    return bad


def test_moment_sup_is_exact_without_a_series():
    """With series=False the tracker evaluates only the rows whose bound
    could raise its sup, and its sup is still the max of every row's
    moment, to the bit, with or without a series and in any block split.
    The cases ride the bound's edges: rows a few ulps around the sup,
    subnormal norms, rows whose k-th powers sum to the float range's edge,
    and inf and nan rows."""
    from mvsde.ensemble import moments_from_r2

    # the overflow cases are real: rows whose sum of products r2^k passes
    # the float range with a finite moment, and the reverse
    products_past = moment_past = False
    for name, r2 in _sup_blocks():
        if name.startswith("overflow edge"):
            k = int(name[-1])
            with np.errstate(over="ignore"):
                products = np.prod([r2] * k, axis=0).sum(axis=1)
            moment_inf = np.isinf(moments_from_r2(r2, 2.0 * k))
            products_past |= (np.isinf(products) & ~moment_inf).any()
            moment_past |= (np.isfinite(products) & moment_inf).any()
    assert products_past and moment_past
    assert _sup_mismatches() == []


def test_moment_sup_does_not_depend_on_avx512(no_avx512_env):
    """The sup test holds in a subprocess with NumPy's AVX-512 (X86_V4)
    loops disabled too, where np.power takes another loop."""
    code = ("import sys; sys.path.insert(0, %r); "
            "from test_scheme import _sup_mismatches; "
            "print(repr(_sup_mismatches()))"
            % os.path.dirname(os.path.abspath(__file__)))
    sub = subprocess.run([sys.executable, "-c", code], env=no_avx512_env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    assert sub.stdout.splitlines()[-1] == "[]"
