"""Fully explicit (tamed) Euler stepping for interacting particles.

One step at level n with step size h = 1/n advances every particle from
the old ensemble state and the old empirical measure:

    X'_i = X_i + (b_n(X_i, mu) + (1/N) sum_j f_n(X_i, X_j)) h
               + (sigma_n(X_i, mu) + (1/N) sum_j g_n(X_i, X_j)) dW_i

where the _n subscript is the taming transform of the wrapped model. The
coefficients follow two functions, the contract the fused C kernel
repeats: model.self_terms for b_n and sigma_n, and the per-pair factors
mvsde._core.pairwise_py.pair_factors of f_n and g_n (model.pair_terms).
Nothing reads the updated buffer during a step, so the result does not
depend on particle evaluation order; the kernel sums use a fixed
ascending-j accumulation per particle (see mvsde._core), which makes whole
trajectories reproducible bit for bit, including across the compiled and
fallback backends at every d and every growth order q: outside its special
cases every power goes to libm pow on both (mvsde._core.pairwise_py.power).

`step` is the NumPy reference. On the C backend `simulate` runs the fused
kernel of mvsde._core instead, for every model, which repeats step's
operation order and advances the ensemble through a whole block of steps
in one call with no Python in the loop; it gives the same bits as `step`.

Callbacks read a block of steps per call. Observers that need every step
(MomentTracker and the divergence tracker of mvsde.experiments) read the
squared particle norms of each state, and a StateRecorder owns one array
with a row for each step it keeps; the fused kernel writes both as it
steps, and the step path fills the same rows.

A model with no noise (s0, s1, c_s and c_g all zero) reads no Brownian
increments: both paths skip its noise term, which is +-0 there and would
change no bit (see _noise_width), and simulate never asks the tableau for
a block, so the tableau is never drawn.
"""

import numpy as np

from . import model as model_mod
from . import rng as rng_mod
from .ensemble import ParticleEnsemble, _moment_order, moments_from_r2
from ._core import bind_advance, pair_aggregate

# target float64 count per pulled increment block
_CHUNK_ELEMENTS = 1 << 22
# cap on the float64 count of one block of observed squared norms (steps
# per block times N): about 0.5 MB
_OBS_ELEMENTS = 1 << 16


def _noise_width(base):
    """Number of noise components step adds: min(d, l), or 0 without noise.

    With s0 = s1 = c_s = c_g = 0 the noise term (s + G) dW of a finite
    state is +-0: s is zero, or zero over a taming denominator of at least
    1, and G is a sum of zeros. The value it would be added to,
    x + (b + F) h, is never -0.0 (F starts from +0.0, and b + F turns a
    -0.0 into +0.0) unless x is -0.0 and a subnormal drift times h
    underflows to -0.0. But for that case, skipping the term changes no
    bit, non-finite values included, and such a model needs no increments.
    """
    if base.s0 == base.s1 == base.c_s == base.c_g == 0.0:
        return 0
    return min(base.d, base.l)


def step(ens, tm, dW):
    """Advance the ensemble by one step of the explicit scheme, h = 1/tm.n.

    Parameters
    ----------
    ens : ParticleEnsemble
    tm : TamedModel
        Its gamma and e tame every coefficient; variant "off" (gamma = 0)
        gives plain Euler.
    dW : (N, l') array
        Increment block for this step (first N rows of the tableau level);
        l' >= _noise_width(tm.base), so (N, 0) for a model with no noise.

    Returns
    -------
    bool
        False once the ensemble has overflowed, True otherwise.
    """
    if ens.overflow_flag:
        return False
    base = tm.base
    x = ens.states
    k = _noise_width(base)
    # self part and measure coupling, all from the old state; inf/nan
    # propagate silently into the overflow flag below
    with np.errstate(over="ignore", invalid="ignore"):
        b, s_diag = model_mod.self_terms(base, tm.gamma, tm.e, x,
                                         x.mean(axis=0), k)
        f_sum, g_sum = pair_aggregate(x, base.kf1, base.kfq, base.q_f,
                                      base.c_g, tm.gamma, tm.e)

        out = ens.scratch
        np.add(x, (b + f_sum) * (1.0 / tm.n), out=out)
        out[:, :k] += (s_diag + g_sum[:, :k]) * dW[:, :k]

    ens.swap_buffers()
    ens.t_index += 1
    if not np.isfinite(ens.states).all():
        ens.overflow_flag = True
        return False
    return True


def simulate(tm, tableau, states, callbacks=()):
    """Run the explicit scheme at level tm.n over the tableau's [0, T].

    The model, the level, the states and a StateRecorder's steps are
    checked against the tableau before anything is drawn.

    Parameters
    ----------
    tm : TamedModel
        Its n is the level: h = 1/n, and the run takes the n * tableau.T
        steps of the grid t_k = k / n. n must divide tableau.n_max.
    tableau : rng.BrownianTableau
        Source of the increments. A model with no noise (s0, s1, c_s and
        c_g all zero) reads none of them, so its tableau is never drawn.
    states : (N, d) array
        Initial positions, N <= tableau.N; particle i reads stream i of
        the tableau, so a run on a prefix of the states shares its noise
        with the larger run (rng.sample_initial draws such prefixes).
        The array is copied, not modified.
    callbacks : sequence
        Objects whose observe(ens) is called after initialization and
        after each block of steps; ens.t_index is the step reached. At
        most one of them may be a StateRecorder; the states after the
        steps it keeps go straight into its array (see StateRecorder).
        Any other callback observes every step: it reads ens.r2_block,
        the squared particle norms after each step of the block (after
        initialization, of the initial state). Each block draws its own
        increments and spans _CHUNK_ELEMENTS // (r tableau.N l) steps,
        r = tableau.n_max / n, or _OBS_ELEMENTS // N when that is fewer
        and a callback observes every step; it ends early after the first
        step with a non-finite value. Both backends observe the same
        blocks; the fused kernel runs each block in one call.

    Returns
    -------
    ParticleEnsemble
        Final state; with overflow_flag set, t_index is the step that
        produced the first non-finite value.
    """
    d = tm.base.d
    if tm.base.l != tableau.l:
        raise ValueError("model noise dimension l=%d does not match "
                         "tableau l=%d" % (tm.base.l, tableau.l))
    states = np.asarray(states, dtype=np.float64)
    if (states.ndim != 2 or states.shape[1] != d
            or not 1 <= len(states) <= tableau.N):
        raise ValueError("states must be (N, %d) with 1 <= N <= %d, got "
                         "shape %s" % (d, tableau.N, states.shape))
    n_part = len(states)
    r = rng_mod._level_ratio(tableau, tm.n)
    total = tableau.total_steps // r
    recorders = [cb for cb in callbacks if isinstance(cb, StateRecorder)]
    if len(recorders) > 1:
        raise ValueError("simulate takes at most one StateRecorder, got %d"
                         % len(recorders))
    ens = ParticleEnsemble(states)
    rec = recorders[0] if recorders else None
    if rec is not None:
        keep, rows = rec._start(ens.states, total)
    span = max(1, _CHUNK_ELEMENTS // (r * tableau.N * tableau.l))
    obs = None
    if len(recorders) < len(callbacks):
        obs = np.empty((max(1, _OBS_ELEMENTS // n_part), n_part))
        _squared_norms(ens.states, obs[0])
        ens.r2_block = obs[:1]
        span = min(span, len(obs))
    for cb in callbacks:
        cb.observe(ens)

    advance = _advancer(tm, ens)
    noisy = _noise_width(tm.base) > 0
    k = 0
    while k < total and not ens.overflow_flag:
        hi = min(total, k + span)
        if noisy:
            block = rng_mod.level_increments(tableau, tm.n, k, hi)
        else:
            block = np.empty((hi - k, tableau.N, 0))
        if rec is None:
            advance(block, hi - k, obs, None, None)
        else:
            # keep[s] flags step s; the rows before `row` hold the kept
            # steps up to k
            row = int(np.searchsorted(rec.steps, k, side="right"))
            advance(block, hi - k, obs, keep[k + 1:hi + 1], rows[row:])
        if obs is not None:
            ens.r2_block = obs[:ens.t_index - k]
        k = ens.t_index
        for cb in callbacks:
            cb.observe(ens)
    return ens


def _squared_norms(x, out):
    """np.sum(x * x, axis=-1) into out; inf or nan for a non-finite row."""
    with np.errstate(over="ignore", invalid="ignore"):
        out[:] = np.sum(x * x, axis=-1)


def _advancer(tm, ens):
    """advance(block, steps, obs, keep, rec) for ens on the active backend.

    advance runs up to `steps` steps of ens with the noise rows
    block[:steps] of a (S, N', l) block (N' >= N; l = 0 for a model with
    no noise) and does step's bookkeeping of t_index and overflow_flag;
    it stops after the first step with a non-finite value. Row s of obs,
    if given, receives the squared particle norms after step s + 1 of the
    call; with keep and rec, the state after that step goes into the next
    row of rec where keep[s] is set. Both include the overflowing step. On
    the C backend it is one call of the fused kernel bound to ens, which
    evaluates step's coefficients from the model's COEFFICIENTS and the
    taming's gamma and e; on the numpy backend it is a loop of step.
    """
    if bind_advance is None:
        def advance(block, steps, obs, keep, rec):
            row = 0
            for s in range(steps):
                alive = step(ens, tm, block[s, :ens.N])
                if obs is not None:
                    _squared_norms(ens.states, obs[s])
                if keep is not None and keep[s]:
                    rec[row] = ens.states
                    row += 1
                if not alive:
                    return

        return advance
    coeffs = {name: getattr(tm.base, name) for name in model_mod.COEFFICIENTS}
    run = bind_advance(dict(coeffs, h=1.0 / tm.n, gamma=tm.gamma, e=tm.e,
                            k_noise=_noise_width(tm.base)),
                       ens.states, ens.scratch)

    def advance(block, steps, obs, keep, rec):
        done = run(block, steps, obs, keep, rec)
        if done < steps:  # step done + 1 ran and overflowed
            ens.overflow_flag = True
            done += 1
        ens.t_index += done

    return advance


class MomentTracker:
    """Records the p-th empirical moment after every step.

    values[k] is the moment of the state after step k (k = 0: the initial
    state), at time k / n. Each observe call takes the block of steps in
    ens.r2_block (see simulate) and turns it into moments with
    ensemble.moments_from_r2.
    """

    def __init__(self, p):
        self.p = _moment_order(p)
        self.values = []

    def observe(self, ens):
        self.values.extend(moments_from_r2(ens.r2_block, self.p).tolist())


class StateRecorder:
    """Copies of the ensemble states after the given steps.

    steps is an iterable of step indices; it is sorted, and a repeated
    index is recorded once. simulate refuses, before anything is drawn, a
    step outside its run's steps 0 .. n T, and allocates one
    (len(steps), N, d) array; the state after each kept step goes into
    its next row as the run steps, from the fused kernel or from the step
    loop. After each observe, `states` is the rows written so far and
    `recorded_steps` the list of their steps; a run that overflows stops
    at its overflowing step, which is recorded if kept.
    """

    def __init__(self, steps):
        # not np.unique, whose first call in a process imports numpy.ma
        self.steps = np.array(sorted(set(steps)), dtype=np.int64)
        self.recorded_steps = []
        self.states = np.empty((0, 0, 0))
        self._rows = None

    def _start(self, x, total):
        """Check steps against a run of `total` steps from state x, and set
        up its rows: the initial state goes into the first if step 0 is
        kept. Returns (keep, rows), keep a uint8 flag for each of steps
        0 .. total."""
        outside = self.steps[(self.steps < 0) | (self.steps > total)]
        if len(outside):
            raise ValueError("steps %s are outside the grid's steps 0 to %d"
                             % (outside.tolist(), total))
        keep = np.zeros(total + 1, dtype=np.uint8)
        keep[self.steps] = 1
        self._rows = np.empty((len(self.steps),) + x.shape)
        if keep[0]:
            self._rows[0] = x
        self.recorded_steps = []
        return keep, self._rows

    def observe(self, ens):
        """Take the rows of the kept steps up to ens.t_index."""
        m = int(np.searchsorted(self.steps, ens.t_index, side="right"))
        self.recorded_steps.extend(
            self.steps[len(self.recorded_steps):m].tolist())
        self.states = self._rows[:m]
