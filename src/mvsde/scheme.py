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
One site takes other operations, proven to give the same bits: at d = 1
and q_b = 2 the kernel takes |x|^2 as the squared norm r2 itself, where
step forms sqrt(r2) * sqrt(r2); the rounded root of a rounded square of
one double squares back to it (the proof is at step_once in pairwise.c).

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

import math

import numpy as np

from . import _core
from . import model as model_mod
from . import rng as rng_mod
from .ensemble import ParticleEnsemble, _moment_order, moments_from_r2
from ._core import pair_aggregate

# target float64 count per pulled increment block
_CHUNK_ELEMENTS = 1 << 22
# cap on the float64 count of one block of observed squared norms (steps
# per block times N): about 0.5 MB
_OBS_ELEMENTS = 1 << 16
# MomentTracker's row filter (see its doc): even orders p = 2k up to this
# k, blocks of at most _FILTER_MAX_N norms, the bound's relative slack and
# its absolute floor
_FILTER_MAX_K = 4
_FILTER_MAX_N = 1 << 30
_SLACK = 1.0 + 2.0 ** -20
_FLOOR = 2.0 ** -1000


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
    checked against the tableau, and the states for a non-finite value,
    before anything is drawn.

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
        initialization, of the initial state). The table is drawn once,
        on its first read, and each block reads its steps' increments
        from it: on C a view of their finest rows, which the kernel sums,
        on NumPy their sums at level n. A block spans
        _CHUNK_ELEMENTS // (r tableau.N l) steps, r = tableau.n_max / n,
        or _OBS_ELEMENTS // N when that is fewer and a callback observes
        every step; it ends early after the first step with a non-finite
        value. Both backends observe the same blocks; the fused kernel
        runs each block in one call.

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
    if not np.isfinite(states).all():
        raise ValueError("states must be finite")
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

    advance = _advancer(tm, ens, tableau, r)
    k = 0
    while k < total and not ens.overflow_flag:
        hi = min(total, k + span)
        if rec is None:
            advance(k, hi, obs, None, None)
        else:
            # keep[s] flags step s; the rows before `row` hold the kept
            # steps up to k
            row = int(np.searchsorted(rec.steps, k, side="right"))
            advance(k, hi, obs, keep[k + 1:hi + 1], rows[row:])
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


def _advancer(tm, ens, tableau, r):
    """advance(lo, hi, obs, keep, rec) for ens on the active backend.

    advance runs steps lo + 1 .. hi of ens, or up to the first step with a
    non-finite value, with the tableau's increments at level tm.n (none
    for a model with no noise, which reads no table), and does step's
    bookkeeping of t_index and overflow_flag. Row s of obs, if given,
    receives the squared particle norms after step s + 1 of the call; with
    keep and rec, the state after that step goes into the next row of rec
    where keep[s] is set. Both include the overflowing step. On the C
    backend it is one call of the fused kernel bound to ens, which
    evaluates step's coefficients from the model's COEFFICIENTS and the
    taming's gamma and e, and sums each step's r = n_max / tm.n rows of
    the finest table itself; it repeats step's operations except at d = 1
    and q_b = 2, where it takes |x|^2 as r2 without a root, with the same
    bits (see the module doc). On the numpy backend it is a loop of step
    over level_increments at level tm.n.
    """
    noisy = _noise_width(tm.base) > 0

    def noise(n, lo, hi):
        """Rows lo .. hi - 1 of the table at level n."""
        if noisy:
            return rng_mod.level_increments(tableau, n, lo, hi)
        return np.empty((hi - lo, tableau.N, 0))

    bind_advance = _core.kernels.bind_advance
    if bind_advance is None:
        def advance(lo, hi, obs, keep, rec):
            block = noise(tm.n, lo, hi)
            row = 0
            for s in range(hi - lo):
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
                       ens.states, ens.scratch, r)

    def advance(lo, hi, obs, keep, rec):
        steps = hi - lo
        done = run(noise(tableau.n_max, lo * r, hi * r), steps, obs, keep,
                   rec)
        if done < steps:  # step done + 1 ran and overflowed
            ens.overflow_flag = True
            done += 1
        ens.t_index += done

    return advance


class MomentTracker:
    """Records the p-th empirical moment after every step, and its sup.

    Each observe call takes the block of steps in ens.r2_block (see
    simulate) and turns its rows into moments with
    ensemble.moments_from_r2.

    Attributes
    ----------
    p : float
        The moment order, finite and > 0.
    values : list of float, or None
        With series=True (the default), values[k] is the moment of the
        state after step k (k = 0: the initial state), at time k / n. With
        series=False it is None: the tracker keeps no values.
    sup : float
        The max of the moments observed so far, in either mode bit for
        bit the max(values) of a series=True tracker; -inf before the
        first observe.

    With series=False observe evaluates only the rows of a block that
    could raise sup. For an even order p = 2k with k <= 4 and a block of
    N <= 2^30 squared norms r2_ij, it skips row i when the bound

        B_i = (1 + 2^-20) (sum_j r2_ij^k) / N + 2^-1000,

    evaluated in floats in that order (the row's sum of k-fold products in
    one np.einsum over k copies of the block, which needs no temporary of
    the block's size and no second pass; then the product, the quotient
    and the sum), is <= sup. A nan bound keeps its row, and so does an inf
    one unless sup is inf already, when no row can raise it; every other
    order evaluates every row. So sup stays exact: a skipped row's moment
    m_i is at most B_i, as follows, with u = 2^-53, s_j = sqrt(r2_ij) and
    w_j the power moments_from_r2 takes of its rounded root, and with inf
    counted as 2^1024 (round to nearest gives inf exactly from
    2^1024 (1 - u/2) up, so fl(x) <= (1 + u) x holds for every x >= 0 in
    the float range's normal part and past it).

    1. sqrt's rounding grows to p u after the power: the rounded root is
       s_j (1 + d) with |d| <= u (the root of a float is never subnormal),
       so its p-th power is at most (1 + u)^p r2_ij^k. Take np.power to
       be within a factor 1 + eta of the exact power of its argument, or
       within 2^20 units of the subnormal spacing 2^-1074 below the
       normal range: w_j <= (1 + eta)(1 + u)^p r2_ij^k + 2^-1054.
    2. fsum is correctly rounded, so the row sum is S <= (1 + u) W with
       W = sum_j w_j (exact below the normal range, where a sum of floats
       is a float). If S is finite, m_i = fl(S / N) <= (1 + u)^2 W / N
       + 2^-1075.
    3. The bound's side: einsum forms each term r2_ij^k by k - 1
       products and adds the terms in an order of its choosing, and it may
       fuse a product with its addition (a multiply-add, on CPUs that have
       one), which rounds once where the two would round twice. Each
       rounding of a non-negative value z gives at least (1 - u) z - 2^-1075:
       a factor of at most 1 - u in the normal range, and at most half the
       subnormal spacing below it, where only a product or a fused
       operation loses anything (a sum of floats that is subnormal is
       exact). Each term passes through at most k - 1 products and N - 1
       additions, fused or not, so the relative factors give
       (1 - u)^(N+k-2). An absolute loss is never scaled up afterwards: a
       product underflows only for factors below 1, and the later
       products of its term multiply by the same r2_ij, and an addition
       scales by at most 1. At most k - 1 losses per term occur, k - 2
       products and one product or fused addition, so the row sum is
       T >= (1 - u)^(N+k-2) sum_j r2_ij^k - N k 2^-1075, and N k 2^-1075
       <= 2^-1043 for N <= 2^30 and k <= 4. The product, the quotient and
       the last sum each round down by a factor of at most 1 - u, the
       first two also by up to 2^-1075 when they underflow:
       B_i >= (1 - u)^3 (1 + 2^-20) T / N + (1 - u) 2^-1000 - 2^-1074.
    4. Chaining 1 to 3, m_i <= r T / N + 2^-1052 with
       r = (1 + eta)(1 + u)^(p+2) / (1 - u)^(N+k-2). The floor
       tau = 2^-1000 absorbs every underflow term, and
       r <= (1 - u)^3 (1 + 2^-20) holds for N <= 2^30 (a filtered block
       has at most that many norms) and eta <= 2^-21: the 2^-20 slack
       covers any np.power error below 2^31 ulp, where NumPy's loops are
       within a few. So m_i <= B_i.
    5. If S is inf, W >= 2^1024 (1 - u/2), and 1 and 3 put (1 + 2^-20) T
       past that too, so the bound's product rounds to inf and B_i is inf:
       the row is kept.
    """

    def __init__(self, p, series=True):
        self.p = _moment_order(p)
        self.values = [] if series else None
        self.sup = -math.inf
        # k of the filtered order p = 2k, 0 where every row is evaluated
        k = self.p / 2.0
        self._k = (int(k) if not series and k.is_integer()
                   and k <= _FILTER_MAX_K else 0)

    def observe(self, ens):
        r2 = ens.r2_block
        if self._k and r2.shape[1] <= _FILTER_MAX_N:
            r2 = r2[self._may_raise_sup(r2)]
            if not len(r2):
                return
        block = moments_from_r2(r2, self.p).tolist()
        if self.values is not None:
            self.values.extend(block)
        top = max(block, default=-math.inf)
        if top > self.sup:
            self.sup = top

    def _may_raise_sup(self, r2):
        """Flags of the rows of r2 whose bound B_i (see the class doc) is
        not <= sup."""
        with np.errstate(over="ignore", invalid="ignore"):
            # sum_j r2_ij^k of each row, in one pass over k copies of r2
            bound = np.einsum(",".join(("ij",) * self._k) + "->i",
                              *(r2,) * self._k)
            bound *= _SLACK
            bound /= r2.shape[1]
            bound += _FLOOR
        return ~(bound <= self.sup)


class StateRecorder:
    """Copies of the ensemble states after the given steps.

    steps is an iterable of step indices, whole numbers
    (model.whole_number); it is sorted, and a repeated index is recorded
    once. simulate refuses, before anything is drawn, a step outside its
    run's steps 0 .. n T, and allocates one (len(steps), N, d) array; the
    state after each kept step goes into its next row as the run steps,
    from the fused kernel or from the step loop. After each observe,
    `states` is the rows written so far and `recorded_steps` the list of
    their steps; a run that overflows stops at its overflowing step, which
    is recorded if kept.
    """

    def __init__(self, steps):
        # not np.unique, whose first call in a process imports numpy.ma
        self.steps = np.array(sorted({model_mod.whole_number(s, "step")
                                      for s in steps}), dtype=np.int64)
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
