"""Particle ensemble state and empirical-measure statistics.

The empirical moment sums over particles with a correctly rounded sum
(math.fsum's value; mvsde._core.kernels.fsum_rows computes it in C on the
compiled backend). Exact rounding makes the result invariant under particle
relabeling to the last bit, which is the exchangeability contract the
tests pin down, and the same on both backends. The C row sum first runs a
compensated pass whose error bound proves, for almost every moment row,
that its result is the correctly rounded one, and runs math.fsum's own
algorithm on the rows it cannot prove; either way the value is fsum's, so
the speed costs no bit.
"""

import math

import numpy as np

from . import _core


class ParticleEnsemble:
    """Mutable state of an interacting particle system.

    Attributes
    ----------
    N, d : int
    states : (N, d) float64 array, the current particle positions
    t_index : int
        Step counter on the driving time grid.
    overflow_flag : bool
        Set once a step produced a non-finite coordinate; the stepping
        loop stops advancing the ensemble after that, so t_index is then
        the index of that step.
    scratch : (N, d) float64 array
        Write buffer for the next state, swapped with `states` after each
        step so no allocation happens in the loop.
    r2_block : (k, N) float64 array or None
        Squared particle norms, np.sum(x * x, axis=-1), of the states
        after steps t_index - k + 1 .. t_index: the steps run since the
        callbacks of mvsde.scheme.simulate last observed. simulate fills it
        only when a callback observes every step; None otherwise. A
        StateRecorder does not read the ensemble: simulate writes the
        states it keeps into the recorder's own array.
    """

    __slots__ = ("N", "d", "states", "t_index", "overflow_flag", "scratch",
                 "r2_block")

    def __init__(self, states):
        states = np.array(states, dtype=np.float64, order="C", copy=True)
        if states.ndim != 2:
            raise ValueError("states must be (N, d)")
        self.N, self.d = states.shape
        self.states = states
        self.t_index = 0
        self.overflow_flag = False
        self.scratch = np.empty_like(states)
        self.r2_block = None

    def swap_buffers(self):
        self.states, self.scratch = self.scratch, self.states

    def __repr__(self):
        return ("ParticleEnsemble(N=%d, d=%d, t_index=%d, overflow=%s)"
                % (self.N, self.d, self.t_index, self.overflow_flag))


def moments_from_r2(r2, p):
    """p-th empirical moments from squared particle norms.

    r2 is a (k, N) array with one row of squared norms per ensemble state:
    every entry is >= 0, +inf or nan. p must be finite and > 0. Returns
    the (k,) array whose entry i is (1/N) sum_j |X^j|^p for state i: the
    correctly rounded sum of np.power(np.sqrt(r2[i]), p), divided by N. A
    row with a non-finite norm (an overflowed ensemble) gives inf, and so
    does a row whose p-th power sum exceeds the float range. On that
    domain a row sum is nan exactly when the row holds a nan (an inf norm
    alone sums to +inf, and the powers of finite norms are >= 0 or +inf),
    so mapping the nan sums to inf covers every non-finite norm without a
    pass over the block.
    """
    p = _moment_order(p)
    r2 = np.asarray(r2, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.sqrt(r2)
        np.power(w, p, out=w)
    sums = _core.kernels.fsum_rows(w)
    sums[np.isnan(sums)] = math.inf
    return sums / r2.shape[1]


def _moment_order(p):
    """p as a float; ValueError unless it is finite and > 0."""
    p = float(p)
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError("the moment order p must be finite and > 0, got %r"
                         % (p,))
    return p


def _fmt(v):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return "%.17g" % v


def snapshot_csv(ens, path_or_file, t):
    """Write the ensemble to CSV with a `# t=<t> N=<N> d=<d>` header.

    One row per particle, d columns, full float64 precision; non-finite
    values use the sentinels inf/-inf/nan.
    """
    states = ens.states
    header = "# t=%s N=%d d=%d\n" % (_fmt(float(t)), ens.N, ens.d)
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        fh.write(header)
        for i in range(ens.N):
            fh.write(",".join(_fmt(v) for v in states[i]))
            fh.write("\n")
    finally:
        if own:
            fh.close()
