"""Particle ensemble state and empirical-measure statistics.

Reductions over particles (moments, center of mass, distance to the
origin) go through math.fsum, which returns the exactly rounded sum of its
inputs. Exact rounding makes the results invariant under particle
relabeling to the last bit, which is the exchangeability contract the
tests pin down.
"""

import math

import numpy as np


class EmpiricalMeasure:
    """Uniform empirical measure carried by an atom array (M, d)."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        self.atoms = np.asarray(atoms, dtype=np.float64)

    def mean(self):
        return self.atoms.mean(axis=0)

    def __len__(self):
        return self.atoms.shape[0]


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
        loop stops advancing the ensemble after that.
    diverged_step : int or None
        Index of the step that produced the first non-finite coordinate.
    scratch : (N, d) float64 array
        Write buffer for the next state, swapped with `states` after each
        step so no allocation happens in the loop.
    """

    __slots__ = ("N", "d", "states", "t_index", "overflow_flag",
                 "diverged_step", "scratch")

    def __init__(self, states):
        states = np.array(states, dtype=np.float64, order="C", copy=True)
        if states.ndim != 2:
            raise ValueError("states must be (N, d)")
        self.N, self.d = states.shape
        self.states = states
        self.t_index = 0
        self.overflow_flag = False
        self.diverged_step = None
        self.scratch = np.empty_like(states)

    def swap_buffers(self):
        self.states, self.scratch = self.scratch, self.states

    def measure(self):
        return EmpiricalMeasure(self.states)

    def __repr__(self):
        return ("ParticleEnsemble(N=%d, d=%d, t_index=%d, overflow=%s)"
                % (self.N, self.d, self.t_index, self.overflow_flag))


def particle_norms(states):
    """Euclidean norm per particle: (N,) array (inf after overflow)."""
    states = np.asarray(states, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.sum(states * states, axis=-1))


def empirical_moment(ens, p):
    """p-th moment of the empirical measure: (1/N) sum_i |X^i|^p.

    Exactly rounded over particles, so invariant under relabeling.
    Returns inf when the ensemble overflowed.
    """
    states = ens.states if hasattr(ens, "states") else np.asarray(ens)
    norms = particle_norms(states)
    if not np.all(np.isfinite(norms)):
        return float("inf")
    with np.errstate(over="ignore"):
        return math.fsum(np.power(norms, p)) / norms.shape[0]


def w2_to_origin(ens):
    """Quadratic Wasserstein distance from the empirical measure to delta_0.

    Equals the root mean squared particle norm.
    """
    states = ens.states if hasattr(ens, "states") else np.asarray(ens)
    norms = particle_norms(states)
    if not np.all(np.isfinite(norms)):
        return float("inf")
    return math.sqrt(math.fsum(norms * norms) / norms.shape[0])


def center_of_mass(ens):
    """Exactly rounded per-component particle average: (d,) array."""
    states = ens.states if hasattr(ens, "states") else np.asarray(ens)
    n, d = states.shape
    return np.array([math.fsum(states[:, c]) for c in range(d)]) / n


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
