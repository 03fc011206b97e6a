"""Deterministic Brownian increment tables with exact refinement.

Every particle owns a counter-based Philox4x64-10 stream keyed by (seed,
particle index), so the table's contents depend only on (seed, N, l, T,
n_max) and never on evaluation order, thread count, or which subsets are
requested. Two kernels of mvsde._core.kernels draw a table. First
philox_uniforms draws the streams of all particles into one (S, N, l)
block: in C with the GIL released on the compiled backend, by re-keying
numpy.random.Philox per stream on the numpy one, with the same bits. Then
quantized_increments turns the block into increments in place: the
floor, the inverse normal CDF (Cephes ndtri in C, scipy.special.ndtri on
the numpy backend, the same bits), the scale to the finest step and the
snap to the grid 2^-26 Z, in one C pass or in NumPy passes. They are
elementwise, so each value is what a per-stream draw gives.

Quantized increments at the finest level are integer multiples of 2^-26
below 8.3 / sqrt(n_max) + 2^-27 in magnitude, so a sum of r <= n_max of
them stays below 8.3 sqrt(r) + r 2^-27 < 2^16, far inside the 2^27 up to
which such multiples are exact in float64: coarse-level increments (sums
of consecutive finest ones) are exact and independent of summation order,
which makes refinement couplings reproducible to the bit.

Levels n must divide n_max; the increment at level n for step k is the sum
of the n_max/n finest increments it covers. level_increments sums them in
NumPy, which is what scheme.step reads; on the C backend scheme.simulate
hands the fused kernel the finest rows instead, and the kernel adds each
step's rows itself, with the same bits. The finest level is a read-only
view of the table, which holds no -0.0, so it has the bits the
identity-started sum gives. On [0, T] the finest table has n_max*T rows
per particle. make_tableau refuses a table above ELEMENT_CAP float64
values and allocates nothing; the whole (S, N, l) block is drawn on first
read, by level_increments, and kept on the handle. A run whose model has
no noise never reads its table, so it draws none.
"""

import math

import numpy as np

from . import _core
from ._core.pairwise_py import U_FLOOR, power
from .model import whole_number

# key whitening for the initial-condition streams
_INIT_SALT = 0x9E3779B97F4A7C15
# largest stored table, in float64 values (128 MiB)
ELEMENT_CAP = 2 ** 24


class BrownianTableau:
    """Handle to a deterministic table of Brownian increments.

    Attributes
    ----------
    seed : int
    N : int
        Number of particle streams.
    l : int
        Noise dimension per particle.
    T : float
        Time horizon; n_max * T must be a whole number of steps.
    n_max : int
        Finest level; increments at the finest level have variance 1/n_max
        (up to quantization).
    """

    __slots__ = ("seed", "N", "l", "T", "n_max", "total_steps", "_store")

    def __init__(self, seed, N, l, T, n_max):
        self.seed = whole_number(seed, "seed")
        self.N = whole_number(N, "N")
        self.l = whole_number(l, "l")
        self.T = float(T)
        self.n_max = whole_number(n_max, "n_max")
        if self.N < 1 or self.l < 1 or self.n_max < 1:
            raise ValueError("N, l, n_max must be >= 1")
        self.total_steps = _whole_steps(self.n_max, self.T)
        self._store = None

    def __repr__(self):
        return ("BrownianTableau(seed=%d, N=%d, l=%d, T=%g, n_max=%d)"
                % (self.seed, self.N, self.l, self.T, self.n_max))


def _whole_steps(n, T):
    try:
        steps = n * T
    except OverflowError:  # an int n beyond the float range
        steps = math.inf
    # a non-finite count is no whole number (and round() would raise)
    rounded = round(steps) if math.isfinite(steps) else 0
    if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
        raise ValueError("n*T must be a positive whole number of steps, "
                         "got n=%s T=%s" % (n, T))
    return rounded


def make_tableau(seed, N, l, T, n_max):
    """Create a Brownian increment table, drawn on first read.

    The arguments are checked here, the increments drawn by the first
    level_increments call and kept on the handle for the calls after it.
    The draw is deterministic, so the values do not depend on when, or by
    which thread, the table is first read; every driver gives each
    repetition its own table, and two threads that raced on a first read
    would store the same bits.

    Parameters
    ----------
    seed : int
        Stream seed; tables with equal (seed, N, l, T, n_max) hold equal
        values, and the first N' < N particle streams coincide with those
        of a smaller table.
    N, l : int
        Particle count and noise dimension.
    T : float
        Horizon; n_max * T must be integral.
    n_max : int
        Finest level.

    Returns
    -------
    BrownianTableau

    Raises
    ------
    ValueError
        When seed, N, l or n_max is no whole number (model.whole_number)
        or the table would hold more than ELEMENT_CAP values
        (n_max * T * N * l); nothing is allocated then.
    """
    tab = BrownianTableau(seed, N, l, T, n_max)
    elements = tab.total_steps * tab.N * tab.l
    if elements > ELEMENT_CAP:
        raise ValueError(
            "Brownian tableau needs %d stored values (n_max*T*N*l), above "
            "the cap of %d; lower N, T or n_max" % (elements, ELEMENT_CAP))
    return tab


def _draw(tab):
    """The finest increments of tab: a read-only (S, N, l) float64 block."""
    kernels = _core.kernels
    store = kernels.philox_uniforms(tab.seed, (tab.total_steps, tab.N, tab.l))
    # no entry is -0.0: level_increments returns the finest level unsummed
    kernels.quantized_increments(store, math.sqrt(1.0 / tab.n_max))
    store.flags.writeable = False
    return store


def _level_ratio(tab, n):
    n = whole_number(n, "level n")
    if n < 1 or tab.n_max % n != 0:
        raise ValueError("level n=%d must divide n_max=%d" % (n, tab.n_max))
    _whole_steps(n, tab.T)
    return tab.n_max // n


def level_increments(tab, n, step_lo=0, step_hi=None):
    """Increments for all particles at level n: (steps, N, l) block.

    Sums of quantized finest increments are exact, so the result does not
    depend on reduction order. At the finest level (n == n_max) the block
    is a read-only view of the table. The first call draws the table.
    """
    r = _level_ratio(tab, n)
    steps = _whole_steps(n, tab.T)
    if step_hi is None:
        step_hi = steps
    if not 0 <= step_lo <= step_hi <= steps:
        raise ValueError("step window out of range at level n=%d" % n)
    store = tab._store
    if store is None:
        store = tab._store = _draw(tab)
    block = store[step_lo * r:step_hi * r]
    if r == 1:
        return block
    return block.reshape(step_hi - step_lo, r, tab.N, tab.l).sum(axis=1)


def initial_law(kind="point", center=0.0, scale=1.0, radius=1.0):
    """Description of an initial condition sampler.

    kind "point": all particles at `center`;
    kind "gaussian": center + scale * Z, Z standard normal;
    kind "uniform_ball": uniform in the ball of given radius around center.
    """
    if kind not in ("point", "gaussian", "uniform_ball"):
        raise ValueError("unknown initial law kind %r" % (kind,))
    return dict(kind=kind, center=center, scale=float(scale),
                radius=float(radius))


def parse_initial(text):
    """Parse an initial-law string: kind followed by its numbers.

    "point 3.0"          point mass at 3.0
    "gaussian 0.0 1.0"   center 0.0, scale 1.0
    "uniform_ball 0.0 2.0"  center 0.0, radius 2.0

    Missing numbers default to center 0, scale/radius 1. A non-finite
    number, a second number for a point mass and a negative scale or
    radius are refused.
    """
    parts = str(text).split()
    if not parts:
        raise ValueError("empty initial-law string")
    kind = parts[0]
    try:
        nums = [float(s) for s in parts[1:]]
    except ValueError:
        raise ValueError("non-numeric value in initial law %r" % (text,))
    if len(nums) > 2:
        raise ValueError("initial law %r has too many values" % (text,))
    if not all(map(math.isfinite, nums)):
        raise ValueError("initial law %r has a non-finite value" % (text,))
    if kind == "point" and len(nums) > 1:
        raise ValueError("initial law %r: a point mass takes one value, "
                         "its center" % (text,))
    center = nums[0] if nums else 0.0
    spread = nums[1] if len(nums) > 1 else 1.0
    name = "radius" if kind == "uniform_ball" else "scale"
    law = initial_law(kind, center=center, **{name: spread})
    if spread < 0.0:
        raise ValueError("initial law %r has a negative %s" % (text, name))
    return law


def sample_initial(tab, n_particles, d, law):
    """Draw initial particle states from the tableau's init streams.

    Each particle uses its own keyed stream (independent of the Brownian
    streams), so the first n_particles draws agree across runs that share
    a seed regardless of ensemble size. A gaussian particle takes d draws
    through the inverse normal CDF; a uniform_ball particle takes d + 1,
    the direction from the first d and the radius from the last.

    Returns
    -------
    (n_particles, d) float64 array
    """
    if n_particles > tab.N:
        raise ValueError("n_particles=%d exceeds tableau N=%d"
                         % (n_particles, tab.N))
    kind = law["kind"]
    center = np.broadcast_to(np.asarray(law.get("center", 0.0),
                                        dtype=np.float64), (d,))
    if kind == "point":
        out = np.empty((n_particles, d))
        out[:] = center
        return out
    draws = d if kind == "gaussian" else d + 1
    u = _core.kernels.philox_uniforms(tab.seed ^ _INIT_SALT,
                                      (1, n_particles, draws))[0]
    np.maximum(u, U_FLOOR, out=u)
    if kind == "gaussian":
        return center + law["scale"] * _core.kernels.ndtri(u, out=u)
    z = _core.kernels.ndtri(u[:, :d])
    nrm = np.sqrt(np.sum(z * z, axis=-1))
    at_origin = nrm == 0.0
    with np.errstate(invalid="ignore"):
        direction = z / nrm[:, None]
    direction[at_origin] = 0.0
    direction[at_origin, 0] = 1.0
    # the one power rule: libm pow, which np.power may differ from in the
    # last bit (u itself at d = 1)
    reach = law["radius"] * power(u[:, d], 1.0 / d)
    return center + reach[:, None] * direction
