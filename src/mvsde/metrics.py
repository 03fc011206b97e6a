"""Wasserstein distances between empirical measures and rate fitting.

Three W2 routes with different cost/assumption trade-offs:

  sorted_1d        exact in one dimension via sorted (quantile) coupling;
                   handles unequal atom counts through the common
                   refinement of quantile levels.
  exact_assignment exact in any dimension for equal atom counts, solving
                   the assignment problem on the squared-distance matrix;
                   guarded by an atom-count cap. The only route that
                   needs SciPy, which it imports on first use.
  sliced           Monte Carlo average of one-dimensional distances over
                   seeded random projections; returns a standard error
                   alongside the value via w2_sliced.

Squared costs are accumulated and a single square root is taken at the
end, so the routes agree on common ground (sorted_1d equals
exact_assignment in one dimension, sliced with d = 1 projections reduces
to sorted_1d exactly).
"""

import math
from dataclasses import dataclass, field

import numpy as np

W2_METHODS = ("sorted_1d", "exact_assignment", "sliced")
EXACT_ASSIGNMENT_CAP = 512


def _coerce(a):
    atoms = np.asarray(getattr(a, "states", a), dtype=np.float64)
    if atoms.ndim == 1:
        atoms = atoms[:, None]
    if atoms.ndim != 2 or atoms.shape[0] < 1:
        raise ValueError("measure atoms must be a nonempty (M, d) array")
    return atoms


def _w2_1d_sq(u, v):
    """Squared W2 between 1-d samples (possibly different counts)."""
    u = np.sort(np.asarray(u, dtype=np.float64).ravel())
    v = np.sort(np.asarray(v, dtype=np.float64).ravel())
    m, n = u.shape[0], v.shape[0]
    if m == n:
        diff = u - v
        return math.fsum(diff * diff) / m
    # piecewise-constant quantile functions: integrate over the common
    # refinement of the level breakpoints
    edges = np.union1d(np.arange(1, m) / m, np.arange(1, n) / n)
    edges = np.concatenate(([0.0], edges, [1.0]))
    lens = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    iu = np.minimum((mids * m).astype(np.intp), m - 1)
    iv = np.minimum((mids * n).astype(np.intp), n - 1)
    diff = u[iu] - v[iv]
    return float(np.sum(lens * diff * diff))


def w2_sliced(a, b, n_projections=64, seed=2024):
    """Sliced quadratic Wasserstein estimate.

    Projects both atom clouds on n_projections directions drawn uniformly
    on the sphere from a seeded generator, averages the squared
    one-dimensional distances and reports the Monte Carlo standard error
    propagated to the returned root.

    Returns
    -------
    (value, stderr) : pair of floats
    """
    a = _coerce(a)
    b = _coerce(b)
    d = a.shape[1]
    if b.shape[1] != d:
        raise ValueError("dimension mismatch: %d vs %d" % (d, b.shape[1]))
    gen = np.random.default_rng(seed)
    sq = np.empty(int(n_projections))
    for k in range(int(n_projections)):
        z = gen.standard_normal(d)
        nrm = math.sqrt(float(np.sum(z * z)))
        while nrm == 0.0:
            z = gen.standard_normal(d)
            nrm = math.sqrt(float(np.sum(z * z)))
        direction = z / nrm
        sq[k] = _w2_1d_sq(a @ direction, b @ direction)
    mean_sq = float(np.mean(sq))
    value = math.sqrt(mean_sq)
    if n_projections > 1 and value > 0.0:
        se_sq = float(np.std(sq, ddof=1)) / math.sqrt(int(n_projections))
        stderr = se_sq / (2.0 * value)
    else:
        stderr = 0.0
    return value, stderr


def w2(a, b, method="sorted_1d", n_projections=64, seed=2024,
       cap=EXACT_ASSIGNMENT_CAP):
    """Quadratic Wasserstein distance between two empirical measures.

    Parameters
    ----------
    a, b : (M, d) array or ParticleEnsemble
    method : str
        One of W2_METHODS.
    n_projections, seed : sliced-method controls
    cap : int
        Atom-count bound for exact_assignment (the assignment solve is
        cubic in the count).

    Returns
    -------
    float
    """
    if method not in W2_METHODS:
        raise ValueError("unknown W2 method %r; known: %s"
                         % (method, ", ".join(W2_METHODS)))
    a = _coerce(a)
    b = _coerce(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("dimension mismatch: %d vs %d"
                         % (a.shape[1], b.shape[1]))
    if method == "sorted_1d":
        if a.shape[1] != 1:
            raise ValueError("sorted_1d needs d == 1, got d=%d"
                             % a.shape[1])
        return math.sqrt(_w2_1d_sq(a, b))
    if method == "exact_assignment":
        if a.shape[0] != b.shape[0]:
            raise ValueError("exact_assignment needs equal atom counts, "
                             "got %d and %d" % (a.shape[0], b.shape[0]))
        if a.shape[0] > cap:
            raise ValueError("exact_assignment capped at %d atoms, got %d"
                             % (cap, a.shape[0]))
        # imported here so that no other route loads SciPy
        from . import _import_on_one_blas_thread as load

        cost = load("scipy.spatial.distance").cdist(a, b,
                                                    metric="sqeuclidean")
        rows, cols = load("scipy.optimize").linear_sum_assignment(cost)
        return math.sqrt(math.fsum(cost[rows, cols]) / a.shape[0])
    value, _ = w2_sliced(a, b, n_projections=n_projections, seed=seed)
    return value


@dataclass
class RateFit:
    """Least-squares power-law fit y = exp(intercept) * x**slope.

    The fields are declared in the order a report writes them.
    """

    slope: float = float("nan")
    intercept: float = float("nan")
    r_squared: float = float("nan")
    points: list = field(default_factory=list)


def _libm_log(values):
    # libm log per element: NumPy's vectorised log is not libm's on every
    # CPU, and a fit takes only a few dozen values
    return np.array([math.log(v) for v in values.tolist()])


def fit_semilog(xs, ys):
    """Least-squares line through (xs, log ys).

    Returns
    -------
    (slope, intercept, r_squared) : floats
    """
    x = np.asarray(xs, dtype=np.float64)
    y = _libm_log(np.asarray(ys, dtype=np.float64))
    mx = float(np.mean(x))
    my = float(np.mean(y))
    vx = float(np.sum((x - mx) ** 2))
    if vx == 0.0:
        raise ValueError("all x values coincide; slope is undefined")
    slope = float(np.sum((x - mx) * (y - my))) / vx
    intercept = my - slope * mx
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - my) ** 2))
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res <= 1e-24 else 0.0
    return slope, intercept, r_squared


def fit_loglog_slope(xs, ys):
    """Fit a power law through (xs, ys) by least squares in log-log.

    Points with non-positive or non-finite coordinates are dropped; at
    least two surviving points are required.

    Returns
    -------
    RateFit
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    keep = np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)
    if int(keep.sum()) < 2:
        raise ValueError("need at least two positive finite points, "
                         "got %d" % int(keep.sum()))
    slope, intercept, r_squared = fit_semilog(_libm_log(xs[keep]),
                                              ys[keep])
    points = [(float(a), float(b)) for a, b in zip(xs[keep], ys[keep])]
    return RateFit(points=points, slope=slope, intercept=intercept,
                   r_squared=r_squared)
