"""Experiment drivers: rate fits, stability contrasts, contraction runs.

Four drivers turn the particle scheme into structured reports:

run_strong_rate
    time-step self-convergence on a dyadic level chain, every level
    coupled to the finest one through a shared Brownian tableau
run_poc_rate
    particle-count convergence against a larger reference system that
    shares the Brownian streams and initial draws of the first N
    particles (the independent-copies system whose one-particle law the
    sharp statements couple against is not simulable, so the coupled
    reference is always the larger particle system itself)
run_moment_stability
    tamed versus plain Euler arms on a deliberately coarse grid,
    tracking the running p0-moment and any divergence step
run_ergodic_contraction
    synchronous coupling of two initial laws under the ergodic taming
    variant, with an exponential fit of the W2 decay

Every driver writes <name>_errors.csv (columns level, error, stderr,
diverged_count) and <name>_report.json into cfg.out_dir and returns a
report object. Reports embed the resolved config, the package version
and the pairwise backend, but never timestamps or the thread count, so
a rerun with the same config and seed is byte-identical at any
parallelism level. Monte Carlo repetition m runs on seed + m; reps are
independent tasks, run on min(threads, reps) worker threads that each
hold one of the process's allowed CPUs (_map_reps), and merged in index
order; report assembly is single-threaded.

Each driver first validates its config through config.validate, the
rule set make_config and parse_config apply, so a config they would
refuse (including one whose assumption constants put the step size
outside the contraction regime) raises ConfigError before anything is
written.
"""

import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import rng as rng_mod
from . import _core
from ._core.pairwise_py import power
from ._version import VERSION
from .config import theoretical_constants, validate
from .ensemble import snapshot_csv
from .metrics import fit_loglog_slope, fit_semilog, w2
from .model import make_model
from .rng import _whole_steps, make_tableau, parse_initial
from .scheme import MomentTracker, StateRecorder, simulate
from .taming import TamedModel

# particle norm beyond which a run counts as diverged even while finite
DIVERGENCE_NORM = 1e10


def _warn_p_range(kind, p, p0, q):
    # rate guarantees hold for p <= p0/(3q+1) (time-step rate) and
    # p <= 2 p0/(q+1) (particle rate); warn outside, never refuse
    if kind == "strong_rate":
        limit = p0 / (3.0 * q + 1.0)
        label = "p <= p0/(3q+1)"
    else:
        limit = 2.0 * p0 / (q + 1.0)
        label = "p <= 2p0/(q+1)"
    if p > limit:
        warnings.warn(
            "p = %g exceeds the guaranteed range %s = %g for p0 = %g, "
            "q = %g; the fitted rate may degrade" % (p, label, limit,
                                                     p0, q),
            stacklevel=2)


@dataclass
class RateReport:
    """Per-level errors with a log-log rate fit and verdict booleans."""

    kind: str
    levels: list
    errors: list
    stderrs: list
    diverged: list
    fit: object
    verdict: dict
    config: dict
    csv_path: str = ""
    json_path: str = ""


@dataclass
class StabilityReport:
    """Tamed and plain arms: running-moment sup and divergence step."""

    kind: str
    arms: list
    sup_moments: list
    stderrs: list
    diverged: list
    divergence_steps: list
    series: dict
    verdict: dict
    config: dict
    csv_path: str = ""
    json_path: str = ""


@dataclass
class ErgodicReport:
    """Coupled W2 decay series, exponential fit, stabilization checks."""

    kind: str
    times: list
    w2: list
    stderrs: list
    diverged: int
    decay_rate: object
    r_squared: object
    w2_first: float
    w2_last: float
    stabilization: list
    constants: object
    verdict: dict
    config: dict
    csv_path: str = ""
    json_path: str = ""


def _config_echo(cfg):
    # every config field in declaration order, except threads and
    # out_dir: neither may change a byte of the report
    echo = {}
    for f in fields(cfg):
        if f.name in ("threads", "out_dir"):
            continue
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = list(v)
        elif isinstance(v, dict):
            v = {k: v[k] for k in sorted(v)}
        echo[f.name] = v
    echo["software_version"] = VERSION
    echo["backend"] = _core.backend_name()
    return echo


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _json_text(v, out, pad):
    """Append to out the text json.dump(v, indent=2) writes for v at the
    indentation pad (a newline and the spaces of v's nesting level), with
    the report conversions: NumPy integers and floats as Python numbers, a
    dataclass as the dict of its fields in declaration order, dict keys as
    str(key), tuples as lists, and a non-finite float as its repr string
    ("inf", "-inf", "nan"). A list of finite floats is written by one
    repr_join; json writes each of them as float.__repr__ too."""
    if isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        # keys that are equal as strings make one, as json.dump gives them
        for key, x in {str(k): x for k, x in v.items()}.items():
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _json_text(x, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = pad + "  "
        # a finite sum of floats means no term was inf or nan
        if set(map(type, v)) == {float} and math.isfinite(sum(v)):
            out.append("[" + inner + _core.kernels.repr_join(v, "," + inner)
                       + pad + "]")
            return
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _json_text(x, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(v, (float, np.floating)):
        v = float(v)
        out.append(float.__repr__(v) if math.isfinite(v)
                   else _quote(repr(v)))
    elif isinstance(v, str):
        out.append(_quote(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, (int, np.integer)):
        out.append(int.__repr__(int(v)))
    elif is_dataclass(v):
        _json_text({f.name: getattr(v, f.name) for f in fields(v)}, out,
                   pad)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(v).__name__)


def _write_json(path, body):
    """Write body and a newline to path, as json.dump(body, indent=2) with
    the conversions of _json_text."""
    out = []
    _json_text(body, out, "\n")
    out.append("\n")
    with open(path, "w") as fh:
        fh.write("".join(out))


def _emit(cfg, report, rows):
    """Write <kind>_errors.csv and <kind>_report.json under out_dir.

    The JSON holds the report's fields in declaration order without the
    *_path fields, which are set here.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    report.csv_path = os.path.join(cfg.out_dir, report.kind + "_errors.csv")
    report.json_path = os.path.join(cfg.out_dir,
                                    report.kind + "_report.json")
    with open(report.csv_path, "w") as fh:
        fh.write("level,error,stderr,diverged_count\n")
        for level, err, se, cnt in rows:
            fh.write("%s,%s,%s,%d\n" % (_cell(level), _cell(err),
                                        _cell(se), int(cnt)))
    body = {f.name: getattr(report, f.name) for f in fields(report)
            if not f.name.endswith("_path")}
    _write_json(report.json_path, body)


def _map_reps(worker, reps, threads):
    """worker(m) for m in range(reps), results merged in index order.

    Runs inline with one worker, else on min(threads, reps) threads,
    worker thread k pinned to the k-th CPU the calling thread may use
    (round-robin past the last), since a scheduler that does not balance
    load leaves every thread on the CPU that created it. Where the OS
    cannot pin a thread, the workers stay unpinned.
    """
    workers = min(threads, reps)
    if workers <= 1:
        return [worker(m) for m in range(reps)]
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = ()
    slots = itertools.count()

    def pin():
        if cpus:
            try:
                os.sched_setaffinity(0, (cpus[next(slots) % len(cpus)],))
            except (AttributeError, OSError):
                pass

    with ThreadPoolExecutor(max_workers=workers, initializer=pin) as pool:
        return list(pool.map(worker, range(reps)))


def _aggregate_levels(results, n_levels, p):
    """Combine per-rep (mean |diff|^p, diverged) pairs per level.

    error(level) = [mean over surviving reps of the per-rep particle
    means]^(1/p); stderr is the sample deviation of the per-rep
    p-th-root values over sqrt(reps).
    """
    errors, stderrs, diverged = [], [], []
    for i in range(n_levels):
        vals = [rep[i][0] for rep in results if rep[i][1] == 0]
        diverged.append(sum(rep[i][1] for rep in results))
        if not vals:
            errors.append(float("inf"))
            stderrs.append(float("inf"))
            continue
        errors.append(float(np.mean(vals)) ** (1.0 / p))
        roots = [v ** (1.0 / p) for v in vals]
        if len(roots) > 1:
            stderrs.append(float(np.std(roots, ddof=1))
                           / math.sqrt(len(roots)))
        else:
            stderrs.append(0.0)
    return errors, stderrs, diverged


def _rate_verdict(xs, errors, diverged, cfg):
    """Fit and verdict shared by the two rate drivers."""
    total_div = sum(diverged)
    finite = [e for e in errors if math.isfinite(e)]
    if finite and all(e == 0.0 for e in finite):
        verdict = {"status": "degenerate", "slope_in_band": None,
                   "r2_ok": None, "no_divergence": total_div == 0}
        return None, verdict
    try:
        fit = fit_loglog_slope(xs, errors)
    except ValueError:
        verdict = {"status": "fail" if total_div else "degenerate",
                   "slope_in_band": None, "r2_ok": None,
                   "no_divergence": total_div == 0}
        return None, verdict
    slope_ok = cfg.slope_lo <= fit.slope <= cfg.slope_hi
    r2_ok = fit.r_squared >= cfg.r2_min
    no_div = total_div == 0
    status = "pass" if (slope_ok and r2_ok and no_div) else "fail"
    verdict = {"status": status, "slope_in_band": slope_ok,
               "r2_ok": r2_ok, "no_divergence": no_div}
    return fit, verdict


def _rate_report(cfg, kind, levels, xs, results):
    """Aggregate, fit, report and emit: the tail of both rate drivers."""
    errors, stderrs, diverged = _aggregate_levels(results, len(levels),
                                                  cfg.p)
    fit, verdict = _rate_verdict(xs, errors, diverged, cfg)
    report = RateReport(kind=kind, levels=levels, errors=errors,
                        stderrs=stderrs, diverged=diverged, fit=fit,
                        verdict=verdict, config=_config_echo(cfg))
    _emit(cfg, report, zip(levels, errors, stderrs, diverged))
    return report


# a rate driver's entry for a level whose run, or whose reference, diverged
_DIVERGED = (None, 1)


def _coupled_error(path, ref, p, diverged):
    """A rate driver's (error, diverged) entry for one level: the gap
    between two coupled runs, path and ref, (steps, N, d) arrays of their
    states on a shared grid. Each particle's distance is its max over the
    grid of |path_k - ref_k|, and the entry is (mean over particles of
    its p-th power, 0), or _DIVERGED when the level's run diverged.

    strong-rate passes the level's grid, poc-rate the single terminal row
    of the probed particles. The square root comes after the max: sqrt is
    monotone and correctly rounded, so this is the max of the distances
    bit for bit, with N square roots instead of steps * N.
    """
    if diverged:
        return _DIVERGED
    sq = path - ref
    np.multiply(sq, sq, out=sq)
    # at d = 1, np.sum over the length-1 axis would return each square
    # unchanged
    dist = np.sqrt((sq[..., 0] if sq.shape[-1] == 1
                    else np.sum(sq, axis=-1)).max(axis=0))
    return float(np.mean(power(dist, p))), 0


def run_strong_rate(cfg):
    """Time-step self-convergence over a dyadic level chain.

    Within a repetition all levels and the n_max reference run on one
    Brownian tableau from one set of initial states, drawn once, so
    differences are pure discretization error. Per particle the error is
    the max over the level's own grid of the distance to the reference at
    the same times; error(n) = [mean over reps and particles of that max
    to the p]^(1/p), fitted against h = 1/n in log-log.

    Returns RateReport; emits strong_rate_errors.csv / _report.json.
    """
    validate(cfg, "strong-rate")
    model = make_model(cfg.family, d=cfg.d, l=cfg.l, params=cfg.params)
    levels = list(cfg.levels)
    n_max = cfg.n_max
    _warn_p_range("strong_rate", cfg.p, cfg.p0, model.q)
    law = parse_initial(cfg.initial)
    stride = n_max // max(levels)

    def one_rep(m):
        tab = make_tableau(cfg.seed + m, cfg.N, model.l, cfg.T, n_max)
        states = rng_mod.sample_initial(tab, cfg.N, model.d, law)
        # the reference's states on the finest level's grid
        rec = StateRecorder(range(0, tab.total_steps + 1, stride))
        ref = simulate(TamedModel(model, n_max, cfg.variant), tab, states,
                       callbacks=[rec])
        if ref.overflow_flag:
            return [_DIVERGED] * len(levels)
        out = []
        for n in levels:
            rec_c = StateRecorder(range(tab.total_steps // (n_max // n) + 1))
            ens = simulate(TamedModel(model, n, cfg.variant), tab, states,
                           callbacks=[rec_c])
            # level-n step j sits at fine recorded index j*(lmax/n)
            out.append(_coupled_error(rec_c.states,
                                      rec.states[::max(levels) // n],
                                      cfg.p, ens.overflow_flag))
        return out

    results = _map_reps(one_rep, cfg.reps, cfg.threads)
    return _rate_report(cfg, "strong_rate", levels,
                        [1.0 / n for n in levels], results)


def run_poc_rate(cfg):
    """Particle-count convergence against a coupled larger reference.

    The size-N run and the size-N_ref reference share initial draws and
    Brownian streams for the first N particles, so their gap estimates
    the particle-count error up to constants. error(N) aggregates the
    first min(N, probe_count) particles across reps; the fit is error
    versus N in log-log. Every family's coupling is a Vlasov kernel (see
    model), the structure of the sharp N^-1/2 rate, so every run gets pass
    or fail against the bands, or degenerate when every error is 0 (a
    family without interaction, whose prefix runs are the reference's).

    Returns RateReport; emits poc_rate_errors.csv / _report.json.
    """
    validate(cfg, "poc-rate")
    model = make_model(cfg.family, d=cfg.d, l=cfg.l, params=cfg.params)
    sizes = list(cfg.N_levels)
    _warn_p_range("poc_rate", cfg.p, cfg.p0, model.q)
    law = parse_initial(cfg.initial)
    tm = TamedModel(model, cfg.n, cfg.variant)

    def one_rep(m):
        # the initial states are drawn once, at N_ref; every size runs
        # from their prefix, which is what sample_initial draws for it
        tab = make_tableau(cfg.seed + m, cfg.N_ref, model.l, cfg.T, cfg.n)
        states = rng_mod.sample_initial(tab, cfg.N_ref, model.d, law)
        ref = simulate(tm, tab, states)
        if ref.overflow_flag:
            return [_DIVERGED] * len(sizes)
        out = []
        for size in sizes:
            ens = simulate(tm, tab, states[:size])
            # the terminal states of the probed particles, one grid row
            k = min(size, cfg.probe_count)
            out.append(_coupled_error(ens.states[None, :k],
                                      ref.states[None, :k], cfg.p,
                                      ens.overflow_flag))
        return out

    results = _map_reps(one_rep, cfg.reps, cfg.threads)
    return _rate_report(cfg, "poc_rate", sizes, sizes, results)


class _DivergenceTracker:
    """First step index outside the trust region (non-finite or huge).

    Each observe call takes the block of steps in ens.r2_block (see
    scheme.simulate). A state leaves the trust region when a squared norm
    is not <= DIVERGENCE_NORM**2: a non-finite state has an inf or nan one.
    """

    def __init__(self):
        self.step = None

    def observe(self, ens):
        if self.step is not None:
            return
        r2 = ens.r2_block
        bound = DIVERGENCE_NORM * DIVERGENCE_NORM
        # max propagates nan, so a nan fails the test as an inf does. One
        # max over the block is the fastest pass; the rows are looked at
        # only in the one block where a run leaves the trust region
        if r2.max() <= bound:
            return
        bad = np.flatnonzero(~(r2.max(axis=1) <= bound))
        self.step = ens.t_index - len(r2) + 1 + int(bad[0])


def run_moment_stability(cfg):
    """Tamed versus plain Euler arms on the same model and grid.

    Arm "tamed" uses cfg.variant from cfg.initial; arm "plain" runs
    taming off from cfg.initial_b. Both arms of a repetition share one
    Brownian tableau. Per arm the report carries the worst sup of the
    running p0-moment across reps, the count of diverged reps, the
    earliest divergence step (first step with a non-finite state or a
    particle norm above 1e10), and the repetition-0 moment series.
    Repetitions past the first carry only their sup: their trackers keep
    no series and evaluate only the steps that could raise the sup (see
    scheme.MomentTracker), which is exact, so every rep's sup is the max
    of its full series to the bit.

    Verdict: status is "pass" exactly when the tamed arm never
    diverged; "plain_diverged_within_bound" records whether the plain
    arm left the trust region by cfg.max_divergence_step.

    Returns StabilityReport; emits moment_stability_errors.csv /
    _report.json.
    """
    validate(cfg, "moment-stability")
    model = make_model(cfg.family, d=cfg.d, l=cfg.l, params=cfg.params)
    n = cfg.n
    law_a = parse_initial(cfg.initial)
    law_b = parse_initial(cfg.initial_b)
    arms = (("tamed", cfg.variant, law_a), ("plain", "off", law_b))

    def one_rep(m):
        tab = make_tableau(cfg.seed + m, cfg.N, model.l, cfg.T, n)
        res = []
        for label, variant, law in arms:
            tracker = MomentTracker(cfg.p0, series=m == 0)
            diverge = _DivergenceTracker()
            states = rng_mod.sample_initial(tab, cfg.N, model.d, law)
            simulate(TamedModel(model, n, variant), tab, states,
                     callbacks=[tracker, diverge])
            res.append((label, tracker.sup, diverge.step, tracker.values))
        return res

    results = _map_reps(one_rep, cfg.reps, cfg.threads)
    labels = [a[0] for a in arms]
    sups, stderrs, div_counts, div_steps = [], [], [], []
    series = {}
    for i, label in enumerate(labels):
        arm_sups = [rep[i][1] for rep in results]
        arm_steps = [rep[i][2] for rep in results if rep[i][2] is not None]
        sups.append(float(max(arm_sups)))
        finite = [s for s in arm_sups if math.isfinite(s)]
        if len(finite) == len(arm_sups) and len(finite) > 1:
            stderrs.append(float(np.std(finite, ddof=1))
                           / math.sqrt(len(finite)))
        else:
            stderrs.append(0.0)
        div_counts.append(len(arm_steps))
        div_steps.append(min(arm_steps) if arm_steps else None)
        moments = results[0][i][3]
        series[label] = {"t": [k / n for k in range(len(moments))],
                         "moment": moments}
    tamed_finite = div_counts[0] == 0 and math.isfinite(sups[0])
    plain_within = (div_steps[1] is not None
                    and div_steps[1] <= cfg.max_divergence_step)
    verdict = {"status": "pass" if tamed_finite else "fail",
               "tamed_finite": tamed_finite,
               "plain_diverged_within_bound": plain_within,
               "contrast": tamed_finite and div_counts[1] > 0}
    report = StabilityReport(kind="moment_stability", arms=labels,
                             sup_moments=sups, stderrs=stderrs,
                             diverged=div_counts,
                             divergence_steps=div_steps, series=series,
                             verdict=verdict, config=_config_echo(cfg))
    _emit(cfg, report, zip(labels, sups, stderrs, div_counts))
    return report


# fit window for the decaying segment: drop the initial transient and
# any points that have fallen to the synchronous-coupling float floor
_SEG_T_LO_FRAC = 0.125
_SEG_REL_FLOOR = 1e-12


def run_ergodic_contraction(cfg):
    """Synchronous coupling of two initial laws under ergodic taming.

    Both ensembles run on the same Brownian tableau; W2 between their
    empirical laws is recorded on a logarithmic time grid and fitted as
    log W2 ~ decay_rate * t over the decaying segment (times past
    T/8 whose W2 still exceeds 1e-12 of the initial value). The
    stabilization entries report W2 between the first ensemble's own
    empirical laws at times (t, 2t), a Cauchy-style diagnostic that the
    chain settles.

    Requires cfg.variant == "ergodic". With assumption constants in the
    config the report carries rho1, rho2, h_star beside them.

    Returns ErgodicReport; emits ergodic_errors.csv / _report.json.
    """
    validate(cfg, "ergodic")
    model = make_model(cfg.family, d=cfg.d, l=cfg.l, params=cfg.params)
    n = cfg.n
    T = cfg.T
    total = _whole_steps(n, T)
    constants = None
    if cfg.constants:
        constants = dict(cfg.constants)
        constants.update(theoretical_constants(cfg.constants))
    law_a = parse_initial(cfg.initial)
    law_b = parse_initial(cfg.initial_b)

    pair_specs = ((T / 20.0, T / 10.0), (T / 4.0, T / 2.0), (T / 2.0, T))
    pair_steps = []
    for t1, t2 in pair_specs:
        k1 = min(total, max(0, round(t1 * n)))
        k2 = min(total, max(0, round(t2 * n)))
        if k1 < k2:
            pair_steps.append((k1, k2))
    log_ks = np.rint(np.geomspace(1, total, 32)).astype(int)
    rec_steps = sorted(set([0, total]) | set(log_ks.tolist())
                       | set(k for pair in pair_steps for k in pair))

    def w2_cfg(a, b):
        return w2(a, b, method=cfg.method, n_projections=cfg.projections,
                  cap=cfg.cap)

    def one_rep(m):
        tab = make_tableau(cfg.seed + m, cfg.N, model.l, T, n)
        tm = TamedModel(model, n, cfg.variant)
        rec_a = StateRecorder(rec_steps)
        rec_b = StateRecorder(rec_steps)
        ens_a = simulate(tm, tab, rng_mod.sample_initial(
            tab, cfg.N, model.d, law_a), callbacks=[rec_a])
        ens_b = simulate(tm, tab, rng_mod.sample_initial(
            tab, cfg.N, model.d, law_b), callbacks=[rec_b])
        if ens_a.overflow_flag or ens_b.overflow_flag:
            return None
        idx = {k: j for j, k in enumerate(rec_a.recorded_steps)}
        curve = [w2_cfg(a, b) for a, b in zip(rec_a.states, rec_b.states)]
        stab = [w2_cfg(rec_a.states[idx[k1]], rec_a.states[idx[k2]])
                for k1, k2 in pair_steps]
        return curve, stab

    results = _map_reps(one_rep, cfg.reps, cfg.threads)
    kept = [r for r in results if r is not None]
    n_div = len(results) - len(kept)
    if not kept:
        raise ValueError("every repetition diverged; nothing to report")
    curves = np.asarray([r[0] for r in kept])
    stabs = np.asarray([r[1] for r in kept])
    w2_mean = curves.mean(axis=0)
    if curves.shape[0] > 1:
        w2_se = curves.std(axis=0, ddof=1) / math.sqrt(curves.shape[0])
    else:
        w2_se = np.zeros_like(w2_mean)
    times = [k / n for k in rec_steps]
    stab_entries = [{"t1": k1 / n, "t2": k2 / n,
                     "w2": float(stabs[:, j].mean())}
                    for j, (k1, k2) in enumerate(pair_steps)]

    w2_first = float(w2_mean[0])
    w2_last = float(w2_mean[-1])
    ts = np.asarray(times)
    ys = np.asarray(w2_mean)
    seg = (ts >= _SEG_T_LO_FRAC * T) & (ys > 0.0)
    if w2_first > 0.0:
        seg &= ys > _SEG_REL_FLOOR * w2_first
    decay_rate = None
    r_squared = None
    if np.all(ys == 0.0):
        verdict = {"status": "degenerate", "decay_negative": None,
                   "r2_ok": None, "ratio_ok": None,
                   "stabilization_decreasing": None}
    elif int(seg.sum()) < 2:
        verdict = {"status": "fail", "decay_negative": False,
                   "r2_ok": False, "ratio_ok": False,
                   "stabilization_decreasing": None}
    else:
        decay_rate, _, r_squared = fit_semilog(ts[seg], ys[seg])
        decay_neg = decay_rate < 0.0
        r2_ok = r_squared >= cfg.r2_min
        ratio_ok = w2_last < cfg.ratio_max * w2_first
        stab_dec = None
        if len(stab_entries) >= 2:
            stab_dec = stab_entries[-1]["w2"] < stab_entries[0]["w2"]
        status = "pass" if (decay_neg and r2_ok and ratio_ok) else "fail"
        verdict = {"status": status, "decay_negative": decay_neg,
                   "r2_ok": r2_ok, "ratio_ok": ratio_ok,
                   "stabilization_decreasing": stab_dec}
    report = ErgodicReport(kind="ergodic", times=times,
                           w2=[float(v) for v in w2_mean],
                           stderrs=[float(v) for v in w2_se],
                           diverged=n_div, decay_rate=decay_rate,
                           r_squared=r_squared, w2_first=w2_first,
                           w2_last=w2_last, stabilization=stab_entries,
                           constants=constants, verdict=verdict,
                           config=_config_echo(cfg))
    _emit(cfg, report, [(t, e, s, n_div) for t, e, s
                        in zip(times, report.w2, report.stderrs)])
    return report


def run_simulate(cfg):
    """Single simulation; writes the final snapshot and a small report.

    Returns a dict with the final p0-moment, the sup over time, the
    divergence step if any, and the paths written.
    """
    validate(cfg, "simulate")
    model = make_model(cfg.family, d=cfg.d, l=cfg.l, params=cfg.params)
    law = parse_initial(cfg.initial)
    tab = make_tableau(cfg.seed, cfg.N, model.l, cfg.T, cfg.n)
    tracker = MomentTracker(cfg.p0)
    diverge = _DivergenceTracker()
    ens = simulate(TamedModel(model, cfg.n, cfg.variant), tab,
                   rng_mod.sample_initial(tab, cfg.N, model.d, law),
                   callbacks=[tracker, diverge])
    os.makedirs(cfg.out_dir, exist_ok=True)
    snap_path = os.path.join(cfg.out_dir, "simulate_final.csv")
    snapshot_csv(ens, snap_path, ens.t_index / cfg.n)
    verdict = {"status": "pass" if diverge.step is None else "fail",
               "finite": diverge.step is None}
    body = {"kind": "simulate", "final_moment": tracker.values[-1],
            "sup_moment": tracker.sup,
            "divergence_step": diverge.step,
            "steps_run": int(ens.t_index), "verdict": verdict,
            "config": _config_echo(cfg)}
    json_path = os.path.join(cfg.out_dir, "simulate_report.json")
    _write_json(json_path, body)
    body["snapshot_path"] = snap_path
    body["json_path"] = json_path
    return body
