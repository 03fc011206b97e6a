"""Outside-in span tracer for the mvsde drivers.

The tracer never edits the package: it replaces the module and class
attributes that callers look up at call time (``mvsde.scheme.step`` is
what ``simulate`` calls, ``mvsde.experiments.simulate`` is what the
drivers call, ...) with thin wrappers, and puts the originals back on
``uninstall``. A hook whose target no longer exists is skipped, so the
metrics it feeds are absent rather than the run crashing.

A span is (name, start, end, parent, thread). Spans stay in per-thread
lists in memory; self time is a span's duration minus the durations of
its children on the same thread.
"""

import importlib
import statistics
import threading
import time

DRIVER = "experiments"
SIMULATE = "scheme.simulate"
PAIR = "core.pair_aggregate"
STEP = "scheme.step"


def _count_simulate(counts, args, result):
    counts["particle_steps"].append(result.N * result.t_index)
    counts["overflowed"].append(1 if result.overflow_flag else 0)


def _count_tableau(counts, args, result):
    counts["elements"].append(result.total_steps * result.N * result.l)


def _count_pairs(counts, args, result):
    kf1, kfq, cg = args[1], args[2], args[4]
    if kf1 == 0.0 and kfq == 0.0 and cg == 0.0:
        counts["short_circuits"].append(1)
    else:
        n = args[0].shape[0]
        counts["pair_evals"].append(n * n)


def _count_step(counts, args, result):
    counts["particle_steps"].append(args[0].N)


def _count_recorder(counts, args, result):
    rec, ens = args[0], args[1]
    # steps are observed in increasing order, so the last recorded step
    # equals the current one exactly when this call made a copy
    if rec.recorded_steps and rec.recorded_steps[-1] == ens.t_index:
        counts["bytes_copied"].append(rec.states[-1].nbytes)


# (span name, module, attribute path, counter, counter names). The
# attribute path may index a dict with [key]; "{command}" is filled in
# with the CLI subcommand.
ALL_HOOKS = (
    (DRIVER, "mvsde.cli", "_EXPERIMENT_RUNNERS[{command}]", None, ()),
    ("experiments.map_reps", "mvsde.experiments", "_map_reps", None, ()),
    ("rng.make_tableau", "mvsde.experiments", "make_tableau",
     _count_tableau, ("elements",)),
    (SIMULATE, "mvsde.experiments", "simulate", _count_simulate,
     ("particle_steps", "overflowed")),
    ("rng.sample_initial", "mvsde.rng", "sample_initial", None, ()),
    ("rng.level_increments", "mvsde.rng", "level_increments", None, ()),
    (STEP, "mvsde.scheme", "step", _count_step, ("particle_steps",)),
    (PAIR, "mvsde.scheme", "pair_aggregate", _count_pairs,
     ("short_circuits", "pair_evals")),
    ("scheme.MomentTracker.observe", "mvsde.scheme",
     "MomentTracker.observe", None, ()),
    ("experiments.DivergenceTracker.observe", "mvsde.experiments",
     "_DivergenceTracker.observe", None, ()),
    ("scheme.StateRecorder.observe", "mvsde.scheme",
     "StateRecorder.observe", _count_recorder, ("bytes_copied",)),
    ("metrics.fit_loglog_slope", "mvsde.experiments", "fit_loglog_slope",
     None, ()),
)

# the untraced passes keep only the simulate hook, which counts particle
# steps from each returned ensemble (a few dozen calls per run)
COUNT_HOOKS = tuple(h for h in ALL_HOOKS if h[0] == SIMULATE)


def _resolve(module, path):
    """(owner, key) for a dotted path whose last part may be [key]."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    last = parts[-1]
    if "[" in last:
        attr, key = last[:-1].split("[", 1)
        owner = getattr(owner, attr)
        if key not in owner:
            raise KeyError(key)
        return owner, key
    if not hasattr(owner, last):
        raise AttributeError(last)
    return owner, last


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Installs span-recording wrappers and aggregates what they saw."""

    def __init__(self, hooks, command):
        self._hooks = hooks
        self._command = command
        self._tls = threading.local()
        self._threads = []  # (thread id, span list), one per thread
        self._patches = []  # (owner, key, original)
        self.installed = []
        self.missing = []
        self.counts = {}  # span name -> counter name -> list of ints
        # hooks whose counter failed on the package's objects; their
        # counts are dropped rather than reported partially
        self.broken = set()

    def install(self):
        for name, module, path, counter, counter_names in self._hooks:
            try:
                owner, key = _resolve(module,
                                      path.format(command=self._command))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            original = _get(owner, key)
            # lists made up front: appends from worker threads are
            # atomic, creating a missing entry would not be
            counts = {c: [] for c in counter_names}
            self.counts[name] = counts
            _set(owner, key, self._wrap(name, original, counter, counts))
            self._patches.append((owner, key, original))
            self.installed.append(name)
        return self

    def uninstall(self):
        """Put every original back; raises if one did not stick."""
        while self._patches:
            owner, key, original = self._patches.pop()
            _set(owner, key, original)
            if _get(owner, key) is not original:
                raise RuntimeError("could not restore %r" % (key,))

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _buffers(self):
        tls = self._tls
        try:
            return tls.spans, tls.stack
        except AttributeError:
            tls.spans, tls.stack = [], []
            self._threads.append((threading.get_ident(), tls.spans))
            return tls.spans, tls.stack

    def _wrap(self, name, original, counter, counts):
        clock = time.perf_counter
        buffers = self._buffers
        broken = self.broken

        def traced(*args, **kwargs):
            spans, stack = buffers()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if counter is not None and name not in broken:
                try:
                    counter(counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    broken.add(name)
            return result

        traced.__wrapped__ = original
        return traced

    def spans(self):
        """[(name, start, end, parent index, thread id)] in record order."""
        out = []
        for tid, spans in self._threads:
            out.extend((s[0], s[1], s[2], s[3], tid) for s in spans)
        return out

    def durations(self):
        """name -> ([span durations], [self durations])."""
        table = {}
        for _, spans in self._threads:
            child = [0.0] * len(spans)
            for s in spans:
                if s[3] >= 0:
                    child[s[3]] += s[2] - s[1]
            for i, s in enumerate(spans):
                dur = s[2] - s[1]
                total, own = table.setdefault(s[0], ([], []))
                total.append(dur)
                own.append(dur - child[i])
        return table

    def count(self, name, key):
        """Sum of a counter, or NaN when its hook's counter broke."""
        if name in self.broken:
            return float("nan")
        return sum(self.counts[name][key])

    def particle_steps(self):
        """Sum of N * steps over simulate calls; None if not counted."""
        if SIMULATE not in self.installed or SIMULATE in self.broken:
            return None
        return self.count(SIMULATE, "particle_steps")


def _pct_us(values, q):
    """Nearest-rank q-th percentile in microseconds; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1] * 1e6


def layer_metrics(tracer):
    """Per-layer metrics of one traced driver run, by metric name.

    Only layers whose hook was installed appear, and counts only where
    the counter worked; a layer that was hooked but never called reports
    zero calls and zero time.
    """
    table = tracer.durations()
    have = set(tracer.installed)
    count = tracer.count
    out = {}

    def durs(name):
        return table.get(name, ([], []))

    if PAIR in have:
        busy = sum(durs(PAIR)[0])
        evals = count(PAIR, "pair_evals")
        out.update({
            "core.pair_aggregate.calls": len(durs(PAIR)[0]),
            "core.pair_aggregate.busy_s": busy,
            "core.pair_aggregate.pair_evals": evals,
            "core.pair_aggregate.short_circuits":
                count(PAIR, "short_circuits"),
            # 0 when every call short-circuited and no pair was evaluated
            "core.pair_aggregate.ns_per_pair":
                busy * 1e9 / evals if evals else 0.0,
            "core.pair_aggregate.p50_us": _pct_us(durs(PAIR)[0], 50),
            "core.pair_aggregate.p99_us": _pct_us(durs(PAIR)[0], 99),
        })
    if STEP in have:
        own = durs(STEP)[1]
        out.update({
            "scheme.step.calls": len(own),
            "scheme.step.particle_steps": count(STEP, "particle_steps"),
            "scheme.step.self_s": sum(own),
            "scheme.step.self_p50_us": _pct_us(own, 50),
            "scheme.step.self_p99_us": _pct_us(own, 99),
        })
    for name in ("scheme.MomentTracker.observe",
                 "experiments.DivergenceTracker.observe",
                 "scheme.StateRecorder.observe",
                 "metrics.fit_loglog_slope"):
        if name in have:
            out[name + ".busy_s"] = sum(durs(name)[0])
    if "scheme.StateRecorder.observe" in have:
        out["scheme.StateRecorder.bytes_copied"] = count(
            "scheme.StateRecorder.observe", "bytes_copied")
    for name in ("rng.make_tableau", "rng.level_increments",
                 "rng.sample_initial"):
        if name in have:
            out[name + ".calls"] = len(durs(name)[0])
            out[name + ".busy_s"] = sum(durs(name)[0])
    if "rng.make_tableau" in have:
        out["rng.make_tableau.elements"] = count("rng.make_tableau",
                                                 "elements")
    if SIMULATE in have:
        out["scheme.simulate.calls"] = len(durs(SIMULATE)[0])
        out["scheme.simulate.self_s"] = sum(durs(SIMULATE)[1])
        out["scheme.simulate.overflowed"] = count(SIMULATE, "overflowed")
    if DRIVER in have and durs(DRIVER)[0]:
        # the rep fan-out is its own span, so with worker threads the
        # driver's self time does not include waiting for them
        out["experiments.self_s"] = sum(durs(DRIVER)[1])
        if SIMULATE in have:
            out["experiments.parallelism"] = (sum(durs(SIMULATE)[0])
                                              / sum(durs(DRIVER)[0]))
    return {k: v for k, v in out.items() if v == v}  # drop NaN counts


def median_metrics(passes):
    """Per-name median over several layer_metrics dicts."""
    names = set().union(*passes) if passes else set()
    return {n: statistics.median([p[n] for p in passes if n in p])
            for n in sorted(names)}
