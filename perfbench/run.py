"""Driver-level benchmark of mvsde, with an outside-in layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/workloads.py, README.md): strong-rate, poc-rate-d3,
moment-long. Every driver run is a fresh interpreter (perfbench/child.py)
that imports mvsde, parses the workload's INI and calls the CLI entry
point on it.

--trace 0 repeats untraced driver runs for about S seconds (at least
three) and reports the end-to-end metrics of BENCHMARK.json as medians.
--trace 1 makes one untraced run at the workload's thread count, one at
the other thread count (1 or 2), then traced runs for the rest of the S
seconds, and reports the per-layer metrics. It also requires the traced
and the other-thread-count runs to write the same report bytes as the
untraced run.

Every run checks the CLI exit code, the verdict, the expected
divergences and, at seed 0, the pinned SHA-256 of the errors CSV, and
checks the pairwise kernel against its scalar oracle. The last line of
standard output is one JSON object: correct, attempted and failed
repetitions, and the metrics. Exit code 0 when correct, 1 when an
output is wrong, 2 without a result line when the benchmark cannot run
here or a workload process crashed. Logs, report files, spans and a
full record of the run go to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_BASE = os.path.join(ROOT, ".perfbench_out")
MIN_DRIVER_RUNS = 3
CHILD_TIMEOUT_S = 150
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


class BenchError(Exception):
    """The benchmark cannot run here, or a workload process crashed."""


def _calibrate():
    """Seconds for a fixed pure-Python plus NumPy loop (host speed)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200000):
        acc += i * i % 7
    a = np.arange(200000, dtype=np.float64)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def _cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # guest time is already counted in user time
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def _steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def _spawn(argv, log_path, env):
    """Run a child to completion and return its exit code.

    A child still running after CHILD_TIMEOUT_S is killed and reaped.
    """
    with open(log_path, "w") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("%s timed out after %d s; see %s"
                             % (os.path.basename(argv[1]), CHILD_TIMEOUT_S,
                                log_path))
    return code


def _build(env):
    """Build the package in place with the repository's own setup.py."""
    stamp = os.path.join(OUT_BASE, "build.done")
    if os.path.exists(stamp):
        return
    log = os.path.join(OUT_BASE, "build.log")
    code = _spawn([sys.executable, "setup.py", "build_ext", "--inplace"],
                  log, env)
    if code != 0:
        raise BenchError("setup.py build_ext failed (exit %d); see %s"
                         % (code, log))
    with open(stamp, "w") as fh:
        fh.write("ok\n")


class Runner:
    """Launches driver runs of one workload and checks their outputs."""

    def __init__(self, wl, seed, out_dir, env):
        self.wl = wl
        self.seed = seed
        self.out_dir = out_dir
        self.env = env
        self.ini = os.path.join(out_dir, "workload.ini")
        with open(self.ini, "w") as fh:
            fh.write(wl.ini(seed))

    def driver(self, tag, threads, trace):
        """One driver run in a fresh interpreter; returns its sample."""
        result = os.path.join(self.out_dir, tag + ".result.json")
        run_out = os.path.join(self.out_dir, tag)
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "--result", result, "--command", self.wl.command,
                "--ini", self.ini, "--threads", str(threads),
                "--out", run_out]
        if trace:
            argv += ["--trace", os.path.join(self.out_dir,
                                             tag + ".spans.csv")]
        for path in [result] + self.wl.outputs(run_out):
            if os.path.exists(path):
                os.remove(path)
        launched = time.monotonic()
        code = _spawn(argv, os.path.join(self.out_dir, tag + ".log"),
                      self.env)
        elapsed = time.monotonic() - launched
        if code != 0 or not os.path.exists(result):
            raise BenchError("workload process %s exited %d; see %s.log"
                             % (tag, code, os.path.join(self.out_dir, tag)))
        with open(result) as fh:
            sample = json.load(fh)
        sample.update(tag=tag, threads=threads, traced=bool(trace),
                      elapsed_s=elapsed,
                      setup_s=sample.pop("ready") - launched)
        csv_path, json_path = self.wl.outputs(run_out)
        outputs = []
        for path in (csv_path, json_path):
            try:
                with open(path, "rb") as fh:
                    outputs.append(fh.read())
            except OSError:
                outputs.append(None)
        report = None
        if outputs[1] is not None:
            report = json.loads(outputs[1])
        sample["failed"], sample["problems"] = self.wl.check(
            self.seed, sample["exit_code"], report, outputs[0] or b"")
        sample["outputs"] = outputs
        return sample

    def kernel_check(self):
        log = os.path.join(self.out_dir, "kernel_check.log")
        code = _spawn([sys.executable, os.path.join(HERE, "kernel_check.py"),
                       str(self.seed)], log, self.env)
        with open(log) as fh:
            lines = fh.read().strip().splitlines()
        if code != 0 or not lines:
            raise BenchError("kernel check exited %d; see %s" % (code, log))
        return json.loads(lines[-1])


def _repeat(deadline_s, started, samples, make):
    """Append make(i) until MIN_DRIVER_RUNS are in and one more would end
    past deadline_s seconds after started."""
    while True:
        elapsed = time.monotonic() - started
        per_run = statistics.median(s["elapsed_s"] for s in samples) \
            if samples else 0.0
        if len(samples) >= MIN_DRIVER_RUNS and elapsed + per_run > deadline_s:
            return samples
        samples.append(make(len(samples)))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _end_to_end(samples, fail_share):
    if samples[0]["particle_steps"] is None:
        raise BenchError("particle steps could not be counted: the "
                         "mvsde.experiments.simulate hook is gone or its "
                         "result changed shape")
    series = {name: [s[name] for s in samples]
              for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    metrics = {k: statistics.median(v) for k, v in series.items()}
    metrics["particle_steps_per_s"] = (samples[0]["particle_steps"]
                                       / metrics["wall_s"])
    # fail_share is 0 on every good run, so the bounded metric is its
    # complement
    metrics["ok_share"] = 1.0 - fail_share
    return metrics, series


def _per_layer(samples, calib):
    base, other = samples[0], samples[1]
    traced = [s for s in samples if s["traced"]]
    metrics = tracer.median_metrics([s["layers"] for s in traced])
    by_threads = {base["threads"]: base["wall_s"],
                  other["threads"]: other["wall_s"]}
    metrics["experiments.thread_speedup"] = by_threads[1] / by_threads[2]
    metrics["trace.overhead_s"] = (
        statistics.median(s["wall_s"] for s in traced) - base["wall_s"])
    metrics["host.calib_s"] = calib
    return metrics


def _emit(metrics, kind):
    """Name-check metrics against BENCHMARK.json; {name: {value, unit}}."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc))
    if len(spec["end_to_end"]) > MAX_END_TO_END \
            or len(spec["per_layer"]) > MAX_PER_LAYER:
        raise BenchError("BENCHMARK.json declares more than %d end-to-end "
                         "or %d per-layer metrics"
                         % (MAX_END_TO_END, MAX_PER_LAYER))
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    bad = [n for n in metrics if not NAME_RE.match(n) or n not in declared]
    if bad:
        raise BenchError("metric names not declared in BENCHMARK.json or "
                         "malformed: %s" % ", ".join(sorted(bad)))
    absent = sorted(set(declared) - set(metrics))
    if absent and kind == "end_to_end":
        raise BenchError("end-to-end metrics missing: " + ", ".join(absent))
    for name in absent:
        print("note: %s absent (its hook target or counter no longer "
              "fits the package)" % name)
    out = {}
    for name in sorted(metrics):
        value = metrics[name]
        if not np.isfinite(value):
            raise BenchError("metric %s is not finite: %r" % (name, value))
        out[name] = {"value": value, "unit": declared[name]}
    return out


def run(args):
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        raise BenchError("unknown workload %r; known: %s"
                         % (args.workload, ", ".join(sorted(WORKLOADS))))
    if not os.path.isfile(os.path.join(ROOT, "src", "mvsde", "cli.py")) \
            or not os.path.isfile(os.path.join(ROOT, "setup.py")):
        raise BenchError("no mvsde sources at %s; run from a checkout of "
                         "the repository" % ROOT)
    out_dir = os.path.join(OUT_BASE, "%s-seed%d-trace%d"
                           % (wl.name, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    _build(env)

    ticks_start = _cpu_ticks()
    calib_start = [_calibrate() for _ in range(3)]
    runner = Runner(wl, args.seed, out_dir, env)
    kernel = runner.kernel_check()
    problems = ["kernel check: %s differs from pair_aggregate_naive" % c
                for c in kernel["failed"]]

    started = time.monotonic()
    if args.trace:
        other_threads = 1 if wl.threads > 1 else 2
        base = runner.driver("untraced", wl.threads, False)
        other = runner.driver("threads%d" % other_threads, other_threads,
                              False)
        samples = [base, other]
        _repeat(args.seconds, started, samples,
                lambda i: runner.driver("traced%d" % (i - 2), wl.threads,
                                        True))
        for s in samples[1:]:
            if None in s["outputs"] or s["outputs"] != base["outputs"]:
                s["failed"] = wl.reps
                s["problems"].append(
                    "report bytes differ from the untraced run at "
                    "--threads %d" % wl.threads)
    else:
        samples = _repeat(args.seconds, started, [],
                          lambda i: runner.driver("run%d" % i, wl.threads,
                                                  False))
    measured_s = time.monotonic() - started
    calib_end = [_calibrate() for _ in range(3)]
    calib = statistics.median(calib_start + calib_end)
    steal = _steal_share(ticks_start, _cpu_ticks())

    steps = sorted({s["particle_steps"] for s in samples}, key=str)
    if len(steps) != 1:
        problems.append("particle-step counts differ between runs of one "
                        "config: %r" % steps)
    for s in samples:
        problems += ["%s: %s" % (s["tag"], p) for p in s["problems"]]
    attempted = wl.reps * len(samples)
    failed = sum(s["failed"] for s in samples)
    env_info = dict(_host(), **kernel["env"])
    env_info["steal_share"] = None if steal is None else round(steal, 4)
    env_info["backend"] = ",".join(sorted(
        {s["backend"] for s in samples} | {env_info["backend"]}))
    if args.trace:
        emitted = _emit(_per_layer(samples, calib), "per_layer")
    else:
        e2e, series = _end_to_end(samples, failed / attempted)
        emitted = _emit(e2e, "end_to_end")
    correct = not problems

    print("perfbench %s seed %d trace %d: %d driver runs in %.1f s"
          % (wl.name, args.seed, args.trace, len(samples), measured_s))
    print("env: " + ", ".join("%s %s" % kv for kv in sorted(env_info.items())))
    print("host.calib_s: start %.4f end %.4f (s, median of 3 each)"
          % (statistics.median(calib_start), statistics.median(calib_end)))
    if not args.trace:
        for name, values in sorted(series.items()):
            q1, q3 = _quartiles(values)
            print("%-22s %12.6g %-4s q1 %.6g q3 %.6g n=%d"
                  % (name, e2e[name], emitted[name]["unit"], q1, q3,
                     len(values)))
        for name in ("particle_steps_per_s", "ok_share"):
            print("%-22s %12.6g %s" % (name, e2e[name],
                                       emitted[name]["unit"]))
    else:
        for name, m in emitted.items():
            print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("fail_share             %12.6g share (%d of %d reps failed)"
          % (failed / attempted, failed, attempted))
    print("kernel check: %s; non-gating comparisons identical: %s"
          % ("ok" if kernel["ok"] else "FAILED",
             json.dumps(kernel["info_identical"], sort_keys=True)))
    for p in problems:
        print("PROBLEM: " + p)

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env_info,
              "calib_start_s": calib_start, "calib_end_s": calib_end,
              "kernel_check": kernel, "problems": problems,
              "samples": [{k: v for k, v in s.items() if k != "outputs"}
                          for s in samples],
              "metrics": emitted}
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": emitted}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
