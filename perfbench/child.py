"""One workload process: a fresh interpreter that runs one mvsde driver.

Usage (run.py starts it; PYTHONPATH must reach the package sources):

    python3 perfbench/child.py --result FILE --command CMD --ini FILE
        --threads K --out DIR [--trace SPANS_CSV]

It imports mvsde and parses the INI (the set-up), then times
``mvsde.cli.main`` on that config, which dispatches to the driver and
writes its report files. The result file holds the monotonic clock
reading when set-up ended, the driver's wall and CPU time, the
process's peak RSS, the CLI exit code, the particle-step count and,
with --trace, the per-layer metrics; the spans go to SPANS_CSV.
"""

import argparse
import json
import resource
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--command", required=True)
    ap.add_argument("--ini", required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace")
    args = ap.parse_args()

    from mvsde import backend_name, cli, config
    with open(args.ini) as fh:
        config.parse_config(fh.read())
    ready = time.monotonic()

    import tracer
    hooks = tracer.ALL_HOOKS if args.trace else tracer.COUNT_HOOKS
    tr = tracer.Tracer(hooks, args.command)
    argv = [args.command, "--config", args.ini, "--out", args.out,
            "--threads", str(args.threads)]
    with tr:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    result = {
        "ready": ready, "exit_code": code, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "particle_steps": tr.particle_steps(), "backend": backend_name(),
        "hooks_missing": tr.missing}
    if args.trace:
        result["layers"] = tracer.layer_metrics(tr)
        with open(args.trace, "w") as fh:
            fh.write("name,start,end,parent,thread\n")
            for s in tr.spans():
                fh.write("%s,%r,%r,%d,%d\n" % s)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
