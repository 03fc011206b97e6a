"""Timing and bit-identity comparison of the pairwise backends.

Runs the O(N^2) kernel aggregation with the compiled C kernel and the
pure numpy fallback on identical inputs, checks that both are bit-for-bit
equal to the scalar oracle pair_aggregate_naive at small N and to each
other at every N, and reports per-call timings. Build the kernel first
(python3 setup.py build_ext --inplace); without it the script exits 1.
Usage:

    python3 benchmarks/bench_pairwise.py [--sizes 64,256,1024] [--d 3]
"""

import argparse
import time

import numpy as np

from mvsde._core import (backend_name, pair_aggregate, pair_aggregate_naive,
                         pair_aggregate_py)

# the naive oracle is a Python double loop; compare with it up to this N
ORACLE_MAX_N = 64


def _time_call(fn, args, min_seconds=0.2):
    fn(*args)  # warm up
    calls = 0
    t0 = time.perf_counter()
    while True:
        fn(*args)
        calls += 1
        dt = time.perf_counter() - t0
        if dt >= min_seconds:
            return dt / calls


def _same(a, b):
    return all(np.array_equal(p, q) for p, q in zip(a, b))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="64,256,1024")
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--seed", type=int, default=4242)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    if backend_name() != "c":
        raise SystemExit(
            "compiled kernel not loaded (backend %r): run "
            "'python3 setup.py build_ext --inplace' and unset "
            "MVSDE_FORCE_FALLBACK" % backend_name())
    rng = np.random.default_rng(args.seed)
    kernel = dict(kf1=-0.5, kfq=-1.0, qf=2.0, cg=0.2, tam=0.125, te=4.0)

    x = rng.normal(size=(min(sizes + [ORACLE_MAX_N]), args.d))
    call = (x,) + tuple(kernel.values())
    ref = pair_aggregate_naive(*call)
    for name, fn in (("compiled", pair_aggregate),
                     ("fallback", pair_aggregate_py)):
        if not _same(fn(*call), ref):
            raise SystemExit("%s kernel differs from pair_aggregate_naive "
                             "at N = %d" % (name, len(x)))
    print("both backends match pair_aggregate_naive at N = %d" % len(x))

    print("pairwise kernel aggregation, d = %d" % args.d)
    print("%8s %14s %14s %8s %s" % ("N", "compiled (ms)", "fallback (ms)",
                                    "speedup", "bit-identical"))
    for n in sizes:
        x = rng.normal(size=(n, args.d))
        call = (x,) + tuple(kernel.values())
        same = _same(pair_aggregate(*call), pair_aggregate_py(*call))
        tc = _time_call(pair_aggregate, call)
        tp = _time_call(pair_aggregate_py, call)
        print("%8d %14.3f %14.3f %7.1fx %s"
              % (n, tc * 1e3, tp * 1e3, tp / tc, same))
        if not same:
            raise SystemExit("backend outputs differ at N = %d" % n)


if __name__ == "__main__":
    main()
