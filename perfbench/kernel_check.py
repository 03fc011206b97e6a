"""Correctness check of the pairwise kernel layer against its oracle.

Usage (run.py starts it; PYTHONPATH must reach the package sources):

    python3 perfbench/kernel_check.py SEED

Compares the active ``mvsde._core.pair_aggregate`` bit for bit with the
scalar double loop ``pair_aggregate_naive`` on small random clouds
(N = 12, d in {1, 3}, one duplicated particle so r = 0 occurs) for the
kernel parameters the workloads use, with ``tam == 0``, with the
diffusion kernel left untamed, and with an all-zero kernel. Prints one
JSON object: whether every gated case matched, the failing cases, and
the software environment.

Non-special exponents (neither 0, 2 nor 4) are compared too but do not
gate: NumPy's vectorised ``power`` can round differently from the scalar
``**`` the oracle uses, and no workload runs such an exponent.
"""

import json
import platform
import sys

import numpy as np
import scipy

from mvsde import backend_name
from mvsde._core import pair_aggregate, pair_aggregate_naive

# (label, kf1, kfq, qf, cg, tam, te, tame_g)
GATED = (
    ("strong-rate finite taming", 0.0, -1.0, 2.0, 1.0, 1.0 / 32.0, 4.0, 1.0),
    ("poc-rate finite taming", 0.0, -1.0, 2.0, 0.2, 0.125, 4.0, 1.0),
    ("tam == 0", 0.0, -1.0, 2.0, 1.0, 0.0, 4.0, 1.0),
    ("untamed g", -0.5, -1.0, 2.0, 0.2, 0.125, 2.0, 0.0),
    ("q_f = 0", -0.5, 0.0, 0.0, 0.2, 0.125, 0.0, 1.0),
    ("all-zero kernel", 0.0, 0.0, 2.0, 0.0, 0.125, 4.0, 1.0),
)
INFO = (
    ("non-special exponents", -0.5, -1.0, 3.0, 0.2, 0.3, 1.5, 1.0),
)


def _same(case, x):
    args = (x,) + case[1:]
    f, g = pair_aggregate(*args)
    f_ref, g_ref = pair_aggregate_naive(*args)
    return bool(np.array_equal(f, f_ref) and np.array_equal(g, g_ref))


def main():
    seed = int(sys.argv[1])
    rng = np.random.default_rng(seed)
    clouds = []
    for d in (1, 3):
        x = rng.normal(scale=2.0, size=(12, d))
        x[5] = x[2]
        clouds.append((d, x))
    failed = ["%s, d=%d" % (c[0], d) for c in GATED for d, x in clouds
              if not _same(c, x)]
    info = {"%s, d=%d" % (c[0], d): _same(c, x)
            for c in INFO for d, x in clouds}
    print(json.dumps({
        "ok": not failed, "failed": failed, "info_identical": info,
        "env": {"backend": backend_name(),
                "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__}}))


if __name__ == "__main__":
    main()
