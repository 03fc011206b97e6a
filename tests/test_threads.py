"""A run's threads do the run's work.

``import mvsde`` loads NumPy with its OpenBLAS capped at one thread,
unless NumPy is already loaded or OPENBLAS_NUM_THREADS is set, and
restores the environment; the two lazy SciPy imports, the NumPy
backend's ndtri and exact-assignment W2, load SciPy's OpenBLAS under the
same cap; ``experiments._map_reps`` runs one worker
inline and otherwise pins rep worker k to the k-th allowed CPU. The
import checks run in fresh interpreters and read /proc/self/task, so they
skip where /proc is missing and where a plain ``import numpy`` starts no
thread, since then a cap changes nothing. ``metrics.w2_sliced``'s
``a @ direction`` is the package's one BLAS call: its bytes must not
depend on whether the pool runs.
"""

import collections
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import mvsde
from mvsde import experiments
from mvsde.experiments import _map_reps

SRC = os.path.dirname(os.path.dirname(mvsde.__file__))
BLAS_VAR = "OPENBLAS_NUM_THREADS"

# imports the modules named in argv[1] (comma-separated) in order, then
# runs a matmul past OpenBLAS's threading threshold, and prints the task
# counts before and after it and what became of the environment
_IMPORT_THEN_COUNT = """
import json, os, sys
before = dict(os.environ)
for name in sys.argv[1].split(","):
    __import__(name)
tasks = len(os.listdir("/proc/self/task"))
import numpy as np
a = np.ones((2000, 2000))
a @ a
print(json.dumps({"tasks": tasks,
                  "tasks_after_matmul": len(os.listdir("/proc/self/task")),
                  "environ_kept": dict(os.environ) == before,
                  "blas_var": os.environ.get(%r)}))
""" % BLAS_VAR

# prints the task count after the imports of argv[1] and the float64
# bytes of sliced W2 at sizes past OpenBLAS's gemv threading threshold
# (m * n >= 9216)
_SLICED_BYTES = """
import json, os, sys
for name in sys.argv[1].split(","):
    __import__(name)
import numpy as np
from mvsde import w2
tasks = len(os.listdir("/proc/self/task"))
hexes = []
for n, d in ((8192, 3), (50000, 8)):
    gen = np.random.default_rng(n * d)
    a = gen.normal(size=(n, d))
    b = gen.standard_t(5, size=(n, d)) + 0.25
    hexes.append(np.float64(w2(a, b, method="sliced")).tobytes().hex())
print(json.dumps({"tasks": tasks, "w2": hexes}))
"""


# imports mvsde, then takes the SciPy route named in argv[1]: a table
# draw (on the NumPy backend, through scipy.special.ndtri) or an
# exact-assignment W2 (through scipy.optimize); prints the task count, the
# SciPy module the route loaded and what became of the environment
_SCIPY_ROUTE = """
import json, os, sys
import mvsde
before = dict(os.environ)
import numpy as np
if sys.argv[1] == "table":
    from mvsde.rng import level_increments, make_tableau
    level_increments(make_tableau(1, 4, 1, 1.0, 8), 8)
else:
    gen = np.random.default_rng(0)
    mvsde.w2(gen.normal(size=(5, 2)), gen.normal(size=(5, 2)),
             method="exact_assignment")
print(json.dumps({"tasks": len(os.listdir("/proc/self/task")),
                  "loaded": [m for m in ("scipy.special", "scipy.optimize")
                             if m in sys.modules],
                  "environ_kept": dict(os.environ) == before}))
"""


def _fresh(code, modules, blas_var=None, **env_vars):
    """The JSON line a fresh interpreter prints for code, with argv[1]
    the comma-joined modules, OPENBLAS_NUM_THREADS set to blas_var or
    unset and env_vars added to the environment."""
    env = dict(os.environ, PYTHONPATH=SRC, **env_vars)
    env.pop(BLAS_VAR, None)
    if blas_var is not None:
        env[BLAS_VAR] = blas_var
    out = subprocess.run([sys.executable, "-c", code, ",".join(modules)],
                         env=env, check=True, capture_output=True,
                         text=True, timeout=300).stdout
    return json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def numpy_pool_tasks():
    """Tasks of a fresh interpreter after a plain ``import numpy``."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    tasks = _fresh(_IMPORT_THEN_COUNT, ["numpy"])["tasks"]
    if tasks < 2:
        pytest.skip("import numpy starts no BLAS thread here")
    return tasks


# tasks None: NumPy, imported first, keeps its own pool
@pytest.mark.parametrize("modules, blas_var, tasks", [
    (["mvsde"], None, 1),
    (["mvsde"], "2", 2),
    (["numpy", "mvsde"], None, None),
])
def test_import_starts_no_blas_thread(numpy_pool_tasks, modules, blas_var,
                                      tasks):
    got = _fresh(_IMPORT_THEN_COUNT, modules, blas_var)
    tasks = numpy_pool_tasks if tasks is None else tasks
    assert got["tasks"] == tasks, got
    assert got["tasks_after_matmul"] == tasks, got
    assert got["environ_kept"], got
    assert got["blas_var"] == blas_var, got


def test_sliced_w2_bytes_do_not_depend_on_the_blas_pool(numpy_pool_tasks):
    capped = _fresh(_SLICED_BYTES, ["mvsde"])
    pooled = _fresh(_SLICED_BYTES, ["numpy", "mvsde"])
    assert capped["tasks"] == 1, capped
    assert pooled["tasks"] == numpy_pool_tasks, pooled
    assert capped["w2"] == pooled["w2"]


@pytest.fixture(scope="module")
def scipy_pool_tasks(numpy_pool_tasks):
    """Tasks of a fresh interpreter after ``import mvsde`` and then a
    plain ``import scipy.special``, whose OpenBLAS is SciPy's own."""
    tasks = _fresh(_IMPORT_THEN_COUNT, ["mvsde", "scipy.special"])["tasks"]
    if tasks < 2:
        pytest.skip("import scipy.special starts no BLAS thread here")
    return tasks


@pytest.mark.parametrize("route, fallback, module", [
    ("table", "1", "scipy.special"),
    ("exact_assignment", "0", "scipy.optimize"),
])
def test_scipy_loads_on_one_blas_thread(scipy_pool_tasks, route, fallback,
                                        module):
    got = _fresh(_SCIPY_ROUTE, [route], MVSDE_FORCE_FALLBACK=fallback)
    assert module in got["loaded"], got
    assert got["tasks"] == 1, got
    assert got["environ_kept"], got


def _placement(m):
    # long enough that the pool starts every worker before one goes idle
    time.sleep(0.05)
    return m, threading.get_ident(), frozenset(os.sched_getaffinity(0))


def _by_thread(results):
    """{thread ident: the CPU set its reps saw}, checking that every rep
    of one thread saw the same set."""
    seen = {}
    for _, ident, cpus in results:
        assert seen.setdefault(ident, cpus) == cpus
    return seen


def _unpinnable(*args):
    raise OSError("sched_setaffinity refused")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the OS reports no CPU affinity")
def test_rep_workers_each_hold_one_cpu(monkeypatch):
    main = os.sched_getaffinity(0)
    cpus = sorted(main)
    if len(cpus) < 2:
        pytest.skip("one allowed CPU: every placement is the same")
    for reps, threads in ((4, 2), (8, 8), (3, 8)):
        results = _map_reps(_placement, reps, threads)
        assert [r[0] for r in results] == list(range(reps))
        held = _by_thread(results)
        assert len(held) == min(reps, threads)
        # worker k holds cpus[k % len(cpus)], whichever reps it ran
        assert collections.Counter(held.values()) == collections.Counter(
            frozenset({cpus[k % len(cpus)]}) for k in range(len(held)))
        assert os.sched_getaffinity(0) == main
    # where the OS cannot pin, the workers run unpinned and nothing raises
    for unpin in ("raise", "delete"):
        with monkeypatch.context() as mp:
            if unpin == "raise":
                mp.setattr(os, "sched_setaffinity", _unpinnable)
            else:
                mp.delattr(os, "sched_setaffinity")
            results = _map_reps(_placement, 4, 2)
        assert [r[0] for r in results] == list(range(4))
        assert set(_by_thread(results).values()) == {frozenset(main)}
        assert os.sched_getaffinity(0) == main


def test_one_worker_runs_inline(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one worker built a thread pool")

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
    caller = threading.get_ident()
    for reps, threads in ((1, 4), (3, 1), (0, 2)):
        results = _map_reps(lambda m: (m, threading.get_ident()), reps,
                            threads)
        assert results == [(m, caller) for m in range(reps)]
