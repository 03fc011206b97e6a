"""Shared fixtures: the C kernels compiled into a temporary directory.

pairwise.c is compiled with the interpreter's own C compiler and the
extra_compile_args that setup.py passes (read from setup.py with ast, so
the tests build what the package builds), so the compiled kernels are
tested whether or not setup.py built the package in place and whatever
MVSDE_FORCE_FALLBACK says. On an x86-64 CPU with FMA the same flags plus
-mfma give a second library, on which a contraction the flags failed to
forbid would change bits. pairwise.c compiles its hot path twice, for
AVX2 and for the x86-64 baseline, and the loader runs the AVX2 clone on
an AVX2 CPU; baseline_library is a copy of the source with the clone
macro STEP_CLONES defined empty, so the baseline code is tested on every
CPU. The package binds the C pair routine only inside the fused kernel;
c_pair_aggregate, fma_pair_aggregate and baseline_pair_aggregate bind it
here from each library, so the tests can compare it with the numpy
kernel directly. no_avx512_env is the environment of a subprocess that
runs the package with NumPy's AVX-512 loops disabled.
"""

import ast
import ctypes
import os
import shlex
import shutil
import subprocess
import sysconfig

import numpy as np
import pytest

import mvsde
from mvsde._core import pair_scratch_size

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SOURCE = os.path.join(ROOT, "src", "mvsde", "_core", "pairwise.c")
SETUP = os.path.join(ROOT, "setup.py")


@pytest.fixture(scope="session")
def setup_flags():
    """The extra_compile_args list of the extension in setup.py."""
    with open(SETUP) as fh:
        tree = ast.parse(fh.read(), SETUP)
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "extra_compile_args":
            return ast.literal_eval(node.value)
    raise LookupError("setup.py passes no extra_compile_args")


def _cpu_has_fma():
    try:
        with open("/proc/cpuinfo") as fh:
            return any(line.startswith("flags") and "fma" in line.split()
                       for line in fh)
    except OSError:
        return False


@pytest.fixture(scope="session")
def no_avx512_env():
    """Environment for a subprocess that imports this package with NumPy's
    AVX-512 (X86_V4) loops disabled. Skips on a CPU without X86_V4, where
    both processes would run the same loops."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("needs a CPU with X86_V4")
    return dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4",
                PYTHONPATH=os.path.dirname(os.path.dirname(mvsde.__file__)))


@pytest.fixture(scope="session")
def build_library(tmp_path_factory, setup_flags):
    """build(source, name, extra=()) -> path of a shared library compiled
    from source with setup.py's flags followed by extra."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found (%s)" % cc[0])
    out_dir = tmp_path_factory.mktemp("kernel")

    def build(source, name, extra=()):
        lib = str(out_dir / name)
        subprocess.run(cc + setup_flags + list(extra)
                       + ["-shared", "-fPIC", "-o", lib, source],
                       check=True, capture_output=True)
        return lib

    return build


@pytest.fixture(scope="session")
def compiled_library(build_library):
    """Path of pairwise.c compiled into a shared library."""
    return build_library(SOURCE, "pairwise.so")


@pytest.fixture(scope="session")
def fma_library(build_library):
    """Path of pairwise.c compiled with -mfma as well, where the CPU has
    FMA and the compiler takes the flag."""
    if not _cpu_has_fma():
        pytest.skip("the CPU lists no fma flag")
    try:
        return build_library(SOURCE, "pairwise_fma.so", ["-mfma"])
    except subprocess.CalledProcessError:
        pytest.skip("the C compiler refuses -mfma")


# the line of pairwise.c that turns runtime dispatch on
CLONES_LINE = ('#define STEP_CLONES '
               '__attribute__((target_clones("avx2", "default")))\n')


@pytest.fixture(scope="session")
def baseline_source(tmp_path_factory):
    """Path of a copy of pairwise.c whose STEP_CLONES is empty: one
    x86-64 baseline build of every function, with no AVX2 clone."""
    with open(SOURCE) as fh:
        text = fh.read()
    assert text.count(CLONES_LINE) == 1, "pairwise.c lost its clone macro"
    path = tmp_path_factory.mktemp("baseline") / "pairwise_baseline.c"
    path.write_text(text.replace(CLONES_LINE, "#define STEP_CLONES\n"))
    return str(path)


@pytest.fixture(scope="session")
def baseline_library(build_library, baseline_source):
    """Path of the baseline-only copy of pairwise.c, compiled."""
    return build_library(baseline_source, "pairwise_baseline.so")


def _bind_pair_aggregate(path):
    """mvsde_pair_aggregate of the library at path, with the signature of
    pairwise_py.pair_aggregate.

    Like the fused kernel, it hands the kernel the scratch that the
    library's mvsde_pair_rows sizes and leaves the all-zero kernel to the
    caller's short circuit. The scratch and the outputs start as NaN, so a
    value the kernel failed to write shows.
    """
    lib = ctypes.CDLL(path)
    pair_rows = ctypes.c_int.in_dll(lib, "mvsde_pair_rows").value
    kernel = lib.mvsde_pair_aggregate
    kernel.restype = None
    kernel.argtypes = ([ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t]
                       + [ctypes.c_double] * 7 + [ctypes.c_void_p] * 3)

    def pair_aggregate(X, kf1, kfq, qf, cg, tam, te, tame_g=1.0):
        X = np.ascontiguousarray(X, dtype=np.float64)
        n, d = X.shape
        if kf1 == 0.0 and kfq == 0.0 and cg == 0.0:
            return np.zeros((n, d)), np.zeros((n, d))
        f_arr, g_arr = np.full((n, d), np.nan), np.full((n, d), np.nan)
        work = np.full(pair_scratch_size(n, d, pair_rows), np.nan)
        kernel(X.ctypes.data, n, d, kf1, kfq, qf, cg, tam, te, tame_g,
               f_arr.ctypes.data, g_arr.ctypes.data, work.ctypes.data)
        return f_arr, g_arr

    return pair_aggregate


@pytest.fixture(scope="session")
def c_pair_aggregate(compiled_library):
    """The C pair routine of the library built with setup.py's flags."""
    return _bind_pair_aggregate(compiled_library)


@pytest.fixture(scope="session")
def fma_pair_aggregate(fma_library):
    """The C pair routine of the -mfma build."""
    return _bind_pair_aggregate(fma_library)


@pytest.fixture(scope="session")
def baseline_pair_aggregate(baseline_library):
    """The C pair routine of the baseline-only build."""
    return _bind_pair_aggregate(baseline_library)
