"""Cross-backend bit identity of the pairwise kernel, and the loader.

pairwise.c is compiled here (conftest.py) and loaded through the loader
mvsde._core uses at import, so the comparison runs whether or not setup.py
built the package in place.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import mvsde
from mvsde._core import (_select_backend, load_compiled,
                         pair_aggregate_naive, pair_aggregate_py)

# (kf1, kfq, qf, cg, tam, te, tame_g)
SPECIAL = {
    "strong-rate": (0.0, -1.0, 2.0, 1.0, 1.0 / 32.0, 4.0, 1.0),
    "poc-rate": (0.0, -1.0, 2.0, 0.2, 0.125, 4.0, 1.0),
    "tam == 0": (0.0, -1.0, 2.0, 1.0, 0.0, 4.0, 1.0),
    "tame_g = 0": (-0.5, -1.0, 2.0, 0.2, 0.125, 2.0, 0.0),
    "q_f = 0": (-0.5, 0.0, 0.0, 0.2, 0.125, 0.0, 1.0),
    "all-zero kernel": (0.0, 0.0, 2.0, 0.0, 0.125, 4.0, 1.0),
}
# libm pow in C and in the oracle's scalar **; numpy's vectorised power
# may round differently in the last bit
NON_SPECIAL = (-0.5, -1.0, 3.0, 0.2, 0.3, 6.0, 1.0)

DIMS = range(1, 13)
SIZES = (1, 2, 7, 33, 64)


@pytest.fixture(scope="module")
def compiled(compiled_library):
    return load_compiled(compiled_library)[0]


def _assert_same(got, want, what):
    for a, b in zip(got, want):
        assert a.shape == b.shape, what
        assert np.array_equal(a, b), what
        assert np.array_equal(np.signbit(a), np.signbit(b)), what


def _clouds(n, d):
    rng = np.random.default_rng(1000 * d + n)
    x = rng.normal(scale=2.0, size=(n, d))
    if n > 2:
        x[n - 1] = x[1]  # one coincident pair, so r = 0 occurs
    return {"random": x, "all dx zero": np.tile(x[:1], (n, 1))}


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_compiled_matches_fallback_and_oracle(compiled, n, d):
    for cloud, x in _clouds(n, d).items():
        for label, kernel in SPECIAL.items():
            what = "%s, %s cloud" % (label, cloud)
            got = compiled(x, *kernel)
            _assert_same(got, pair_aggregate_py(x, *kernel), what)
            _assert_same(got, pair_aggregate_naive(x, *kernel), what)
        _assert_same(compiled(x, *NON_SPECIAL),
                     pair_aggregate_naive(x, *NON_SPECIAL),
                     "non-special exponents, %s cloud" % cloud)


def test_compiled_accepts_any_layout(compiled):
    x = np.random.default_rng(7).normal(size=(3, 9)).T  # Fortran order
    kernel = SPECIAL["poc-rate"]
    _assert_same(compiled(x, *kernel), pair_aggregate_py(x, *kernel),
                 "transposed input")
    with pytest.raises(ValueError):
        compiled(np.zeros(4), *kernel)


def test_force_fallback_selects_numpy():
    src = os.path.dirname(os.path.dirname(mvsde.__file__))
    env = dict(os.environ, MVSDE_FORCE_FALLBACK="1", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import mvsde, mvsde._core as c; "
         "print(mvsde.backend_name(), c.bind_advance, "
         "c.pair_aggregate is c.pair_aggregate_py)"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.split() == ["numpy", "None", "True"]


def test_loader_binds_both_kernels_or_neither(compiled_library,
                                              build_library, tmp_path):
    pair, advance, name = _select_backend(compiled_library)
    assert name == "c" and pair is not pair_aggregate_py
    assert callable(advance)
    # a stale library from before the fused kernel has only the pair kernel
    stub = tmp_path / "stale.c"
    stub.write_text("void mvsde_pair_aggregate(void) {}\n")
    stale = build_library(str(stub), "stale.so")
    with pytest.raises(AttributeError, match="mvsde_advance"):
        load_compiled(stale)
    assert _select_backend(stale) == (pair_aggregate_py, None, "numpy")
    assert _select_backend(str(tmp_path / "missing.so")) == (
        pair_aggregate_py, None, "numpy")
    assert _select_backend(None) == (pair_aggregate_py, None, "numpy")
