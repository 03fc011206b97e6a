"""Cross-backend bit identity of the compiled kernels, and the loader.

pairwise.c is compiled here (conftest.py) and loaded through the loader
mvsde._core uses at import, so the comparison runs whether or not setup.py
built the package in place. The C pair routine, which the package calls
only from the fused kernel, is bound by the c_pair_aggregate fixture,
from the -mfma build by fma_pair_aggregate and from the build without the
AVX2 clone and the wide tile by baseline_pair_aggregate. The compiled
float text, repr_join, is held to float.__repr__ on each of the three
builds.
"""

import ctypes
import ctypes.util
import json
import math
import os
import platform
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvsde
import mvsde.cli
from mvsde import _core
from mvsde._core import (NUMPY, _Coeffs, _select_backend, load_compiled,
                         pair_aggregate, pair_aggregate_naive, pairwise_py)
from mvsde._core.pairwise_py import power
from mvsde.model import COEFFICIENTS, make_model
from mvsde.taming import VARIANTS, TamedModel

SOURCE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mvsde",
                      "_core", "pairwise.c")

# (kf1, kfq, qf, cg, tam, te), g tamed as the scheme and the C routine
# tame it (the numpy kernels' default tame_g = 1)
SPECIAL = {
    "strong-rate": (0.0, -1.0, 2.0, 1.0, 1.0 / 32.0, 4.0),
    "poc-rate": (0.0, -1.0, 2.0, 0.2, 0.125, 4.0),
    "tam == 0": (0.0, -1.0, 2.0, 1.0, 0.0, 4.0),
    "q_f = 0": (-0.5, 0.0, 0.0, 0.2, 0.125, 0.0),
    "all-zero kernel": (0.0, 0.0, 2.0, 0.0, 0.125, 4.0),
    # te = 2 with tam != 0: the weight 1 / (1 + tam r2) (the ergodic
    # variant at q = 2)
    "ergodic taming": (0.0, -1.0, 2.0, 0.2, 0.125, 2.0),
}
# exponents outside the special cases: libm pow in C, in the numpy
# kernel (mvsde._core.pairwise_py.power) and in the oracle's scalar **
NON_SPECIAL = (-0.5, -1.0, 3.0, 0.2, 0.3, 6.0)
# g left untamed (tame_g = 0): the numpy kernels only, against each other
UNTAMED_G = (-0.5, -1.0, 2.0, 0.2, 0.125, 2.0, 0.0)

# the C pair loop takes rows in blocks of 4 and the partners past a full
# block in tiles of 4, then one at a time: sizes with a short last block
# of 1 to 3 rows, full blocks followed by no tile and 1 to 3 single
# partners (5 to 7), by one tile and 0 to 3 (8 to 11) and by two tiles and
# 0 to 3 (12 to 15), plus larger ones; dimensions with the literal
# component counts 1 to 3 and the general loop beyond. The wide tile, which
# the package build runs at d >= 2 on a CPU with AVX-512F, DQ and VL, takes
# blocks of 8, each inside as two blocks of 4: a short last block of 1 to 4
# rows (1 to 4, 9 to 12) or of 5 to 7 (5 to 7, 13 to 15), a full block with
# no partner past it (8), and partners past a full block one at a time (9
# to 11) or in a tile and 0 to 3 more (12 to 15)
DIMS = range(1, 13)
SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 33, 64)


def _assert_same(got, want, what):
    """Equal raw bytes: NaN payloads and sign bits count."""
    for a, b in zip(got, want):
        assert a.shape == b.shape, what
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), what


def _clouds(n, d):
    rng = np.random.default_rng(1000 * d + n)
    x = rng.normal(scale=2.0, size=(n, d))
    if n > 2:
        x[n - 1] = x[1]  # one coincident pair, so r = 0 occurs
    zeros = np.where(rng.random((n, d)) < 0.5, -0.0, 0.0)
    return {"random": x, "all dx zero": np.tile(x[:1], (n, 1)),
            # finite, but r2 overflows to inf for nearly every pair, so
            # r^qf and the taming term are inf and the coefficient is
            # (kf1 + kfq inf) * 0 = NaN, or -inf where tam == 0
            "near 1e160": x * 1e160,
            # -0.0 and +0.0 among the random coordinates
            "signed zeros": np.where(rng.random((n, d)) < 0.5, zeros, x),
            "all -0.0": np.full((n, d), -0.0)}


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_compiled_matches_fallback_and_oracle(c_pair_aggregate, n, d):
    for cloud, x in _clouds(n, d).items():
        for label, kernel in dict(SPECIAL, non_special=NON_SPECIAL).items():
            what = "%s, %s cloud" % (label, cloud)
            got = c_pair_aggregate(x, *kernel)
            with np.errstate(over="ignore", invalid="ignore"):
                _assert_same(got, pair_aggregate(x, *kernel), what)
                want = pair_aggregate_naive(x, *kernel)
            _assert_same(got, want, what)
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_same(pair_aggregate(x, *UNTAMED_G),
                         pair_aggregate_naive(x, *UNTAMED_G),
                         "untamed g, %s cloud" % cloud)


def _assert_clouds_match_fallback(c_kernel, n, d):
    for cloud, x in _clouds(n, d).items():
        for label, kernel in dict(SPECIAL, non_special=NON_SPECIAL).items():
            with np.errstate(over="ignore", invalid="ignore"):
                want = pair_aggregate(x, *kernel)
            _assert_same(c_kernel(x, *kernel), want,
                         "%s, %s cloud" % (label, cloud))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_compiled_with_fma_matches_fallback(fma_pair_aggregate, n, d):
    """The vector passes of the pair loop built with -mfma: a contraction
    that -ffp-contract=off failed to forbid would change bits here."""
    _assert_clouds_match_fallback(fma_pair_aggregate, n, d)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_baseline_clone_matches_fallback(baseline_pair_aggregate, n, d):
    """The x86-64 baseline code, which CPUs without AVX2 run: on an AVX2
    CPU the library the other tests load runs its AVX2 clone, and at
    d >= 2 on an AVX-512 CPU its wide tile, so this build keeps the 4-row
    tile under test at every d there."""
    _assert_clouds_match_fallback(baseline_pair_aggregate, n, d)


# with 1021 and 1027 at d = 2, 3 and 8: a short last block of 5 or 3 rows
# in 8-row blocks (1 or 3 in 4-row ones) and, before it, 1 or 3 partners
# past the last whole tile of 4
BENCHMARK_SHAPES = ((1024, 3, "poc-rate"), (64, 1, "strong-rate"),
                    (256, 8, "poc-rate"),
                    *((n, d, "poc-rate") for n in (1021, 1027)
                      for d in (2, 3, 8)))


def _assert_matches_fallback_at(c_kernel, n, d, label):
    x = _clouds(n, d)["random"]
    kernel = SPECIAL[label]
    _assert_same(c_kernel(x, *kernel), pair_aggregate(x, *kernel),
                 "%s at N = %d, d = %d" % (label, n, d))


@pytest.mark.parametrize("n, d, label", BENCHMARK_SHAPES)
def test_compiled_matches_fallback_at_benchmark_shapes(c_pair_aggregate, n,
                                                       d, label):
    _assert_matches_fallback_at(c_pair_aggregate, n, d, label)


@pytest.mark.parametrize("n, d, label", BENCHMARK_SHAPES)
def test_baseline_clone_matches_fallback_at_benchmark_shapes(
        baseline_pair_aggregate, n, d, label):
    _assert_matches_fallback_at(baseline_pair_aggregate, n, d, label)


@pytest.mark.parametrize("block", (1, 2, 3))
def test_numpy_kernel_partner_blocks_match_oracle(monkeypatch, block):
    """The numpy kernel with its element budget cut to `block` partners of
    N x d, so that block boundaries fall inside N = 7 and the last block is
    short: the same bytes as the scalar oracle."""
    n, d = 7, 3
    monkeypatch.setattr(pairwise_py, "PAIR_BLOCK_ELEMENTS", block * n * d)
    for cloud, x in _clouds(n, d).items():
        for label, kernel in dict(SPECIAL, non_special=NON_SPECIAL,
                                  untamed_g=UNTAMED_G).items():
            with np.errstate(over="ignore", invalid="ignore"):
                _assert_same(pair_aggregate(x, *kernel),
                             pair_aggregate_naive(x, *kernel),
                             "%s, %s cloud" % (label, cloud))


def test_compiled_accepts_any_layout(c_pair_aggregate):
    # mvsde._core.pair_aggregate, the numpy kernel on both backends
    x = np.random.default_rng(7).normal(size=(3, 9)).T  # Fortran order
    kernel = SPECIAL["poc-rate"]
    _assert_same(pair_aggregate(x, *kernel),
                 c_pair_aggregate(np.ascontiguousarray(x), *kernel),
                 "transposed input")
    with pytest.raises(ValueError):
        pair_aggregate(np.zeros(4), *kernel)


@pytest.mark.parametrize("d", (1, 3, 9))
@pytest.mark.parametrize("q", (1.0, 1.5, 3.0))
def test_pair_sums_agree_at_every_q(c_pair_aggregate, q, d):
    """The kernel arguments of every taming variant at growth order q, g
    tamed as the scheme tames it: C, numpy and the oracle agree byte for
    byte."""
    for family in ("cubic-mean-field", "ergodic-dissipative"):
        model = make_model(family, d=d, params={"q": q})
        for variant in VARIANTS:
            tm = TamedModel(model, 16, variant)
            kernel = (model.kf1, model.kfq, model.q_f, model.c_g, tm.gamma,
                      tm.e)
            for cloud, x in _clouds(17, d).items():
                what = "%s, %s, %s cloud" % (family, variant, cloud)
                got = c_pair_aggregate(x, *kernel)
                with np.errstate(over="ignore", invalid="ignore"):
                    _assert_same(got, pair_aggregate(x, *kernel), what)
                    _assert_same(got, pair_aggregate_naive(x, *kernel), what)


def test_power_is_libm_pow_outside_its_special_cases():
    """power gives np.power's 1, r and r * r at 0, 1 and 2 and the C
    library's pow elsewhere, the pow the compiled kernels call, with an
    overflow as +inf."""
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    libm.pow.restype = ctypes.c_double
    libm.pow.argtypes = [ctypes.c_double, ctypes.c_double]
    r = np.concatenate([np.random.default_rng(3).lognormal(0.0, 3.0, 4000),
                        [0.0, 1.0, 5e-324, 1e200, np.inf, np.nan]])
    with np.errstate(over="ignore"):
        for e in (0.0, 1.0, 2.0):
            assert np.array_equal(power(r, e), np.power(r, e),
                                  equal_nan=True), e
        for e in (0.5, 1.5, 3.0, 4.0, 6.0, 8.0):
            got = power(r, e)
            want = np.array([libm.pow(v, e) for v in r.tolist()])
            assert got.dtype == np.float64
            assert np.array_equal(got, want, equal_nan=True), e
            assert got[-2] == np.inf and (e < 2.0 or got[-3] == np.inf)


def test_force_fallback_selects_numpy():
    src = os.path.dirname(os.path.dirname(mvsde.__file__))
    env = dict(os.environ, MVSDE_FORCE_FALLBACK="1", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import mvsde, mvsde._core as c; "
         "print(mvsde.backend_name(), c.kernels is c.NUMPY, "
         "c.pair_aggregate is c.pairwise_py.pair_aggregate)"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.split() == ["numpy", "True", "True"]
    # NUMPY is the pairwise_py kernels and no fused kernel
    assert NUMPY.name == "numpy" and NUMPY.bind_advance is None
    for name in set(vars(NUMPY)) - {"name", "bind_advance"}:
        assert getattr(NUMPY, name) is getattr(pairwise_py, name), name


def test_loader_binds_every_kernel_or_none(compiled_library, build_library,
                                           tmp_path):
    compiled = _select_backend(compiled_library)
    assert compiled.name == "c" and callable(compiled.bind_advance)
    for name in set(vars(compiled)) - {"name"}:
        assert getattr(compiled, name) is not getattr(NUMPY, name), name
    # stale libraries from before the fused kernel, the row sum, the
    # Philox streams, the inverse normal CDF, the increments kernel and the
    # float text
    older = ["mvsde_pair_aggregate", "mvsde_advance", "mvsde_fsum_rows",
             "mvsde_philox_uniforms", "mvsde_ndtri",
             "mvsde_quantized_increments"]
    for missing, symbols in (
            ("mvsde_advance", older[:1]),
            ("mvsde_fsum_rows", older[:2]),
            ("mvsde_philox_uniforms", older[:3]),
            ("mvsde_ndtri", older[:4]),
            ("mvsde_quantized_increments", older[:5]),
            ("mvsde_repr_join", older)):
        stub = tmp_path / ("stale_%s.c" % missing)
        stub.write_text("".join("void %s(void) {}\n" % sym
                                for sym in symbols))
        stale = build_library(str(stub), stub.stem + ".so")
        with pytest.raises(AttributeError, match=missing):
            load_compiled(stale)
        assert _select_backend(stale) is NUMPY
    # every kernel, but from before the ABI constant or from another ABI,
    # the previous one (6, whose mvsde_pair_aggregate took a tame_g
    # argument after te) among them: the package and the library must
    # agree on every signature, the step struct and the size of the work
    # array
    for label, abi, found in (("unversioned", "", 0),
                              ("previous", "const int mvsde_abi = 6;\n", 6),
                              ("other", "const int mvsde_abi = 8;\n", 8)):
        stub = tmp_path / ("stale_%s.c" % label)
        stub.write_text(abi + "".join(
            "void %s(void) {}\n" % sym
            for sym in older + ["mvsde_repr_join"]))
        stale = build_library(str(stub), stub.stem + ".so")
        with pytest.raises(AttributeError, match="mvsde_abi is %d, the "
                           "package needs 7" % found):
            load_compiled(stale)
        assert _select_backend(stale) is NUMPY
    assert _select_backend(str(tmp_path / "missing.so")) is NUMPY
    assert _select_backend(None) is NUMPY


def test_signature_table_binds_every_exported_kernel(compiled_library):
    """The loader's signature table names every non-static mvsde_*
    function pairwise.c defines but mvsde_pair_aggregate, which only the
    fused kernel calls (conftest.py binds it for its own comparisons), and
    both backends expose the same names."""
    with open(SOURCE) as fh:
        defined = set(re.findall(r"^(?!static\b)\w[\w\s*]*?\b(mvsde_\w+)\(",
                                 fh.read(), re.M))
    assert "mvsde_advance" in defined
    assert set(_core._SIGNATURES) == defined - {"mvsde_pair_aggregate"}
    assert vars(load_compiled(compiled_library)).keys() == vars(NUMPY).keys()


def _counted(backend, calls):
    """backend with every kernel wrapped to append (name, kernel) to calls
    when it runs; bind_advance stays None on NUMPY."""
    def wrap(kernel, fn):
        def counted(*args, **kwargs):
            calls.append((backend.name, kernel))
            return fn(*args, **kwargs)
        return counted

    return types.SimpleNamespace(name=backend.name, **{
        kernel: fn and wrap(kernel, fn) for kernel, fn in vars(backend).items()
        if kernel != "name"})


def test_one_assignment_switches_every_kernel(monkeypatch, compiled_library,
                                              tmp_path, capsys):
    """Assigning _core.kernels switches every module that runs a kernel,
    and backend_name: a moment-stability driver run calls every kernel of
    the assigned backend and none of the other, and its report echoes the
    backend's name, first "c", then "numpy", in one process."""
    ini = tmp_path / "moment.ini"
    calls = []
    echoes = []
    for backend in (load_compiled(compiled_library), NUMPY):
        out_dir = tmp_path / backend.name
        ini.write_text("[run]\nexperiment = moment-stability\nreps = 1\n"
                       "out_dir = %s\n[grid]\nT = 2.0\nn = 2\n[ensemble]\n"
                       "N = 5\ninitial = gaussian 0.0 1.0\n" % out_dir)
        monkeypatch.setattr(_core, "kernels", _counted(backend, calls))
        assert mvsde.cli.main(["moment-stability", "--config", str(ini)]) \
            in (0, 2)
        capsys.readouterr()
        with open(out_dir / "moment_stability_report.json") as fh:
            echoes.append(json.load(fh)["config"]["backend"])
    assert echoes == ["c", "numpy"]
    kernels = {"fsum_rows", "philox_uniforms", "ndtri",
               "quantized_increments", "repr_join"}
    assert {k for b, k in calls if b == "c"} == kernels | {"bind_advance"}
    assert {k for b, k in calls if b == "numpy"} == kernels
    # every C call came before every NumPy one
    names = [b for b, _ in calls]
    assert names == sorted(names)


def test_step_struct_takes_its_names_from_coefficients():
    """struct mvsde_coeffs in pairwise.c and _Coeffs list the same fields
    in the same order: h, model.COEFFICIENTS, gamma and e, then k_noise,
    so the struct, _Coeffs and the fused kernel's coefficient dict share
    one list of names."""
    with open(SOURCE) as fh:
        body = re.search(r"struct mvsde_coeffs \{(.*?)\};", fh.read(),
                         re.S).group(1)
    names = re.findall(r"(\w+)\s*[,;]",
                       re.sub(r"\b(double|ptrdiff_t)\b", "", body))
    assert names == [name for name, _ in _Coeffs._fields_]
    assert names == ["h", *COEFFICIENTS, "gamma", "e", "k_noise"]


@pytest.fixture(scope="module")
def compiled_fsum_rows(compiled_library):
    return load_compiled(compiled_library).fsum_rows


def _fsum_or_exception(row):
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _bits(values):
    """Raw bytes of float64 values, so that signed zeros and nan payloads
    compare too."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _sum_rows(m=1, scale=1.0):
    """A row of r**4-like terms: fourth powers of Gaussian norms."""
    r = np.random.default_rng(7).normal(size=m) * scale
    return (np.sqrt(r * r) ** 4).tolist()


def _one_chain(terms):
    """terms, each followed by 7 zeros."""
    return [v for x in terms for v in [x] + [0.0] * 7]


_TINY = 5e-324
# Rows near every edge of the compiled row sum's compensated pass (see
# fsum_certified in pairwise.c): it returns its own result only where its
# error bound proves that result correctly rounded, and fsum's algorithm
# gives every other row's.
FSUM_ROWS = {
    "mixed signs": [1.5, -2.25, 1e16, 3.0, -1e16, 0.1],
    "cancellation": [1e100, 1.0, -1e100, 1e-100],
    "half-even across partials": [1e-16, 1.0, 1e16],
    "subnormals": [_TINY, _TINY * 3, -_TINY, 2.2250738585072014e-308,
                   -1e-310],
    "signed zeros": [-0.0, -0.0],
    "inf": [1.0, math.inf, 2.0],
    "-inf": [-math.inf, 1e308, -math.inf],
    "inf + -inf": [math.inf, 1.0, -math.inf],
    "nan": [1.0, math.nan, 2.0],
    "nan and inf": [math.inf, math.nan],
    "overflow": [1.7e308, 1e308],
    "negative overflow": [-1.7e308, -1e308],
    "overflow after inf": [math.inf, 1.7e308, 1e308],
    "near DBL_MAX": [1.7976931348623157e308, -1e292, 1e292],
    "long equal": [81.0] * 256,
    # exact ties: round half to even, down from an even mantissa and up
    # from an odd one
    "tie to even": [1.0, 2.0 ** -53],
    "tie from odd": [1.0 + 2.0 ** -52, 2.0 ** -53],
    "near tie above": [1.0, 2.0 ** -53, 2.0 ** -200],
    "near tie below": [1.0, 2.0 ** -53, -2.0 ** -200],
    # just below a power of two the gap below is half the gap above: a
    # bound tested against the gap above would keep 1.0 here
    "below a power of two": [1.0, -2.0 ** -54, -2.0 ** -200],
    "tie below a power of two": [1.0, -2.0 ** -54],
    "above a power of two": [1.0, -2.0 ** -54, 2.0 ** -200],
    # the compensation's own roundings: every -2^-106 ties and rounds to
    # even, so c ends 10 * 2^-106 above the exact sum of the errors, and
    # the exact sum falls below the midpoint its c + s lies above. A
    # bound an eighth of the pass's own would accept 1.5 + 2^-52
    "compensation drift": [1.5, 2.0 ** -53, 4 * 2.0 ** -105]
    + [-2.0 ** -106] * 10,
    "long compensation drift": [1.5, 2.0 ** -53, 64 * 2.0 ** -105]
    + [-2.0 ** -106] * 200,
    # the same, each term followed by 7 zeros: the pass runs 8 TwoSum
    # chains along a row, and all the terms fall into one of them
    "compensation drift in one chain": _one_chain(
        [1.5, 2.0 ** -53, 4 * 2.0 ** -105] + [-2.0 ** -106] * 10),
    "long compensation drift in one chain": _one_chain(
        [1.5, 2.0 ** -53, 64 * 2.0 ** -105] + [-2.0 ** -106] * 200),
    "zero": [1.0, -1.0],
    "zero from -0.0": [-0.0, 0.0],
    "negative zero from cancellation": [-1.0, 1.0, -0.0],
    "subnormal result": [2.0 ** -1020, -2.0 ** -1020 + 2.0 ** -1070],
    "just below the threshold": [2.0 ** -1001, 2.0 ** -1060],
    "just above the threshold": [2.0 ** -999, 2.0 ** -1050],
    "huge terms": [2.0 ** 1000, -2.0 ** 1000, 3.0],
    "r**4 row": _sum_rows(4096),
    "r**4 row, wide range": _sum_rows(4096, 1e20),
}


@pytest.mark.parametrize("label", sorted(FSUM_ROWS))
def test_fsum_rows_matches_math_fsum(compiled_fsum_rows, label):
    row = FSUM_ROWS[label]
    want = _fsum_or_exception(row)
    for fsum_rows in (compiled_fsum_rows, pairwise_py.fsum_rows):
        got = fsum_rows(np.array([row]))
        assert got.shape == (1,)
        assert _bits(got) == _bits([want]), label


# row lengths around the compensated pass's groups of FSUM_LANES = 8
# terms: every tail of the first groups, and a benchmark row of 256
# particles with one term more and one less
FSUM_WIDTHS = tuple(range(18)) + (255, 256, 257)


def _rows_at_every_lane(width):
    """Each FSUM_ROWS row that fits into width terms, at each of the 8
    offsets that fit, among zeros and among r**4 terms; and those two
    fillers alone."""
    filler = _sum_rows(width)
    rows = [[0.0] * width, filler]
    for label in sorted(FSUM_ROWS):
        row = FSUM_ROWS[label]
        for offset in range(min(8, width - len(row) + 1)):
            for fill in ([0.0] * width, filler):
                rows.append(fill[:offset] + row
                            + fill[offset + len(row):])
    return rows


@pytest.fixture(scope="module", params=["compiled", "baseline"])
def both_clones_fsum_rows(request):
    """The row sum of the library the package builds, whose AVX2 clone an
    AVX2 CPU runs, and of the baseline-only build."""
    name = "%s_library" % request.param
    return load_compiled(request.getfixturevalue(name)).fsum_rows


@pytest.mark.parametrize("width", FSUM_WIDTHS)
def test_fsum_rows_at_every_lane_offset(both_clones_fsum_rows, width):
    """Every adversarial row at every lane offset of the pass, among zeros
    and among r**4 terms, and the long ones with every offset in a row of
    their own length + 7: each sum equals math.fsum's bit for bit."""
    groups = [(width, _rows_at_every_lane(width))]
    if width == FSUM_WIDTHS[-1]:
        for row in FSUM_ROWS.values():
            if len(row) > width:
                groups.append((len(row) + 7, [[0.0] * k + row
                                              + [0.0] * (7 - k)
                                              for k in range(8)]))
    for cols, rows in groups:
        a = np.array(rows, dtype=np.float64).reshape(len(rows), cols)
        want = [_fsum_or_exception(row) for row in a.tolist()]
        assert _bits(both_clones_fsum_rows(a)) == _bits(want)


@pytest.mark.parametrize("rows", range(1, 10))
def test_fsum_rows_every_row_count(compiled_fsum_rows, rows):
    """1 to 9 rows, with rows the compensated pass proves and rows it
    hands to fsum's algorithm in every position."""
    # the pass proves the first, third and fifth and hands over the rest
    cases = [_sum_rows(40)] + [FSUM_ROWS[label] for label in (
        "compensation drift", "just above the threshold", "tie to even",
        "long equal", "nan", "mixed signs", "below a power of two",
        "overflow")]
    width = max(len(row) for row in cases)
    for shift in range(len(cases)):
        picked = [cases[(shift + i) % len(cases)] for i in range(rows)]
        a = np.array([row + [0.0] * (width - len(row)) for row in picked])
        want = [_fsum_or_exception(row) for row in a.tolist()]
        assert _bits(compiled_fsum_rows(a)) == _bits(want), shift


def _mixed_terms():
    """Integers below 2^53 scaled by 2^-133 to 2^27, powers of two that
    can fall on half an ulp of a partial sum, and signed zeros."""
    term = st.builds(lambda m, e: m * 2.0 ** e,
                     st.integers(-(2 ** 53) + 1, 2 ** 53 - 1),
                     st.integers(-133, 27))
    half_ulp = st.builds(lambda s, e: s * 2.0 ** e, st.sampled_from([-1, 1]),
                         st.integers(-110, 2))
    return st.one_of(term, half_ulp, st.just(0.0), st.just(-0.0))


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.lists(_mixed_terms(), max_size=40), min_size=1,
                     max_size=9))
def test_fsum_rows_mixed_exponents(compiled_fsum_rows, rows):
    width = max(len(row) for row in rows)
    a = np.array([row + [0.0] * (width - len(row)) for row in rows])
    want = [_fsum_or_exception(row) for row in a.tolist()]
    assert _bits(compiled_fsum_rows(a)) == _bits(want)


def test_fsum_rows_random_and_empty(compiled_fsum_rows):
    rng = np.random.default_rng(11)
    rows = (rng.standard_cauchy((200, 33))
            * 10.0 ** rng.integers(-300, 300, (200, 33)))
    rows[::7] = np.abs(rng.normal(size=(33,))) ** 4
    want = [_fsum_or_exception(row) for row in rows.tolist()]
    for fsum_rows in (compiled_fsum_rows, pairwise_py.fsum_rows):
        assert _bits(fsum_rows(rows)) == _bits(want)
        assert _bits(fsum_rows(rows.T[::2])) == _bits(
            [_fsum_or_exception(row) for row in rows.T[::2].tolist()])
        empty = fsum_rows(np.zeros((3, 0)))
        assert _bits(empty) == _bits([0.0] * 3)
        assert fsum_rows(np.zeros((0, 4))).shape == (0,)
    with pytest.raises(ValueError):
        compiled_fsum_rows(np.zeros(4))


@pytest.fixture(scope="module")
def compiled_ndtri(compiled_library):
    return load_compiled(compiled_library).ndtri


# Values for the short arrays and blocks of _ndtri_inputs: central ones,
# tail ones in both tails and below exp(-32), and the values that every
# lane must hand to the scalar path: 0, 1, -0.0, outside [0, 1] and nan.
_NDTRI_CENTRAL = [0.5, 0.3, 0.7, 0.14, 0.86, 0.5 - 2.0 ** -53]
_NDTRI_TAIL = [0.01, 0.99, 1e-5, 1.0 - 1e-5, 1e-20, 5e-324,
               0.1353352832366127, 1.0 - 2.0 ** -53]
_NDTRI_SPECIAL = [0.0, 1.0, -0.0, -0.25, 1.5, math.nan]


def _ndtri_inputs():
    """Arrays of inputs. First, uniforms as the tableau floors them, dyadic
    grids at both ends, the tails and the edges of every branch of Cephes
    ndtri. Then, so that every lane of the four-lane passes and every
    remainder is hit, arrays of every length from 1 to 9, each in every
    rotation of a pool of central, tail and special values; and blocks of
    1000 to 1002 values, past one chunk of the C kernel, that are all
    central, all tail, and alternating."""
    k = np.arange(1, 4097) * 2.0 ** -53
    edges = []
    # exp(-2) splits the central approximation from the tails, y near
    # exp(-32) is where x = sqrt(-2 log y) crosses 8 (P1/Q1 to P2/Q2)
    for edge in (0.1353352832366127, 1.0 - 0.1353352832366127,
                 math.exp(-32.0), 1.0 - math.exp(-32.0)):
        for toward in (0.0, 1.0):
            v = edge
            for _ in range(64):
                v = math.nextafter(v, toward)
                edges.append(v)
        edges.append(edge)
    uniforms = np.random.default_rng(8).random(10 ** 6)
    grid = np.concatenate([
        np.maximum(uniforms, 2.0 ** -54), k, 1.0 - k,
        2.0 ** -np.arange(1.0, 61.0), edges,
        [0.5, 0.0, 1.0, math.nextafter(1.0, 0.0), 2.0 ** -54]])
    pool = np.array(_NDTRI_CENTRAL + _NDTRI_TAIL + _NDTRI_SPECIAL)
    short = [np.roll(pool, shift)[:length] for length in range(1, 10)
             for shift in range(len(pool))]
    alternating = np.empty(1002)
    alternating[0::2] = np.resize(_NDTRI_CENTRAL, 501)
    alternating[1::2] = np.resize(_NDTRI_TAIL, 501)
    return [grid] + short + [np.resize(_NDTRI_CENTRAL, 1000),
                             np.resize(_NDTRI_TAIL, 1001), alternating]


def _same_bits(got, want):
    return np.array_equal(np.asarray(got).view(np.int64),
                          np.asarray(want).view(np.int64))


def _assert_ndtri_matches_scipy(kernel):
    from scipy.special import ndtri

    inputs = _ndtri_inputs()
    for y in inputs:
        want = ndtri(y)
        got = kernel(y)
        assert got is not y and got.shape == y.shape
        mismatch = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert mismatch.size == 0, [(y.size, y[i], got[i], want[i])
                                    for i in mismatch[:5]]
        # in place, as sample_initial calls it
        buf = y.copy()
        assert kernel(buf, out=buf) is buf and _same_bits(buf, want)
        assert _same_bits(pairwise_py.ndtri(y), want)
    got = kernel(inputs[0])
    assert got[-5:-2].tolist() == [0.0, -math.inf, math.inf]
    assert not np.signbit(got[-5])


def test_ndtri_matches_scipy_bit_for_bit(compiled_ndtri):
    _assert_ndtri_matches_scipy(compiled_ndtri)


def test_setup_builds_without_contraction(setup_flags):
    # the tests build with setup.py's own flags (conftest.py); without
    # this one a compiler may fuse a multiply and an add, which rounds once
    # where NumPy and SciPy round twice
    assert "-ffp-contract=off" in setup_flags


def test_kernel_source_compiles_without_warnings(build_library,
                                                baseline_source):
    # setup.py's flags plus -Wall -Wextra -Werror, with runtime dispatch
    # and without: a leftover unused function or a signed/unsigned slip in
    # the kernels fails here
    for path, name in ((SOURCE, "pairwise_strict.so"),
                       (baseline_source, "pairwise_baseline_strict.so")):
        try:
            build_library(path, name, ["-Wall", "-Wextra", "-Werror"])
        except subprocess.CalledProcessError as exc:
            pytest.fail(exc.stderr.decode(errors="replace"))


def test_hot_path_has_an_avx2_clone(compiled_library, build_library,
                                    tmp_path):
    """The library built with setup.py's flags holds an AVX2 clone of each
    function that pairwise.c marks STEP_CLONES. It runs only on x86-64
    with glibc and a compiler that takes target_clones, where pairwise.c
    turns runtime dispatch on, and skips elsewhere. Without it, a compiler
    or a gate in pairwise.c that dropped the attribute would lose the AVX2
    speed, and no test would fail: both clones give the same bits."""
    if (platform.machine() != "x86_64"
            or platform.libc_ver()[0] != "glibc"):
        pytest.skip("runtime dispatch is built on x86-64 glibc only")
    probe = tmp_path / "probe.c"
    probe.write_text('__attribute__((target_clones("avx2", "default")))\n'
                     "int probe(int x) { return x + 1; }\n")
    try:
        build_library(str(probe), "probe.so")
    except subprocess.CalledProcessError:
        pytest.skip("the C compiler refuses target_clones")
    with open(compiled_library, "rb") as fh:
        image = fh.read()
    for name in ("mvsde_pair_aggregate", "row_norms", "step_once",
                 "mvsde_fsum_rows", "mvsde_ndtri",
                 "mvsde_quantized_increments"):
        assert (name + ".avx2").encode() in image, name


def test_hot_path_has_the_wide_tile(compiled_library, build_library,
                                   tmp_path):
    """The library built with setup.py's flags holds pair_aggregate_wide,
    the 8-row AVX-512 pair tile that mvsde_pair_aggregate calls at d >= 2
    on a CPU with AVX-512F, DQ and VL. It skips where pairwise.c leaves
    the tile out: off x86-64 glibc, and where the compiler refuses
    target_clones or the tile's target attribute. Without it, a gate that
    dropped the tile would lose its speed, and no test would fail: the
    4-row tile gives the same bits."""
    if (platform.machine() != "x86_64"
            or platform.libc_ver()[0] != "glibc"):
        pytest.skip("the wide tile is built on x86-64 glibc only")
    probe = tmp_path / "probe.c"
    probe.write_text('__attribute__((target_clones("avx2", "default")))\n'
                     "int probe(int x) { return x + 1; }\n"
                     '__attribute__((target("avx512f,avx512dq,avx512vl")))\n'
                     "int wide(int x) { return x + 2; }\n")
    try:
        build_library(str(probe), "probe_wide.so")
    except subprocess.CalledProcessError:
        pytest.skip("the C compiler refuses the wide tile's attributes")
    with open(compiled_library, "rb") as fh:
        assert b"pair_aggregate_wide" in fh.read()


def test_ndtri_built_with_fma_matches_scipy(fma_library):
    _assert_ndtri_matches_scipy(load_compiled(fma_library).ndtri)


def test_ndtri_baseline_build_matches_scipy(baseline_library):
    _assert_ndtri_matches_scipy(load_compiled(baseline_library).ndtri)


def test_ndtri_takes_strided_input(compiled_ndtri):
    # sample_initial passes the u[:, :d] columns of a block
    u = np.random.default_rng(9).random((33, 4))
    got = compiled_ndtri(u[:, :3])
    assert got.shape == (33, 3) and got.flags.c_contiguous
    assert _same_bits(got, pairwise_py.ndtri(u[:, :3]))
    assert _same_bits(compiled_ndtri(u.T), pairwise_py.ndtri(u.T))
    strided = u.T
    for v, out in ((strided, strided), (u, u.copy())):
        with pytest.raises(ValueError, match="in place"):
            compiled_ndtri(v, out=out)


# the start of a child that drives the CLI on the compiled kernels at
# sys.argv[1]
_ON_COMPILED = """
import contextlib, io, sys

import mvsde.cli
from mvsde import _core

_core.kernels = _core.load_compiled(sys.argv[1])
"""

# drives the CLI on the compiled kernels in a fresh interpreter, then
# prints every SciPy module it loaded
_RUN_WITHOUT_SCIPY = _ON_COMPILED + """
for command, ini in zip(("strong-rate", "moment-stability"), sys.argv[2:]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = mvsde.cli.main([command, "--config", ini])
    assert code in (0, 2), (command, code)
print(" ".join(m for m in sys.modules if m.startswith("scipy")))
"""

_EXACT_ASSIGNMENT = """
import itertools, math, sys

import numpy as np
from mvsde.metrics import w2

assert not [m for m in sys.modules if m.startswith("scipy")]
gen = np.random.default_rng(11)
a, b = gen.normal(size=(6, 2)), gen.normal(size=(6, 2))
brute = min(sum(float(np.sum((a[i] - b[j]) ** 2)) for i, j in enumerate(p))
            for p in itertools.permutations(range(6)))
got = w2(a, b, method="exact_assignment")
assert abs(got - math.sqrt(brute / 6)) < 1e-12, (got, brute)
print("scipy.optimize" in sys.modules)
"""


# runs code in a fresh interpreter on this checkout's sources; it drops
# MVSDE_FORCE_FALLBACK but hands the child no compiled library, so the
# child runs on whichever backend the checkout holds. A caller that needs
# the C backend passes compiled_library and binds it in the child.
def _run_python(code, *args):
    src = os.path.dirname(os.path.dirname(mvsde.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MVSDE_FORCE_FALLBACK", None)
    return subprocess.run([sys.executable, "-c", code] + list(args),
                          env=env, check=True, capture_output=True,
                          text=True, timeout=300).stdout


def test_compiled_run_imports_no_scipy(compiled_library, tmp_path):
    """A strong-rate and a moment-stability run on the compiled kernels
    load no SciPy module: the inverse normal CDF is the C one, and only
    the exact_assignment W2 route would import the assignment solver."""
    configs = []
    for name, body in (
            ("strong", "[run]\nexperiment = strong-rate\nreps = 2\n"
                       "p0 = 16.0\nout_dir = %s\n[grid]\nlevels = 4,8\n"
                       "n_max = 32\nT = 1.0\n[ensemble]\nN = 8\n"
                       "initial = gaussian 0.0 1.0\n"),
            ("moment", "[run]\nexperiment = moment-stability\nreps = 2\n"
                       "out_dir = %s\n[model]\nd = 3\n[grid]\nT = 5.0\n"
                       "n = 2\n[ensemble]\nN = 9\n"
                       "initial = uniform_ball 0.0 1.0\n")):
        path = tmp_path / (name + ".ini")
        path.write_text(body % (tmp_path / name))
        configs.append(str(path))
    out = _run_python(_RUN_WITHOUT_SCIPY, compiled_library, *configs)
    assert out.split() == []


# drives a run of the experiment sys.argv[3] on the compiled kernels in a
# fresh interpreter, then prints every numpy.ma module it loaded
_RUN_WITHOUT_NUMPY_MA = _ON_COMPILED + """
with contextlib.redirect_stdout(io.StringIO()):
    assert mvsde.cli.main([sys.argv[3], "--config", sys.argv[2]]) in (0, 2)
print(" ".join(m for m in sys.modules
               if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_strong_rate_run_imports_no_numpy_ma(compiled_library, tmp_path):
    """A strong-rate run on the compiled kernels loads no numpy.ma module.
    The first np.unique call of a process imports numpy.ma, which costs
    more than a small run; StateRecorder sorts and dedupes its steps
    without it. The claim is checked on C only: on the NumPy backend the
    documented ndtri is scipy.special.ndtri, and importing scipy.special
    imports numpy.ma itself."""
    path = tmp_path / "strong.ini"
    path.write_text("[run]\nexperiment = strong-rate\nreps = 2\n"
                    "p0 = 16.0\nout_dir = %s\n[grid]\nlevels = 4,8\n"
                    "n_max = 32\nT = 1.0\n[ensemble]\nN = 8\n"
                    % (tmp_path / "out"))
    out = _run_python(_RUN_WITHOUT_NUMPY_MA, compiled_library, str(path),
                      "strong-rate")
    assert out.split() == []


def test_moment_stability_run_imports_no_numpy_ma(compiled_library,
                                                  tmp_path):
    """A moment-stability run on the compiled kernels loads no numpy.ma
    module either. With reps = 2 and p0 = 4, rep 1's MomentTracker keeps
    no series and filters its rows by the einsum bound, so the run takes
    both the series path and the filtered one."""
    path = tmp_path / "moment.ini"
    path.write_text("[run]\nexperiment = moment-stability\nreps = 2\n"
                    "p0 = 4.0\nout_dir = %s\n[grid]\nT = 5.0\nn = 2\n"
                    "[ensemble]\nN = 9\n" % (tmp_path / "out"))
    out = _run_python(_RUN_WITHOUT_NUMPY_MA, compiled_library, str(path),
                      "moment-stability")
    assert out.split() == []


def test_exact_assignment_imports_its_solver_on_demand():
    assert _run_python(_EXACT_ASSIGNMENT).split() == ["True"]


@pytest.fixture(scope="module", params=["default", "fma", "baseline"])
def c_repr_join(request):
    """repr_join of the library built with setup.py's flags, of the -mfma
    build and of the baseline-only build."""
    name = {"default": "compiled_library", "fma": "fma_library",
            "baseline": "baseline_library"}[request.param]
    return load_compiled(request.getfixturevalue(name)).repr_join


def _with_neighbours(values):
    """values and the doubles one ulp above and below each, finite ones."""
    a = np.asarray(values, dtype=np.float64)
    a = np.concatenate([a, np.nextafter(a, np.inf),
                        np.nextafter(a, -np.inf)])
    return a[np.isfinite(a)]


def _repr_families():
    """Doubles where the shortest digits or repr's layout have an edge,
    both signs: every power of two and of ten in range; the subnormals
    from 5e-324 up and the largest ones; the integers around 2^53 and
    2^54, where the spacing passes 1 and 2; 64 ulps on either side of
    1e-4 and 1e16, where repr switches between fixed and exponent
    notation; the doubles nearest the 17-digit decimal midpoints
    d1...d16 5 at every exponent, where the rounding of the last digit is
    closest to a tie; each with its ulp neighbours; and +-0.0."""
    gen = np.random.default_rng(2018)
    values = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values += [float("1e%d" % k) for k in range(-323, 309)]
    values += [float(2 ** 53 + k) for k in range(-300, 300)]
    values += [float(2 ** 54 + k) for k in range(-300, 300)]
    for edge in (1e-4, 1e16):
        for way in (np.inf, -np.inf):
            x = edge
            for _ in range(64):
                x = np.nextafter(x, way)
                values.append(float(x))
    for e in range(-339, 293):
        mantissa = int(gen.integers(10 ** 15, 10 ** 16))
        values.append(float("%d5e%d" % (mantissa, e)))
    subnormal = np.concatenate([np.arange(1, 3000),
                                np.arange(2 ** 52 - 3000, 2 ** 52)])
    values += subnormal.astype(np.uint64).view(np.float64).tolist()
    a = _with_neighbours(values)
    return np.concatenate([a, -a, [0.0, -0.0]]).tolist()


def test_repr_join_matches_repr_on_structured_families(c_repr_join):
    values = _repr_families()
    for sep in (",\n      ", ""):
        assert c_repr_join(values, sep) == pairwise_py.repr_join(values, sep)
    # the longest text fits the width the binding sizes its buffer by
    texts = c_repr_join(values, " ").split(" ")
    assert max(map(len, texts)) == 24 == len(repr(-2.0 ** -1022))


def test_repr_join_matches_repr_on_random_bits(compiled_library):
    """2^20 random finite bit patterns: every exponent, mostly exponent
    notation, 17 digits or fewer."""
    bits = np.random.default_rng(20).integers(0, 2 ** 64, size=1 << 20,
                                              dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)].tolist()
    assert len(values) > (1 << 20) - 2000
    join = load_compiled(compiled_library).repr_join
    assert join(values, ",") == pairwise_py.repr_join(values, ",")


def test_repr_join_edges(compiled_library):
    """Empty and one-value lists, separators of any length and any text,
    and a non-finite value: the kernel returns -1 and the binding writes
    the list as the reference does."""
    join = load_compiled(compiled_library).repr_join
    for values in ([], [0.5], [-0.0, 1e16, 1e-5, 123.0, 0.0001]):
        for sep in ("", ",", ", · ", ",\n" + " " * 40):
            assert join(values, sep) == pairwise_py.repr_join(values, sep)
    kernel = ctypes.CDLL(compiled_library).mvsde_repr_join
    kernel.restype = ctypes.c_ssize_t
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_char_p,
                       ctypes.c_ssize_t, ctypes.c_void_p]
    out = ctypes.create_string_buffer(256)
    for bad in (math.inf, -math.inf, math.nan):
        values = [1.5, 2.0, bad, 3.0]
        a = np.array(values)
        assert kernel(a.ctypes.data, len(a), b",", 1, out) == -1
        assert kernel(a.ctypes.data, 2, b",", 1, out) == 7
        assert out.raw[:7] == b"1.5,2.0"
        assert join(values, ", ") == pairwise_py.repr_join(values, ", ")
