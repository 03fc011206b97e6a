"""Brownian tableau: refinement coupling, prefixes, initial laws."""

import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from mvsde import _core, rng
from mvsde._core import NUMPY, load_compiled, pairwise_py
from mvsde._core.pairwise_py import QUANT
from mvsde.rng import (ELEMENT_CAP, _INIT_SALT, initial_law,
                       level_increments, make_tableau, parse_initial,
                       sample_initial)


@pytest.fixture(params=["c", "numpy"])
def uniforms(request):
    """philox_uniforms of one backend; the C one compiled for the test."""
    if request.param == "numpy":
        return NUMPY.philox_uniforms
    return load_compiled(
        request.getfixturevalue("compiled_library")).philox_uniforms


def _with_uniforms(monkeypatch, uniforms):
    """Make the active backend's philox_uniforms uniforms, its other
    kernels unchanged."""
    monkeypatch.setattr(_core, "kernels", types.SimpleNamespace(
        **dict(vars(_core.kernels), philox_uniforms=uniforms)))


def test_refinement_exact_zero_tolerance():
    """Coarse increments are exact sums of fine ones, any chain."""
    tab = make_tableau(2024, 4, 2, 2.0, 128)
    fine = level_increments(tab, 128)
    assert fine.shape == (256, 4, 2)
    for n in (1, 2, 4, 8, 16, 32, 64):
        coarse = level_increments(tab, n)
        ratio = 128 // n
        folded = fine.reshape(2 * n, ratio, 4, 2).sum(axis=1)
        assert np.array_equal(coarse, folded), n


def test_total_path_level_independent():
    # quantized increments are integer multiples of QUANT, so every
    # partial sum is exact and the total cannot depend on the level
    tab = make_tableau(7, 3, 1, 1.0, 1024)
    totals = [level_increments(tab, n).sum(axis=0)
              for n in (1, 4, 32, 256, 1024)]
    for t in totals[1:]:
        assert np.array_equal(totals[0], t)


def test_increments_are_quantized():
    tab = make_tableau(99, 2, 2, 1.0, 64)
    w = level_increments(tab, 64)
    k = w / QUANT
    assert np.array_equal(k, np.rint(k))


def test_increment_moments_sane():
    tab = make_tableau(5, 64, 1, 1.0, 256)
    w = level_increments(tab, 256)
    z = w * np.sqrt(256.0)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_random_access_matches_bulk():
    """One-step windows agree bitwise with the bulk pull and with the sum
    of the finest increments they cover."""
    tab = make_tableau(31, 5, 2, 1.0, 32)
    fine = level_increments(tab, 32)
    for n in (4, 32):
        bulk = level_increments(tab, n)
        r = 32 // n
        for i in (0, 3, 4):
            for k in (0, 1, n - 1):
                got = level_increments(tab, n, k, k + 1)[0, i]
                assert np.array_equal(got, bulk[k, i])
                assert np.array_equal(got, fine[k * r:(k + 1) * r, i]
                                      .sum(axis=0))


def test_finest_level_is_the_summed_form():
    """The finest level is a read-only view with the bits of the sum."""
    tab = make_tableau(5, 7, 3, 2.0, 16)
    for lo, hi in ((0, 32), (3, 9)):
        fine = level_increments(tab, 16, lo, hi)
        summed = fine.reshape(hi - lo, 1, 7, 3).sum(axis=1)
        assert np.array_equal(fine, summed)
        assert np.array_equal(np.signbit(fine), np.signbit(summed))
        assert not fine.flags.writeable


def test_finest_level_holds_no_negative_zero(monkeypatch):
    # just below 1/2, ndtri is a tiny negative number that rounds to -0.0
    # on the grid; the summed form would give +0.0 there
    below_half = 0.5 - 2.0 ** -53
    _with_uniforms(monkeypatch,
                   lambda key0, shape: np.full(shape, below_half))
    tab = make_tableau(1, 3, 2, 1.0, 4)
    fine = level_increments(tab, 4)
    assert (fine == 0.0).all() and not np.signbit(fine).any()


@pytest.fixture(params=["c", "baseline", "fma"])
def c_increments(request):
    """mvsde_quantized_increments of the library built with setup.py's
    flags (the AVX2 clone on an AVX2 CPU), of the baseline-only build and
    of the -mfma build."""
    library = {"c": "compiled_library", "baseline": "baseline_library",
               "fma": "fma_library"}[request.param]
    return load_compiled(request.getfixturevalue(library)).quantized_increments


def _assert_same_increments(kernel, u, scale):
    want = pairwise_py.quantized_increments(u.copy(), scale)
    got = u.copy()
    assert kernel(got, scale) is got
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    return got


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 1), (5, 3, 1),
                                   (7, 1, 3), (13, 3, 5), (257, 1, 1),
                                   (129, 3, 2), (1023, 1, 1)])
def test_quantized_increments_match_the_numpy_chain(c_increments, shape):
    """The C kernel equals its NumPy twin on blocks whose size is no
    multiple of 4, shorter and longer than one chunk of the kernel."""
    u = np.random.default_rng(sum(shape)).random(shape)
    for scale in (math.sqrt(1.0 / 1024), math.sqrt(1.0 / 3), 1.0):
        _assert_same_increments(c_increments, u, scale)


def test_quantized_increments_at_injected_uniforms(c_increments):
    """0.5 - 2^-53 gives +0.0; uniforms below the 2^-54 floor and 1 - 2^-53
    give their twin's bits, in every lane and remainder position."""
    edge = [0.5 - 2.0 ** -53, 0.0, 2.0 ** -60, 5e-324,
            math.nextafter(2.0 ** -54, 0.0), 2.0 ** -54, 1.0 - 2.0 ** -53]
    for length in range(1, 10):
        for shift in range(len(edge)):
            u = np.resize(np.roll(edge, shift), length)
            got = _assert_same_increments(c_increments, u, 1.0)
            zero = got[u == 0.5 - 2.0 ** -53]
            assert (zero == 0.0).all() and not np.signbit(zero).any()
    with pytest.raises(ValueError, match="in place"):
        c_increments(np.zeros((4, 2)).T, 1.0)


def test_particle_prefix_property():
    """A smaller ensemble shares the first noise streams of a larger one."""
    small = make_tableau(12345, 4, 2, 1.0, 64)
    big = make_tableau(12345, 32, 2, 1.0, 64)
    ws = level_increments(small, 64)
    wb = level_increments(big, 64)
    assert np.array_equal(ws, wb[:, :4, :])


def test_window_pull_matches_full():
    tab = make_tableau(8, 3, 1, 1.0, 64)
    full = level_increments(tab, 16)
    part = level_increments(tab, 16, 5, 11)
    assert np.array_equal(part, full[5:11])


def test_seed_changes_streams():
    a = level_increments(make_tableau(1, 2, 1, 1.0, 16), 16)
    b = level_increments(make_tableau(2, 2, 1, 1.0, 16), 16)
    assert not np.array_equal(a, b)


def test_sample_initial_point_exact():
    tab = make_tableau(3, 5, 1, 1.0, 8)
    x = sample_initial(tab, 5, 2, initial_law("point", center=3.0))
    assert (x == 3.0).all() and x.shape == (5, 2)


def test_sample_initial_prefix_and_determinism():
    law = initial_law("gaussian", center=1.0, scale=2.0)
    tab_a = make_tableau(77, 8, 1, 1.0, 8)
    tab_b = make_tableau(77, 64, 1, 1.0, 8)
    xa = sample_initial(tab_a, 8, 3, law)
    xb = sample_initial(tab_b, 64, 3, law)
    assert np.array_equal(xa, xb[:8])
    assert np.array_equal(xa, sample_initial(tab_a, 8, 3, law))


def test_sample_initial_laws_shape_and_scale():
    tab = make_tableau(4, 4096, 1, 1.0, 2)
    g = sample_initial(tab, 4096, 1, initial_law("gaussian", center=5.0,
                                                 scale=1.0))
    assert abs(g.mean() - 5.0) < 0.1 and abs(g.std() - 1.0) < 0.05
    u = sample_initial(tab, 4096, 3,
                       initial_law("uniform_ball", center=0.0, radius=2.0))
    r = np.sqrt((u * u).sum(-1))
    assert (r <= 2.0).all() and r.max() > 1.5


def test_initial_draws_independent_of_noise():
    # same seed, different horizons: initial positions must agree
    a = sample_initial(make_tableau(9, 4, 1, 1.0, 8), 4, 2,
                       initial_law("gaussian"))
    b = sample_initial(make_tableau(9, 4, 1, 4.0, 64), 4, 2,
                       initial_law("gaussian"))
    assert np.array_equal(a, b)


def test_parse_initial_forms():
    assert parse_initial("point 3.0") == initial_law("point", center=3.0)
    assert parse_initial("gaussian 0.0 1.0") == initial_law(
        "gaussian", center=0.0, scale=1.0)
    assert parse_initial("uniform_ball 1.0 2.0") == initial_law(
        "uniform_ball", center=1.0, radius=2.0)
    assert parse_initial("gaussian") == initial_law("gaussian")


def test_parse_initial_errors():
    for bad in ("", "nope 1.0", "gaussian one", "point 1 2 3"):
        with pytest.raises(ValueError):
            parse_initial(bad)


@pytest.mark.parametrize("law", ["point inf", "point -inf", "point nan",
                                 "gaussian inf 1", "gaussian 0 inf",
                                 "gaussian 0 nan", "uniform_ball -inf 1",
                                 "uniform_ball 0 inf"])
def test_parse_initial_refuses_non_finite_values(law):
    with pytest.raises(ValueError, match="non-finite value"):
        parse_initial(law)


@pytest.mark.parametrize("law, message", [
    ("point 3.0 5.0", "a point mass takes one value, its center"),
    ("point 0 0", "a point mass takes one value, its center"),
    ("gaussian 0 -1", "has a negative scale"),
    ("gaussian 2.5 -1e-300", "has a negative scale"),
    ("uniform_ball 0 -1", "has a negative radius")])
def test_parse_initial_refuses_a_dropped_or_reflected_value(law, message):
    # the second number of a point mass was dropped, and a negative std or
    # radius reflected the law through its center
    with pytest.raises(ValueError, match=message):
        parse_initial(law)


def test_tableau_validation():
    with pytest.raises(ValueError):
        make_tableau(1, 0, 1, 1.0, 8)
    with pytest.raises(ValueError):
        make_tableau(1, 2, 1, 1.0, 0)
    with pytest.raises(ValueError):
        level_increments(make_tableau(1, 2, 1, 1.0, 8), 3)  # not a divisor


@pytest.mark.parametrize("args, name", [
    ((1.7, 64, 1, 1.0, 8), "seed"), ((1, 64.9, 1, 1.0, 8), "N"),
    ((1, 64, 1.2, 1.0, 8), "l"), ((1, 64, 1, 1.0, 8.5), "n_max"),
    ((True, 64, 1, 1.0, 8), "seed"), ((1, 64, 1, 1.0, "8"), "n_max")])
def test_tableau_counts_must_be_whole_numbers(args, name):
    """seed, N, l and n_max follow model.whole_number: a fractional value,
    a bool or a string is refused, never truncated."""
    with pytest.raises(ValueError, match="%s must be a whole number" % name):
        make_tableau(*args)


def test_tableau_takes_integral_floats():
    tab = make_tableau(7.0, 4.0, 2.0, 1.0, 8.0)
    assert (tab.seed, tab.N, tab.l, tab.n_max) == (7, 4, 2, 8)
    assert all(type(v) is int for v in (tab.seed, tab.N, tab.l, tab.n_max))
    assert np.array_equal(level_increments(tab, 4.0),
                          level_increments(make_tableau(7, 4, 2, 1.0, 8), 4))


@pytest.mark.parametrize("n", [4.5, True, "4"])
def test_level_must_be_a_whole_number(n):
    with pytest.raises(ValueError, match="level n must be a whole number"):
        level_increments(make_tableau(1, 2, 1, 1.0, 8), n)


def test_tableau_drawn_on_first_read_and_kept(monkeypatch):
    calls = []
    draw = rng._draw
    monkeypatch.setattr(rng, "_draw",
                        lambda tab: calls.append(tab) or draw(tab))
    tab = make_tableau(6, 5, 2, 2.0, 8)
    assert calls == [] and tab._store is None
    fine = level_increments(tab, 8)
    coarse = level_increments(tab, 2, 1, 3)
    assert calls == [tab] and fine.base is tab._store
    assert not fine.flags.writeable
    # the same bits as a table drawn by its own first read at a coarse level
    other = make_tableau(6, 5, 2, 2.0, 8)
    assert np.array_equal(level_increments(other, 2)[1:3], coarse)
    assert np.array_equal(other._store, tab._store)


def test_tableau_over_cap_refused_with_remedy():
    # 300 * 1024 steps * 64 particles * 1 noise component
    with pytest.raises(ValueError) as exc:
        make_tableau(1, 64, 1, 300.0, 1024)
    msg = str(exc.value)
    assert "19660800" in msg and str(ELEMENT_CAP) in msg
    assert "lower N, T or n_max" in msg


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       chain=st.sampled_from([(2, 8), (4, 16), (8, 64)]))
def test_refinement_property(seed, chain):
    lo, hi = chain
    tab = make_tableau(seed, 2, 1, 1.0, hi)
    fine = level_increments(tab, hi)
    coarse = level_increments(tab, lo)
    assert np.array_equal(coarse, fine.reshape(lo, hi // lo, 2, 1)
                          .sum(axis=1))


def _fresh_stream(key0, i, count):
    key = np.array([key0 & (2 ** 64 - 1), i], dtype=np.uint64)
    bits = np.random.Philox(counter=np.zeros(4, dtype=np.uint64), key=key)
    return np.random.Generator(bits).random(count)


def test_philox_uniforms_match_fresh_philox(uniforms):
    # keys are taken modulo 2^64; stream lengths s * l of 1 to 21 doubles,
    # most of them no multiple of the 4 words of a Philox block
    for key0 in (0, 12345, -1, 2 ** 64 - 1, 2 ** 70 + 3, 12345 ^ _INIT_SALT):
        for n in (1, 5, 64):
            for s, l in ((1, 1), (7, 1), (3, 2), (1, 3), (5, 3), (7, 3)):
                got = uniforms(key0, (s, n, l))
                assert got.shape == (s, n, l) and got.flags.c_contiguous
                for i in range(n):
                    assert np.array_equal(got[:, i, :].ravel(),
                                          _fresh_stream(key0, i, s * l))


def test_backends_draw_identical_tables(compiled_library, monkeypatch):
    laws = [initial_law("gaussian", center=1.0, scale=0.5),
            initial_law("uniform_ball", center=-2.0, radius=3.0),
            initial_law("point", center=0.25)]
    draws = {}
    for backend in (load_compiled(compiled_library), NUMPY):
        monkeypatch.setattr(_core, "kernels", backend)
        tab = make_tableau(2024, 33, 3, 2.0, 8)
        draws[backend.name] = [level_increments(tab, n) for n in (8, 2)] + [
            sample_initial(tab, 33, d, law)
            for d in (1, 3, 8, 9, 12) for law in laws]
    for got, want in zip(draws["c"], draws["numpy"]):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("d", [1, 3, 8, 9, 12])
def test_uniform_ball_matches_per_particle_formula(uniforms, monkeypatch,
                                                   d):
    """The block draw gives each particle's own-stream formula bit for bit:
    the row norm is np.sum over that row, the radius scalar libm pow."""
    _with_uniforms(monkeypatch, uniforms)
    tab = make_tableau(77, 64, 1, 1.0, 2)
    got = sample_initial(tab, 64, d, initial_law("uniform_ball",
                                                 center=0.5, radius=2.0))
    for i in range(64):
        u = np.maximum(_fresh_stream(77 ^ _INIT_SALT, i, d + 1), 2.0 ** -54)
        z = ndtri(u[:d])
        direction = z / math.sqrt(float(np.sum(z * z)))
        want = 0.5 + 2.0 * (float(u[d]) ** (1.0 / d)) * direction
        assert np.array_equal(got[i], want), i


def test_uniform_ball_at_the_origin_points_along_the_first_axis(
        monkeypatch):
    # u = 1/2 maps to z = 0, so the direction falls back to e_1
    _with_uniforms(monkeypatch, lambda key0, shape: np.full(shape, 0.5))
    tab = make_tableau(1, 4, 1, 1.0, 2)
    x = sample_initial(tab, 4, 3, initial_law("uniform_ball", radius=2.0))
    want = 2.0 * 0.5 ** (1.0 / 3.0)
    assert np.array_equal(x, np.tile([want, 0.0, 0.0], (4, 1)))


def test_tableau_draws_no_os_entropy(compiled_library, monkeypatch):
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)
        elif event == "c_call":
            seen.append(getattr(arg, "__name__", ""))

    for uniforms in (load_compiled(compiled_library).philox_uniforms,
                     NUMPY.philox_uniforms):
        _with_uniforms(monkeypatch, uniforms)
        sys.setprofile(profile)
        try:
            tab = make_tableau(3, 8, 2, 1.0, 4)
            level_increments(tab, 4)
            sample_initial(tab, 8, 2, initial_law("gaussian"))
        finally:
            sys.setprofile(None)
        assert seen and not {"urandom", "getrandbits"} & set(seen)
        seen.clear()
