"""Brownian tableau: refinement coupling, prefixes, initial laws."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde.rng import (ELEMENT_CAP, QUANT, _INIT_SALT, _philox,
                       _stream_doubles, increments_at_level, initial_law,
                       level_increments, make_tableau, parse_initial,
                       sample_initial)


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
    """Single (particle, step) reads agree with the bulk pull bitwise."""
    tab = make_tableau(31, 5, 2, 1.0, 32)
    for n in (4, 32):
        bulk = level_increments(tab, n)
        for i in (0, 3, 4):
            for k in (0, 1, n - 1):
                got = increments_at_level(tab, n, i, k)
                assert np.array_equal(got, bulk[k, i])


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


def test_tableau_validation():
    with pytest.raises(ValueError):
        make_tableau(1, 0, 1, 1.0, 8)
    with pytest.raises(ValueError):
        make_tableau(1, 2, 1, 1.0, 0)
    with pytest.raises(ValueError):
        level_increments(make_tableau(1, 2, 1, 1.0, 8), 3)  # not a divisor


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


def _fresh_stream(key_lo, key_hi, count):
    key = np.array([key_lo & (2 ** 64 - 1), key_hi & (2 ** 64 - 1)],
                   dtype=np.uint64)
    bits = np.random.Philox(counter=np.zeros(4, dtype=np.uint64), key=key)
    return np.random.Generator(bits).random(count)


def test_rekeyed_stream_matches_fresh_philox():
    gen = _philox()
    # odd counts leave the output buffer part used before the next re-key
    for key_lo, key_hi, count in ((12345, 0, 7), (12345, 63, 1),
                                  (12345 ^ _INIT_SALT, 5, 3), (-1, 2, 9),
                                  (12345, 0, 7)):
        got = _stream_doubles(gen, key_lo, key_hi, count)
        assert np.array_equal(got, _fresh_stream(key_lo, key_hi, count))


def test_tableau_draws_no_os_entropy():
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code.co_name)
        elif event == "c_call":
            seen.append(getattr(arg, "__name__", ""))

    sys.setprofile(profile)
    try:
        tab = make_tableau(3, 8, 2, 1.0, 4)
        sample_initial(tab, 8, 2, initial_law("gaussian"))
    finally:
        sys.setprofile(None)
    assert "_stream_doubles" in seen
    assert not {"urandom", "getrandbits"} & set(seen)
