"""Particle-cloud statistics and snapshot output."""

import io
import math

import numpy as np
import pytest

from mvsde.ensemble import ParticleEnsemble, moments_from_r2, snapshot_csv
from mvsde.scheme import MomentTracker


def test_moments_from_r2_one_row_value():
    assert moments_from_r2([[9.0]], 4.0).tolist() == [81.0]


def test_moments_from_r2_one_row_mixed():
    assert moments_from_r2([[0.0, 4.0]], 2.0).tolist() == [2.0]  # (0 + 4) / 2


def test_moments_from_r2_one_row_beyond_float_range_is_inf():
    # every 4th power (1e308) is finite, their sum is not: fsum raises
    # OverflowError there, the moment is inf
    x = np.full(256, 1e77)
    r2 = (x * x)[None]
    assert moments_from_r2(r2, 4.0).tolist() == [math.inf]
    assert math.isfinite(moments_from_r2(r2[:, :1], 4.0)[0])


def test_moments_from_r2_rows():
    r2 = np.array([[9.0, 16.0], [0.0, 4.0], [1.0, np.inf], [np.nan, 0.0]])
    assert moments_from_r2(r2, 2.0).tolist() == [12.5, 2.0, math.inf,
                                                 math.inf]
    assert moments_from_r2(r2[:2], 4.0).tolist() == [(81.0 + 256.0) / 2,
                                                     8.0]


def test_moments_from_r2_non_finite_rows_are_inf():
    """Every way a row of squared norms (>= 0, +inf or nan) leaves the
    float range gives inf: a nan norm, an inf norm, both, a finite norm
    whose power overflows, and finite powers whose sum overflows."""
    r2 = np.array([[np.nan, 1.0, 4.0],
                   [1.0, np.inf, 4.0],
                   [np.nan, np.inf, 4.0],
                   [np.inf, 1.0, np.nan],
                   [np.nan, np.nan, np.nan],
                   [1e300, 1.0, 4.0],
                   [1e154, 1e154, 1e154],
                   [1.0, 4.0, 9.0]])
    assert moments_from_r2(r2, 4.0).tolist() == [math.inf] * 7 + [98.0 / 3]
    assert moments_from_r2(r2, 0.5).tolist()[:5] == [math.inf] * 5


def test_moments_from_r2_power_bits():
    """The moments sum the bits np.power(np.sqrt(r2), p) gives."""
    rng = np.random.default_rng(3)
    r2 = rng.exponential(size=(7, 33)) * 10.0 ** rng.integers(-5, 5, (7, 33))
    for p in (1.5, 2.0, 3.0, 4.0, 7.25):
        want = [math.fsum(row) / 33
                for row in np.power(np.sqrt(r2), p).tolist()]
        got = moments_from_r2(r2, p)
        assert got.view(np.uint64).tolist() == np.array(
            want).view(np.uint64).tolist()


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
def test_moment_order_must_be_finite_and_positive(p):
    with pytest.raises(ValueError, match="finite and > 0"):
        moments_from_r2([[1.0]], p)
    with pytest.raises(ValueError, match="finite and > 0"):
        MomentTracker(p)


def test_states_validated():
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros(3))
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros((2, 2, 2)))


def test_ensemble_owns_its_states():
    src = np.zeros((2, 2))
    ens = ParticleEnsemble(src)
    src[0, 0] = 9.0
    assert ens.states[0, 0] == 0.0


def test_snapshot_csv_format_and_roundtrip():
    ens = ParticleEnsemble(np.array([[1.5, -2.0], [0.1, 0.2]]))
    buf = io.StringIO()
    snapshot_csv(ens, buf, t=0.25)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# t=0.25 N=2 d=2"
    assert len(lines) == 3
    back = np.array([[float(v) for v in ln.split(",")]
                     for ln in lines[1:]])
    assert np.array_equal(back, ens.states)


def test_snapshot_csv_nonfinite_sentinels():
    ens = ParticleEnsemble(np.array([[np.inf, np.nan]]))
    buf = io.StringIO()
    snapshot_csv(ens, buf, t=0.0)
    row = buf.getvalue().strip().splitlines()[1]
    assert row == "inf,nan"


def test_divergence_flags_default():
    ens = ParticleEnsemble(np.zeros((2, 1)))
    assert ens.overflow_flag is False
    assert ens.t_index == 0
