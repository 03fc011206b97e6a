"""Particle-cloud statistics and snapshot output."""

import io

import numpy as np
import pytest

from mvsde.ensemble import (EmpiricalMeasure, ParticleEnsemble,
                            center_of_mass, empirical_moment, particle_norms,
                            snapshot_csv, w2_to_origin)


def test_empirical_moment_value():
    ens = ParticleEnsemble(np.array([[3.0]]))
    assert empirical_moment(ens, 4.0) == 81.0


def test_empirical_moment_mixed():
    ens = ParticleEnsemble(np.array([[0.0], [2.0]]))
    assert empirical_moment(ens, 2.0) == 2.0  # (0 + 4) / 2


def test_w2_to_origin_value():
    ens = ParticleEnsemble(np.array([[0.0], [4.0]]))
    # sqrt((0 + 16)/2) = sqrt(8)
    assert w2_to_origin(ens) == 2.8284271247461903


def test_center_of_mass_and_norms():
    ens = ParticleEnsemble(np.array([[1.0, 0.0], [3.0, 4.0]]))
    assert np.array_equal(center_of_mass(ens), np.array([2.0, 2.0]))
    assert np.array_equal(particle_norms(ens.states),
                          np.array([1.0, 5.0]))


def test_measure_view_shares_atoms():
    ens = ParticleEnsemble(np.zeros((3, 2)))
    mu = ens.measure()
    assert isinstance(mu, EmpiricalMeasure)
    assert mu.atoms is ens.states


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
    assert ens.diverged_step is None
