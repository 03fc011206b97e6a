"""Inequality probes: documented families hold, the saboteur fails."""

import hashlib
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from mvsde import probes
from mvsde.model import make_model
from mvsde.probes import (DOCUMENTED_SETS, PROBE_SETS, AssumptionReport,
                          documented_sets, probe_assumptions)

_COUNT = 2000  # trimmed batch for unit speed; acceptance reruns at 10^4
# sha256 of every reference_constant of _documented_runs at d = 2, radius
# 5, packed as little-endian float64 in run order
_REFERENCE_DIGEST = ("fd4f37c0cede7f32e7348aeefeeef7ef"
                     "791ad6aad8da8907c664647d15d45bf3")


def _documented_runs():
    """(family, model, set) for each family's documented sets, plus the
    saboteur's finite_horizon (anti-dissipative documents no set)."""
    for family in sorted(DOCUMENTED_SETS):
        model = make_model(family, d=2)
        for name in DOCUMENTED_SETS[family] or ("finite_horizon",):
            yield family, model, name


@pytest.mark.parametrize("family", ["cubic-mean-field",
                                    "ergodic-dissipative",
                                    "pairwise-vlasov",
                                    "lipschitz-baseline"])
def test_documented_sets_hold(family):
    model = make_model(family, d=2)
    sets = documented_sets(model)
    assert sets == DOCUMENTED_SETS[family] and len(sets) >= 4
    for name in sets:
        reports = probe_assumptions(model, name, count=_COUNT, radius=5.0)
        for r in reports:
            assert r.holds, ("%s/%s margin %g over %d samples"
                             % (name, r.assumption_id, r.worst_margin,
                                r.sample_count))


def test_anti_dissipative_fails_monotonicity():
    model = make_model("anti-dissipative", d=1)
    assert documented_sets(model) == ()
    reports = probe_assumptions(model, "finite_horizon", count=_COUNT,
                                radius=5.0)
    by_id = {r.assumption_id: r for r in reports}
    bad = by_id["b_sigma_monotonicity"]
    assert not bad.holds
    assert bad.worst_margin > 0.0


def test_report_fields_and_antisymmetry():
    model = make_model("cubic-mean-field", d=1)
    reports = probe_assumptions(model, "f_antisymmetry", count=64)
    assert len(reports) == 1
    r = reports[0]
    assert isinstance(r, AssumptionReport)
    assert r.assumption_id == "f_antisymmetry"
    assert r.sample_count == 64
    # antisymmetry is exact, not an estimate: margin is a max |residual|
    assert r.worst_margin == 0.0
    assert r.holds is True
    assert math.isnan(r.fitted_constant)
    assert r.reference_constant == 0.0


def test_fitted_constant_reported():
    model = make_model("lipschitz-baseline", d=1)
    (r,) = probe_assumptions(model, "f_polynomial_growth", count=512)
    # fitted constant never exceeds the documented reference
    assert r.fitted_constant <= r.reference_constant
    assert r.fitted_constant > 0.0


def test_probe_set_registry_consistency():
    # every set name resolves, every report comes back in declared order
    erg = make_model("ergodic-dissipative", d=1)
    pair = make_model("pairwise-vlasov", d=1)
    for name, members in PROBE_SETS.items():
        model = pair if name == "pairwise_poc" else erg
        reports = probe_assumptions(model, name, count=16)
        assert tuple(r.assumption_id for r in reports) == members


def test_pairwise_set_needs_pairwise_model():
    model = make_model("cubic-mean-field", d=1)
    with pytest.raises(ValueError, match="pairwise-mode"):
        probe_assumptions(model, "pairwise_poc", count=16)


def test_ergodic_set_structural_refusals():
    # wrong growth index
    with pytest.raises(ValueError, match="quadratic growth index"):
        probe_assumptions(make_model("lipschitz-baseline", d=1),
                          "ergodic", count=16)
    # measure coupling and additive noise present
    with pytest.raises(ValueError, match="measure coupling"):
        probe_assumptions(make_model("cubic-mean-field", d=1),
                          "ergodic", count=16)


def test_unknown_set_and_count_validation():
    model = make_model("cubic-mean-field", d=1)
    with pytest.raises(ValueError, match="unknown assumption set"):
        probe_assumptions(model, "no_such_set", count=16)
    with pytest.raises(ValueError, match="count"):
        probe_assumptions(model, "finite_horizon", count=0)
    for radius in (float("nan"), float("inf"), 0.0, -5.0):
        with pytest.raises(ValueError, match="radius must be finite"):
            probe_assumptions(model, "finite_horizon", count=16,
                              radius=radius)
    # a negative radius at a non-integer q_f made the weighted-growth
    # reference complex
    odd = make_model("pairwise-vlasov", params={"q": 2.5})
    with pytest.raises(ValueError, match="radius must be finite"):
        probe_assumptions(odd, "fg_pair_weighted_growth", count=16,
                          radius=-5.0)


def test_seed_determinism():
    model = make_model("pairwise-vlasov", d=2)
    a = probe_assumptions(model, "rate", count=256, seed=5)
    b = probe_assumptions(model, "rate", count=256, seed=5)
    c = probe_assumptions(model, "rate", count=256, seed=6)
    assert [r.worst_margin for r in a] == [r.worst_margin for r in b]
    assert [r.worst_margin for r in a] != [r.worst_margin for r in c]


def test_each_coefficient_evaluated_once_per_batch(monkeypatch):
    # one call evaluates each coefficient at each sample tuple at most
    # once; a call is keyed by the function and its argument bytes, so
    # f(y, x), the second time and the pair drift at (x, y') count apart
    calls = []
    for name in ("eval_drift_b", "eval_sigma", "eval_kernel_f",
                 "eval_kernel_g", "eval_pair_drift", "eval_pair_sigma"):
        def counted(model, *args, _name=name, _fn=getattr(probes, name)):
            calls.append((_name,) + tuple(np.asarray(a).tobytes()
                                          for a in args))
            return _fn(model, *args)
        monkeypatch.setattr(probes, name, counted)
    for family, model, name in _documented_runs():
        calls.clear()
        probe_assumptions(model, name, count=32)
        assert calls, (family, name)
        repeated = sorted({c[0] for c in calls if calls.count(c) > 1})
        assert not repeated, (family, name, repeated)


def test_reference_constants_pinned():
    # references are scalar Python arithmetic on the family parameters
    # and the radius, so unlike the margins they do not depend on the CPU
    rows = [(family, r.assumption_id, r.reference_constant)
            for family, model, name in _documented_runs()
            for r in probe_assumptions(model, name, count=16, radius=5.0)]
    packed = struct.pack("<%dd" % len(rows), *(row[2] for row in rows))
    table = "\n".join("%s %s %r" % row for row in rows)
    assert hashlib.sha256(packed).hexdigest() == _REFERENCE_DIGEST, table


def test_shapes_weight_every_term():
    # the shared shapes on exact dyadic values: coercivity
    # w_dot <v, a> + w_frob |s|_F^2 and monotonicity
    # <v - v', a - a'> + w |s - s'|_F^2
    drift = {0: np.array([[4.0, 2.0]]), 1: np.array([[1.0, 1.0]])}
    diffusion = {0: np.array([[[1.0, 0.0], [0.0, 2.0]]]),
                 1: np.array([[[0.5, 0.0], [0.0, 0.0]]])}
    side = probes._Side(np.array([[1.0, 2.0]]), np.array([[0.5, -1.0]]),
                        drift.get, diffusion.get, (0,), (1,))
    # <v, a> = 8, |s|^2 = 5
    assert probes._coercivity(side, 2.0, 3.0).tolist() == [31.0]
    # <v - v', a - a'> = 4.5, |s - s'|^2 = 4.25
    assert probes._monotonicity(side, 3.0).tolist() == [17.25]


def _report_lines():
    """Every AssumptionReport field, floats as hex, of each family's
    documented sets at d in {1, 3}, on clouds of _COUNT and of 512 points
    at radius 5 and seed 97."""
    lines = []
    for family in sorted(DOCUMENTED_SETS):
        for d in (1, 3):
            model = make_model(family, d=d)
            for count in (_COUNT, 512):
                for name in documented_sets(model):
                    for r in probe_assumptions(model, name, count=count,
                                               radius=5.0, seed=97):
                        lines.append(" ".join((
                            family, str(d), str(count), r.assumption_id,
                            str(r.sample_count), r.worst_margin.hex(),
                            r.fitted_constant.hex(), str(r.holds),
                            r.reference_constant.hex())))
    return lines


def test_probes_do_not_depend_on_avx512(no_avx512_env):
    """The documented probe sets give the same reports in process and in a
    subprocess with NumPy's AVX-512 (X86_V4) loops disabled.

    Only bites on an AVX-512 CPU: there np.power's vectorised loop differs
    from libm pow in the last bit for some values, and every array power
    of the probes, the d = 3 sampling radius u^(1/3) included, goes
    through pairwise_py.power to avoid it. Elsewhere both processes run
    the same loops, so the test is skipped.
    """
    code = ("import sys; sys.path.insert(0, %r); "
            "from test_probes import _report_lines; "
            "print('\\n'.join(_report_lines()))"
            % os.path.dirname(os.path.abspath(__file__)))
    sub = subprocess.run([sys.executable, "-c", code], env=no_avx512_env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    assert sub.stdout.splitlines() == _report_lines()
