"""End-to-end acceptance runs, one test per shipped claim.

Each test exercises its claim at full stated scale and tolerance, so
this module carries the bulk of the suite's runtime (a few minutes).
Numbers that must hold exactly are asserted with equality, never with
an epsilon.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from mvsde.cli import main
from mvsde.config import make_config
from mvsde.experiments import (run_ergodic_contraction,
                               run_moment_stability, run_poc_rate,
                               run_strong_rate)
from mvsde.metrics import w2
from mvsde.model import (FAMILIES, eval_drift_b, make_model, pair_terms,
                         self_terms)
from mvsde.probes import documented_sets, probe_assumptions
from mvsde.rng import level_increments, make_tableau
from mvsde.scheme import StateRecorder, simulate
from mvsde.taming import TamedModel

_PURE_CUBIC = dict(lam=0.0, sigma0=0.0, c_f=0.0, c_g=0.0)


def test_criterion_1_strong_rate_half(tmp_path):
    # cubic drift, d=1, N=64, dyadic levels 16..512 against n_max=1024,
    # 32 reps, p=2: slope in [0.40, 0.60], r^2 >= 0.95, zero divergence
    cfg = make_config("strong-rate", out_dir=str(tmp_path))
    assert cfg.levels == (16, 32, 64, 128, 256, 512)
    assert cfg.n_max == 1024 and cfg.N == 64 and cfg.reps == 32
    assert cfg.p == 2.0 and cfg.family == "cubic-mean-field"
    t0 = time.monotonic()
    with pytest.warns(UserWarning):  # p outside the guaranteed range
        rep = run_strong_rate(cfg)
    elapsed = time.monotonic() - t0
    assert rep.diverged == [0, 0, 0, 0, 0, 0]
    assert 0.40 <= rep.fit.slope <= 0.60
    assert rep.fit.r_squared >= 0.95
    assert rep.verdict["status"] == "pass"
    assert elapsed <= 300.0
    print("criterion 1: slope %.4f r2 %.4f in %.1fs"
          % (rep.fit.slope, rep.fit.r_squared, elapsed))


def test_criterion_2_poc_rate_dimension_uniform(tmp_path):
    # pairwise model, N in 16..256 vs N_ref=1024, 16 reps, T=1: slope
    # in [-0.65, -0.35] for d=1 and d=3, and the two slopes within 0.15
    slopes = {}
    t0 = time.monotonic()
    for d in (1, 3):
        cfg = make_config("poc-rate", d=d,
                          out_dir=str(tmp_path / ("d%d" % d)))
        assert cfg.N_levels == (16, 32, 64, 128, 256)
        assert cfg.N_ref == 1024 and cfg.reps == 16 and cfg.T == 1.0
        rep = run_poc_rate(cfg)
        assert rep.verdict["status"] == "pass"
        assert -0.65 <= rep.fit.slope <= -0.35
        slopes[d] = rep.fit.slope
    elapsed = time.monotonic() - t0
    assert abs(slopes[3] - slopes[1]) <= 0.15
    assert elapsed <= 600.0
    print("criterion 2: slopes d1 %.4f d3 %.4f gap %.4f in %.1fs"
          % (slopes[1], slopes[3], abs(slopes[3] - slopes[1]), elapsed))


def test_criterion_3_taming_prevents_blowup(tmp_path):
    # route one: the plain scheme's first two iterates from x0 = 3 at
    # h = 1/2 are hand-iterated dyadics, asserted with state equality
    model = make_model("cubic-mean-field", d=1, params=dict(_PURE_CUBIC))
    tab = make_tableau(12345, 64, 1, 1.0, 2)
    rec = StateRecorder(range(3))
    simulate(TamedModel(model, 2, "off"), tab, np.full((64, 1), 3.0),
             callbacks=[rec])
    assert np.array_equal(rec.states[1], np.full((64, 1), -10.5))
    assert np.array_equal(rec.states[2], np.full((64, 1), 568.3125))

    # route two: the stability driver at full scale, T = 100, N = 64
    t0 = time.monotonic()
    cfg = make_config("moment-stability", params=dict(_PURE_CUBIC),
                      N=64, T=100.0, n=2, p0=4.0, initial="point 3.0",
                      initial_b="point 3.0", out_dir=str(tmp_path))
    rep = run_moment_stability(cfg)
    elapsed = time.monotonic() - t0
    assert rep.verdict["status"] == "pass"
    assert rep.verdict["contrast"] is True
    # tamed arm: finite p0-moment at every one of the 200 steps
    tamed = rep.series["tamed"]["moment"]
    assert len(tamed) == 201
    assert all(math.isfinite(v) for v in tamed)
    assert rep.sup_moments[0] == 81.0  # 3^4 at t = 0, decaying after
    assert rep.diverged[0] == 0
    # plain arm: exact start 3^4, 10.5^4, then divergence within 20
    assert rep.series["plain"]["moment"][:2] == [81.0, 12155.0625]
    assert rep.divergence_steps[1] is not None
    assert rep.divergence_steps[1] <= 20
    assert elapsed <= 60.0
    print("criterion 3: tamed sup %r, plain diverged at step %d in %.1fs"
          % (rep.sup_moments[0], rep.divergence_steps[1], elapsed))


def test_criterion_4_ergodic_contraction(tmp_path):
    # N(0,1) vs N(5,1) under synchronous coupling, N=256, h=0.01, T=20
    cfg = make_config("ergodic", out_dir=str(tmp_path))
    assert cfg.N == 256 and cfg.T == 20.0 and cfg.n == 100
    assert cfg.initial == "gaussian 0.0 1.0"
    assert cfg.initial_b == "gaussian 5.0 1.0"
    t0 = time.monotonic()
    rep = run_ergodic_contraction(cfg)
    elapsed = time.monotonic() - t0
    assert rep.verdict["status"] == "pass"
    assert rep.decay_rate < 0.0
    assert rep.r_squared >= 0.9
    assert rep.w2_last < 0.05 * rep.w2_first
    assert elapsed <= 120.0
    print("criterion 4: decay %.4f r2 %.4f, W2 %.3g -> %.3g in %.1fs"
          % (rep.decay_rate, rep.r_squared, rep.w2_first, rep.w2_last,
             elapsed))


def test_criterion_5_metric_oracles():
    # exact assignment against the permutation minimum, N <= 7
    gen = np.random.default_rng(505)
    for _ in range(50):
        n = int(gen.integers(1, 8))
        d = int(gen.integers(1, 4))
        a = gen.normal(scale=2.0, size=(n, d))
        b = gen.normal(scale=2.0, size=(n, d))
        best = min(
            math.fsum(float(np.sum((a[i] - b[j]) ** 2))
                      for i, j in enumerate(perm))
            for perm in itertools.permutations(range(n)))
        want = math.sqrt(best / n)
        got = w2(a, b, method="exact_assignment")
        assert abs(got - want) <= 1e-10
    # sorted quantile coupling against exact assignment in d = 1
    for _ in range(50):
        n = int(gen.integers(2, 65))
        a = gen.normal(scale=3.0, size=(n, 1))
        b = gen.normal(scale=3.0, size=(n, 1)) + gen.normal()
        fast = w2(a, b, method="sorted_1d")
        exact = w2(a, b, method="exact_assignment")
        assert abs(fast - exact) <= 1e-10
    print("criterion 5: 100 instances within 1e-10")


def test_criterion_6_taming_algebra_exact():
    # 10^4 (x, mu) samples per family: dominance, the scaled bound,
    # antisymmetry, and monotonicity in n, all with zero tolerance, on the
    # coefficients scheme.step and the pair kernel compute
    gen = np.random.default_rng(606)
    ns = (1, 4, 16, 256)
    for family in sorted(FAMILIES):
        model = make_model(family, d=2)
        xs = gen.normal(scale=2.0, size=(10000, 2))
        mus = gen.normal(scale=2.0, size=(10000, 2, 2))
        raw = eval_drift_b(model, 0.0, xs, mus)
        nr = np.sqrt((raw * raw).sum(-1))
        r = np.sqrt((xs * xs).sum(-1))
        mask = r > 0.0
        prev = None
        for n in ns:
            tm = TamedModel(model, n, "finite")
            tam = self_terms(model, tm.gamma, tm.e, xs,
                             mus.mean(axis=-2), 0)[0]
            nt = np.sqrt((tam * tam).sum(-1))
            assert (nt <= nr).all(), family
            bound = (math.sqrt(n) * nr[mask]
                     / r[mask] ** (2.0 * model.q))
            assert (nt[mask] <= bound).all(), family
            if prev is not None:
                assert (prev <= nt).all(), family
            prev = nt
        x2 = gen.normal(scale=2.0, size=(10000, 2))
        y2 = gen.normal(scale=2.0, size=(10000, 2))
        tm = TamedModel(model, 16, "finite")
        resid = (pair_terms(model, tm.gamma, tm.e, x2, y2, 0)[0]
                 + pair_terms(model, tm.gamma, tm.e, y2, x2, 0)[0])
        assert (resid == 0.0).all(), family
    print("criterion 6: exact over 10^4 points x 5 families x n in %s"
          % (ns,))


def test_criterion_7_refinement_coupling_exact():
    tab = make_tableau(1234, 4, 2, 1.0, 1024)
    fine = level_increments(tab, 1024)
    total = level_increments(tab, 1)[0]  # W_T in a single increment
    assert np.array_equal(total, fine.sum(axis=0))
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        coarse = level_increments(tab, n)
        folded = fine.reshape(n, 1024 // n, 4, 2).sum(axis=1)
        assert np.array_equal(coarse, folded)
        assert np.array_equal(coarse.sum(axis=0), total)
    print("criterion 7: 10 levels bit-equal to fine sums and one W_T")


def test_criterion_8_thread_count_determinism(tmp_path):
    ini = ("[run]\nexperiment = strong-rate\nreps = 8\nout_dir = %s\n"
           "[grid]\nlevels = 16,32,64\nn_max = 256\nT = 1.0\n"
           "[ensemble]\nN = 32\n"
           "[bands]\nslope_lo = -10.0\nslope_hi = 10.0\nr2_min = 0.0\n")
    blobs = []
    for threads in ("1", "8"):
        out_dir = tmp_path / ("t%s" % threads)
        path = tmp_path / ("rate_t%s.ini" % threads)
        path.write_text(ini % out_dir)
        assert main(["strong-rate", "--config", str(path),
                     "--threads", threads]) == 0
        with open(out_dir / "strong_rate_errors.csv", "rb") as fc:
            csv_bytes = fc.read()
        with open(out_dir / "strong_rate_report.json", "rb") as fj:
            json_bytes = fj.read()
        blobs.append((csv_bytes, json_bytes))
    assert blobs[0] == blobs[1]
    # the JSON really is the full report, not an empty shell
    data = json.loads(blobs[0][1])
    assert data["kind"] == "strong_rate" and len(data["errors"]) == 3
    print("criterion 8: %d CSV + %d JSON bytes identical across threads"
          % (len(blobs[0][0]), len(blobs[0][1])))


def test_criterion_9_assumption_probes():
    checked = 0
    for family in ("cubic-mean-field", "ergodic-dissipative",
                   "pairwise-vlasov", "lipschitz-baseline"):
        model = make_model(family, d=2)
        sets = documented_sets(model)
        assert sets, family
        for name in sets:
            for rep in probe_assumptions(model, name, count=10000,
                                         radius=5.0):
                assert rep.holds, (family, name, rep.assumption_id,
                                   rep.worst_margin)
                checked += 1
    bad = make_model("anti-dissipative", d=1)
    reports = probe_assumptions(bad, "finite_horizon", count=10000,
                                radius=5.0)
    by_id = {r.assumption_id: r for r in reports}
    assert not by_id["b_sigma_monotonicity"].holds
    assert by_id["b_sigma_monotonicity"].worst_margin > 0.0
    print("criterion 9: %d inequalities hold; saboteur margin %.3g > 0"
          % (checked, by_id["b_sigma_monotonicity"].worst_margin))
