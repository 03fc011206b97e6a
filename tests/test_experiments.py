"""Experiment drivers: exact constant algebra, coupled-noise identities,
a closed-form stochastic oracle, and report/file structure."""

import inspect
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mvsde.cli import main
from mvsde.config import (ConfigError, check_step_bound, emit_config,
                          make_config, theoretical_constants)
from mvsde.experiments import (_poc_single_rep, run_ergodic_contraction,
                               run_moment_stability, run_poc_rate,
                               run_simulate, run_strong_rate)
from mvsde.model import make_model
from mvsde.rng import make_tableau, parse_initial
from mvsde.scheme import simulate
from mvsde.taming import TamedModel

# dyadic assumption constants; every derived value is float-exact
DYADIC = dict(
    Lhat_bsig_1=4.0, Lhat_bsig_2=0.5, L_b_1=0.25, L_b_2=0.25,
    L_f_1=0.125, L_bsig_1=1.0, L_bsig_2=0.125, L_bsig_3=0.5,
    L_bsig_4=0.25, L_bsig_5=0.125, L_fg_1=0.25, L_fg_2=0.125,
    L_fg_3=0.0625, L_b_3=0.25, L_b_4=0.25, L_f_2=0.125)

_PURE_CUBIC = dict(lam=0.0, sigma0=0.0, c_f=0.0, c_g=0.0)
_OU = dict(a=1.0, lam=0.0, kappa=0.0, sigma0=0.5, c_g=0.0)


def test_theoretical_constants_exact():
    tc = theoretical_constants(DYADIC)
    assert tc == {"rho1": 1.5, "rho2": -3.375, "h_star": 1.0}
    partial = {k: v for k, v in DYADIC.items() if k != "L_fg_1"}
    with pytest.raises(ValueError, match="missing: L_fg_1"):
        theoretical_constants(partial)


def test_check_step_bound_boundaries():
    tc = check_step_bound(0.25, DYADIC)
    assert tc["rho1"] == 1.5
    # the bound min(h_star, 1/(2 rho1)) = 1/3 is itself refused
    with pytest.raises(ValueError, match="violates h <"):
        check_step_bound(1.0 / 3.0, DYADIC)
    weak = dict(DYADIC, Lhat_bsig_1=0.5)  # rho1 = -2
    with pytest.raises(ValueError, match="not positive"):
        check_step_bound(0.01, weak)


_SMALL = dict(N=4, reps=1, T=1.0)

# (driver, valid config's experiment and keys, fields set on it to break
# one rule, the refusal's message)
_BROKEN = {
    # coarse states would be compared with fine ones at the wrong times
    "strong-rate-levels": (
        run_strong_rate, "strong-rate", dict(levels=(2, 4), n_max=8),
        dict(levels=(3, 5), n_max=15), "levels must be a doubling chain"),
    "poc-rate-probes": (
        run_poc_rate, "poc-rate", dict(N_levels=(4, 8), N_ref=16, n=4),
        dict(probe_count=0), "probe_count must be >= 1, got 0"),
    "ergodic-variant": (
        run_ergodic_contraction, "ergodic", dict(n=10),
        dict(variant="finite"), "requires taming variant 'ergodic'"),
    # h = 1/2 against min(h_star, 1/(2 rho1)) = 1/3
    "step-bound": (
        run_strong_rate, "strong-rate", dict(levels=(2, 4), n_max=8),
        dict(constants=DYADIC), "violates h <"),
    "other-experiment": (
        run_strong_rate, "simulate", dict(n=4), {},
        "config is for experiment 'simulate' but 'strong-rate' was "
        "called"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_driver_refuses_invalid_config(tmp_path, case):
    """A driver validates its config through mvsde.config before it
    writes, so a config that make_config refuses never runs."""
    driver, experiment, keys, broken, message = _BROKEN[case]
    out_dir = tmp_path / "out"
    cfg = make_config(experiment, out_dir=str(out_dir), **_SMALL, **keys)
    for name, value in broken.items():
        setattr(cfg, name, value)
    with pytest.raises(ConfigError, match=message):
        driver(cfg)
    assert not out_dir.exists()


def test_ou_coupled_difference_matches_closed_form():
    """Linear drift with additive noise admits an exact second moment.

    X_{k+1} = X_k (1 - h) + sigma dW_k from a point start, so the
    coarse/fine terminal gap on a shared Brownian tableau is Gaussian
    with computable mean and variance. The Monte Carlo mean square must
    sit within six standard errors of the closed form.
    """
    model = make_model("lipschitz-baseline", d=1, params=_OU)
    x0, sig, n_c, n_f, big = 1.0, 0.5, 8, 64, 4096
    tab = make_tableau(321, big, 1, 1.0, n_f)
    states = np.full((big, 1), x0)
    fine = simulate(TamedModel(model, n_f, "off"), tab, states)
    coarse = simulate(TamedModel(model, n_c, "off"), tab, states)
    diff = (coarse.states - fine.states).ravel()
    mc = float(np.mean(diff * diff))

    h_c, h_f, r = 1.0 / n_c, 1.0 / n_f, n_f // n_c
    m = x0 * ((1.0 - h_c) ** n_c - (1.0 - h_f) ** n_f)
    coef = [(1.0 - h_c) ** (n_c - 1 - k // r)
            - (1.0 - h_f) ** (n_f - 1 - k) for k in range(n_f)]
    v = sig * sig * h_f * math.fsum(c * c for c in coef)
    want = m * m + v
    se = math.sqrt((2.0 * v * v + 4.0 * m * m * v) / big)
    assert abs(mc - want) <= 6.0 * se


def test_ou_strong_rate_driver_order_one(tmp_path):
    # additive noise removes the h^(1/2) term; the driver must measure
    # rate one on the same model the closed form above certifies
    cfg = make_config("strong-rate", family="lipschitz-baseline",
                      params=_OU, variant="off", levels=(8, 16, 32, 64),
                      n_max=512, N=64, reps=8, initial="point 1.0",
                      slope_lo=0.8, slope_hi=1.2, out_dir=str(tmp_path))
    rep = run_strong_rate(cfg)
    assert rep.verdict["status"] == "pass"
    assert 0.8 <= rep.fit.slope <= 1.2
    assert rep.fit.r_squared >= 0.95
    assert rep.diverged == [0, 0, 0, 0]
    assert rep.errors == sorted(rep.errors, reverse=True)


def test_degenerate_zero_model(tmp_path):
    params = dict(a=0.0, lam=0.0, kappa=0.0, sigma0=0.0, c_g=0.0)
    cfg = make_config("strong-rate", family="lipschitz-baseline",
                      params=params, levels=(2, 4), n_max=8, N=4,
                      reps=1, initial="gaussian 0.0 1.0",
                      out_dir=str(tmp_path))
    rep = run_strong_rate(cfg)
    assert rep.errors == [0.0, 0.0]
    assert rep.verdict["status"] == "degenerate"
    assert rep.fit is None


def test_p_range_warning(tmp_path):
    cfg = make_config("strong-rate", levels=(2, 4), n_max=8, N=4,
                      reps=1, p=8.0, out_dir=str(tmp_path))
    with pytest.warns(UserWarning, match="exceeds the guaranteed range"):
        run_strong_rate(cfg)


def test_poc_reference_identity_is_exact():
    # asking for as many particles as the reference must give zero gap:
    # prefix coupling makes the two runs the same simulation
    model = make_model("pairwise-vlasov", d=1)
    tab = make_tableau(5, 32, 1, 1.0, 16)
    tm = TamedModel(model, 16, "finite")
    out = _poc_single_rep(tm, tab, [32], 8,
                          parse_initial("gaussian 0.0 1.0"), 2.0)
    assert out == [(0.0, 0)]


def test_poc_rate_structure(tmp_path):
    cfg = make_config("poc-rate", d=1, N_levels=(4, 8, 16, 32),
                      N_ref=128, n=16, reps=4, probe_count=8,
                      out_dir=str(tmp_path))
    rep = run_poc_rate(cfg)
    assert rep.kind == "poc_rate" and rep.levels == [4, 8, 16, 32]
    assert all(math.isfinite(e) and e > 0 for e in rep.errors)
    assert rep.diverged == [0, 0, 0, 0]
    slack = 2.0 * (rep.stderrs[0] + rep.stderrs[-1])
    assert rep.errors[-1] <= rep.errors[0] + slack
    assert rep.verdict["status"] in ("pass", "fail")
    with open(rep.csv_path) as fh:
        header = fh.readline().strip()
        rows = fh.read().strip().splitlines()
    assert header == "level,error,stderr,diverged_count"
    assert len(rows) == 4 and rows[0].startswith("4,")
    data = json.load(open(rep.json_path))
    assert data["config"]["experiment"] == "poc-rate"
    assert "threads" not in data["config"]
    assert "out_dir" not in data["config"]
    assert data["config"]["backend"] in ("c", "numpy")
    assert data["config"]["software_version"]


def test_poc_functional_family_is_exploratory(tmp_path):
    cfg = make_config("poc-rate", family="cubic-mean-field",
                      N_levels=(4, 8), N_ref=32, n=8, reps=2,
                      probe_count=4, out_dir=str(tmp_path))
    rep = run_poc_rate(cfg)
    assert rep.verdict["status"] == "exploratory"


# a functional-mode family whose plain Euler run from 3.0 diverges in some
# repetitions, so too few levels are left to fit
_DIVERGING_EXPLORATORY = dict(
    family="anti-dissipative", variant="off", initial="point 3.0",
    N_levels=(4, 8), N_ref=32, n=2, T=20.0, reps=2, probe_count=4)


def test_exploratory_run_that_cannot_be_fitted_is_exploratory(tmp_path,
                                                              capsys):
    cfg = make_config("poc-rate", out_dir=str(tmp_path / "api"),
                      **_DIVERGING_EXPLORATORY)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_poc_rate(cfg)
    assert rep.fit is None and sum(rep.diverged) > 0
    assert rep.verdict["status"] == "exploratory"
    path = tmp_path / "poc.ini"
    path.write_text(emit_config(make_config(
        "poc-rate", out_dir=str(tmp_path / "cli"), **_DIVERGING_EXPLORATORY)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["poc-rate", "--config", str(path)]) == 0
    assert "verdict: exploratory" in capsys.readouterr().out


def test_rate_error_at_p3_does_not_depend_on_avx512(tmp_path, no_avx512_env):
    """A p = 3 poc-rate run writes the same errors in process and in a
    subprocess with NumPy's AVX-512 (X86_V4) loops disabled.

    Only bites on an AVX-512 CPU: there np.power's vectorised loop differs
    from libm pow in the last bit for some values, and the rate drivers'
    p-th powers go through pairwise_py.power to avoid it. Elsewhere both
    processes run the same loops, so the test is skipped.
    """
    ini = tmp_path / "p3.ini"
    runs = []
    for label in ("in", "sub"):
        out_dir = tmp_path / label
        cfg = make_config("poc-rate", seed=26, p=3.0, n=4,
                          N_levels=(16, 32, 64), N_ref=128, reps=2,
                          out_dir=str(out_dir))
        if label == "in":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_poc_rate(cfg)
        else:
            ini.write_text(emit_config(cfg))
            code = subprocess.run(
                [sys.executable, "-m", "mvsde", "poc-rate", "--config",
                 str(ini)], env=no_avx512_env, capture_output=True,
                timeout=300).returncode
            assert code in (0, 2)  # the verdict may fail at this size
        runs.append([(out_dir / name).read_bytes() for name in (
            "poc_rate_errors.csv", "poc_rate_report.json")])
    assert runs[0] == runs[1]
    assert b"0.048452945100635934" in runs[0][0]


def test_moment_stability_contrast_and_series(tmp_path):
    cfg = make_config("moment-stability", family="cubic-mean-field",
                      params=dict(_PURE_CUBIC), N=8, T=10.0, n=2,
                      reps=2, initial="point 3.0", initial_b="point 3.0",
                      p0=4.0, out_dir=str(tmp_path))
    rep = run_moment_stability(cfg)
    assert rep.arms == ["tamed", "plain"]
    assert rep.verdict["status"] == "pass"
    assert rep.verdict["contrast"] is True
    assert rep.verdict["plain_diverged_within_bound"] is True
    assert math.isfinite(rep.sup_moments[0])
    assert rep.divergence_steps[0] is None
    assert rep.divergence_steps[1] is not None
    assert rep.divergence_steps[1] <= 20
    # the plain arm's first two running moments are exact dyadics:
    # 3^4 = 81 and 10.5^4 = 12155.0625
    assert rep.series["plain"]["moment"][:2] == [81.0, 12155.0625]
    data = json.load(open(rep.json_path))
    assert data["sup_moments"][1] == "inf"  # non-finite floats as repr


def test_keyword_config_writes_the_bytes_of_its_ini_text(tmp_path,
                                                          capsys):
    """make_config types T=2 and p0=4 as the floats the INI text parses
    to, so the run writes what the CLI run of its emit_config text does,
    and the series' times are k / n."""
    cfg = make_config("moment-stability", T=2, p0=4, N=8, reps=2,
                      out_dir=str(tmp_path / "api"))
    assert type(cfg.T) is float and type(cfg.p0) is float
    rep = run_moment_stability(cfg)
    assert rep.series["tamed"]["t"] == [k / 2 for k in range(5)]
    path = tmp_path / "ms.ini"
    path.write_text(emit_config(cfg).replace(
        str(tmp_path / "api"), str(tmp_path / "cli")))
    assert main(["moment-stability", "--config", str(path)]) == 0
    capsys.readouterr()
    for name in ("moment_stability_report.json",
                 "moment_stability_errors.csv"):
        assert ((tmp_path / "api" / name).read_bytes()
                == (tmp_path / "cli" / name).read_bytes())


def test_tamed_matches_plain_on_small_states(tmp_path):
    cfg = make_config("moment-stability", N=16, T=1.0, n=256, reps=1,
                      initial="point 0.1", initial_b="point 0.1",
                      out_dir=str(tmp_path))
    rep = run_moment_stability(cfg)
    assert rep.diverged == [0, 0]
    a, b = rep.sup_moments
    assert abs(a - b) <= 1e-2 * max(a, b)


def test_ergodic_identical_laws_degenerate(tmp_path):
    cfg = make_config("ergodic", N=16, T=2.0, n=20, reps=1,
                      initial="gaussian 1.0 0.5",
                      initial_b="gaussian 1.0 0.5",
                      out_dir=str(tmp_path))
    rep = run_ergodic_contraction(cfg)
    assert rep.verdict["status"] == "degenerate"
    assert rep.w2_first == 0.0 and rep.w2_last == 0.0
    assert rep.decay_rate is None


def test_ergodic_contraction_small(tmp_path):
    cfg = make_config("ergodic", N=64, T=5.0, n=100, reps=2,
                      initial="gaussian 0.0 1.0",
                      initial_b="gaussian 3.0 1.0",
                      constants=dict(DYADIC), out_dir=str(tmp_path))
    rep = run_ergodic_contraction(cfg)
    assert rep.verdict["status"] == "pass"
    assert rep.decay_rate < 0.0
    assert rep.r_squared >= 0.9
    assert rep.w2_last < 0.05 * rep.w2_first
    # supplied constants echo back with the derived quantities attached
    assert rep.constants["rho1"] == 1.5
    assert rep.constants["rho2"] == -3.375
    assert rep.constants["h_star"] == 1.0
    assert [e["t2"] for e in rep.stabilization] == [0.5, 2.5, 5.0]
    assert rep.stabilization[-1]["w2"] < rep.stabilization[0]["w2"]


def test_ergodic_contraction_uniform_in_h(tmp_path):
    """The tamed scheme's own ergodicity, at every step size, not only at
    criterion 4's h = 0.01. The paper (PAPER.md, claim (d)): "we establish
    exponential ergodicity properties and long-time behavior for the
    MV-SDE, the corresponding interacting particle system, and the tamed
    scheme. The latter result is, to the best of our knowledge, fully
    novel." Its contraction rate rho1 does not involve h, and holds for
    every h below min(h_star, 1/(2 rho1)) (mvsde.config), so the decay
    should not drift with h. At criterion 4's config and h in {0.1, 0.04,
    0.02, 0.01}: criterion 4's checks at every h, and every decay rate
    within 0.1 of the others (they span -1.049 to -1.013 at the default
    seed)."""
    rates = {}
    for n in (10, 25, 50, 100):
        cfg = make_config("ergodic", n=n, out_dir=str(tmp_path / str(n)))
        rep = run_ergodic_contraction(cfg)
        assert rep.verdict["status"] == "pass", n
        assert rep.decay_rate < 0.0, n
        assert rep.r_squared >= 0.9, n
        assert rep.w2_last < 0.05 * rep.w2_first, n
        rates[1.0 / n] = rep.decay_rate
    assert max(rates.values()) - min(rates.values()) <= 0.1, rates


def test_ergodic_variant_required(tmp_path):
    cfg = make_config("ergodic", N=8, T=1.0, n=10, out_dir=str(tmp_path))
    cfg.variant = "finite"  # bypass config-time validation
    with pytest.raises(ValueError, match="requires taming variant"):
        run_ergodic_contraction(cfg)


def test_run_simulate_writes_snapshot(tmp_path):
    cfg = make_config("simulate", N=8, T=1.0, n=16,
                      initial="gaussian 0.0 0.5", out_dir=str(tmp_path))
    body = run_simulate(cfg)
    assert body["verdict"]["status"] == "pass"
    assert body["steps_run"] == 16
    assert math.isfinite(body["final_moment"])
    assert os.path.exists(body["snapshot_path"])
    data = json.load(open(body["json_path"]))
    assert data["kind"] == "simulate"
    assert "threads" not in data["config"]


def test_rerun_and_threads_byte_identical(tmp_path):
    base = dict(levels=(4, 8), n_max=32, N=8, reps=3, T=1.0, p0=16.0)
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        cfg = make_config("strong-rate", out_dir=str(tmp_path / name),
                          threads=threads, **base)
        rep = run_strong_rate(cfg)
        with open(rep.csv_path, "rb") as fc, open(rep.json_path,
                                                  "rb") as fj:
            outs.append((fc.read(), fj.read()))
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("driver, command, overrides, ini", [
    (run_strong_rate, "strong-rate", dict(levels=[4, 8], n_max=16, N=4),
     "[grid]\nlevels = 4,8\nn_max = 16\n[ensemble]\nN = 4\n"),
    (run_poc_rate, "poc-rate",
     dict(p=3.0, n=4, N_levels=[4, 8], N_ref=16, probe_count=4),
     "p = 3.0\n[grid]\nn = 4\n[ensemble]\nN_levels = 4,8\n"
     "N_ref = 16\nprobe_count = 4\n"),
])
def test_p_range_warning_names_the_driver(tmp_path, capsys, driver,
                                          command, overrides, ini):
    """The p-range warning points at the driver's line in experiments.py,
    whether the driver is called directly or through the CLI."""
    lines, start = inspect.getsourcelines(driver)
    cfg = make_config(command, reps=1, out_dir=str(tmp_path / "direct"),
                      **overrides)
    path = tmp_path / "run.ini"
    path.write_text("[run]\nexperiment = %s\nreps = 1\nout_dir = %s\n%s"
                    % (command, tmp_path / "cli", ini))
    for run in (lambda: driver(cfg),
                lambda: main([command, "--config", str(path)])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        [warning] = [w for w in caught
                     if "guaranteed range" in str(w.message)]
        assert os.path.basename(warning.filename) == "experiments.py"
        assert start <= warning.lineno < start + len(lines)
    capsys.readouterr()
