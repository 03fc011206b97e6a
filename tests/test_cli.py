"""CLI exit codes, overrides, worker-count resolution, output text."""

import json
import time

import pytest

from mvsde import experiments
from mvsde.cli import main

OU_MODEL = ("[model]\nfamily = lipschitz-baseline\nd = 1\n"
            "a = 1.0\nlam = 0.0\nkappa = 0.0\nsigma0 = 0.5\nc_g = 0.0\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _tiny_rate_ini(out_dir, extra_bands=""):
    return ("[run]\nexperiment = strong-rate\nreps = 3\np0 = 16.0\n"
            "out_dir = %s\n"
            "[grid]\nlevels = 4,8\nn_max = 32\nT = 1.0\n"
            "[ensemble]\nN = 8\n"
            "[bands]\nslope_lo = -10.0\nslope_hi = 10.0\nr2_min = 0.0\n"
            "%s" % (out_dir, extra_bands))


def test_negative_growth_order_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write(tmp_path, "negative_q.ini",
                  "[run]\nexperiment = simulate\nout_dir = %s\n"
                  "[model]\nq = -1\n" % out)
    assert main(["simulate", "--config", path]) == 1
    assert "q must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "mvsde" in err


def test_missing_config_file(capsys):
    assert main(["strong-rate", "--config", "/does/not/exist.ini"]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_subcommand_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "erg.ini", "[run]\nexperiment = ergodic\n")
    assert main(["strong-rate", "--config", path]) == 1
    assert "config is for experiment" in capsys.readouterr().err


def test_invalid_config_exit_1(tmp_path, capsys):
    path = _write(tmp_path, "bad.ini",
                  "[run]\nexperiment = strong-rate\nreps = 0\n")
    assert main(["strong-rate", "--config", path]) == 1
    assert "reps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["", "[grid]\nlevels = 4,8\n"])
def test_default_section_exits_1(tmp_path, capsys, extra):
    path = _write(tmp_path, "default.ini",
                  "[run]\nexperiment = strong-rate\nout_dir = %s\n"
                  "[DEFAULT]\nseed = 3\n%s" % (tmp_path / "out", extra))
    assert main(["strong-rate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "section [DEFAULT] is not supported" in err
    assert "in section [grid]" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_with_overrides(tmp_path, capsys):
    ini = ("[run]\nexperiment = simulate\nout_dir = %s\n"
           "[grid]\nT = 1.0\nn = 8\n[ensemble]\nN = 4\n"
           % str(tmp_path / "unused"))
    path = _write(tmp_path, "sim.ini", ini)
    out_dir = tmp_path / "actual"
    assert main(["simulate", "--config", path, "--seed", "7",
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "final p0-moment" in out and "wrote" in out
    report = json.load(open(out_dir / "simulate_report.json"))
    assert report["config"]["seed"] == 7
    assert not (tmp_path / "unused").exists()


def test_moment_stability_cli(tmp_path, capsys):
    ini = ("[run]\nexperiment = moment-stability\nreps = 1\n"
           "out_dir = %s\n"
           "[model]\nfamily = cubic-mean-field\n"
           "lam = 0.0\nsigma0 = 0.0\nc_f = 0.0\nc_g = 0.0\n"
           "[grid]\nT = 10.0\nn = 2\n"
           "[ensemble]\nN = 8\ninitial = point 3.0\ninitial_b = point 3.0\n"
           % str(tmp_path / "out"))
    path = _write(tmp_path, "ms.ini", ini)
    assert main(["moment-stability", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "arm tamed" in out and "arm plain" in out
    assert "verdict: pass" in out


def test_moment_beyond_float_range_counts_as_unbounded(tmp_path, capsys):
    # the plain arm from 2.008 lands one iterate in [2.9e76, 1.16e77]:
    # every 4th power is finite but their sum over 256 particles is not
    ini = ("[run]\nexperiment = moment-stability\nseed = 1\nreps = 1\n"
           "p0 = 4.0\nout_dir = %s\n"
           "[model]\nfamily = cubic-mean-field\n"
           "lam = 0.0\nsigma0 = 0.0\nc_f = 0.0\nc_g = 0.0\n"
           "[grid]\nT = 10.0\nn = 2\n"
           "[ensemble]\nN = 256\ninitial = point 3.0\n"
           "initial_b = point 2.008\n" % str(tmp_path / "out"))
    path = _write(tmp_path, "overflow.ini", ini)
    assert main(["moment-stability", "--config", path]) in (0, 2)
    report = json.load(open(tmp_path / "out" /
                            "moment_stability_report.json"))
    assert report["sup_moments"][1] == "inf"
    capsys.readouterr()


def test_failing_verdict_exits_2(tmp_path, capsys):
    # slope band far from any achievable rate forces a fail verdict
    ini = ("[run]\nexperiment = strong-rate\nreps = 2\nout_dir = %s\n"
           + OU_MODEL +
           "[grid]\nlevels = 4,8,16\nn_max = 64\nT = 1.0\n"
           "[ensemble]\nN = 4\ninitial = point 1.0\n"
           "[taming]\nvariant = off\n"
           "[bands]\nslope_lo = 5.0\nslope_hi = 6.0\nr2_min = 0.0\n") \
        % str(tmp_path / "out")
    path = _write(tmp_path, "fail.ini", ini)
    assert main(["strong-rate", "--config", path]) == 2
    out = capsys.readouterr().out
    assert "verdict: fail" in out
    assert "fitted slope" in out


def test_probe_cli_pass_and_fail(capsys):
    assert main(["probe-assumptions", "--family", "lipschitz-baseline",
                 "--count", "500"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out and "FAIL" not in out

    # pair_coercivity's right side has a constant term, so the additive
    # noise sigma0 = 0.3 holds the pair set
    assert main(["probe-assumptions", "--family", "cubic-mean-field",
                 "--set", "pairwise_poc"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out and "FAIL" not in out

    code = main(["probe-assumptions", "--family", "anti-dissipative",
                 "--set", "finite_horizon", "--count", "2000"])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL finite_horizon/b_sigma_monotonicity" in out
    assert "inequalities evaluated" in out


def test_probe_cli_no_documented_sets(capsys):
    # without --set the saboteur family documents nothing to probe
    assert main(["probe-assumptions", "--family",
                 "anti-dissipative"]) == 0
    assert "documents no inequality sets" in capsys.readouterr().out


def test_probe_cli_unknown_set(capsys):
    assert main(["probe-assumptions", "--set", "bogus"]) == 1
    assert "unknown assumption set" in capsys.readouterr().err


def test_probe_cli_bad_radius(capsys):
    # a radius that is not finite and > 0 is refused, not probed
    for radius in ("nan", "inf", "0", "-5"):
        assert main(["probe-assumptions", "--family", "pairwise-vlasov",
                     "--radius", radius]) == 1
        captured = capsys.readouterr()
        assert "radius must be finite and > 0" in captured.err
        assert "FAIL" not in captured.out


def test_threads_never_change_bytes(tmp_path, monkeypatch, capsys):
    blobs = []
    for sub, argv_extra, env in (("a", ["--threads", "1"], None),
                                 ("b", [], "4"),
                                 ("c", ["--threads", "8"], "3")):
        if env is None:
            monkeypatch.delenv("MVSDE_THREADS", raising=False)
        else:
            monkeypatch.setenv("MVSDE_THREADS", env)
        out_dir = tmp_path / sub
        path = _write(tmp_path, "rate_%s.ini" % sub,
                      _tiny_rate_ini(str(out_dir)))
        assert main(["strong-rate", "--config", path] + argv_extra) == 0
        with open(out_dir / "strong_rate_errors.csv", "rb") as fc:
            csv_bytes = fc.read()
        with open(out_dir / "strong_rate_report.json", "rb") as fj:
            json_bytes = fj.read()
        blobs.append((csv_bytes, json_bytes))
    assert blobs[0] == blobs[1] == blobs[2]
    capsys.readouterr()


def test_threads_must_be_positive(tmp_path, capsys):
    path = _write(tmp_path, "rate.ini",
                  _tiny_rate_ini(str(tmp_path / "out")))
    assert main(["strong-rate", "--config", path, "--threads", "0"]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err


def test_strong_rate_help_explains_default_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["strong-rate", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "p <= p0/(3q+1) = 4/7" in out


def test_tableau_over_cap_exits_1(tmp_path, capsys):
    # the default N = 64 at T = 300, n_max = 1024 needs 19660800 stored
    # increments; the run must stop before simulating anything
    ini = ("[run]\nexperiment = strong-rate\nout_dir = %s\n"
           "[grid]\nT = 300.0\nn_max = 1024\n" % str(tmp_path / "out"))
    path = _write(tmp_path, "big.ini", ini)
    t0 = time.monotonic()
    assert main(["strong-rate", "--config", path]) == 1
    assert time.monotonic() - t0 < 5.0
    err = capsys.readouterr().err
    assert "19660800" in err and "lower N, T or n_max" in err


def test_ergodic_cli_output(tmp_path, capsys):
    ini = ("[run]\nexperiment = ergodic\nreps = 1\nout_dir = %s\n"
           "[grid]\nT = 2.0\nn = 20\n"
           "[ensemble]\nN = 16\ninitial = gaussian 0.0 1.0\n"
           "initial_b = gaussian 2.0 1.0\n"
           "[bands]\nratio_max = 0.9\nr2_min = 0.5\n"
           % str(tmp_path / "out"))
    path = _write(tmp_path, "erg.ini", ini)
    assert main(["ergodic", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "W2" in out and "fitted decay rate" in out
    assert "verdict: pass" in out


@pytest.mark.parametrize("value, message", [
    ("abc", "MVSDE_THREADS must be a whole number, got 'abc'"),
    ("0", "threads must be >= 1, got 0")])
def test_threads_variable_refused(tmp_path, monkeypatch, capsys, value,
                                  message):
    monkeypatch.setenv("MVSDE_THREADS", value)
    out_dir = tmp_path / "out"
    path = _write(tmp_path, "rate.ini", _tiny_rate_ini(str(out_dir)))
    assert main(["strong-rate", "--config", path]) == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("T, n, message", [
    ("1e307", "128", "whole number of steps"),
    ("1e400", "128", "T must be finite, got inf"),
    ("inf", "128", "T must be finite, got inf"),
    ("1.0", "1" + "0" * 400, "whole number of steps")],
    ids=["T1e307", "T1e400", "Tinf", "n1e400"])
def test_step_count_beyond_the_float_range_exits_1(tmp_path, capsys, T,
                                                   n, message):
    out = tmp_path / "out"
    path = _write(tmp_path, "huge.ini",
                  "[run]\nexperiment = simulate\nout_dir = %s\n"
                  "[grid]\nT = %s\nn = %s\n" % (out, T, n))
    assert main(["simulate", "--config", path]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_wrong_types_and_non_finite_values_exit_1(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write(tmp_path, "bad.ini",
                  "[run]\nexperiment = strong-rate\nout_dir = %s\n"
                  "reps = 2.5\nseed = True\nthreads = \"2\"\n"
                  "p = inf\np0 = nan\n"
                  "[grid]\nT = inf\nlevels = 16.5,32\n" % out)
    assert main(["strong-rate", "--config", path]) == 1
    err = capsys.readouterr().err
    for key in ("reps", "seed", "threads", "levels"):
        assert "key %r: cannot parse" % key in err
    for name in ("T", "p", "p0"):
        assert "%s must be finite" % name in err
    assert not out.exists()


@pytest.mark.parametrize("keys, message", [
    ("[model]\nd = 2\n", "sorted_1d needs d == 1, got d=2"),
    ("[ensemble]\nN = 600\n[metric]\nmethod = exact_assignment\n",
     "exact_assignment capped at 512 atoms, got 600")])
def test_ergodic_w2_route_refused_before_any_rep(tmp_path, capsys,
                                                 monkeypatch, keys,
                                                 message):
    def no_run(*args, **kwargs):
        raise AssertionError("a repetition ran")

    monkeypatch.setattr(experiments, "simulate", no_run)
    out = tmp_path / "out"
    path = _write(tmp_path, "erg.ini",
                  "[run]\nexperiment = ergodic\nout_dir = %s\n%s"
                  % (out, keys))
    assert main(["ergodic", "--config", path]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
