"""Config parsing, canonical emission, and the step-size gate."""

import pytest

from mvsde.config import (EXPERIMENTS, ConfigError, emit_config,
                          make_config, parse_config)

# dyadic so every derived quantity is float-exact:
# rho1 = 4 - 0.5 - 1 - 0.25 - 0.25 - 0.5 = 1.5
# rho2 = 0.25 - 0.25 + 0.125 - 1 - 0.5 - 2 = -3.375
# h_star = min(1, 1) = 1, bound = min(1, 1/3) = 1/3
DYADIC = dict(
    Lhat_bsig_1=4.0, Lhat_bsig_2=0.5, L_b_1=0.25, L_b_2=0.25,
    L_f_1=0.125, L_bsig_1=1.0, L_bsig_2=0.125, L_bsig_3=0.5,
    L_bsig_4=0.25, L_bsig_5=0.125, L_fg_1=0.25, L_fg_2=0.125,
    L_fg_3=0.0625, L_b_3=0.25, L_b_4=0.25, L_f_2=0.125)


def _constants_ini(consts=DYADIC):
    lines = ["[constants]"]
    lines += ["%s = %r" % (k, v) for k, v in consts.items()]
    return "\n".join(lines) + "\n"


def test_minimal_strong_rate_defaults():
    cfg = parse_config("[run]\nexperiment = strong-rate\n")
    assert cfg.experiment == "strong-rate"
    assert cfg.seed == 12345 and cfg.reps == 32
    assert cfg.p == 2.0 and cfg.p0 == 4.0
    assert cfg.family == "cubic-mean-field" and cfg.d == 1 and cfg.l == 1
    assert cfg.measure_mode == "functional"
    assert cfg.levels == (16, 32, 64, 128, 256, 512)
    assert cfg.n_max == 1024 and cfg.N == 64
    assert cfg.variant == "finite" and cfg.method == "sorted_1d"
    assert cfg.initial == "gaussian 0.0 0.5"
    assert cfg.initial_b == cfg.initial
    assert (cfg.slope_lo, cfg.slope_hi, cfg.r2_min) == (0.40, 0.60, 0.95)
    assert cfg.constants is None
    # family parameters resolved to their canonical values
    assert cfg.params["sigma0"] == 0.3 and cfg.params["c_g"] == 1.0


def test_experiment_defaults_differ():
    poc = make_config("poc-rate")
    assert poc.family == "pairwise-vlasov" and poc.reps == 16
    assert poc.N_levels == (16, 32, 64, 128, 256) and poc.N_ref == 1024
    assert (poc.slope_lo, poc.slope_hi) == (-0.65, -0.35)
    erg = make_config("ergodic")
    assert erg.variant == "ergodic" and erg.T == 20.0 and erg.N == 256
    assert erg.initial_b == "gaussian 5.0 1.0" and erg.r2_min == 0.9
    ms = make_config("moment-stability")
    assert ms.T == 100.0 and ms.n == 2 and ms.initial_b == "point 3.0"
    assert tuple(EXPERIMENTS) == ("simulate", "strong-rate", "poc-rate",
                                  "moment-stability", "ergodic")


def test_round_trip_is_idempotent():
    cfg = parse_config("[run]\nexperiment = poc-rate\nseed = 77\n"
                       "[model]\nfamily = pairwise-vlasov\nd = 3\n")
    text = emit_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2 == cfg
    assert emit_config(cfg2) == text


def test_round_trip_preserves_constants():
    text = ("[run]\nexperiment = simulate\n[grid]\nn = 4\nT = 1.0\n"
            + _constants_ini())
    cfg = parse_config(text)
    assert cfg.constants == DYADIC
    again = parse_config(emit_config(cfg))
    assert again.constants == DYADIC
    assert emit_config(again) == emit_config(cfg)


def test_divisibility_error_names_both_values():
    text = ("[run]\nexperiment = strong-rate\n"
            "[grid]\nlevels = 8,16\nn_max = 40\n")
    with pytest.raises(ConfigError,
                       match=r"level n = 16 does not divide n_max = 40"):
        parse_config(text)


def test_all_violations_collected():
    text = ("[run]\nexperiment = strong-rate\nreps = 0\n"
            "[taming]\nvariant = sideways\n"
            "[metric]\nmethod = manhattan\n"
            "[bands]\nslope_lo = 0.9\nslope_hi = 0.1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "4 problems" in msg
    assert "reps must be >= 1" in msg
    assert "unknown taming variant 'sideways'" in msg
    assert "unknown W2 method 'manhattan'" in msg
    assert "slope band is empty" in msg


def test_the_dropped_taming_variant_is_refused():
    """strong_order_candidate is no variant: make_config and parse_config
    refuse it and name the three that are."""
    want = ("unknown taming variant 'strong_order_candidate'; known: "
            "finite, ergodic, off")
    with pytest.raises(ConfigError, match=want):
        make_config("strong-rate", variant="strong_order_candidate")
    with pytest.raises(ConfigError, match=want):
        parse_config("[run]\nexperiment = strong-rate\n"
                     "[taming]\nvariant = strong_order_candidate\n")


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="config syntax error"):
        parse_config("[run]\nexperiment strong-rate\n")


def test_unknown_sections_and_keys():
    text = "[nonsense]\nx = 1\n[metric]\nbogus = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "unknown section [nonsense]" in msg
    assert "unknown key 'bogus' in section [metric]" in msg


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 3\n",
    "[DEFAULT]\nseed = 3\n[grid]\nn = 8\n",
])
def test_default_section_refused(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "section [DEFAULT] is not supported" in msg
    assert "[grid]" not in msg


def test_model_params_flow_through():
    cfg = parse_config("[model]\nfamily = cubic-mean-field\nlam = 0.25\n")
    assert cfg.params["lam"] == 0.25
    assert cfg.params["q"] == 2.0  # untouched default
    with pytest.raises(ConfigError, match="has no parameter"):
        parse_config("[model]\nfamily = cubic-mean-field\nnope = 1\n")


def test_poc_reference_size_check():
    text = ("[run]\nexperiment = poc-rate\n"
            "[ensemble]\nN_levels = 16,32\nN_ref = 32\n")
    with pytest.raises(ConfigError, match=r"N_ref = 32 must exceed"):
        parse_config(text)


def test_doubling_chain_enforced():
    text = "[run]\nexperiment = strong-rate\n[grid]\nlevels = 16,48\n"
    with pytest.raises(ConfigError, match="doubling chain"):
        parse_config(text)


def test_ergodic_experiment_needs_ergodic_variant():
    text = "[run]\nexperiment = ergodic\n[taming]\nvariant = finite\n"
    with pytest.raises(ConfigError,
                       match="requires taming variant 'ergodic'"):
        parse_config(text)


def test_constants_gate_refuses_coarse_step():
    # h = 1/2 >= 1/3 = min(h_star, 1/(2 rho1))
    text = ("[run]\nexperiment = simulate\n[grid]\nn = 2\nT = 1.0\n"
            + _constants_ini())
    with pytest.raises(ConfigError,
                       match=r"violates h < min\(h_star, 1/\(2 rho1\)\)"):
        parse_config(text)
    # h = 1/4 < 1/3 is accepted with the same constants
    ok = parse_config(text.replace("n = 2", "n = 4"))
    assert ok.constants == DYADIC


def test_constants_gate_rejects_nonpositive_rho1():
    weak = dict(DYADIC, Lhat_bsig_1=0.5)  # rho1 = -2
    text = ("[run]\nexperiment = simulate\n[grid]\nn = 64\nT = 1.0\n"
            + _constants_ini(weak))
    with pytest.raises(ConfigError, match="not positive"):
        parse_config(text)


def test_constants_must_be_complete_and_known():
    partial = {k: v for k, v in DYADIC.items() if k != "L_f_2"}
    text = ("[run]\nexperiment = simulate\n" + _constants_ini(partial))
    with pytest.raises(ConfigError, match="missing: L_f_2"):
        parse_config(text)
    extra = dict(DYADIC, L_zz=1.0)
    text = ("[run]\nexperiment = simulate\n[grid]\nn = 64\n"
            + _constants_ini(extra))
    with pytest.raises(ConfigError,
                       match="unknown assumption constants: L_zz"):
        parse_config(text)
    # the optional cross constant is accepted
    full = dict(DYADIC, Lhat_fg_1=0.5)
    text = ("[run]\nexperiment = simulate\n[grid]\nn = 64\nT = 1.0\n"
            + _constants_ini(full))
    assert parse_config(text).constants["Lhat_fg_1"] == 0.5


def test_make_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: zest"):
        make_config("strong-rate", zest=1)


def test_fractional_step_count_rejected():
    with pytest.raises(ConfigError, match="whole number of steps"):
        parse_config("[run]\nexperiment = simulate\n"
                     "[grid]\nT = 1.3\nn = 2\n")


def test_step_count_follows_the_grid_rule():
    """The validator applies the whole-step rule of simulate and
    make_tableau: n*T = 1e-12 steps is refused here, not left for
    make_tableau to raise on."""
    with pytest.raises(ConfigError, match="positive whole number of steps"):
        make_config("simulate", T=1e-12, n=1)


def test_keyword_values_take_the_field_types():
    cfg = make_config("strong-rate", T=2, p=1, reps=4.0,
                      levels=[16.0, 32.0], n_max=64)
    assert (cfg.T, cfg.p, cfg.reps, cfg.levels) == (2.0, 1.0, 4, (16, 32))
    assert [type(v) for v in (cfg.T, cfg.p, cfg.reps)] == [float, float,
                                                            int]
    assert all(type(v) is int for v in cfg.levels)
    assert parse_config(emit_config(cfg)) == cfg


_BAD_KEYWORDS = dict(reps=2.5, levels=(16.5, 32.0, 64.0), seed=True,
                     threads="2", p=float("inf"), p0=float("nan"),
                     T=float("-inf"))
_BAD_INI = ("[run]\nexperiment = strong-rate\nreps = 2.5\nseed = True\n"
            "threads = \"2\"\np = inf\np0 = nan\n"
            "[grid]\nT = 1e400\nlevels = 16.5,32,64\n")
_BAD_MESSAGES = ("key 'reps': cannot parse", "key 'levels': cannot parse",
                 "key 'seed': cannot parse", "key 'threads': cannot parse",
                 "p must be finite, got inf", "p0 must be finite, got nan",
                 "T must be finite, got ")


@pytest.mark.parametrize("how", ["keyword", "ini"])
def test_values_of_the_wrong_type_or_not_finite_listed_together(how):
    with pytest.raises(ConfigError) as err:
        if how == "keyword":
            make_config("strong-rate", **_BAD_KEYWORDS)
        else:
            parse_config(_BAD_INI)
    msg = str(err.value)
    for words in _BAD_MESSAGES:
        assert words in msg, words
    if how == "keyword":
        assert "cannot parse (16.5, 32.0, 64.0)" in msg
        assert "cannot parse '2'" in msg


@pytest.mark.parametrize("value", [None, "1.0", b"1", [1.0], 1j])
def test_a_number_field_takes_only_numbers(value):
    with pytest.raises(ConfigError, match="key 'T': cannot parse"):
        make_config("simulate", T=value)


@pytest.mark.parametrize("law", ["point inf", "gaussian 0 inf",
                                 "uniform_ball 0 inf", "gaussian nan 1"])
def test_non_finite_initial_law_is_one_problem(law):
    with pytest.raises(ConfigError) as err:
        make_config("moment-stability", initial_b=law)
    msg = str(err.value)
    assert "(1 problem)" in msg
    assert "initial_b: initial law %r has a non-finite value" % law in msg


@pytest.mark.parametrize("law, message", [
    ("point 3.0 5.0", "a point mass takes one value, its center"),
    ("gaussian 0 -1", "has a negative scale"),
    ("uniform_ball 0 -1", "has a negative radius")])
def test_dropped_or_reflected_initial_law_is_one_problem(law, message):
    with pytest.raises(ConfigError) as err:
        make_config("moment-stability", initial_b=law)
    msg = str(err.value)
    assert "(1 problem)" in msg
    assert "initial_b: initial law %r" % law in msg and message in msg


def test_step_count_beyond_the_float_range_refused():
    with pytest.raises(ConfigError, match="whole number of steps"):
        make_config("simulate", T=1e307)
    for T in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="T must be finite, got %r"
                           % T):
            make_config("simulate", T=T)


def test_a_chain_beyond_the_float_range_is_one_problem():
    """A finite T whose n*T leaves the float range for some of the step
    counts (n, the levels, n_max) is listed once, with those counts."""
    for T, counts in ((1e307, "32, 64, 128, 256, 512, 1024"),
                      (1e306, "256, 512, 1024")):
        with pytest.raises(ConfigError) as err:
            make_config("strong-rate", T=T)
        assert str(err.value).splitlines()[1:] == [
            "  - n*T must be a positive whole number of steps, but T = %r "
            "puts it beyond the float range at n = %s" % (T, counts)]


def test_a_step_count_rule_broken_along_the_chain_is_one_problem():
    """A T that is no whole number of steps at n, the levels and n_max is
    listed once, naming each of those counts once."""
    with pytest.raises(ConfigError) as err:
        make_config("strong-rate", T=1.3)
    assert str(err.value).splitlines()[1:] == [
        "  - n*T must be a positive whole number of steps, but T = 1.3 "
        "does not make one at n = 16, 32, 64, 128, 256, 512, 1024"]
    # the counts where it fails, and only those: n / 64 is whole from 64
    with pytest.raises(ConfigError) as err:
        make_config("strong-rate", T=1.0 / 64)
    assert str(err.value).splitlines()[1:] == [
        "  - n*T must be a positive whole number of steps, but T = 0.015625 "
        "does not make one at n = 16, 32"]


@pytest.mark.parametrize("experiment", ["strong-rate", "simulate"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   float("nan")])
def test_a_non_finite_value_is_one_problem(experiment, value):
    """A non-finite T, p or p0 is listed once: the sign, range and
    whole-step checks that the value already fails are not listed too."""
    keys = ("T", "p", "p0")
    for bad in [(key,) for key in keys] + [keys]:
        with pytest.raises(ConfigError) as err:
            make_config(experiment, **dict.fromkeys(bad, value))
        assert str(err.value).splitlines()[1:] == [
            "  - %s must be finite, got %r" % (key, value) for key in bad]


@pytest.mark.parametrize("keys, message", [
    (dict(d=2), "sorted_1d needs d == 1, got d=2"),
    (dict(method="exact_assignment", N=600),
     "exact_assignment capped at 512 atoms, got 600"),
    (dict(method="exact_assignment", N=64, cap=32),
     "exact_assignment capped at 32 atoms, got 64")])
def test_ergodic_refuses_a_w2_route_it_cannot_take(keys, message):
    with pytest.raises(ConfigError, match=message):
        make_config("ergodic", **keys)


def test_w2_routes_an_ergodic_run_can_take():
    make_config("ergodic", d=2, method="sliced")
    make_config("ergodic", d=2, method="exact_assignment", N=512)
    make_config("ergodic", method="exact_assignment", N=600, cap=600)
    # only the ergodic run reads the W2 route
    make_config("simulate", d=2)
