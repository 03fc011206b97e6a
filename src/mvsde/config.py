"""Run configuration: a flat INI document, validated and canonical.

Grammar (config_version 1)
--------------------------
The RunConfig field table below is the single source of the keys: each
field declares its section, its type and its base default, and parsing,
emission and the report's config echo all follow it. Eight sections,
all keys single-valued; '#' and ';' start comments.

[run]        config_version, experiment (simulate | strong-rate |
             poc-rate | moment-stability | ergodic), seed, reps,
             threads, out_dir, p, p0
[model]      family, d, l, measure_mode, plus the family's own
             parameters as bare keys (q, lam, sigma0, ...); measure_mode
             is a label kept for the config echo, filled from the
             family's entry in model.FAMILIES; any other value is
             refused, and no computation reads it
[grid]       T, n, levels (comma-separated), n_max
[ensemble]   N, N_levels (comma-separated), N_ref, probe_count,
             initial, initial_b (law strings, see rng.parse_initial)
[taming]     variant
[metric]     method, projections, cap
[bands]      slope_lo, slope_hi, r2_min, ratio_max,
             max_divergence_step
[constants]  the assumption constants; when the section is present all
             sixteen required keys must be present (Lhat_fg_1 is
             accepted optionally), rho1 must be positive and the run's
             coarsest step must satisfy h < min(h_star, 1/(2 rho1))

Every key is optional; defaults depend on the experiment kind and are
filled in by parse_config, so emit_config(parse_config(text)) is the
fully resolved canonical form and parsing that form again round-trips
exactly. Validation collects every violated constraint before raising.

Each value is typed here, once, by its field's annotation. INI text is
parsed by the type ("16.5" is no int); a make_config keyword must be of
the type, except that an int field takes an integral float (16.0 is 16;
model.whole_number, also the rule of a model's dimensions and a
TamedModel's n) and a float field an int (2 is 2.0). A bool, or a
string, for a number is refused. So the drivers read the fields as they
are, and a keyword config writes the report bytes of its emit_config
text. T, p and p0 must be finite, and an ergodic run refuses the W2
routes metrics.w2 would (sorted_1d at d != 1, exact_assignment with N
above cap).

Threads resolve at run time (flag, then MVSDE_THREADS, then this file)
and never affect any numeric output.

This module alone decides whether a RunConfig can run: make_config and
parse_config validate what they build, and every experiment driver calls
validate(cfg, experiment) before it writes anything.

Assumption constants
--------------------
From the [constants] section theoretical_constants computes

    rho1   = Lhat_bsig_1 - Lhat_bsig_2 - 4 L_fg_1 - L_b_1 - L_b_2
             - 4 L_f_1
    rho2   = min(L_bsig_1/2, L_bsig_4) - (L_bsig_2 + L_bsig_5)
             + 2 min(L_fg_1/2, L_fg_3) - 4 max(L_b_1, L_b_3)
             - 2 max(L_b_2, L_b_4) - 16 max(L_f_1, L_f_2)
    h_star = min((L_bsig_1 / (2 L_bsig_3))^2, (L_fg_1 / (2 L_fg_2))^2)

and validation refuses a run when rho1 <= 0 or when its coarsest step
size satisfies h >= min(h_star, 1/(2 rho1)); rho2 is reported, never
gating.
"""

import configparser
import math
import numbers

from dataclasses import dataclass, field, fields

from .metrics import W2_METHODS
from .model import FAMILIES, make_model, whole_number
from .rng import _whole_steps, parse_initial
from .taming import VARIANTS

EXPERIMENTS = ("simulate", "strong-rate", "poc-rate",
               "moment-stability", "ergodic")

CONFIG_VERSION = 1

REQUIRED_CONSTANTS = (
    "Lhat_bsig_1", "Lhat_bsig_2", "L_b_1", "L_b_2", "L_f_1",
    "L_bsig_1", "L_bsig_2", "L_bsig_3", "L_bsig_4", "L_bsig_5",
    "L_fg_1", "L_fg_2", "L_fg_3", "L_b_3", "L_b_4", "L_f_2")
OPTIONAL_CONSTANTS = ("Lhat_fg_1",)


class ConfigError(ValueError):
    """Syntax error or the full list of violated constraints."""


def theoretical_constants(consts):
    """Contraction quantities from user-supplied assumption constants.

    Returns {"rho1": .., "rho2": .., "h_star": ..} computed exactly by
    the formulas in the module docstring. Raises ValueError when any
    required constant is missing.
    """
    missing = [k for k in REQUIRED_CONSTANTS if k not in consts]
    if missing:
        raise ValueError("incomplete assumption constants; missing: %s"
                         % ", ".join(missing))
    c = {k: float(v) for k, v in consts.items()}
    rho1 = (c["Lhat_bsig_1"] - c["Lhat_bsig_2"] - 4.0 * c["L_fg_1"]
            - c["L_b_1"] - c["L_b_2"] - 4.0 * c["L_f_1"])
    rho2 = (min(c["L_bsig_1"] / 2.0, c["L_bsig_4"])
            - (c["L_bsig_2"] + c["L_bsig_5"])
            + 2.0 * min(c["L_fg_1"] / 2.0, c["L_fg_3"])
            - 4.0 * max(c["L_b_1"], c["L_b_3"])
            - 2.0 * max(c["L_b_2"], c["L_b_4"])
            - 16.0 * max(c["L_f_1"], c["L_f_2"]))
    h_star = min((c["L_bsig_1"] / (2.0 * c["L_bsig_3"])) ** 2,
                 (c["L_fg_1"] / (2.0 * c["L_fg_2"])) ** 2)
    return {"rho1": rho1, "rho2": rho2, "h_star": h_star}


def check_step_bound(h, consts):
    """Refuse step sizes outside the contraction regime.

    Raises ValueError when rho1 <= 0 or h >= min(h_star, 1/(2 rho1));
    returns the theoretical_constants dict otherwise.
    """
    tc = theoretical_constants(consts)
    if tc["rho1"] <= 0.0:
        raise ValueError(
            "rho1 = %r is not positive; the supplied assumption "
            "constants admit no contracting step size" % (tc["rho1"],))
    half = 1.0 / (2.0 * tc["rho1"])
    bound = min(tc["h_star"], half)
    if h >= bound:
        raise ValueError(
            "step size h = %r violates h < min(h_star, 1/(2 rho1)) = "
            "min(%r, %r) = %r" % (h, tc["h_star"], half, bound))
    return tc


def _key(section, default, **meta):
    return field(default=default, metadata=dict(meta, section=section))


def _constant_rank(name):
    # documented constants in listing order, then unknown ones by name
    known = REQUIRED_CONSTANTS + OPTIONAL_CONSTANTS
    return (known.index(name) if name in known else len(known), name)


@dataclass
class RunConfig:
    """Fully resolved run configuration (canonical values).

    This field table is the config schema: each field's metadata names
    its INI section, its annotation is the type of its values (see
    _typed) and its default is the base default (None where it is derived
    from other keys or the section is absent). Field order is the order
    of the report's config echo and, with config_version moved first, of
    the emitted INI. A dict field collects its section's remaining keys.
    """

    experiment: str = _key("run", "strong-rate")
    config_version: int = _key("run", CONFIG_VERSION)
    seed: int = _key("run", 12345)
    reps: int = _key("run", 32)
    threads: int = _key("run", 1)
    out_dir: str = _key("run", "out")
    p: float = _key("run", 2.0)
    p0: float = _key("run", 4.0)
    family: str = _key("model", "cubic-mean-field")
    d: int = _key("model", 1)
    l: int = _key("model", None)
    measure_mode: str = _key("model", None)
    params: dict = field(default_factory=dict, metadata=dict(
        section="model", what="model parameter"))
    T: float = _key("grid", 1.0)
    n: int = _key("grid", 128)
    levels: tuple = _key("grid", ())
    n_max: int = _key("grid", 1024)
    N: int = _key("ensemble", 64)
    N_levels: tuple = _key("ensemble", ())
    N_ref: int = _key("ensemble", 1024)
    probe_count: int = _key("ensemble", 16)
    initial: str = _key("ensemble", "gaussian 0.0 1.0")
    initial_b: str = _key("ensemble", None)
    variant: str = _key("taming", "finite")
    method: str = _key("metric", "sorted_1d")
    projections: int = _key("metric", 64)
    cap: int = _key("metric", 512)
    slope_lo: float = _key("bands", 0.40)
    slope_hi: float = _key("bands", 0.60)
    r2_min: float = _key("bands", 0.95)
    ratio_max: float = _key("bands", 0.05)
    max_divergence_step: int = _key("bands", 20)
    constants: dict = _key("constants", None, what="constant",
                           order=_constant_rank)


_FIELDS = {f.name: f for f in fields(RunConfig)}

_EXPERIMENT_DEFAULTS = {
    "simulate": dict(reps=1),
    "strong-rate": dict(levels=(16, 32, 64, 128, 256, 512),
                        initial="gaussian 0.0 0.5"),
    "poc-rate": dict(reps=16, family="pairwise-vlasov", n=64,
                     N_levels=(16, 32, 64, 128, 256), N_ref=1024,
                     slope_lo=-0.65, slope_hi=-0.35, r2_min=0.0),
    "moment-stability": dict(reps=4, T=100.0, n=2,
                             initial_b="point 3.0"),
    "ergodic": dict(reps=1, family="ergodic-dissipative",
                    variant="ergodic", T=20.0, n=100, N=256,
                    initial_b="gaussian 5.0 1.0", r2_min=0.9),
}


def _canonical_law(text):
    law = parse_initial(text)
    if law["kind"] == "point":
        return "point %r" % (float(law["center"]),)
    spread = law["radius"] if law["kind"] == "uniform_ball" else law["scale"]
    return "%s %r %r" % (law["kind"], float(law["center"]), float(spread))


def _typed(kind, value, text):
    """value as a field annotated `kind` holds it (see the module
    docstring), or ValueError; a tuple holds ints and a dict floats."""
    if kind is tuple:
        if text:
            value = value.split(",") if value else ()
        elif not isinstance(value, (list, tuple)):
            raise ValueError(value)
        return tuple(_typed(int, v, text) for v in value)
    if text:
        return kind(value)
    if kind is int:
        return whole_number(value)
    if not (isinstance(value, str) if kind is str else
            isinstance(value, numbers.Real) and not isinstance(value, bool)):
        raise ValueError(value)
    return kind(value)


def _resolve(experiment, overrides, text=False):
    """(RunConfig, problems) from defaults and overrides, which _typed
    brings to their fields' types (text: they are INI text); a value it
    refuses is listed in problems and leaves its field at the default."""
    merged = vars(RunConfig())  # a fresh copy of the base defaults
    unknown = [k for k in overrides if k not in merged]
    if unknown:
        raise ConfigError("unknown config keys: %s"
                          % ", ".join(sorted(unknown)))
    merged.update(_EXPERIMENT_DEFAULTS.get(experiment, {}))
    merged["experiment"] = experiment
    problems = []
    for name, value in overrides.items():
        f = _FIELDS[name]
        if f.type is dict and isinstance(value, dict):
            merged[name] = {}
            for key, raw in value.items():
                try:
                    merged[name][str(key)] = _typed(float, raw, text)
                except (ValueError, OverflowError):
                    problems.append("%s %r: cannot parse %r"
                                    % (f.metadata["what"], key, raw))
            continue
        try:  # None leaves a derived field to be derived
            merged[name] = (None if value is None and f.default is None
                            else _typed(f.type, value, text))
        except (ValueError, OverflowError):
            problems.append("key %r: cannot parse %r" % (name, value))

    # resolve derived values so the emitted form is canonical
    if merged["l"] is None:
        merged["l"] = merged["d"]
    if merged["initial_b"] is None:
        merged["initial_b"] = merged["initial"]
    try:
        model = make_model(merged["family"], d=merged["d"], l=merged["l"],
                           params=merged["params"])
        merged["params"] = dict(model.params)
        label = FAMILIES[model.family_id]["measure_mode"]
        if merged["measure_mode"] is None:
            merged["measure_mode"] = label
    except (ValueError, TypeError):
        pass  # reported by _violations
    try:
        merged["initial"] = _canonical_law(merged["initial"])
        merged["initial_b"] = _canonical_law(merged["initial_b"])
    except ValueError:
        pass  # reported by _violations
    if merged["measure_mode"] is None:
        merged["measure_mode"] = ""
    return RunConfig(**merged), problems


def validate(cfg, experiment, problems=()):
    """cfg, or ConfigError listing problems plus every violated rule.

    experiment is the one the caller runs; a config for another one is
    refused. Every experiment driver calls this before it writes.
    """
    problems = list(problems) + _violations(cfg, experiment)
    if problems:
        raise ConfigError(
            "invalid configuration (%d problem%s):\n%s"
            % (len(problems), "s" if len(problems) != 1 else "",
               "\n".join("  - " + p for p in problems)))
    return cfg


def make_config(experiment="strong-rate", **overrides):
    """Build a validated RunConfig from per-experiment defaults.

    Unknown keyword names raise; constraint violations raise
    ConfigError listing every problem.
    """
    cfg, problems = _resolve(experiment, overrides)
    return validate(cfg, experiment, problems)


def _check_steps(chain, T, problems):
    """The whole-step rule simulate and make_tableau apply, for T > 0 and
    each step count n of chain: one line naming every n whose n*T is no
    whole number of steps, and one naming every n whose n*T leaves the
    float range, as one bad T fails it at many n."""
    fraction, beyond = set(), set()
    for n in chain:
        try:
            _whole_steps(n, T)
        except ValueError:
            try:
                huge = math.isinf(n * T)
            except OverflowError:  # an int n beyond the float range
                huge = True
            (beyond if huge else fraction).add(n)
    for bad, how in ((fraction, "does not make one"),
                     (beyond, "puts it beyond the float range")):
        if bad:
            problems.append("n*T must be a positive whole number of steps, "
                            "but T = %r %s at n = %s"
                            % (T, how, ", ".join(map(str, sorted(bad)))))


def _check_chain(name, chain, problems):
    if not chain:
        return
    last = None
    for v in chain:
        if v < 1:
            problems.append("%s entries must be >= 1, got %d" % (name, v))
            return
        if last is not None and v != 2 * last:
            problems.append("%s must be a doubling chain n0*2^k, got %s"
                            % (name, ",".join(str(u) for u in chain)))
            return
        last = v


def _violations(cfg, experiment):
    """Every violated constraint, as human-readable strings."""
    problems = []
    if cfg.experiment != experiment:
        problems.append("config is for experiment %r but %r was called"
                        % (cfg.experiment, experiment))
    if cfg.experiment not in EXPERIMENTS:
        problems.append("unknown experiment %r; known: %s"
                        % (cfg.experiment, ", ".join(EXPERIMENTS)))
    if cfg.config_version != CONFIG_VERSION:
        problems.append("unsupported config_version %r (this build "
                        "reads %d)" % (cfg.config_version,
                                       CONFIG_VERSION))
    if cfg.reps < 1:
        problems.append("reps must be >= 1, got %d" % cfg.reps)
    if cfg.threads < 1:
        problems.append("threads must be >= 1, got %d" % cfg.threads)
    # a non-finite value gets this one message; the checks it implies
    # (sign, range, whole step counts) are skipped
    finite = {name: math.isfinite(getattr(cfg, name))
              for name in ("T", "p", "p0")}
    for name, ok in finite.items():
        if not ok:
            problems.append("%s must be finite, got %r"
                            % (name, getattr(cfg, name)))
    if finite["p"] and not cfg.p > 0:
        problems.append("p must be positive, got %r" % (cfg.p,))
    if finite["p0"] and not cfg.p0 >= 2:
        problems.append("p0 must be >= 2, got %r" % (cfg.p0,))
    if cfg.d < 1 or cfg.l < 1:
        problems.append("dimensions must be >= 1, got d=%d l=%d"
                        % (cfg.d, cfg.l))

    model = None
    try:
        model = make_model(cfg.family, d=max(cfg.d, 1), l=max(cfg.l, 1),
                           params=cfg.params)
    except (ValueError, TypeError) as exc:
        problems.append(str(exc))
    if model is not None:
        label = FAMILIES[cfg.family]["measure_mode"]
        if cfg.measure_mode not in ("", None, label):
            problems.append("measure_mode %r does not match family %r "
                            "(which is %r)" % (cfg.measure_mode,
                                               cfg.family, label))

    if finite["T"] and not cfg.T > 0:
        problems.append("T must be positive, got %r" % (cfg.T,))
    # each step count that must make n*T whole steps
    chain = []
    if cfg.n < 1:
        problems.append("n must be >= 1, got %d" % cfg.n)
    else:
        chain.append(cfg.n)

    if cfg.experiment == "strong-rate":
        if not cfg.levels:
            problems.append("strong-rate needs [grid] levels")
        _check_chain("levels", cfg.levels, problems)
        for lev in cfg.levels:
            if lev >= 1 and cfg.n_max % lev != 0:
                problems.append("level n = %d does not divide "
                                "n_max = %d" % (lev, cfg.n_max))
            if lev >= 1:
                chain.append(lev)
        if cfg.levels and max(cfg.levels) >= cfg.n_max:
            problems.append("n_max = %d must exceed every level "
                            "(max %d)" % (cfg.n_max, max(cfg.levels)))
        chain.append(cfg.n_max)
    if finite["T"] and cfg.T > 0:
        _check_steps(chain, cfg.T, problems)

    if cfg.experiment == "poc-rate":
        if not cfg.N_levels:
            problems.append("poc-rate needs [ensemble] N_levels")
        _check_chain("N_levels", cfg.N_levels, problems)
        if cfg.N_levels and cfg.N_ref <= max(cfg.N_levels):
            problems.append("N_ref = %d must exceed every ensemble "
                            "size (max %d)" % (cfg.N_ref,
                                               max(cfg.N_levels)))
        if cfg.probe_count < 1:
            problems.append("probe_count must be >= 1, got %d"
                            % cfg.probe_count)

    if cfg.N < 1:
        problems.append("N must be >= 1, got %d" % cfg.N)

    for label, law in (("initial", cfg.initial),
                       ("initial_b", cfg.initial_b)):
        try:
            parse_initial(law)
        except ValueError as exc:
            problems.append("%s: %s" % (label, exc))

    if cfg.variant not in VARIANTS:
        problems.append("unknown taming variant %r; known: %s"
                        % (cfg.variant, ", ".join(VARIANTS)))
    elif cfg.experiment == "ergodic" and cfg.variant != "ergodic":
        problems.append("the ergodic experiment requires taming "
                        "variant 'ergodic', got %r" % (cfg.variant,))

    if cfg.method not in W2_METHODS:
        problems.append("unknown W2 method %r; known: %s"
                        % (cfg.method, ", ".join(W2_METHODS)))
    elif cfg.experiment == "ergodic":
        # the routes metrics.w2 cannot take, refused before any rep runs
        if cfg.method == "sorted_1d" and cfg.d != 1:
            problems.append("sorted_1d needs d == 1, got d=%d" % cfg.d)
        if cfg.method == "exact_assignment" and cfg.N > cfg.cap:
            problems.append("exact_assignment capped at %d atoms, got %d"
                            % (cfg.cap, cfg.N))
    if cfg.projections < 1:
        problems.append("projections must be >= 1, got %d"
                        % cfg.projections)
    if cfg.cap < 1:
        problems.append("cap must be >= 1, got %d" % cfg.cap)

    if not cfg.slope_lo < cfg.slope_hi:
        problems.append("slope band is empty: slope_lo=%r slope_hi=%r"
                        % (cfg.slope_lo, cfg.slope_hi))
    if not 0.0 <= cfg.r2_min <= 1.0:
        problems.append("r2_min must lie in [0, 1], got %r"
                        % (cfg.r2_min,))
    if not cfg.ratio_max > 0:
        problems.append("ratio_max must be positive, got %r"
                        % (cfg.ratio_max,))
    if cfg.max_divergence_step < 1:
        problems.append("max_divergence_step must be >= 1, got %d"
                        % cfg.max_divergence_step)

    if cfg.constants is not None:
        known = set(REQUIRED_CONSTANTS) | set(OPTIONAL_CONSTANTS)
        unknown = sorted(set(cfg.constants) - known)
        if unknown:
            problems.append("unknown assumption constants: %s"
                            % ", ".join(unknown))
        missing = [k for k in REQUIRED_CONSTANTS
                   if k not in cfg.constants]
        if missing:
            problems.append("assumption constants incomplete; "
                            "missing: %s" % ", ".join(missing))
        elif not unknown:
            if cfg.experiment == "strong-rate" and cfg.levels:
                h_run = 1.0 / min(cfg.levels)
            else:
                h_run = 1.0 / max(cfg.n, 1)
            try:
                check_step_bound(h_run, cfg.constants)
            except ValueError as exc:
                problems.append(str(exc))
    return problems


def parse_config(text):
    """Parse and validate an INI config; returns a resolved RunConfig.

    Raises ConfigError with the parser's line number on syntax errors,
    or with every violated constraint listed on semantic errors.
    """
    # no header can name the empty default section, so [DEFAULT] parses
    # as an ordinary section instead of having its keys copied into every
    # other one
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"),
                                   default_section="")
    cp.optionxform = str  # constants are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config syntax error: %s" % exc)

    problems = []
    overrides = {}
    for section in cp.sections():
        if section == "DEFAULT":
            problems.append("section [DEFAULT] is not supported; put each "
                            "key in its own section")
            continue
        known = {f.name: f for f in _FIELDS.values()
                 if f.metadata["section"] == section}
        if not known:
            problems.append("unknown section [%s]" % section)
            continue
        bag = next((f for f in known.values() if f.type is dict), None)
        if bag is not None:
            overrides[bag.name] = {}
        for key, raw in cp.items(section):
            if key in known and known[key] is not bag:
                overrides[key] = raw.strip()
            elif bag is not None:
                overrides[bag.name][key] = raw.strip()
            else:
                problems.append("unknown key %r in section [%s]"
                                % (key, section))

    experiment = overrides.pop("experiment", RunConfig.experiment)
    cfg, more = _resolve(experiment, overrides, text=True)
    return validate(cfg, experiment, problems + more)


def emit_config(cfg):
    """Canonical INI text for a RunConfig; parse_config round-trips it."""
    lines = []
    section = None
    # the [run] section leads with the format version
    for f in sorted(_FIELDS.values(),
                    key=lambda f: f.name != "config_version"):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.metadata["section"] != section:
            section = f.metadata["section"]
            lines += ["", "[%s]" % section]
        if f.type is dict:
            lines += ["%s = %r" % (key, value[key])
                      for key in sorted(value, key=f.metadata.get("order"))]
        elif f.type is tuple:
            lines.append("%s = %s" % (f.name, ",".join(map(str, value))))
        else:
            lines.append("%s = %s" % (f.name, value))
    return "\n".join(lines[1:]) + "\n"
