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
             parameters as bare keys (q, lam, sigma0, ...)
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

Threads resolve at run time (flag, then MVSDE_THREADS, then this file)
and never affect any numeric output.
"""

import configparser

from dataclasses import dataclass, field, fields

from .experiments import (OPTIONAL_CONSTANTS, REQUIRED_CONSTANTS,
                          check_step_bound)
from .metrics import W2_METHODS
from .model import make_model
from .rng import parse_initial
from .taming import VARIANTS

EXPERIMENTS = ("simulate", "strong-rate", "poc-rate",
               "moment-stability", "ergodic")

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Syntax error or the full list of violated constraints."""


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
    its INI section, its annotation is the parsed type and its default is
    the base default (None where it is derived from other keys or the
    section is absent). Field order is the order of the report's config
    echo and, with config_version moved first, of the emitted INI. A dict
    field collects its section's remaining keys as floats.
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


_FIELDS = fields(RunConfig)

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


def _resolve(experiment, overrides):
    """RunConfig from defaults and overrides, derived values filled in."""
    merged = vars(RunConfig())  # a fresh copy of the base defaults
    unknown = [k for k in overrides if k not in merged]
    if unknown:
        raise ConfigError("unknown config keys: %s"
                          % ", ".join(sorted(unknown)))
    merged.update(_EXPERIMENT_DEFAULTS.get(experiment, {}))
    merged.update(overrides)
    merged["experiment"] = experiment

    # resolve derived values so the emitted form is canonical
    if merged["l"] is None:
        merged["l"] = merged["d"]
    if merged["initial_b"] is None:
        merged["initial_b"] = merged["initial"]
    merged["levels"] = tuple(int(v) for v in merged["levels"])
    merged["N_levels"] = tuple(int(v) for v in merged["N_levels"])
    if merged["constants"] is not None:
        merged["constants"] = {str(k): float(v)
                               for k, v in merged["constants"].items()}
    try:
        model = make_model(merged["family"], d=merged["d"], l=merged["l"],
                           params=merged["params"])
        merged["params"] = dict(model.params)
        if merged["measure_mode"] is None:
            merged["measure_mode"] = model.measure_mode
    except (ValueError, TypeError):
        pass  # reported by _violations
    try:
        merged["initial"] = _canonical_law(merged["initial"])
        merged["initial_b"] = _canonical_law(merged["initial_b"])
    except ValueError:
        pass  # reported by _violations
    if merged["measure_mode"] is None:
        merged["measure_mode"] = ""
    return RunConfig(**merged)


def _checked(cfg, problems=()):
    """cfg, or ConfigError listing problems plus every violation."""
    problems = list(problems) + _violations(cfg)
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
    return _checked(_resolve(experiment, overrides))


def _whole(x):
    return abs(x - round(x)) <= 1e-9 * max(1.0, abs(x))


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


def _violations(cfg):
    """Every violated constraint, as human-readable strings."""
    problems = []
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
    if not cfg.p > 0:
        problems.append("p must be positive, got %r" % (cfg.p,))
    if not cfg.p0 >= 2:
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
    if model is not None and cfg.measure_mode not in ("", None,
                                                      model.measure_mode):
        problems.append("measure_mode %r does not match family %r "
                        "(which is %r)" % (cfg.measure_mode, cfg.family,
                                           model.measure_mode))

    if not cfg.T > 0:
        problems.append("T must be positive, got %r" % (cfg.T,))
    if cfg.n < 1:
        problems.append("n must be >= 1, got %d" % cfg.n)
    elif cfg.T > 0 and not _whole(cfg.n * cfg.T):
        problems.append("n*T must be a whole number of steps, got "
                        "n=%d T=%r" % (cfg.n, cfg.T))

    if cfg.experiment == "strong-rate":
        if not cfg.levels:
            problems.append("strong-rate needs [grid] levels")
        _check_chain("levels", cfg.levels, problems)
        for lev in cfg.levels:
            if lev >= 1 and cfg.n_max % lev != 0:
                problems.append("level n = %d does not divide "
                                "n_max = %d" % (lev, cfg.n_max))
            if cfg.T > 0 and not _whole(lev * cfg.T):
                problems.append("level n = %d gives a fractional step "
                                "count for T = %r" % (lev, cfg.T))
        if cfg.levels and max(cfg.levels) >= cfg.n_max:
            problems.append("n_max = %d must exceed every level "
                            "(max %d)" % (cfg.n_max, max(cfg.levels)))
        if cfg.T > 0 and not _whole(cfg.n_max * cfg.T):
            problems.append("n_max*T must be a whole number of steps, "
                            "got n_max=%d T=%r" % (cfg.n_max, cfg.T))

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


def _parse_value(kind, raw):
    if kind is tuple:
        return tuple(int(s) for s in raw.split(",")) if raw else ()
    return kind(raw)


def _fmt(kind, value):
    if kind is tuple:
        return ",".join(str(int(u)) for u in value)
    return repr(kind(value)) if kind in (int, float) else str(value)


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
        known = {f.name: f for f in _FIELDS
                 if f.metadata["section"] == section}
        if not known:
            problems.append("unknown section [%s]" % section)
            continue
        bag = next((f for f in known.values() if f.type is dict), None)
        if bag is not None:
            overrides[bag.name] = {}
        for key, raw in cp.items(section):
            raw = raw.strip()
            f = known.get(key)
            if f is not None and f is not bag:
                try:
                    overrides[key] = _parse_value(f.type, raw)
                except ValueError:
                    problems.append("key %r: cannot parse %r" % (key, raw))
            elif bag is not None:
                try:
                    overrides[bag.name][key] = float(raw)
                except ValueError:
                    problems.append("%s %r: cannot parse %r"
                                    % (bag.metadata["what"], key, raw))
            else:
                problems.append("unknown key %r in section [%s]"
                                % (key, section))

    experiment = overrides.pop("experiment", RunConfig.experiment)
    return _checked(_resolve(experiment, overrides), problems)


def emit_config(cfg):
    """Canonical INI text for a RunConfig; parse_config round-trips it."""
    lines = []
    section = None
    # the [run] section leads with the format version
    for f in sorted(_FIELDS, key=lambda f: f.name != "config_version"):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.metadata["section"] != section:
            section = f.metadata["section"]
            lines += ["", "[%s]" % section]
        if f.type is dict:
            for key in sorted(value, key=f.metadata.get("order")):
                lines.append("%s = %s" % (key, _fmt(float, value[key])))
        else:
            lines.append("%s = %s" % (f.name, _fmt(f.type, value)))
    return "\n".join(lines[1:]) + "\n"
