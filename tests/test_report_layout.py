"""Report and config layout: key order is part of the output bytes.

The round-trip tests in test_config.py and digests that sort keys do
not see a reordering, so these tests pin the JSON key order of every
driver's report (top level, fit and config echo) and the canonical
INI text of one resolved config.
"""

import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import _core
from mvsde._core import NUMPY, load_compiled
from mvsde.config import emit_config, make_config
from mvsde.experiments import (_write_json, run_ergodic_contraction,
                               run_moment_stability, run_poc_rate,
                               run_simulate, run_strong_rate)

ECHO_KEYS = [
    "experiment", "config_version", "seed", "reps", "p", "p0",
    "family", "d", "l", "measure_mode", "params",
    "T", "n", "levels", "n_max",
    "N", "N_levels", "N_ref", "probe_count", "initial", "initial_b",
    "variant", "method", "projections", "cap",
    "slope_lo", "slope_hi", "r2_min", "ratio_max",
    "max_divergence_step", "constants", "software_version", "backend"]

RATE_KEYS = ["kind", "levels", "errors", "stderrs", "diverged", "fit",
             "verdict", "config"]

FIT_KEYS = ["slope", "intercept", "r_squared", "points"]

# the assumption constants in their documented order, dyadic values
DYADIC = dict(
    Lhat_bsig_1=4.0, Lhat_bsig_2=0.5, L_b_1=0.25, L_b_2=0.25,
    L_f_1=0.125, L_bsig_1=1.0, L_bsig_2=0.125, L_bsig_3=0.5,
    L_bsig_4=0.25, L_bsig_5=0.125, L_fg_1=0.25, L_fg_2=0.125,
    L_fg_3=0.0625, L_b_3=0.25, L_b_4=0.25, L_f_2=0.125)

CASES = {
    "simulate": (
        run_simulate, dict(N=4, n=8),
        ["kind", "final_moment", "sup_moment", "divergence_step",
         "steps_run", "verdict", "config"]),
    "strong-rate": (
        run_strong_rate,
        dict(reps=2, levels=(4, 8), n_max=16, N=4, p0=16.0),
        RATE_KEYS),
    "poc-rate": (
        run_poc_rate,
        dict(reps=2, N_levels=(4, 8), N_ref=16, n=8, probe_count=4),
        RATE_KEYS),
    "moment-stability": (
        run_moment_stability, dict(reps=1, T=2.0, n=4, N=4),
        ["kind", "arms", "sup_moments", "stderrs", "diverged",
         "divergence_steps", "series", "verdict", "config"]),
    "ergodic": (
        run_ergodic_contraction,
        dict(reps=1, T=2.0, n=20, N=16, initial_b="gaussian 2.0 1.0"),
        ["kind", "times", "w2", "stderrs", "diverged", "decay_rate",
         "r_squared", "w2_first", "w2_last", "stabilization",
         "constants", "verdict", "config"]),
}


@pytest.mark.parametrize("experiment", sorted(CASES))
def test_report_key_order(experiment, tmp_path):
    runner, overrides, top_keys = CASES[experiment]
    cfg = make_config(experiment, out_dir=str(tmp_path), **overrides)
    with warnings.catch_warnings():
        # the default p lies outside the proven rate range and warns
        warnings.simplefilter("ignore")
        runner(cfg)
    name = experiment.replace("-", "_")
    with open(tmp_path / ("%s_report.json" % name)) as fh:
        data = json.load(fh)
    assert list(data) == top_keys
    assert list(data["config"]) == ECHO_KEYS
    if "fit" in data:
        assert list(data["fit"]) == FIT_KEYS


def _jsonable(v):
    """The report conversions as json.dump input: the reference that
    _write_json's one-pass writer is held to."""
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        v = float(v)
    if isinstance(v, float):
        return v if math.isfinite(v) else repr(v)
    if dataclasses.is_dataclass(v):
        return {f.name: _jsonable(getattr(v, f.name))
                for f in dataclasses.fields(v)}
    return v


def _reference_bytes(body):
    return (json.dumps(_jsonable(body), indent=2) + "\n").encode()


@pytest.mark.parametrize("experiment", sorted(CASES))
def test_report_bytes_match_json_dump(experiment, tmp_path):
    """Every driver's report file holds the bytes json.dump(indent=2)
    gives its body after the report conversions."""
    runner, overrides, _ = CASES[experiment]
    cfg = make_config(experiment, out_dir=str(tmp_path), **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = runner(cfg)
    name = experiment.replace("-", "_")
    if isinstance(report, dict):  # run_simulate adds the paths it wrote
        body = {k: v for k, v in report.items() if not k.endswith("_path")}
    else:
        body = {f.name: getattr(report, f.name)
                for f in dataclasses.fields(report)
                if not f.name.endswith("_path")}
    with open(tmp_path / ("%s_report.json" % name), "rb") as fh:
        assert fh.read() == _reference_bytes(body)


@dataclasses.dataclass
class _Fit:
    slope: object
    points: object


def _bit_pattern_floats(seed, size):
    """size doubles from random 64-bit patterns: every exponent, a few
    infs and nans among them."""
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=size,
                                                dtype=np.uint64)
    return bits.view(np.float64).tolist()


def _report_values():
    floats = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                         math.inf, -math.inf, math.nan]))
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(), floats,
        floats.map(np.float64), st.floats(width=32).map(np.float32),
        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.integers(0, 255).map(np.uint8))
    keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                     st.floats(allow_nan=False))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner), st.lists(floats), st.lists(inner).map(tuple),
        st.builds(_bit_pattern_floats, st.integers(0, 2 ** 32 - 1),
                  st.integers(1000, 1100)),
        st.dictionaries(keys, inner),
        st.builds(_Fit, inner, inner)), max_leaves=40)


@pytest.fixture(scope="module")
def report_joins(request):
    """Each backend the report writer's repr_join comes from: NUMPY, and
    the compiled one where a C compiler builds it."""
    backends = [NUMPY]
    try:
        backends.append(load_compiled(
            request.getfixturevalue("compiled_library")))
    except pytest.skip.Exception:
        pass
    return backends


@settings(max_examples=300, deadline=None)
@given(body=_report_values())
def test_writer_matches_json_dump(body, report_joins, tmp_path_factory):
    """Nested dicts, lists, tuples and empty containers; unicode and
    escaped strings; ints, bools and None; signed zeros, subnormals, inf
    and nan (written as their repr strings), lists of floats alone and
    lists of 1,000 or more floats from random bit patterns; NumPy scalars
    and dataclasses: the bytes of json.dump(indent=2), with the float
    lists written by the NumPy and by the compiled repr_join."""
    path = tmp_path_factory.mktemp("json") / "report.json"
    for backend in report_joins:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_core, "kernels", backend)
            _write_json(str(path), body)
        assert path.read_bytes() == _reference_bytes(body)


def test_writer_merges_keys_equal_as_strings(tmp_path):
    body = {1: "a", "1": "b", None: [], "None": {}, "x": ()}
    _write_json(str(tmp_path / "keys.json"), body)
    assert (tmp_path / "keys.json").read_bytes() == _reference_bytes(body)


def test_writer_refuses_what_json_refuses(tmp_path):
    for value in (np.bool_(True), {1, 2}, object()):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(_jsonable({"v": value}))
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_json(str(tmp_path / "bad.json"), {"v": value})


POC_RATE_INI = (
    "[run]", "config_version = 1", "experiment = poc-rate",
    "seed = 12345", "reps = 16", "threads = 1", "out_dir = out",
    "p = 2.0", "p0 = 4.0", "",
    "[model]", "family = pairwise-vlasov", "d = 1", "l = 1",
    "measure_mode = pairwise", "a1 = 0.5", "a3 = 1.0", "c_f = 1.0",
    "c_g = 0.2", "c_s = 0.2", "kappa = 0.5", "nu = 0.0", "q = 2.0", "",
    "[grid]", "T = 1.0", "n = 64", "levels = ", "n_max = 1024", "",
    "[ensemble]", "N = 64", "N_levels = 16,32,64,128,256",
    "N_ref = 1024", "probe_count = 16", "initial = gaussian 0.0 1.0",
    "initial_b = gaussian 0.0 1.0", "",
    "[taming]", "variant = finite", "",
    "[metric]", "method = sorted_1d", "projections = 64", "cap = 512", "",
    "[bands]", "slope_lo = -0.65", "slope_hi = -0.35", "r2_min = 0.0",
    "ratio_max = 0.05", "max_divergence_step = 20")


def test_emitted_poc_rate_config_text():
    text = emit_config(make_config("poc-rate"))
    assert text == "\n".join(POC_RATE_INI) + "\n"


def test_constants_keep_their_orders(tmp_path):
    # the report keeps the supplied order, the echo sorts, and the INI
    # lists the constants in their documented order
    given = dict(reversed(list(DYADIC.items())))
    cfg = make_config("ergodic", reps=1, T=2.0, n=20, N=8,
                      initial_b="gaussian 2.0 1.0", constants=given,
                      out_dir=str(tmp_path))
    run_ergodic_contraction(cfg)
    with open(tmp_path / "ergodic_report.json") as fh:
        data = json.load(fh)
    assert list(data["constants"]) == list(given) + ["rho1", "rho2",
                                                     "h_star"]
    assert list(data["config"]["constants"]) == sorted(given)
    text = emit_config(cfg)
    section = text[text.index("[constants]\n"):].splitlines()[1:]
    assert [line.split(" = ")[0] for line in section] == list(DYADIC)


def test_version_declared_once():
    """pyproject.toml takes the package version from mvsde._version, the
    software_version every report echoes, and states no literal one."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pyproject.toml")
    with open(path, "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "mvsde._version.VERSION"}
