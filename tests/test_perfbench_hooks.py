"""The benchmark tracer's hooks still name real package attributes.

perfbench/tracer.py wraps package attributes by name and skips a hook
whose target is gone, so a rename in the package would silently drop
that layer's metrics. These tests resolve every hook the way the tracer
does, and check that the drivers call through each hooked attribute (a
caller that bound the function at import time would bypass its hook).
On the C backend simulate runs the fused kernel instead of scheme.step and
scheme.pair_aggregate, so those two hooks are checked on an all-NumPy run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import mvsde
from mvsde.cli import main

_TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_hook_resolves():
    tracer = _load_tracer()
    missing = []
    for name, module, path, _counter, _names in tracer.ALL_HOOKS:
        try:
            tracer._resolve(module, path.format(command="strong-rate"))
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append("%s -> %s.%s (%r)" % (name, module, path, exc))
    assert not missing, "unresolved tracer hooks: %s" % "; ".join(missing)


def _traced_run(tmp_path, command, ini):
    tracer = _load_tracer()
    path = tmp_path / ("%s.ini" % command)
    path.write_text(ini % str(tmp_path / "out"))
    with tracer.Tracer(tracer.ALL_HOOKS, command) as tr:
        assert main([command, "--config", str(path)]) in (0, 2)
    assert not tr.missing and not tr.broken
    return tracer.ALL_HOOKS, {s[0] for s in tr.spans()}


_STRONG_INI = ("[run]\nexperiment = strong-rate\nreps = 2\nout_dir = %s\n"
               "[grid]\nlevels = 4,8\nn_max = 16\n[ensemble]\nN = 4\n")
_OBSERVERS = {"scheme.MomentTracker.observe",
              "experiments.DivergenceTracker.observe"}
# on the C backend simulate advances through the fused kernel, which
# calls neither; the all-NumPy run below checks these two
_STEP_PATH = {"scheme.step", "core.pair_aggregate"}


def test_drivers_call_through_every_hook(tmp_path, capsys):
    hooks, seen = _traced_run(tmp_path, "strong-rate", _STRONG_INI)
    assert {h[0] for h in hooks} - _OBSERVERS - _STEP_PATH <= seen
    # two reps: rep 0's tracker keeps a series, rep 1's only its sup, and
    # both go through the one observe hook
    _, seen = _traced_run(
        tmp_path, "moment-stability",
        "[run]\nexperiment = moment-stability\nreps = 2\nout_dir = %s\n"
        "[grid]\nT = 2.0\nn = 4\n[ensemble]\nN = 4\n")
    assert _OBSERVERS <= seen
    capsys.readouterr()


_NUMPY_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                              sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from mvsde import backend_name
from mvsde.cli import main
with tracer.Tracer(tracer.ALL_HOOKS, "strong-rate") as tr:
    code = main(["strong-rate", "--config", sys.argv[2]])
print(json.dumps({"code": code, "backend": backend_name(),
                  "missing": tr.missing, "broken": sorted(tr.broken),
                  "seen": sorted({s[0] for s in tr.spans()})}))
"""


def test_numpy_backend_calls_through_step_hooks(tmp_path):
    path = tmp_path / "strong-rate.ini"
    path.write_text(_STRONG_INI % str(tmp_path / "out"))
    src = os.path.dirname(os.path.dirname(mvsde.__file__))
    env = dict(os.environ, MVSDE_FORCE_FALLBACK="1", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_RUN, _TRACER, str(path)], env=env,
        check=True, capture_output=True, text=True, timeout=300).stdout
    run = json.loads(out.splitlines()[-1])
    assert run["code"] in (0, 2) and run["backend"] == "numpy"
    assert not run["missing"] and not run["broken"]
    assert {h[0] for h in _load_tracer().ALL_HOOKS} - _OBSERVERS <= set(
        run["seen"])
