"""The benchmark's tracer (`perfbench/spans.py`) rebinds fraclane functions by
name. A renamed or reshaped hook must fail here, not in a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_SWEEP = """
import warnings

from spans import Tracer, install, layer_metrics

tracer = Tracer("t")
install(tracer)

import fraclane as fl
from fraclane import blowup_sweep as bs

cfg = bs.SweepConfig(domain=fl.BoxDomain((1.0, 1.0), 0.5), p=1.5, eps_schedule=(0.1, 0.08),
                     cutoff=(16, 16), grid_shape=(32, 32))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    bs.run_sweep(cfg)
metrics = layer_metrics(tracer.spans, ("fractional_calculus.g_tilde",))
assert metrics["fractional_calculus.g_tilde.calls"] == cfg.n_comparison, metrics
assert metrics["blowup_sweep.points_compared_frac"] == 1.0, metrics
# the solver's iterations are counted from its report, whichever loop runs
assert metrics["lane_emden.solve_ground_state.calls"] == len(cfg.eps_schedule), metrics
assert metrics["lane_emden.iterations"] > 0, metrics
assert metrics["lane_emden.converged_frac"] == 1.0, metrics
"""


def test_perfbench_tracer_installs_and_records_a_sweep():
    # a subprocess, because `install` rebinds the functions for the whole process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run([sys.executable, "-c", TRACED_SWEEP], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
