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
# one batched call takes every comparison point, and the tracer still sees
# its work: the patch evaluations and the time inside the hot span
assert metrics["fractional_calculus.g_tilde.calls"] == 1, metrics
assert metrics["spectral_domain.synthesize_at.points"] > 0, metrics
assert metrics["hot_span_share"] > 0, metrics
assert metrics["blowup_sweep.points_compared_frac"] == 1.0, metrics
# the solver's iterations are counted from its report, whichever loop runs
assert metrics["lane_emden.solve_ground_state.calls"] == len(cfg.eps_schedule), metrics
assert metrics["lane_emden.iterations"] > 0, metrics
assert metrics["lane_emden.converged_frac"] == 1.0, metrics
"""


TRACED_HLS = """
import sys
from pathlib import Path

import numpy as np
from spans import Tracer, install, layer_metrics

tracer = Tracer("t")
install(tracer)

from fraclane import cli_io
from fraclane.hls_limit import FreeField

out = Path(sys.argv[1])
field = FreeField.centered(4.0, np.random.default_rng(7).random((32, 32)))
cli_io.dump_field(field, out / "field.bin")
cfg = out / "hls.cfg"
cfg.write_text("n = 2\\ns = 0.5\\np = 2.5\\nhls_box_list = 8,13\\nhls_grid_list = 32,52\\n"
               f"hls_field = {out / 'field.bin'}\\n")
assert cli_io.main(["hls", "--config", str(cfg), "--out", str(out / "hls")]) in (0, 1)
metrics = layer_metrics(tracer.spans, ("hls_limit.sharp_diagonal_quotient",))
# one convolution per ladder rung and one for the field score
assert metrics["hls_limit.free_convolution.calls"] == 2 + 1, metrics
assert metrics["hls_limit.radial_convolution.calls"] >= 1, metrics
assert metrics["hot_span_share"] > 0, metrics
"""


TRACED_KERNELS = """
import sys
from pathlib import Path

from spans import Tracer, install, layer_metrics

tracer = Tracer("t")
install(tracer)

from fraclane import cli_io

out = Path(sys.argv[1])
cfg = out / "kernels.cfg"
cfg.write_text("n = 2\\ncutoff = 16,16\\ngrid = 32,32\\nkernel_pairs = 12\\nkernel_margin = 0.2\\n")
assert cli_io.main(["kernels", "--config", str(cfg), "--out", str(out / "kernels")]) in (0, 1)
# the table is written by the one traced writer, through the module global
writes = [span for span in tracer.spans if span["name"] == "cli_io.write_table"]
assert len(writes) == 1, [span["name"] for span in tracer.spans]
metrics = layer_metrics(tracer.spans, ("fractional_calculus.green",))
assert metrics["fractional_calculus.green.calls"] == 2, metrics
assert metrics["cli_io.write_table.self_s"] > 0, metrics
"""

def run_traced(script, *args):
    # a subprocess, because `install` rebinds the functions for the whole process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_tracer_installs_and_records_a_sweep():
    run_traced(TRACED_SWEEP)


def test_perfbench_tracer_records_an_hls_run(tmp_path):
    run_traced(TRACED_HLS, str(tmp_path))


def test_perfbench_tracer_records_one_table_write_per_kernels_run(tmp_path):
    run_traced(TRACED_KERNELS, str(tmp_path))
