"""Benchmark harness for fraclane.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every CLI call runs `fraclane.cli_io.main`
in-process inside a fresh worker process (`worker.py`), with the BLAS pool
pinned to one thread. The call's CPU time is counted in units of a fixed
calibration kernel sampled inside the same process while the call runs,
which takes out how fast the shared machine happens to run at the time.
Calls repeat until `--seconds` of measuring would be exceeded (at least two
calls, three for `sweep3d` and when traced). The last line of standard
output is the JSON result; the lines before it list every metric with its
unit. `--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones, taken from span recorders that wrap each layer from
outside `src/`. Result, environment record and spans are written under
`.perfbench_work/<workload>/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans as spanlib
from workloads import OUT_DEV_TOLERANCE, WORKLOADS, out_max_dev, score, table_digests

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
BLAS_THREADS = 1
SETUP_ONLY_PROCESSES = 3  # on top of the one set-up each workload call measures
TIME_LIMIT_S = 165.0  # a run must end within 180 s
ROOT_SPAN_SLACK = 0.01  # the traced root span must cover 99% of traced wall_s
TRACE_PATTERN = (False, True, True)  # one plain call, then two traced ones


class HarnessError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    k = n - 10
    if k <= n / 2:
        return None
    return 100.0 * k / n, sorted(samples)[k - 1]


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.log = work / "workers.log"

    def spawn(self, *args) -> tuple[int | None, float]:
        """Run one worker to completion; returns (exit code or None on
        timeout, monotonic time just before it was started)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            return None, time.monotonic()
        with open(self.log, "ab") as log:
            t0 = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(WORKER), *map(str, args)], cwd=self.root,
                    env=self.env, stdout=log, stderr=subprocess.STDOUT, timeout=remaining,
                )
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                return None, t0
        return proc.returncode, t0


def environment(root: Path, seed: int, first_setup: dict) -> dict:
    commit = None
    if (root / ".git").exists():  # never report the commit of an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fraclane").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        **first_setup["env"],
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "worker_cpu": max(os.sched_getaffinity(0)),
        "blas_threads_env": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure_setup(runner: Runner, config: Path) -> tuple[list[float], dict]:
    samples, first = [], None
    for i in range(SETUP_ONLY_PROCESSES):
        res = runner.work / f"setup{i}.json"
        rc, t0 = runner.spawn("setup", config, res, *(["--env"] if i == 0 else []))
        if rc != 0:
            raise HarnessError(f"set-up process failed (exit {rc}); see {runner.log}")
        data = json.loads(res.read_text())
        samples.append(data["t_ready"] - t0)
        first = first or data
    return samples, first


def run_call(runner: Runner, wl, config: Path, seed: int, i: int, traced: bool) -> dict:
    out = runner.work / f"call{i}"
    res = runner.work / f"call{i}.json"
    span_path = runner.work / f"call{i}.spans.json"
    extra = ["--trace", f"{wl.name}-seed{seed}-call{i}", span_path] if traced else []
    rc, t0 = runner.spawn("run", wl.command, config, out, res, *extra)
    data = json.loads(res.read_text()) if rc == 0 and res.is_file() else {}
    crashed = rc != 0 or data.get("rc") is None or data["rc"] >= 2
    call = {
        "traced": traced,
        "worker_exit": rc,
        "cli_exit": data.get("rc"),
        "raised": data.get("raised"),
        "crashed": crashed,
        "duration_s": time.monotonic() - t0,
        "setup_s": data["t_ready"] - t0 if data else None,
        "wall_s": data.get("wall_s"),
        "cpu_s": data.get("cpu_s"),
        "cal_unit_s": data.get("cal_unit_s"),
        "cal_samples": data.get("cal_samples"),
        "cpu_cal": data["cpu_s"] / data["cal_unit_s"] if data else None,
        "peak_rss_mb": data["maxrss_kb"] / 1024.0 if data else None,
        "warnings": Counter(w["module"] for w in data.get("warnings", [])),
        "score": score(wl, out, crashed),
        "digests": table_digests(wl, out),
    }
    if traced and not crashed:
        recorded = json.loads(span_path.read_text())
        call["layers"] = spanlib.layer_metrics(recorded, wl.hot_spans)
        call["root_span_s"] = spanlib.root_span_seconds(recorded)
        call["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if i > 0:  # keep the first call's outputs for inspection
        shutil.rmtree(out, ignore_errors=True)
    return call


def evaluate(wl, seed: int, calls: list[dict], setup: list[float], work: Path) -> dict:
    plain = [c for c in calls if not c["traced"] and not c["crashed"]]
    traced = [c for c in calls if c["traced"] and not c["crashed"]]
    reasons = []
    if any(c["crashed"] for c in calls):
        reasons.append("a CLI call raised, timed out or exited with code >= 2")
    if len({json.dumps(c["digests"], sort_keys=True) for c in calls}) != 1:
        reasons.append("two calls with the same seed wrote different table bytes")
    if any(d is None for c in calls for d in c["digests"].values()):
        reasons.append("a table is missing")

    first_ok = next((c for c in calls if not c["crashed"]), None)
    dev, compared = (out_max_dev(wl, seed, work / "call0") if calls and not calls[0]["crashed"]
                     else (1.0, 0))
    if dev > OUT_DEV_TOLERANCE:
        reasons.append(f"tables deviate from the reference by {dev:.3e} "
                       f"(tolerance {OUT_DEV_TOLERANCE:.0e})")

    attempted = sum(c["score"]["attempted"] for c in calls)
    failed_items = sum(c["score"]["failed"] for c in calls)
    check_fracs = [0.0 if c["crashed"] or not c["score"]["checks"]
                   else 1.0 - c["score"]["checks_failed"] / c["score"]["checks"] for c in calls]

    e2e = {
        "cpu_cal": _median([c["cpu_cal"] for c in plain]),
        "setup_s": _median(setup + [c["setup_s"] for c in calls if c["setup_s"] is not None]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain]),
        "ok_frac": 1.0 - failed_items / attempted,
        "checks_ok_frac": statistics.fmean(check_fracs),
    }
    layers = {}
    if any(c["traced"] for c in calls) and not traced:
        reasons.append("no traced call completed; its per-layer metrics read 0")
    if traced:
        for c in traced:
            if abs(c["wall_s"] - c["root_span_s"]) > ROOT_SPAN_SLACK * c["wall_s"]:
                reasons.append(f"traced root span {c['root_span_s']:.4f} s does not account "
                               f"for traced wall_s {c['wall_s']:.4f} s")
        if len({json.dumps(spanlib.counts_only(c["layers"]), sort_keys=True)
                for c in traced}) != 1:
            reasons.append("traced calls of one seed disagree on a call/iteration/point count")
        layers = {k: _median([c["layers"][k] for c in traced]) for k in traced[0]["layers"]}
        for module in spanlib.MODULES:
            layers[f"{module}.warnings"] = traced[0]["warnings"][module]
        layers["cli_io.bytes_written"] = traced[0]["bytes_written"]
        layers["trace_overhead"] = (_median([c["cpu_cal"] for c in traced]) / e2e["cpu_cal"]
                                    if plain else 0.0)
    layers["wall_s"] = _median([c["wall_s"] for c in plain])
    layers["cal_unit_us"] = 1e6 * _median([c["cal_unit_s"] for c in calls if c["cal_unit_s"]])
    layers["fail_frac"] = failed_items / attempted
    layers["checks_failed"] = first_ok["score"]["checks_failed"] if first_ok else 0
    layers["out_max_dev"] = dev
    layers["out_values_compared"] = compared
    return {"correct": not reasons, "reasons": reasons, "end_to_end": e2e, "per_layer": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "fraclane" / "cli_io.py").is_file() or not spec_path.is_file():
        raise HarnessError(f"{root} is not a fraclane checkout (src/fraclane or "
                           "BENCHMARK.json missing)")
    spec = json.loads(spec_path.read_text())
    wl = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, started + TIME_LIMIT_S)

    field = work / "field.bin"
    if wl.name == "hls":
        rc, _ = runner.spawn("field", args.seed, field)
        if rc != 0:
            raise HarnessError(f"could not write the hls input field; see {runner.log}")
    config = work / "workload.cfg"
    config.write_text(wl.config_text(args.seed, field))
    setup, first_setup = measure_setup(runner, config)
    env = environment(root, args.seed, first_setup)

    calls: list[dict] = []
    end = time.monotonic() + args.seconds
    min_calls = max(wl.min_calls, len(TRACE_PATTERN) if args.trace else 0)
    while True:
        traced = bool(args.trace) and TRACE_PATTERN[len(calls) % len(TRACE_PATTERN)]
        calls.append(run_call(runner, wl, config, args.seed, len(calls), traced))
        if calls[-1]["worker_exit"] is None:
            break  # out of time
        next_done = time.monotonic() + _median([c["duration_s"] for c in calls])
        if next_done > runner.deadline or (len(calls) >= min_calls and next_done > end):
            break
    verdict = evaluate(wl, args.seed, calls, setup, work)

    record = {
        "workload": wl.name, "seconds": args.seconds, "trace": args.trace, "env": env,
        "setup_samples_s": setup, "calls": calls, **verdict,
        "elapsed_s": time.monotonic() - started,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    values = verdict[kind]
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing and verdict["correct"]:  # a crash explains a gap; nothing else does
        raise HarnessError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in spec[kind]}

    plain = [c for c in calls if not c["traced"] and not c["crashed"]]
    print(f"# {wl.name} seed={args.seed} calls={len(calls)} "
          f"({sum(c['traced'] for c in calls)} traced) blas_threads={BLAS_THREADS} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r}")
    for key, unit in (("cpu_cal", "cal"), ("wall_s", "s")):
        samples = [c[key] for c in plain]
        tail = tail_percentile(samples)
        print(f"# {key} over n={len(samples)} untraced calls: median {_median(samples):.4f} "
              + (f"{unit}, p{tail[0]:.0f} {tail[1]:.4f} {unit}" if tail
                 else f"{unit} (no tail percentile: needs >= 11 samples)"))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for reason in verdict["reasons"]:
        print(f"# incorrect: {reason}")

    result = {
        "correct": verdict["correct"],
        "attempted": len(calls),
        "failed": sum(c["crashed"] for c in calls),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
