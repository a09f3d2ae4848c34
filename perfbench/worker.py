"""One fresh workload process, started by run.py from the checkout root.

    worker.py setup CONFIG RESULT [--env]     import cli_io, parse CONFIG
    worker.py field SEED PATH                 write the seeded hls input field
    worker.py run COMMAND CONFIG OUT RESULT [--trace RUN_ID SPANS]

`setup` and `run` write the CLOCK_MONOTONIC reading taken once
`fraclane.cli_io` is imported and the config parsed; run.py subtracts its own
reading taken just before it started the process. `run` then times
`cli_io.main` (wall and process CPU time), samples the machine's speed during
the call (`Calibration`), captures every warning (counted by the fraclane
module that issued or triggered it, and still printed to stderr) and records
the peak resident memory. The process pins itself to one CPU before anything
else; the BLAS thread count comes from the environment run.py passes in, so
it is set before NumPy is imported here.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
import traceback
import warnings
from pathlib import Path


def _ready(config: Path):
    import fraclane.cli_io as cli_io

    cli_io.parse_config(config.read_text())
    return cli_io, time.monotonic()


class Calibration:
    """Samples how fast this CPU runs while the CLI call runs.

    Every 50 ms of process CPU time (ITIMER_PROF), the handler runs one fixed
    calibration unit between two bytecodes of the call and times it in
    thread CPU time: an interpreted Python loop, then one NumPy pass over a
    2 MB array that the call has pushed out of the caches. The array is
    allocated before the call and kept, so the unit allocates nothing. It
    runs no fraclane code, so no change under `src/` moves it, and it calls
    no BLAS and no FFT. Its mean duration is the machine's speed over
    the same stretch of time as the call, on the same CPU, in the same
    process; its total is subtracted from the call's CPU time.
    """

    INTERVAL_S = 0.05
    MIN_SAMPLES = 20  # taken after the call if the call itself gave none

    def __init__(self):
        import numpy as np

        self._np = np
        self._block = np.ones(262_144)
        self.samples = 0
        self.spent_s = 0.0

    def unit(self, *_):
        start = time.thread_time()
        acc = 0
        for i in range(5_000):
            acc += i * i % 7
        self._np.multiply(self._block, 1.0, out=self._block)
        self.spent_s += time.thread_time() - start
        self.samples += 1

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.unit)
        signal.siginterrupt(signal.SIGPROF, False)  # restart interrupted I/O
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        # SIG_IGN, not SIG_DFL: the default action of a late SIGPROF kills.
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        return False

    def unit_s(self) -> float:
        """Mean CPU seconds of one unit."""
        if not self.samples:
            for _ in range(self.MIN_SAMPLES):
                self.unit()
        return self.spent_s / self.samples


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": cpu,
    }


def _issuing_module(frame) -> str:
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("fraclane."):
            return name.split(".", 1)[1]
        frame = frame.f_back
    return "other"


def _run(command: str, config: Path, out: Path, trace) -> dict:
    cli_io, t_ready = _ready(config)
    tracer = None
    if trace is not None:
        import spans

        tracer = spans.Tracer(trace[0])
        spans.install(tracer)

    caught = []
    show = warnings.showwarning

    def capture(message, category, filename, lineno, file=None, line=None):
        caught.append({"module": _issuing_module(sys._getframe(1)),
                       "category": category.__name__, "message": str(message)})
        show(message, category, filename, lineno, file, line)

    raised = None
    calibration = Calibration()
    with warnings.catch_warnings(), calibration:
        warnings.simplefilter("always")
        warnings.showwarning = capture
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = cli_io.main([command, "--config", str(config), "--out", str(out)])
        except Exception:  # noqa: BLE001 - a crash is a measured outcome
            rc = None
            raised = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    in_call_s = calibration.spent_s
    result = {
        "t_ready": t_ready,
        "rc": rc,
        "raised": raised,
        "wall_s": wall,
        "cpu_s": cpu - in_call_s,
        "cal_unit_s": calibration.unit_s(),
        "cal_samples": calibration.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "warnings": caught,
    }
    if tracer is not None:
        Path(trace[1]).write_text(json.dumps(tracer.spans))
    return result


def _field(seed: int, path: Path) -> None:
    """A nonnegative 512x512 free field: four bubbles with seeded centres,
    widths and amplitudes on [-16, 16]^2."""
    import numpy as np

    from fraclane.cli_io import dump_field
    from fraclane.hls_limit import FreeField, bubble

    rng = np.random.default_rng(seed)
    radius, m = 16.0, 512
    axis = (np.arange(m) + 0.5) * (2 * radius / m) - radius
    x, y = np.meshgrid(axis, axis, indexing="ij")
    values = np.zeros((m, m))
    for _ in range(4):
        cx, cy = rng.uniform(-4.0, 4.0, size=2)
        width = rng.uniform(0.5, 2.0)
        amp = rng.uniform(0.5, 2.0)
        values += amp * bubble(np.hypot(x - cx, y - cy) / width, 2, 0.5) ** 3
    dump_field(FreeField.centered(radius, values), path)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        _, t_ready = _ready(Path(argv[1]))
        result = {"t_ready": t_ready}
        if "--env" in argv:
            result["env"] = _environment()
        Path(argv[2]).write_text(json.dumps(result))
    elif mode == "field":
        _field(int(argv[1]), Path(argv[2]))
    elif mode == "run":
        trace = None
        if "--trace" in argv:
            i = argv.index("--trace")
            trace = (argv[i + 1], argv[i + 2])
        result = _run(argv[1], Path(argv[2]), Path(argv[3]), trace)
        Path(argv[4]).write_text(json.dumps(result))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    # One CPU for the whole process: on a shared 2-core machine this halved
    # the run-to-run spread of sweep3d's wall time (0.13 -> 0.07 over 5 seeds).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.exit(main(sys.argv[1:]))
