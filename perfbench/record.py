"""Record the reference tables that run.py compares each run's outputs with.

    python3 perfbench/record.py

Run from the root of a checkout, at the commit whose outputs become the
reference. The sweep tables and the hls ladder do not depend on the seed and
are stored once, verbatim. The hls field score and the kernels table do:
they are stored for each of SEEDS, the kernels table reduced to its
computed columns (the pair coordinates and the closed-form free kernel
follow from the seed) and xz-compressed.
"""

from __future__ import annotations

import csv
import io
import json
import lzma
import shutil
import time
from pathlib import Path

from run import TIME_LIMIT_S, Runner
from workloads import REFERENCE_DIR, WORKLOADS, report_of

KERNEL_COLUMNS = ("green", "truncation_bound", "regular_part", "bound_ok")
SEEDS = range(0, 11)


def _one_call(root: Path, wl, seed: int) -> Path:
    work = root / ".perfbench_work" / "record" / f"{wl.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, time.monotonic() + TIME_LIMIT_S)
    field = work / "field.bin"
    if wl.name == "hls" and runner.spawn("field", seed, field)[0] != 0:
        raise RuntimeError(f"field for seed {seed} failed; see {runner.log}")
    config = work / "workload.cfg"
    config.write_text(wl.config_text(seed, field))
    out, res = work / "out", work / "result.json"
    rc, _ = runner.spawn("run", wl.command, config, out, res)
    result = json.loads(res.read_text()) if rc == 0 else {}
    if result.get("rc") not in (0, 1):
        raise RuntimeError(f"{wl.name} seed {seed} crashed; see {runner.log}")
    return out


def _kernel_columns(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    idx = [rows[0].index(c) for c in KERNEL_COLUMNS]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([[r[i] for i in idx] for r in rows])
    return buf.getvalue()


def main() -> int:
    root = Path.cwd()

    for name in ("sweep2d", "sweep3d"):
        wl = WORKLOADS[name]
        out = _one_call(root, wl, 0)
        dest = REFERENCE_DIR / name
        dest.mkdir(parents=True, exist_ok=True)
        for table in wl.tables:
            shutil.copyfile(out / table, dest / table)

    wl = WORKLOADS["hls"]
    dest = REFERENCE_DIR / "hls"
    dest.mkdir(parents=True, exist_ok=True)
    quotients = {}
    for seed in SEEDS:
        out = _one_call(root, wl, seed)
        quotients[str(seed)] = report_of(wl, out)["field_quotient"]["quotient"]
        if seed == SEEDS[0]:
            shutil.copyfile(out / "hls.csv", dest / "hls.csv")
    (dest / "field_quotient.json").write_text(json.dumps(quotients, indent=1) + "\n")

    wl = WORKLOADS["kernels"]
    dest = REFERENCE_DIR / "kernels"
    dest.mkdir(parents=True, exist_ok=True)
    for seed in SEEDS:
        out = _one_call(root, wl, seed)
        text = _kernel_columns((out / "kernels.csv").read_text())
        (dest / f"kernels.seed{seed}.csv.xz").write_bytes(
            lzma.compress(text.encode(), preset=9 | lzma.PRESET_EXTREME))
    shutil.rmtree(root / ".perfbench_work" / "record", ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
