"""The four benchmark workloads, how their outputs are scored, and how they
are compared with the reference tables recorded under `reference/`.

Pure Python (no NumPy), so the harness process stays light and its own
start-up does not compete with the workload processes it measures.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Column-relative deviation from the reference above which the outputs count
# as changed science rather than rounding: well above the ulp-level changes of
# a reordered sum (1e-12 and below) and the solver's stopping tolerances
# (theta 1e-9, residual 1e-7), far below any effect the acceptance criteria
# look at (percent level).
OUT_DEV_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    tables: tuple[str, ...]
    hot_spans: tuple[str, ...]
    min_calls: int = 2  # plain calls per run, however long they take

    def config_text(self, seed: int, field_path: Path | None) -> str:
        text = self.config
        if self.name == "kernels":
            text += f"kernel_seed = {seed}\n"
        if self.name == "hls":
            text += f"hls_field = {field_path}\n"
        return text


_SWEEP_TABLES = ("sweep.csv", "constants.csv", "green_devs.csv", "profile_u.csv", "profile_v.csv")

# Configs are embedded rather than read from configs/, so an edit there cannot
# silently change what the benchmark measures.
WORKLOADS = {
    w.name: w
    for w in (
        # configs/sweep_square.cfg on a 4x finer grid: the blow-up core stays
        # above the 8-cell floor on every row, and the solver does the work.
        Workload(
            name="sweep2d",
            command="sweep",
            config=(
                "n = 2\nlengths = 1,1\ns = 0.5\np = 2.5\n"
                "eps_schedule = 0.06,0.04,0.025,0.015\n"
                "cutoff = 256,256\ngrid = 512,512\n"
            ),
            tables=_SWEEP_TABLES,
            hot_spans=("lane_emden.solve_ground_state",),
        ),
        # configs/sweep_cube_p1.cfg unchanged: the iterated-kernel path.
        Workload(
            name="sweep3d",
            command="sweep",
            config=(
                "n = 3\nlengths = 1,1,1\ns = 0.5\np = 1.0\n"
                "eps_schedule = 0.10,0.06\n"
                "cutoff = 24,24,24\ngrid = 48,48,48\n"
            ),
            tables=_SWEEP_TABLES,
            hot_spans=("fractional_calculus.g_tilde",),
            # About one sweep3d process in thirty runs 1.6x slower than the
            # rest, with the calibration unit at its usual speed; the median
            # of three calls leaves it out. Three calls of the other
            # workloads would not fit the time budget of a full pass.
            min_calls=3,
        ),
        # configs/hls_bubble.cfg plus the score of a seeded free field.
        Workload(
            name="hls",
            command="hls",
            config=(
                "n = 2\ns = 0.5\np = 2.5\n"
                "hls_box_list = 8,13,18\nhls_grid_list = 64,104,160\n"
            ),
            tables=("hls.csv",),
            hot_spans=("hls_limit.sharp_diagonal_quotient",),
        ),
        # Pointwise eigen-sum kernels: four green calls per pair.
        Workload(
            name="kernels",
            command="kernels",
            config=(
                "n = 2\nlengths = 1,1\ns = 0.5\n"
                "cutoff = 64,64\ngrid = 128,128\n"
                "kernel_pairs = 4000\nkernel_margin = 0.2\n"
            ),
            tables=("kernels.csv",),
            hot_spans=("fractional_calculus.green", "fractional_calculus.regular_part"),
        ),
    )
}


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _config_list(config: str, key: str) -> list[str]:
    for line in config.splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return [x.strip() for x in v.split(",") if x.strip()]
    raise KeyError(key)


def report_of(workload: Workload, out_dir: Path) -> dict | None:
    path = out_dir / f"{workload.command}_report.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def score(workload: Workload, out_dir: Path, crashed: bool) -> dict:
    """Scored output items and gating checks of one CLI call.

    An item is one eps row (sweeps), one kernel sample (kernels), or one
    ladder rung plus the field score (hls). A crashed call (raised, exit code
    2 or higher, or timed out) fails every item and every check.
    """
    if workload.command == "sweep":
        attempted = len(_config_list(workload.config, "eps_schedule"))
    elif workload.command == "hls":
        attempted = len(_config_list(workload.config, "hls_box_list")) + 1
    else:
        attempted = int(_config_list(workload.config, "kernel_pairs")[0])
    report = None if crashed else report_of(workload, out_dir)
    if report is None:
        return {"attempted": attempted, "failed": attempted, "checks": 0, "checks_failed": 0,
                "report_missing": True}

    table = out_dir / workload.tables[0]
    rows = _csv_rows(table.read_text()) if table.is_file() else [[]]
    header, body = rows[0], rows[1:]
    if workload.command == "sweep":
        ok = len(body)  # sweep.csv holds only rows whose solve did not fail
    elif workload.command == "kernels":
        col = header.index("bound_ok")
        ok = sum(1 for r in body if r[col] == "1")
    else:
        col = header.index("quotient")
        ok = sum(1 for r in body if math.isfinite(float(r[col])))
        q = (report.get("field_quotient") or {}).get("quotient")
        ok += int(q is not None and math.isfinite(q))
    gating = [c for c in report.get("checks", []) if c["gating"]]
    return {
        "attempted": attempted,
        "failed": attempted - min(ok, attempted),
        "checks": len(gating),
        "checks_failed": sum(1 for c in gating if not c["passed"]),
        "report_missing": False,
    }


def table_digests(workload: Workload, out_dir: Path) -> dict[str, str | None]:
    out = {}
    for name in workload.tables:
        path = out_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


# ---------------------------------------------------------------------------
# reference tables

def reference_files(workload: Workload, seed: int) -> dict[str, Path]:
    """Reference tables that apply to this workload and seed (may be empty)."""
    base = REFERENCE_DIR / workload.name
    if workload.name == "kernels":
        path = base / f"kernels.seed{seed}.csv.xz"
        return {"kernels.csv": path} if path.is_file() else {}
    return {name: base / name for name in workload.tables if (base / name).is_file()}


def _read_reference(path: Path) -> str:
    if path.suffix == ".xz":
        return lzma.decompress(path.read_bytes()).decode()
    return path.read_text()


def _column_deviation(ref: list[str], new: list[str]) -> float:
    """max |new - ref| / max |ref| over one column; 1.0 when the column's
    shape, NaN pattern or text changed."""
    if len(ref) != len(new):
        return 1.0
    try:
        a = [float(v) for v in ref]
        b = [float(v) for v in new]
    except ValueError:
        return 0.0 if ref == new else 1.0
    scale = max((abs(v) for v in a if math.isfinite(v)), default=0.0) or 1.0
    worst = 0.0
    for x, y in zip(a, b, strict=True):
        if math.isnan(x) or math.isnan(y):
            if not (math.isnan(x) and math.isnan(y)):
                return 1.0
            continue
        worst = max(worst, abs(x - y) / scale)
    return worst


def compare_tables(ref_text: str, new_text: str) -> tuple[float, int]:
    """Largest column-relative deviation of `new` from `ref`, over the
    columns the reference holds; returns (deviation, values compared)."""
    ref_rows, new_rows = _csv_rows(ref_text), _csv_rows(new_text)
    ref_head, new_head = ref_rows[0], new_rows[0] if new_rows else []
    worst, compared = 0.0, 0
    for j, name in enumerate(ref_head):
        if name not in new_head:
            return 1.0, compared
        k = new_head.index(name)
        ref_col = [r[j] for r in ref_rows[1:]]
        new_col = [r[k] for r in new_rows[1:]]
        worst = max(worst, _column_deviation(ref_col, new_col))
        compared += len(ref_col)
    return worst, compared


def field_quotient_reference(seed: int) -> float | None:
    path = REFERENCE_DIR / "hls" / "field_quotient.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def out_max_dev(workload: Workload, seed: int, out_dir: Path) -> tuple[float, int]:
    """Deviation of this call's tables from the references recorded for the
    same seed, and the number of values compared (0 for an unrecorded seed
    of a seeded table)."""
    worst, compared = 0.0, 0
    for name, ref_path in reference_files(workload, seed).items():
        new_path = out_dir / name
        if not new_path.is_file():
            return 1.0, compared
        dev, n = compare_tables(_read_reference(ref_path), new_path.read_text())
        worst, compared = max(worst, dev), compared + n
    if workload.name == "hls":
        ref_q = field_quotient_reference(seed)
        report = report_of(workload, out_dir) or {}
        new_q = (report.get("field_quotient") or {}).get("quotient")
        if ref_q is not None:
            worst = max(worst, 1.0 if new_q is None else abs(new_q - ref_q) / abs(ref_q))
            compared += 1
    return worst, compared
