"""Command-line interface, flat key-value configs, and deterministic
persistence (full-precision CSV + JSON tables, binary field dumps, radial
profiles).

Subcommands: solve, sweep, hls, kernels. Exit code 0 iff every enabled
invariant check passes; acceptance-level tolerance checks are reported in
the JSON output (with their budgets) and gated only when
`acceptance_checks = true`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__
from .blowup_sweep import SweepConfig, run_sweep
from .fractional_calculus import free_kernel, green, regular_part
from .hls_limit import (
    FreeField,
    bubble,
    decay_fit,
    hls_quotient,
    radial_shells,
    serrin_log_integral,
    sharp_decay_check,
    sharp_diagonal_quotient,
)
from .lane_emden import (
    ExponentPair,
    critical_q,
    identity_report,
    solve_ground_state,
    solve_q_epsilon,
)
from .spectral_domain import BoxDomain, Grid, GridFunction, build_basis, build_grid

FIELD_MAGIC = b"FRLNFLD\x00"
FIELD_VERSION = 1


class ConfigError(ValueError):
    """Carries the full list of violations found while parsing a config."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass
class RunConfig:
    command: str = "solve"
    n: int = 2
    lengths: tuple[float, ...] = (1.0, 1.0)
    s: float = 0.5
    p: float = 2.5
    eps: float = 0.04
    eps_schedule: tuple[float, ...] = (0.06, 0.04, 0.025, 0.015)
    cutoff: tuple[int, ...] = (64, 64)
    grid: tuple[int, ...] = (128, 128)
    theta_tol: float = 1e-9
    residual_tol: float = 1e-7
    max_iter: int = 2000
    ring_radius_frac: float = 0.3
    exclusion_radius_frac: float = 0.15
    n_comparison: int = 8
    collar_delta: float = 0.1
    warm_start: bool = True
    out_dir: str = "out"
    write_fields: bool = True
    strict_checks: bool = True
    acceptance_checks: bool = False
    hls_box_list: tuple[float, ...] = (8.0, 13.0, 18.0)
    hls_grid_list: tuple[int, ...] = (64, 104, 160)
    hls_field: str = ""
    kernel_pairs: int = 200
    kernel_seed: int = 7
    kernel_min_sep: float = 0.1
    kernel_margin: float = 0.05


_INT_TUPLES = {"cutoff", "grid", "hls_grid_list"}
_FLOAT_TUPLES = {"lengths", "eps_schedule", "hls_box_list"}
_COMMANDS = ("solve", "sweep", "hls", "kernels")


def _parse_scalar(name: str, raw: str, kind: type):
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse flat `key = value` lines (lists comma-separated, # comments).

    Collects every violation (unknown keys, malformed numbers with line
    numbers, downstream hypothesis violations by name) before raising.
    """
    defaults = RunConfig()
    known = {f.name: f.type for f in dc_fields(RunConfig)}
    values: dict[str, object] = {}
    violations: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped or (stripped.startswith("[") and stripped.endswith("]")):
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            if key in _INT_TUPLES:
                values[key] = tuple(int(v.strip()) for v in raw.split(",") if v.strip())
            elif key in _FLOAT_TUPLES:
                values[key] = tuple(float(v.strip()) for v in raw.split(",") if v.strip())
            elif isinstance(getattr(defaults, key), bool):
                values[key] = _parse_scalar(key, raw, bool)
            elif isinstance(getattr(defaults, key), int):
                values[key] = _parse_scalar(key, raw, int)
            elif isinstance(getattr(defaults, key), float):
                values[key] = _parse_scalar(key, raw, float)
            else:
                values[key] = raw.strip()
        except ValueError:
            violations.append(f"line {lineno}: malformed value for {key!r}: {raw.strip()!r}")
    if violations:
        raise ConfigError(violations)

    cfg = RunConfig(**values)
    if "lengths" not in values and cfg.n != defaults.n:
        cfg.lengths = (1.0,) * cfg.n
    if "cutoff" not in values and cfg.n != defaults.n:
        cfg.cutoff = (64, 64) if cfg.n == 2 else (24,) * cfg.n
    if "grid" not in values and cfg.n != defaults.n:
        cfg.grid = (128, 128) if cfg.n == 2 else (48,) * cfg.n
    violations.extend(_validate(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def _validate(cfg: RunConfig) -> list[str]:
    out = []
    if cfg.command not in _COMMANDS:
        out.append(f"command must be one of {_COMMANDS}, got {cfg.command!r}")
    if cfg.n < 1:
        out.append("n must be >= 1")
    if len(cfg.lengths) != cfg.n:
        out.append(f"lengths needs {cfg.n} entries, got {len(cfg.lengths)}")
    elif any(L <= 0 for L in cfg.lengths):
        out.append("all lengths must be positive")
    if not 0.0 < cfg.s < 1.0:
        out.append(f"hypothesis s in (0,1) violated: s = {cfg.s}")
    elif cfg.n <= 2 * cfg.s:
        out.append(f"hypothesis n > 2s violated: n = {cfg.n}, s = {cfg.s}")
    if len(cfg.cutoff) != cfg.n or len(cfg.grid) != cfg.n:
        out.append(f"cutoff and grid need {cfg.n} entries each")
    else:
        if any(k < 1 for k in cfg.cutoff):
            out.append("cutoff entries must be >= 1")
        if any(m < 2 * k for m, k in zip(cfg.grid, cfg.cutoff, strict=True)):
            out.append("anti-aliasing rule m_i >= 2 K_i violated")
    # only solve, sweep and hls read p; only solve and sweep read eps
    if cfg.command in ("solve", "sweep", "hls") and cfg.n > 2 * cfg.s and 0 < cfg.s < 1:
        lower = 2 * cfg.s / (cfg.n - 2 * cfg.s)
        if cfg.p <= lower:
            out.append(f"hypothesis p > 2s/(n-2s) violated: p = {cfg.p} <= {lower:.6g}")
        elif cfg.command != "hls":
            eps_list = (cfg.eps,) if cfg.command == "solve" else cfg.eps_schedule
            for e in eps_list:
                try:
                    solve_q_epsilon(cfg.p, cfg.n, cfg.s, e)
                except ValueError as exc:
                    out.append(str(exc))
    if cfg.command == "sweep" and len(cfg.lengths) == cfg.n and cfg.lengths:
        if cfg.collar_delta >= min(cfg.lengths) / 2.0:
            out.append("collar_delta must be below half the min side length")
    if cfg.command == "hls" and len(cfg.hls_box_list) != len(cfg.hls_grid_list):
        out.append("hls_box_list and hls_grid_list must have equal length")
    if cfg.kernel_min_sep <= 0 or cfg.kernel_margin < 0:
        out.append("kernel sampling needs min_sep > 0 and margin >= 0")
    return out


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in dc_fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(_fmt(v) for v in value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = _fmt(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# tables and field dumps

def write_table(path, columns: list[str], rows: list[list]) -> None:
    """CSV (17 significant digits, LF endings) plus a JSON twin with metadata."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating, np.integer)) else str(v) for v in row) + "\n")
    payload = {
        "columns": columns,
        "rows": [[(float(v) if isinstance(v, (int, float, np.floating, np.integer)) else v) for v in row] for row in rows],
        "meta": {"version": __version__, "format": "fraclane-table-v1"},
    }
    with open(path.with_suffix(path.suffix + ".json"), "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_table(path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="\n") as fh:
        lines = fh.read().splitlines()
    columns = lines[0].split(",") if lines else []
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        row = []
        for tok in line.split(","):
            try:
                row.append(float(tok))
            except ValueError:
                row.append(tok)
        rows.append(row)
    return columns, rows


def dump_field(field, path) -> None:
    """Binary dump: magic, version, kind, dims, per-dim size/lo/hi, row-major
    float64 (little endian); deterministic byte-for-byte. Sidecar text header
    at <path>.hdr.txt."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(field, GridFunction):
        kind = 0
        s = field.grid.domain.s
        lo = (0.0,) * field.grid.domain.dim
        hi = field.grid.domain.lengths
        shape = field.grid.shape
        values = field.values
    elif isinstance(field, FreeField):
        kind = 1
        s = 0.0
        lo, hi, shape, values = field.lo, field.hi, field.shape, field.values
    else:
        raise TypeError(f"cannot dump {type(field).__name__}")
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<IBBd", FIELD_VERSION, kind, len(shape), s))
        for m, a, b in zip(shape, lo, hi, strict=True):
            fh.write(struct.pack("<Qdd", m, a, b))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
    header = [
        f"fraclane field dump v{FIELD_VERSION}",
        f"kind = {'grid' if kind == 0 else 'free'}",
        f"ndim = {len(shape)}",
        f"s = {_fmt(s)}",
        f"shape = {','.join(str(m) for m in shape)}",
        f"lo = {','.join(_fmt(a) for a in lo)}",
        f"hi = {','.join(_fmt(b) for b in hi)}",
        "layout = row-major float64 little-endian after the binary header",
    ]
    with open(str(path) + ".hdr.txt", "w", newline="\n") as fh:
        fh.write("\n".join(header) + "\n")


def load_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(FIELD_MAGIC))
        if magic != FIELD_MAGIC:
            raise ValueError(f"not a fraclane field dump: bad magic {magic!r}")
        version, kind, ndim, s = struct.unpack("<IBBd", fh.read(struct.calcsize("<IBBd")))
        if version != FIELD_VERSION:
            raise ValueError(f"unsupported field dump version {version} (expected {FIELD_VERSION})")
        shape, lo, hi = [], [], []
        for _ in range(ndim):
            m, a, b = struct.unpack("<Qdd", fh.read(struct.calcsize("<Qdd")))
            shape.append(int(m))
            lo.append(a)
            hi.append(b)
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    if kind == 0:
        domain = BoxDomain(tuple(b - a for a, b in zip(lo, hi, strict=True)), s)
        return GridFunction(Grid(domain, tuple(shape)), values.copy())
    return FreeField(tuple(lo), tuple(hi), values.copy())


def write_radial_profile(field: FreeField, path) -> None:
    """Shell profile (r, mean, min, max, count) for decay plots."""
    centers, means, mins, maxs, counts = radial_shells(field)
    rows = [
        [r, mu, lo, hi, int(c)]
        for r, mu, lo, hi, c in zip(centers, means, mins, maxs, counts, strict=True)
    ]
    write_table(path, ["r", "mean", "min", "max", "count"], rows)


# ---------------------------------------------------------------------------
# report plumbing

class Checks:
    """Named pass/fail records; each carries the value and its budget."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, passed: bool, value=None, budget=None, gating=True, note=""):
        self.items.append(
            {
                "name": name,
                "passed": bool(passed),
                "value": None if value is None else float(value),
                "budget": None if budget is None else float(budget),
                "gating": bool(gating),
                "note": note,
            }
        )

    def all_passed(self, include_non_gating=False) -> bool:
        return all(
            item["passed"]
            for item in self.items
            if item["gating"] or include_non_gating
        )


def _write_report(out_dir: Path, name: str, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _config_echo(cfg: RunConfig, raw_text: str) -> dict:
    return {
        "config": serialize_config(cfg),
        "input_sha256": hashlib.sha256(raw_text.encode()).hexdigest(),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# commands

def _cmd_solve(cfg: RunConfig, out_dir: Path, echo: dict) -> int:
    domain = BoxDomain(cfg.lengths, cfg.s)
    basis = build_basis(domain, cfg.cutoff)
    grid = build_grid(domain, cfg.grid)
    q = solve_q_epsilon(cfg.p, cfg.n, cfg.s, cfg.eps)
    exps = ExponentPair(p=cfg.p, q=q, n=cfg.n, s=cfg.s)
    pair, report = solve_ground_state(
        exps, basis, grid,
        theta_tol=cfg.theta_tol, residual_tol=cfg.residual_tol, max_iter=cfg.max_iter,
    )
    gaps = identity_report(pair, basis)
    checks = Checks()
    checks.add("converged", report.converged)
    checks.add("residual_w", report.residual_w <= 10 * cfg.residual_tol,
               report.residual_w, 10 * cfg.residual_tol)
    dth = np.diff(report.theta_history)
    checks.add("theta_nondecreasing", bool((dth >= -1e-12 * report.theta).all()),
               float(dth.min()) if dth.size else 0.0, -1e-12 * report.theta)
    for key, gap in gaps.items():
        checks.add(f"identity_{key}", gap <= 1e-6, gap, 1e-6)
    checks.add("positivity_clamp", report.clamped_fraction_max <= 1e-4,
               report.clamped_fraction_max, 1e-4,
               note="warn level 1e-8; hard budget 1e-4")

    rows = [[
        cfg.eps, q, report.theta, report.mu, report.energy, report.sobolev_quotient,
        report.iterations, report.residual_el, report.residual_w,
        report.clamped_fraction_max,
    ]]
    write_table(out_dir / "solve.csv",
                ["eps", "q", "theta", "mu", "energy", "S_Omega", "iterations",
                 "residual_el", "residual_w", "clamped_fraction"], rows)
    if cfg.write_fields:
        for name, f in (("u", pair.u), ("v", pair.v), ("w", pair.w)):
            dump_field(f, out_dir / f"field_{name}.bin")
    payload = {
        **echo,
        "theta": report.theta,
        "identities": {k: {"value": v, "tol": 1e-6} for k, v in gaps.items()},
        "symmetry": report.symmetry,
        "checks": checks.items,
    }
    _write_report(out_dir, "solve_report.json", payload)
    return 0 if (not cfg.strict_checks or checks.all_passed()) else 1


_SWEEP_COLUMNS_BASE = ["eps", "q", "alpha", "beta", "lambda"]
_SWEEP_COLUMNS_TAIL = ["theta", "S_Omega", "energy", "lam_dist", "lam_pow_eps",
                       "boundary_sup", "max_green_dev"]


def sweep_columns(n: int) -> list[str]:
    return _SWEEP_COLUMNS_BASE + [f"x_c{i + 1}" for i in range(n)] + _SWEEP_COLUMNS_TAIL


def _cmd_sweep(cfg: RunConfig, out_dir: Path, echo: dict) -> int:
    domain = BoxDomain(cfg.lengths, cfg.s)
    sweep_cfg = SweepConfig(
        domain=domain, p=cfg.p, eps_schedule=cfg.eps_schedule,
        cutoff=cfg.cutoff, grid_shape=cfg.grid,
        theta_tol=cfg.theta_tol, residual_tol=cfg.residual_tol, max_iter=cfg.max_iter,
        ring_radius_frac=cfg.ring_radius_frac,
        exclusion_radius_frac=cfg.exclusion_radius_frac,
        n_comparison=cfg.n_comparison, collar_delta=cfg.collar_delta,
        warm_start=cfg.warm_start,
    )
    result = run_sweep(sweep_cfg)
    ok_rows = [r for r in result.rows if r.failed is None]

    rows = []
    for r in ok_rows:
        rows.append(
            [r.eps, r.q, r.alpha, r.beta, r.lam, *r.x_c, r.theta, r.s_omega,
             r.energy, r.lam_dist, r.lam_pow_eps, r.boundary_sup,
             (r.max_green_dev if r.max_green_dev is not None else float("nan"))]
        )
    write_table(out_dir / "sweep.csv", sweep_columns(cfg.n), rows)

    const_rows = [
        [r.eps, r.constants.c1, r.constants.c2, r.constants.c3, r.constants.c4,
         (r.constants.c5 if r.constants.c5 is not None else float("nan"))]
        for r in ok_rows
    ]
    write_table(out_dir / "constants.csv", ["eps", "C1", "C2", "C3", "C4", "C5"], const_rows)

    dev_rows = []
    for r in ok_rows:
        for pd in r.green_devs:
            dev_rows.append(
                [r.eps, *pd.point,
                 pd.dev_v if pd.dev_v is not None else float("nan"),
                 pd.dev_u if pd.dev_u is not None else float("nan"),
                 pd.note]
            )
    write_table(out_dir / "green_devs.csv",
                ["eps", *[f"x{i + 1}" for i in range(cfg.n)], "dev_v", "dev_u", "note"],
                dev_rows)

    checks = Checks()
    diag = result.diagnostics
    checks.add("lambda_increasing", diag["lam_increasing"])
    checks.add("lambda_dist_increasing", diag["lam_dist_increasing"])
    checks.add("s_omega_decreasing", diag["s_omega_decreasing"])
    if diag.get("green_dev_nonincreasing") is not None:
        checks.add("green_dev_nonincreasing", diag["green_dev_nonincreasing"],
                   note="per comparison point, additive jitter 0.05")
    ex = result.extrapolation
    if ex is not None:
        checks.add("quotient_bound", ex.bound_ok, min(ex.bound_margins), 0.0,
                   note="Theta(eps) <= S_hat^{-1} |Omega|^{1/(q+1)-1/(q0+1)}")
        lpe = diag["lam_pow_eps"]
        checks.add("lam_pow_eps_band", all(0.9 < v < 1.1 for v in lpe),
                   max(abs(v - 1.0) for v in lpe), 0.1,
                   gating=cfg.acceptance_checks)
        checks.add("energy_limit_gap", ex.e_rel_gap < 0.1, ex.e_rel_gap, 0.1,
                   gating=cfg.acceptance_checks)
        if all(r.max_green_dev is not None for r in ok_rows):
            checks.add("green_dev_final", ok_rows[-1].max_green_dev < 0.15,
                       ok_rows[-1].max_green_dev, 0.15, gating=cfg.acceptance_checks)

    rs = result.rescaled
    lam = rs.lam
    win = decay_window(lam, domain, cfg.grid)
    regime = sweep_cfg.regime
    try:
        fit_v = decay_fit(rs.v, win)
        n, s = cfg.n, cfg.s
        if regime == "serrin":
            fit_u = decay_fit(rs.u, win, serrin_power=n - 2 * s)
            u_slope_kind = "log_coefficient"
        else:
            fit_u = decay_fit(rs.u, win)
            u_slope_kind = "power"
        sandwich = sharp_decay_check(
            rs.v, ok_rows[-1].constants.c1, 0.25, win[0], win[1] / lam, lam, n, s)
        decay_payload = {
            "window": list(win),
            "v_slope": {"value": fit_v.slope, "target": -(n - 2 * s), "tol": 0.1},
            "u_slope": {"value": fit_u.slope, "kind": u_slope_kind},
            "sandwich": {"fraction_violating": sandwich.fraction_violating,
                         "delta": 0.25, "passed": sandwich.passed},
        }
        if regime == "serrin":
            si = serrin_log_integral(rs.v, cfg.p, lam, ok_rows[-1].constants.c1, n, s)
            decay_payload["serrin_log_integral"] = {
                "value": si.value, "target": si.target, "tol_rel": 0.2,
            }
        write_radial_profile(rs.v, out_dir / "profile_v.csv")
        write_radial_profile(rs.u, out_dir / "profile_u.csv")
    except ValueError as exc:
        decay_payload = {"error": str(exc)}

    if cfg.write_fields:
        dump_field(result.rescaled.u, out_dir / "rescaled_u.bin")
        dump_field(result.rescaled.v, out_dir / "rescaled_v.bin")
        dump_field(result.rescaled.w, out_dir / "rescaled_w.bin")

    payload = {
        **echo,
        "regime": sweep_cfg.regime,
        "x0": list(result.x0),
        "s_hat": None if ex is None else ex.s_hat,
        "e_limit": None if ex is None else ex.e_limit,
        "e_rel_gap": None if ex is None else ex.e_rel_gap,
        "rows_failed": [r.failed for r in result.rows if r.failed],
        "core_cells": [r.core_cells for r in ok_rows],
        "decay": decay_payload,
        "diagnostics": {k: v for k, v in diag.items()},
        "checks": checks.items,
    }
    _write_report(out_dir, "sweep_report.json", payload)
    return 0 if (not cfg.strict_checks or checks.all_passed()) else 1


def decay_window(lam: float, domain: BoxDomain, grid_shape) -> tuple[float, float]:
    """Radial window for decay fits: outside the blow-up core, inside the
    onset of the boundary image (H bends the pure power law at radii
    comparable to a fixed fraction of lam)."""
    shell = 2.0 * lam * max(
        L / m for L, m in zip(domain.lengths, grid_shape, strict=True)
    )
    r_lo = max(3.0, 1.5 * shell)
    r_hi = max(0.085 * lam, r_lo + 3.0 * shell)
    r_hi = min(r_hi, 0.45 * lam * min(domain.lengths))
    return (r_lo, r_hi)


def _cmd_hls(cfg: RunConfig, out_dir: Path, echo: dict) -> int:
    n, s = cfg.n, cfg.s
    q0 = (n + 2.0 * s) / (n - 2.0 * s)
    oracle = sharp_diagonal_quotient(n, s)
    rows = []
    quotients = []
    for radius, m in zip(cfg.hls_box_list, cfg.hls_grid_list, strict=True):
        axes = [(np.arange(m) + 0.5) * (2 * radius / m) - radius for _ in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        r = np.sqrt(np.add.reduce([g**2 for g in mesh]))
        f = FreeField.centered(radius, bubble(r, n, s) ** q0)
        quotient = hls_quotient(f, q0, q0, n, s)
        quotients.append(quotient)
        rows.append([radius, m, quotient, oracle, quotient / oracle - 1.0])
    write_table(out_dir / "hls.csv",
                ["box_radius", "grid", "quotient", "oracle", "rel_excess"], rows)

    checks = Checks()
    checks.add("bubble_refinement_monotone",
               all(b < a for a, b in zip(quotients[:-1], quotients[1:], strict=True)))
    checks.add("bubble_within_1pct", quotients[-1] / oracle - 1.0 < 0.01,
               quotients[-1] / oracle - 1.0, 0.01)

    field_payload = {}
    if cfg.hls_field:
        field = load_field(cfg.hls_field)
        if not isinstance(field, FreeField):
            raise ValueError("hls_field must point at a free-field dump")
        qc = critical_q(cfg.p, n, s)
        norm = field.lp_norm((qc + 1.0) / qc)
        normalized = field.with_values(field.values / norm)
        quotient = hls_quotient(normalized, cfg.p, qc, n, s)
        field_payload = {"path": cfg.hls_field, "p": cfg.p, "q0": qc, "quotient": quotient}

    payload = {**echo, "oracle": oracle, "field_quotient": field_payload,
               "checks": checks.items}
    _write_report(out_dir, "hls_report.json", payload)
    return 0 if (not cfg.strict_checks or checks.all_passed()) else 1


def _operator_algebra_check(cfg: RunConfig, checks: "Checks") -> None:
    """Multiplier inverse identity and semigroup property on seeded fields."""
    from .fractional_calculus import apply_fraclap, apply_inverse
    from .spectral_domain import SpectralField, synthesize

    domain = BoxDomain(cfg.lengths, cfg.s)
    basis = build_basis(domain, cfg.cutoff)
    grid = build_grid(domain, cfg.grid)
    rng = np.random.default_rng(cfg.kernel_seed)
    worst_inv = worst_semi = 0.0
    for _ in range(2):
        f = synthesize(SpectralField(basis, rng.standard_normal(basis.cutoff)), grid)
        scale = float(np.max(np.abs(f.values)))
        back = apply_fraclap(apply_inverse(f, cfg.s, basis), cfg.s, basis)
        worst_inv = max(worst_inv, float(np.max(np.abs(back.values - f.values))) / scale)
        s1 = min(0.45, cfg.s)
        s2 = min(1.0 - s1, cfg.s)
        two = apply_fraclap(apply_fraclap(f, s1, basis), s2, basis)
        one = apply_fraclap(f, s1 + s2, basis)
        worst_semi = max(
            worst_semi,
            float(np.max(np.abs(two.values - one.values)))
            / float(np.max(np.abs(one.values))),
        )
    checks.add("operator_inverse_identity", worst_inv < 1e-12, worst_inv, 1e-12)
    checks.add("operator_semigroup", worst_semi < 1e-12, worst_semi, 1e-12)


def _cmd_kernels(cfg: RunConfig, out_dir: Path, echo: dict) -> int:
    domain = BoxDomain(cfg.lengths, cfg.s)
    basis = build_basis(domain, cfg.cutoff)
    rng = np.random.default_rng(cfg.kernel_seed)
    n = cfg.n
    lengths = np.asarray(cfg.lengths)
    pairs = []
    while len(pairs) < cfg.kernel_pairs:
        x = cfg.kernel_margin + rng.random(n) * (lengths - 2 * cfg.kernel_margin)
        y = cfg.kernel_margin + rng.random(n) * (lengths - 2 * cfg.kernel_margin)
        if np.linalg.norm(x - y) >= cfg.kernel_min_sep:
            pairs.append((x, y))

    rows = []
    bound_ok = True
    sym_exact = True
    h_sym = 0.0
    for x, y in pairs:
        gxy = green(x, y, basis)
        gyx = green(y, x, basis)
        sym_exact &= gxy.value == gyx.value
        fk = free_kernel(x, y, n, cfg.s)
        h = regular_part(x, y, basis)
        h_sym = max(h_sym, abs(h.value - regular_part(y, x, basis).value))
        ok = 0.0 < gxy.value < fk + gxy.truncation_bound
        bound_ok &= ok
        rows.append([*x, *y, gxy.value, gxy.truncation_bound, fk, h.value, int(ok)])
    cols = ([f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
            + ["green", "truncation_bound", "free_kernel", "regular_part", "bound_ok"])
    write_table(out_dir / "kernels.csv", cols, rows)

    checks = Checks()
    checks.add("kernel_bound", bound_ok, note="0 < G < free + truncation_bound")
    checks.add("green_symmetry_exact", sym_exact)
    checks.add("regular_part_symmetry", h_sym <= 1e-12, h_sym, 1e-12)
    _operator_algebra_check(cfg, checks)

    payload = {**echo, "pairs": len(pairs), "checks": checks.items}
    _write_report(out_dir, "kernels_report.json", payload)
    return 0 if (not cfg.strict_checks or checks.all_passed()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclane",
        description="Fractional Lane-Emden ground states on boxes: solver, "
                    "blow-up sweeps, HLS checks, kernel samplers.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides config out_dir)")
    args = parser.parse_args(argv)

    raw = args.config.read_text() if args.config else ""
    try:
        cfg = parse_config(raw) if raw else RunConfig()
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    cfg.command = args.command
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    echo = _config_echo(cfg, raw)

    try:
        if args.command == "solve":
            return _cmd_solve(cfg, out_dir, echo)
        if args.command == "sweep":
            return _cmd_sweep(cfg, out_dir, echo)
        if args.command == "hls":
            return _cmd_hls(cfg, out_dir, echo)
        return _cmd_kernels(cfg, out_dir, echo)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
