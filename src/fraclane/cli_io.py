"""Command-line interface, flat key-value configs, and deterministic
persistence (full-precision CSV tables, binary field dumps, radial
profiles).

Subcommands: solve, sweep, hls, kernels. Each one calls the library, writes
its tables and field dumps, and hands back its report payload and the check
records (`Check`) of the module that owns each rule (`solve_checks`,
`sweep_checks`, `ladder_checks`, `kernel_checks`); each judgement is one
check, which the payload does not repeat. This module holds no budget or
formula, and no rule of the science: the rules `_validate` keeps are the
config's own, a known command, one `lengths`, `cutoff` and `grid` entry per
axis, `kernel_pairs` >= 1 and `kernel_seed` >= 0. `main` writes
`<command>_report.json` and picks the exit code. A config is otherwise
checked by building the objects its command builds (`BoxDomain`,
`ExponentPair`, `SweepConfig`, the oracle of `check_sphere_integral`, the
ladder of `check_ladder`, the `KernelSampler`), so the rules are the
library's own; each object reports the first of its rules that the config
breaks. Exit code 0 iff every gating check passes, 1 otherwise, 2 for a
rejected config and 3 for a run that raised, a file it could not read (the
config included) among them; acceptance-level tolerance checks are reported
in the JSON output with their budgets and never gate.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__
from .blowup_sweep import SweepConfig, run_sweep, sweep_checks
from .fractional_calculus import Check, KernelSampler, kernel_checks
from .hls_limit import (FreeField, bubble_ladder, check_ladder, check_sphere_integral,
                        hls_quotient, ladder_checks, sharp_diagonal_quotient)
from .lane_emden import (MAX_ITER, RESIDUAL_TOL, THETA_TOL, ExponentPair, check_stopping_rule,
                         critical_q, solve_checks, solve_ground_state, solve_q_epsilon,
                         symmetry_classes)
from .spectral_domain import BoxDomain, Grid, GridFunction, build_basis, build_grid, check_resolution

FIELD_MAGIC = b"FRLNFLD\x00"
FIELD_VERSION = 1


class ConfigError(ValueError):
    """Carries the list of violations found while parsing a config."""

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
    theta_tol: float = THETA_TOL
    residual_tol: float = RESIDUAL_TOL
    max_iter: int = MAX_ITER
    out_dir: str = "out"
    hls_box_list: tuple[float, ...] = (8.0, 13.0, 18.0)
    hls_grid_list: tuple[int, ...] = (64, 104, 160)
    hls_field: str = ""
    kernel_pairs: int = 200
    kernel_seed: int = 7
    kernel_margin: float = 0.05


def _parser(default):
    """The parser of a key, read from the type of its default value."""
    if isinstance(default, tuple):
        item = type(default[0])
        return lambda raw: tuple(item(v.strip()) for v in raw.split(",") if v.strip())
    return type(default)


_PARSERS = {f.name: _parser(f.default) for f in dc_fields(RunConfig)}


def parse_config(text: str, command: str | None = None) -> RunConfig:
    """Parse flat `key = value` lines (lists comma-separated, # comments).

    Every unknown key, malformed number and key set twice is reported, with
    its line numbers, before raising. A config that parses is then checked by building
    the objects its command builds; each object reports one violation, the
    first of its rules that the config breaks, so a config that breaks two
    rules of one object shows only the first.
    A given `command` (the CLI subcommand) replaces the file's `command` key
    before validation, so the checks are those of the command that runs.
    """
    defaults = RunConfig()
    values: dict[str, object] = {}
    line_of: dict[str, int] = {}
    violations: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped or (stripped.startswith("[") and stripped.endswith("]")):
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _PARSERS:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in line_of:
            violations.append(f"line {lineno}: key {key!r} already set on line {line_of[key]}")
            continue
        line_of[key] = lineno
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError:
            violations.append(f"line {lineno}: malformed value for {key!r}: {raw!r}")
    if violations:
        raise ConfigError(violations)
    if command is not None:
        values["command"] = command

    cfg = RunConfig(**values)
    if cfg.n != defaults.n:  # the default box, cutoff and grid are 2-d
        for key, entry in (("lengths", 1.0), ("cutoff", 24), ("grid", 48)):
            if key not in values:
                setattr(cfg, key, (entry,) * cfg.n)
    violations.extend(_validate(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def _exponents(cfg: RunConfig) -> ExponentPair:
    """The pair a command runs at: q_eps at `eps` for solve, the critical q0 for hls."""
    if cfg.command == "hls":
        q = critical_q(cfg.p, cfg.n, cfg.s)
    else:
        q = solve_q_epsilon(cfg.p, cfg.n, cfg.s, cfg.eps)
    return ExponentPair(p=cfg.p, q=q, n=cfg.n, s=cfg.s)


def _sweep_config(cfg: RunConfig) -> SweepConfig:
    """The sweep of a config; every sweep option has the same name in both."""
    shared = {f.name: getattr(cfg, f.name) for f in dc_fields(SweepConfig) if f.name in _PARSERS}
    return SweepConfig(domain=BoxDomain(cfg.lengths, cfg.s), grid_shape=cfg.grid, **shared)


def _resolution(cfg: RunConfig) -> None:
    check_resolution(cfg.cutoff, cfg.grid)


def _stopping_rule(cfg: RunConfig) -> None:
    check_stopping_rule(cfg.theta_tol, cfg.residual_tol, cfg.max_iter)


def _ladder(cfg: RunConfig) -> None:
    check_ladder(cfg.hls_box_list, cfg.hls_grid_list)


def _oracle(cfg: RunConfig) -> None:
    check_sphere_integral(cfg.n, cfg.s)


def _kernel_sampler(cfg: RunConfig) -> KernelSampler:
    return KernelSampler(cfg.lengths, cfg.kernel_margin)


# What each command builds on its domain, in the order it builds it.
_BUILDS = {"solve": (_resolution, _exponents, _stopping_rule), "sweep": (_sweep_config,),
           "hls": (_exponents, _oracle, _ladder), "kernels": (_resolution, _kernel_sampler)}


def _validate(cfg: RunConfig) -> list[str]:
    """The CLI's own rules, then one violation per object the command builds;
    the objects are built only on a valid domain."""
    out = []
    if cfg.command not in _BUILDS:
        out.append(f"command must be one of {tuple(_BUILDS)}, got {cfg.command!r}")
    boxed = cfg.command != "hls"  # hls reads n and s, but no box, cutoff or grid
    counts = [f"{key} needs {cfg.n} entries, got {len(getattr(cfg, key))}"
              for key in ("lengths", "cutoff", "grid")
              if boxed and len(getattr(cfg, key)) != cfg.n]
    out.extend(counts)
    if cfg.command == "kernels":
        out.extend(f"{key} must be >= {least}, got {getattr(cfg, key)}"
                   for key, least in (("kernel_pairs", 1), ("kernel_seed", 0))
                   if getattr(cfg, key) < least)
    if counts or cfg.command not in _BUILDS:
        return out
    try:  # every other object is built on the domain's n and s
        BoxDomain(cfg.lengths if boxed else (1.0,) * cfg.n, cfg.s)
    except ValueError as exc:
        return [*out, str(exc)]
    for build in _BUILDS[cfg.command]:
        try:
            build(cfg)
        except ValueError as exc:
            out.append(str(exc))
    return out


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in dc_fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(_fmt(v) for v in value)
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

def _spec(t: type) -> str:
    """The `%` spec of a CSV cell of type t: `%d` where `_fmt` writes an
    integer, `%.17g` = `format(float(x), ".17g")` for any other number, which
    spells nan, inf and -inf as `_fmt` does, and `%s` = `str` for any other
    cell."""
    if issubclass(t, (int, np.integer)):
        return "%d"
    return "%.17g" if issubclass(t, (float, np.floating)) else "%s"


def write_table(path, columns: list[str], rows: list[list]) -> None:
    """CSV with a header line, numbers to 17 significant digits, LF endings.
    Each row is spelled by one `%` template of `_spec`s, built once per
    tuple of cell types."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    templates: dict[tuple[type, ...], str] = {}
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            if types not in templates:
                templates[types] = ",".join(map(_spec, types)) + "\n"
            fh.write(templates[types] % row)


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


def _unpack(fmt: str, fh):
    """`struct.unpack(fmt, ...)` of the next bytes of a field dump; a dump
    that ends first is refused."""
    size = struct.calcsize(fmt)
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"truncated field dump header: {len(data)} of {size} bytes left")
    return struct.unpack(fmt, data)


def load_field(path):
    """The field of a `dump_field` file, named by its path or given as a
    seekable binary file object, read to its end. A header cut short, or a
    payload of another size than the header's shape, is refused with a
    `ValueError` before the payload is read; the payload is read straight
    into the field's array."""
    with (path if hasattr(path, "read") else open(path, "rb")) as fh:
        magic = fh.read(len(FIELD_MAGIC))
        if magic != FIELD_MAGIC:
            raise ValueError(f"not a fraclane field dump: bad magic {magic!r}")
        version, kind, ndim, s = _unpack("<IBBd", fh)
        if version != FIELD_VERSION:
            raise ValueError(f"unsupported field dump version {version} (expected {FIELD_VERSION})")
        if kind not in (0, 1):
            raise ValueError(f"unknown field dump kind {kind} (expected 0 = grid or 1 = free)")
        shape, lo, hi = [], [], []
        for _ in range(ndim):
            m, a, b = _unpack("<Qdd", fh)
            shape.append(int(m))
            lo.append(a)
            hi.append(b)
        start = fh.tell()
        held = fh.seek(0, io.SEEK_END) - start
        size = 8 * math.prod(shape)
        if held == size:  # sized before the array is allocated, counted again as read
            fh.seek(start)
            values = np.empty(shape, dtype="<f8")
            held = fh.readinto(values)
        if held != size:
            raise ValueError(f"field dump payload holds {held} bytes, but its header's "
                             f"shape {tuple(shape)} needs {size}")
    if kind == 0:
        domain = BoxDomain(tuple(b - a for a, b in zip(lo, hi, strict=True)), s)
        return GridFunction(Grid(domain, tuple(shape)), values)
    return FreeField(tuple(lo), tuple(hi), values)


def write_radial_profile(shells: tuple[np.ndarray, ...], path) -> None:
    """A `radial_shells` profile as a table (r, mean, min, max, count) for
    decay plots, written from one float array: a count is exact in float64,
    and `%.17g` spells it as `%d` does."""
    write_table(path, ["r", "mean", "min", "max", "count"], np.column_stack(shells).tolist())


# ---------------------------------------------------------------------------
# report plumbing

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


# ---------------------------------------------------------------------------
# commands

def _cmd_solve(cfg: RunConfig, out_dir: Path) -> tuple[dict, list[Check]]:
    domain = BoxDomain(cfg.lengths, cfg.s)
    basis = build_basis(domain, cfg.cutoff)
    grid = build_grid(domain, cfg.grid)
    exps = _exponents(cfg)
    pair, report = solve_ground_state(
        exps, basis, grid,
        theta_tol=cfg.theta_tol, residual_tol=cfg.residual_tol, max_iter=cfg.max_iter,
    )
    checks = solve_checks(pair, report, basis, cfg.residual_tol)

    write_table(out_dir / "solve.csv",
                ["eps", "q", "theta", "mu", "energy", "S_Omega", "iterations",
                 "residual_el", "residual_w", "clamped_fraction"],
                [[cfg.eps, exps.q, report.theta, report.mu, report.energy, report.sobolev_quotient,
                  report.iterations, report.residual_el, report.residual_w,
                  report.clamped_fraction_max]])
    for name, f in (("u", pair.u), ("v", pair.v), ("w", pair.w)):
        dump_field(f, out_dir / f"field_{name}.bin")
    return {
        "theta": report.theta,
        "symmetry": symmetry_classes(pair.u),
        "node_set": report.node_set,
    }, checks


_SWEEP_COLUMNS_BASE = ["eps", "q", "alpha", "beta", "lambda"]
_SWEEP_COLUMNS_TAIL = ["theta", "S_Omega", "energy", "lam_dist", "lam_pow_eps",
                       "boundary_sup", "max_green_dev"]


def sweep_columns(n: int) -> list[str]:
    return _SWEEP_COLUMNS_BASE + [f"x_c{i + 1}" for i in range(n)] + _SWEEP_COLUMNS_TAIL


def _nan(value):
    return float("nan") if value is None else value


def _cmd_sweep(cfg: RunConfig, out_dir: Path) -> tuple[dict, list[Check]]:
    result = run_sweep(_sweep_config(cfg))

    rows = [[r.eps, r.q, r.alpha, r.beta, r.lam, *r.x_c, r.theta, r.s_omega, r.energy,
             r.lam_dist, r.lam_pow_eps, r.boundary_sup, _nan(r.max_green_dev)]
            for r in result.rows]
    write_table(out_dir / "sweep.csv", sweep_columns(cfg.n), rows)

    const_rows = [[r.eps, r.constants.c1, r.constants.c2, r.constants.c3, r.constants.c4,
                   _nan(r.constants.c5)] for r in result.rows]
    write_table(out_dir / "constants.csv", ["eps", "C1", "C2", "C3", "C4", "C5"], const_rows)

    dev_rows = [[r.eps, *pd.point, _nan(pd.dev_v), _nan(pd.dev_u), pd.note]
                for r in result.rows for pd in r.green_devs]
    write_table(out_dir / "green_devs.csv",
                ["eps", *[f"x{i + 1}" for i in range(cfg.n)], "dev_v", "dev_u", "note"],
                dev_rows)

    if "error" not in result.decay:
        write_radial_profile(result.profiles["v"], out_dir / "profile_v.csv")
        write_radial_profile(result.profiles["u"], out_dir / "profile_u.csv")

    for name in ("u", "v", "w"):
        dump_field(getattr(result.rescaled, name), out_dir / f"rescaled_{name}.bin")

    ex = result.extrapolation
    payload = {
        "regime": result.config.regime,
        "x0": list(result.x0),
        "s_hat": None if ex is None else ex.s_hat,
        "e_limit": None if ex is None else ex.e_limit,
        "rows_failed": [] if result.failed is None else [result.failed],
        "core_cells": [r.core_cells for r in result.rows],
        "decay": result.decay,
    }
    return payload, sweep_checks(result)


def _cmd_hls(cfg: RunConfig, out_dir: Path) -> tuple[dict, list[Check]]:
    n, s = cfg.n, cfg.s
    field = None
    if cfg.hls_field:
        data = Path(cfg.hls_field).read_bytes()  # the bytes scored are the bytes hashed
        digest = hashlib.sha256(data).hexdigest()
        field = load_field(io.BytesIO(data))
        del data
        if not isinstance(field, FreeField):
            raise ValueError("hls_field must point at a free-field dump")
        if field.dim != n:
            raise ValueError(f"hls_field {cfg.hls_field} holds an ndim = {field.dim} field, "
                             f"but the config sets n = {n}")

    oracle = sharp_diagonal_quotient(n, s)
    quotients = bubble_ladder(n, s, cfg.hls_box_list, cfg.hls_grid_list)
    excess, checks = ladder_checks(quotients, oracle)
    write_table(out_dir / "hls.csv", ["box_radius", "grid", "quotient", "oracle", "rel_excess"],
                [[radius, m, quotient, oracle, rel] for radius, m, quotient, rel
                 in zip(cfg.hls_box_list, cfg.hls_grid_list, quotients, excess, strict=True)])

    field_payload = {}
    if field is not None:
        field_payload = {"path": cfg.hls_field, "p": cfg.p, "q0": critical_q(cfg.p, n, s),
                         "quotient": hls_quotient(field, cfg.p, s), "sha256": digest}

    return {"oracle": oracle, "field_quotient": field_payload}, checks


def _cmd_kernels(cfg: RunConfig, out_dir: Path) -> tuple[dict, list[Check]]:
    domain = BoxDomain(cfg.lengths, cfg.s)
    xs, ys = _kernel_sampler(cfg).pairs(cfg.kernel_pairs, cfg.kernel_seed)
    columns, checks = kernel_checks(xs, ys, build_basis(domain, cfg.cutoff),
                                    build_grid(domain, cfg.grid), cfg.kernel_seed)
    # one float array: bound_ok's 1.0 and 0.0 are spelled 1 and 0, as an integer cell's
    write_table(out_dir / "kernels.csv",
                [f"x{i + 1}" for i in range(cfg.n)] + [f"y{i + 1}" for i in range(cfg.n)]
                + list(columns),
                np.column_stack([xs, ys, *columns.values()]).tolist())
    return {"pairs": len(xs)}, checks


_COMMANDS = {"solve": _cmd_solve, "sweep": _cmd_sweep, "hls": _cmd_hls, "kernels": _cmd_kernels}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclane",
        description="Fractional Lane-Emden ground states on boxes: solver, "
                    "blow-up sweeps, HLS checks, kernel samplers.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides config out_dir)")
    args = parser.parse_args(argv)

    try:
        raw = args.config.read_text() if args.config else ""
        cfg = parse_config(raw, args.command)
        out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
        payload, checks = _COMMANDS[args.command](cfg, out_dir)
        _write_report(out_dir, f"{args.command}_report.json",
                      {"config": serialize_config(cfg), "version": __version__,
                       "input_sha256": hashlib.sha256(raw.encode()).hexdigest(),
                       **payload, "checks": [asdict(c) for c in checks]})
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0 if all(c.passed for c in checks if c.gating) else 1


if __name__ == "__main__":
    sys.exit(main())
