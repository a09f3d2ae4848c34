"""Config parsing, tables, field dumps, CLI round trips and determinism."""

import dataclasses
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import read_table, traced_peak, write_table_per_cell

import fraclane as fl
from fraclane import blowup_sweep as bs
from fraclane import cli_io
from fraclane import lane_emden as le
from fraclane.hls_limit import FreeField, radial_shells


def test_parse_minimal_config_defaults_filled():
    cfg = cli_io.parse_config("command = solve\np = 2.5\neps = 0.04\n")
    assert cfg.n == 2 and cfg.lengths == (1.0, 1.0)
    assert cfg.cutoff == (64, 64) and cfg.grid == (128, 128)
    # echo round trip: serialize then parse reproduces the object
    again = cli_io.parse_config(cli_io.serialize_config(cfg))
    assert again == cfg


def test_parse_3d_defaults():
    cfg = cli_io.parse_config("command = sweep\nn = 3\np = 1.0\neps_schedule = 0.1,0.06\n")
    assert cfg.lengths == (1.0, 1.0, 1.0)
    assert cfg.cutoff == (24, 24, 24) and cfg.grid == (48, 48, 48)


def test_parse_rejects_inadmissible_eps_citing_hypothesis():
    with pytest.raises(cli_io.ConfigError, match="q >= p"):
        cli_io.parse_config("command = solve\np = 2.5\neps = 0.1\n")


def test_solver_defaults_have_one_home():
    run = cli_io.RunConfig()
    sweep = {f.name: f.default for f in dataclasses.fields(bs.SweepConfig)}
    solver = inspect.signature(fl.solve_ground_state).parameters
    for key in ("theta_tol", "residual_tol", "max_iter"):
        assert getattr(run, key) == sweep[key] == solver[key].default, key


def test_parse_malformed_number_with_line():
    with pytest.raises(cli_io.ConfigError, match="line 3"):
        cli_io.parse_config("command = solve\np = 2.5\neps = zero.one\n")


def test_parse_unknown_key_and_collects_all():
    try:
        cli_io.parse_config("nonsense = 1\nalso_bad = 2\n")
    except cli_io.ConfigError as exc:
        assert len(exc.violations) == 2
    else:
        pytest.fail("expected ConfigError")


def test_parse_hls_ignores_cutoff_and_grid():
    # hls builds no basis, grid or box: it reads n and s only, so the rules of
    # the others (anti-aliasing, entry counts, side lengths) are not its own
    cfg = cli_io.parse_config("command = hls\ncutoff = 64,64\ngrid = 100,100\n")
    assert cfg.cutoff == (64, 64) and cfg.grid == (100, 100)
    assert cli_io.parse_config("command = hls\ncutoff = 64\n").cutoff == (64,)
    assert cli_io.parse_config("command = hls\nlengths = 1,0\n").lengths == (1.0, 0.0)


def test_parse_other_constraints():
    with pytest.raises(cli_io.ConfigError, match="anti-aliasing"):
        cli_io.parse_config("command = solve\ncutoff = 64,64\ngrid = 100,100\n")
    with pytest.raises(cli_io.ConfigError, match="n > 2s"):
        cli_io.parse_config("command = solve\nn = 1\nlengths = 1\ns = 0.6\n"
                            "cutoff = 8\ngrid = 16\n")


def test_write_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0.1, 1.0 / 3.0, -2.5e-17], [math.pi, 2.0**-52, 1e300]]
    cli_io.write_table(path, ["a", "b", "c"], rows)
    cols, back = read_table(path)
    assert cols == ["a", "b", "c"]
    for row, expect in zip(back, rows, strict=True):
        for v, e in zip(row, expect, strict=True):
            assert v == e  # 17 significant digits round-trip float64 exactly


# every cell type a table meets, in rows that repeat a type tuple, and a
# column whose type changes from row to row (a note or NaN after a float)
_ZOO = [
    [1, True, np.int64(-7), np.float32(0.1), np.float64(1.0 / 3.0), 2**60, -0.0, 1e300],
    [2, False, np.int64(2**62 + 1), np.float32(-2.5), np.float64(-1e-300), -(2**60), 0.0, 5e-324],
    [np.uint64(2**63), np.int8(-3), 0.1, math.pi, "x", None, 'a, "b" \u00e9\u2211', ""],
    [float("nan"), math.inf, -math.inf, 1.0, 2, 3, 4, 5],
    [1e308, 1e308, -1e308],  # finite cells whose sum overflows
    [],
    [0.25],
    [],
    [0.5, "note"],
    [0.5, float("nan")],
    [0.5, 0.75],
    [0.5, None],
    [np.float64(1e22), np.float64(123456789.0), 1e16, 1e-5, 1e-4],
]


def _kernels_shaped(rng):
    values = rng.random((4000, 8)) * [1, 1, 1, 1, 10, 1e-9, 10, 1]
    ok = rng.random(4000) < 0.99
    return [[*v, int(o)] for v, o in zip(values.tolist(), ok, strict=True)]


@pytest.mark.parametrize("table", ["zoo", "kernels", "empty"])
def test_write_table_bytes_match_per_cell_oracle(tmp_path, table):
    columns = {"zoo": [f"c{i}" for i in range(8)], "empty": ["x", "y"],
               "kernels": ["x1", "x2", "y1", "y2", "green", "truncation_bound", "free_kernel",
                           "regular_part", "bound_ok"]}[table]
    rows = {"zoo": _ZOO, "empty": [], "kernels": _kernels_shaped(np.random.default_rng(7))}[table]
    cli_io.write_table(tmp_path / "new" / "t.csv", columns, rows)
    write_table_per_cell(tmp_path / "ref" / "t.csv", columns, rows)
    assert (tmp_path / "new" / "t.csv").read_bytes() == (tmp_path / "ref" / "t.csv").read_bytes()
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["t.csv"]


def test_write_table_empty(tmp_path):
    path = tmp_path / "e.csv"
    cli_io.write_table(path, ["x", "y"], [])
    assert path.read_text() == "x,y\n"


def test_sweep_column_schema():
    assert cli_io.sweep_columns(2) == [
        "eps", "q", "alpha", "beta", "lambda", "x_c1", "x_c2", "theta",
        "S_Omega", "energy", "lam_dist", "lam_pow_eps", "boundary_sup",
        "max_green_dev",
    ]


def test_dump_load_grid_function(tmp_path):
    dom = fl.BoxDomain((1.0, 2.0), 0.5)
    grid = fl.build_grid(dom, (6, 8))
    rng = np.random.default_rng(0)
    f = fl.GridFunction(grid, rng.random(grid.shape))
    path = tmp_path / "f.bin"
    cli_io.dump_field(f, path)
    back = cli_io.load_field(path)
    assert isinstance(back, fl.GridFunction)
    assert back.grid.domain.lengths == dom.lengths
    assert back.grid.domain.s == dom.s
    assert np.array_equal(back.values, f.values)
    # dump is deterministic byte for byte
    path2 = tmp_path / "f2.bin"
    cli_io.dump_field(f, path2)
    assert path.read_bytes() == path2.read_bytes()
    assert (tmp_path / "f.bin.hdr.txt").exists()


def test_dump_load_free_field(tmp_path):
    vals = np.abs(np.random.default_rng(1).standard_normal((5, 7)))
    f = FreeField((-2.0, -3.0), (2.0, 3.0), vals)
    path = tmp_path / "g.bin"
    cli_io.dump_field(f, path)
    back = cli_io.load_field(path)
    assert isinstance(back, FreeField)
    assert back.lo == f.lo and back.hi == f.hi
    assert np.array_equal(back.values, f.values)


def test_load_field_reads_its_payload_once(tmp_path):
    # the payload goes straight into the field's own array, from a path and
    # from a byte stream: a load holds one payload and the reader's buffers
    values = np.random.default_rng(2).random((128, 128))
    path = tmp_path / "f.bin"
    cli_io.dump_field(FreeField.centered(4.0, values), path)
    for source in (lambda: path, lambda: io.BytesIO(path.read_bytes())):
        stream = source()
        field, peak = traced_peak(cli_io.load_field, stream)
        assert np.array_equal(field.values, values) and field.values.flags.owndata
        assert peak <= values.nbytes + 16384


def test_load_rejects_bad_magic_and_version(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        cli_io.load_field(p)
    dom = fl.BoxDomain((1.0,), 0.3)
    f = fl.GridFunction(fl.build_grid(dom, (4,)), np.ones(4))
    good = tmp_path / "good.bin"
    cli_io.dump_field(f, good)
    raw = bytearray(good.read_bytes())
    raw[8] = 99  # corrupt the version field
    bad = tmp_path / "vers.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        cli_io.load_field(bad)


def kind_patched_dump(tmp_path, kind):
    """A 4 x 4 grid-function dump whose kind byte reads `kind`."""
    f = fl.GridFunction(fl.build_grid(fl.BoxDomain((1.0, 1.0), 0.5), (4, 4)), np.ones((4, 4)))
    path = tmp_path / "kind.bin"
    cli_io.dump_field(f, path)
    raw = bytearray(path.read_bytes())
    raw[len(cli_io.FIELD_MAGIC) + struct.calcsize("<I")] = kind
    path.write_bytes(bytes(raw))
    return path


def test_load_rejects_unknown_kind(tmp_path):
    assert isinstance(cli_io.load_field(kind_patched_dump(tmp_path, 1)), FreeField)
    with pytest.raises(ValueError, match="unknown field dump kind 7"):
        cli_io.load_field(kind_patched_dump(tmp_path, 7))


def test_cli_hls_rejects_field_of_unknown_kind(tmp_path, capsys):
    cfg = tmp_path / "hls.cfg"
    cfg.write_text("command = hls\nhls_box_list = 8\nhls_grid_list = 64\n"
                   f"hls_field = {kind_patched_dump(tmp_path, 7)}\n")
    assert run_cli(["hls", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "unknown field dump kind 7" in capsys.readouterr().err


def test_cli_hls_rejects_field_of_another_dimension(tmp_path, capsys):
    # an 8^3 free field scored under n = 2 is refused by its dimension, not
    # by the exponent pair that n = 2 would make of it
    field = tmp_path / "field3d.bin"
    cli_io.dump_field(FreeField.centered(4.0, np.random.default_rng(7).random((8, 8, 8))), field)
    cfg = tmp_path / "hls.cfg"
    cfg.write_text("n = 2\ns = 0.5\np = 2.5\nhls_box_list = 8\nhls_grid_list = 32\n"
                   f"hls_field = {field}\n")
    assert run_cli(["hls", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "ndim = 3" in err and "n = 2" in err and str(field) in err
    assert "critical pair" not in err


@pytest.mark.parametrize("damage, message", [
    ("missing", "No such file"),
    ("header", "truncated field dump header"),
    ("short payload", "payload holds"),
    ("long payload", "payload holds"),
])
def test_cli_hls_refuses_an_unreadable_field_before_any_table(tmp_path, capsys, damage, message):
    # a dump that is not there, one cut inside its header and one whose
    # payload does not match its header: the run raised (exit 3), not a
    # failed check (exit 1), and it wrote no table
    field = tmp_path / "field.bin"
    if damage != "missing":
        cli_io.dump_field(FreeField.centered(2.0, np.ones((4, 4))), field)
        raw = field.read_bytes()
        field.write_bytes({"header": raw[:len(cli_io.FIELD_MAGIC) + 6],
                           "short payload": raw[:-8],
                           "long payload": raw + raw[-8:]}[damage])
    cfg = tmp_path / "hls.cfg"
    cfg.write_text(f"command = hls\nhls_box_list = 8\nhls_grid_list = 64\nhls_field = {field}\n")
    out = tmp_path / "out"
    assert run_cli(["hls", "--config", str(cfg), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not (out / "hls.csv").exists()


def test_radial_profile_export(tmp_path):
    m = 32
    ax = (np.arange(m) + 0.5) * (8.0 / m) - 4.0
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    f = FreeField.centered(4.0, 1.0 / (1.0 + X**2 + Y**2))
    path = tmp_path / "prof.csv"
    cli_io.write_radial_profile(radial_shells(f), path)
    cols, rows = read_table(path)
    assert cols == ["r", "mean", "min", "max", "count"]
    assert all(row[2] <= row[1] <= row[3] for row in rows)
    radii = [row[0] for row in rows]
    assert all(b > a for a, b in zip(radii[:-1], radii[1:], strict=True))


SOLVE_CFG = """
command = solve
n = 2
lengths = 1,1
s = 0.5
p = 2.5
eps = 0.05
cutoff = 12,12
grid = 24,24
"""


def run_cli(args):
    return cli_io.main(args)


def test_cli_solve_end_to_end(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CFG)
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert all(c["passed"] for c in report["checks"])
    identities = [c for c in report["checks"] if c["name"].startswith("identity_")]
    assert len(identities) == 4 and all(c["value"] <= c["budget"] for c in identities)
    u = cli_io.load_field(out / "field_u.bin")
    assert u.max() > 0
    assert report["symmetry"] == le.symmetry_classes(u) == {"flip_0": True, "flip_1": True,
                                                            "swap_01": True}
    assert report["node_set"] == "cell"


def test_cli_solve_determinism(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ["solve.csv", "field_u.bin", "field_v.bin", "field_w.bin", "solve_report.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cli_solve_checks_the_solvers_ascent_rule(tmp_path, monkeypatch):
    # the solver lets a step from Theta lower it by 1e-12 max(1, Theta), and
    # the report measures each step against that allowance of its own: at
    # Theta = 0.44 a step of -6e-13 is one it accepts (4e-13 to spare), and
    # so is a step of -2.5e-12 from Theta = 3 (5e-13 to spare), though the
    # allowance 1e-12 of the run's first step, from Theta = 1, would refuse it
    solve = cli_io.solve_ground_state

    def stubbed(history):
        def stub(*args, **kwargs):
            pair, report = solve(*args, **kwargs)
            return pair, dataclasses.replace(report, theta=history[-1], theta_history=history)
        return stub

    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CFG)
    for i, (history, excess) in enumerate([([0.44, 0.44 - 6e-13], -4e-13),
                                           ([1.0, 3.0, 3.0 - 2.5e-12], -5e-13)]):
        monkeypatch.setattr(cli_io, "solve_ground_state", stubbed(np.array(history)))
        out = tmp_path / f"out{i}"
        assert run_cli(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "theta_nondecreasing")
        assert check["passed"] and (check["rule"], check["budget"]) == ("<=", 0.0)
        assert check["value"] == pytest.approx(excess, rel=0.01)


def test_cli_sweep_3d_does_not_depend_on_the_blas_thread_count(tmp_path):
    # every output file of the shipped 3-d sweep, byte for byte, under one and
    # two BLAS threads; on a 1-core machine the two runs agree trivially
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-m", "fraclane.cli_io", "sweep", "--config",
                               str(root / "configs" / "sweep_cube_p1.cfg"), "--out", str(out)],
                              env=env, cwd=root, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert outputs[0].keys() == outputs[1].keys() and len(outputs[0]) >= 12
    for name, data in outputs[0].items():
        assert outputs[1][name] == data, name


def test_cli_sweep_and_hls_field_chain(tmp_path):
    # acceptance quantities are producible from CLI outputs alone: sweep dumps
    # the rescaled w, hls ingests it
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "command = sweep\nn = 2\nlengths = 1,1\ns = 0.5\np = 2.5\n"
        "eps_schedule = 0.06,0.05,0.04\ncutoff = 16,16\ngrid = 32,32\n"
    )
    out = tmp_path / "sweep_out"
    code = run_cli(["sweep", "--config", str(sweep_cfg), "--out", str(out)])
    assert code == 0
    cols, rows = read_table(out / "sweep.csv")
    assert cols == cli_io.sweep_columns(2)
    assert len(rows) == 3
    lam_idx = cols.index("lambda")
    lams = [r[lam_idx] for r in rows]
    assert lams[0] < lams[1] < lams[2]

    hls_cfg = tmp_path / "hls.cfg"
    hls_cfg.write_text(
        "command = hls\nn = 2\ns = 0.5\np = 2.5\n"
        "hls_box_list = 13,18\nhls_grid_list = 104,160\n"
        f"hls_field = {out / 'rescaled_w.bin'}\n"
    )
    out2 = tmp_path / "hls_out"
    assert run_cli(["hls", "--config", str(hls_cfg), "--out", str(out2)]) == 0
    rep = json.loads((out2 / "hls_report.json").read_text())
    assert rep["field_quotient"]["quotient"] > 0
    assert rep["oracle"] == pytest.approx(math.sqrt(math.pi), rel=1e-4)


def test_hls_report_identifies_its_field_by_its_bytes(tmp_path):
    # the same field copied into two directories gives one hash, and a changed
    # field at the same path another; the hash adds no check
    values = np.random.default_rng(3).random((16, 16))

    def field_quotient(path, name):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text("n = 2\ns = 0.5\np = 2.5\nhls_box_list = 8\nhls_grid_list = 32\n"
                       f"hls_field = {path}\n")
        assert run_cli(["hls", "--config", str(cfg), "--out", str(tmp_path / name)]) in (0, 1)
        report = json.loads((tmp_path / name / "hls_report.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["bubble_refinement_monotone",
                                                          "bubble_within_1pct"]
        return report["field_quotient"]

    a, b = tmp_path / "a" / "field.bin", tmp_path / "b" / "field.bin"
    for path in (a, b):
        cli_io.dump_field(FreeField.centered(4.0, values), path)
    first, copy = field_quotient(a, "first"), field_quotient(b, "copy")
    assert first["path"] != copy["path"] and first["quotient"] == copy["quotient"]
    assert first["sha256"] == copy["sha256"] == hashlib.sha256(a.read_bytes()).hexdigest()
    cli_io.dump_field(FreeField.centered(4.0, values**2), a)
    changed = field_quotient(a, "changed")
    assert changed["path"] == first["path"] and changed["sha256"] != first["sha256"]


def test_hls_report_hashes_the_bytes_it_scored(tmp_path, monkeypatch):
    # the file is overwritten while its field is scored: the report's hash and
    # quotient both belong to the bytes the run loaded
    field = tmp_path / "field.bin"
    cli_io.dump_field(FreeField.centered(4.0, np.random.default_rng(3).random((16, 16))), field)
    scored = field.read_bytes()
    score = cli_io.hls_quotient
    seen = []

    def overwriting(f, *args):
        cli_io.dump_field(FreeField.centered(4.0, np.ones((16, 16))), field)
        seen.append(score(f, *args))
        return seen[-1]

    monkeypatch.setattr(cli_io, "hls_quotient", overwriting)
    cfg = tmp_path / "hls.cfg"
    cfg.write_text("n = 2\ns = 0.5\np = 2.5\nhls_box_list = 8\nhls_grid_list = 32\n"
                   f"hls_field = {field}\n")
    assert run_cli(["hls", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    report = json.loads((tmp_path / "out" / "hls_report.json").read_text())["field_quotient"]
    assert field.read_bytes() != scored
    assert report["sha256"] == hashlib.sha256(scored).hexdigest()
    original = score(cli_io.load_field(io.BytesIO(scored)), 2.5, 0.5)
    assert report["quotient"] == seen[-1] == original


def test_hls_scores_its_field_without_the_dump_bytes(tmp_path, monkeypatch):
    # the dump's bytes are hashed as soon as they are read and dropped once
    # the field is loaded: when the field is scored, the run holds the field
    # and no second copy of it
    values = np.random.default_rng(3).random((256, 256))
    field = tmp_path / "field.bin"
    cli_io.dump_field(FreeField.centered(4.0, values), field)
    score, held = cli_io.hls_quotient, []

    def scoring(f, *args):
        held.append(tracemalloc.get_traced_memory()[0])
        return score(f, *args)

    monkeypatch.setattr(cli_io, "hls_quotient", scoring)
    cfg = tmp_path / "hls.cfg"
    cfg.write_text("n = 2\ns = 0.5\np = 2.5\nhls_box_list = 8\nhls_grid_list = 32\n"
                   f"hls_field = {field}\n")
    tracemalloc.start()
    try:
        assert run_cli(["hls", "--config", str(cfg), "--out", str(tmp_path / "out")]) in (0, 1)
    finally:
        tracemalloc.stop()
    report = json.loads((tmp_path / "out" / "hls_report.json").read_text())["field_quotient"]
    assert report["sha256"] == hashlib.sha256(field.read_bytes()).hexdigest()
    assert len(held) == 1 and held[0] < 1.5 * values.nbytes


def test_cli_unreadable_config_exits_3(tmp_path, capsys):
    # a config that cannot be read is an error of the run, not a failed check
    # (exit 1): one error line, and nothing written
    out = tmp_path / "out"
    assert run_cli(["hls", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "missing.cfg" in err
    assert not out.exists()


def test_cli_kernels_command(tmp_path):
    cfg = tmp_path / "k.cfg"
    cfg.write_text(
        "command = kernels\nn = 2\nlengths = 1,1\ns = 0.5\ncutoff = 48,48\n"
        "grid = 96,96\nkernel_pairs = 40\nkernel_margin = 0.2\n"
    )
    out = tmp_path / "kout"
    assert run_cli(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "kernels_report.json").read_text())
    assert all(c["passed"] for c in rep["checks"])

    # determinism of the seeded sampler
    out2 = tmp_path / "kout2"
    assert run_cli(["kernels", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out / "kernels.csv").read_bytes() == (out2 / "kernels.csv").read_bytes()


NO_SCIPY_RUNS = """
import sys
from pathlib import Path

from fraclane import cli_io

out = Path(sys.argv[1])
configs = {
    "sweep": "n = 2\\np = 2.5\\neps_schedule = 0.06\\ncutoff = 16,16\\ngrid = 32,32\\n",
    "hls": ("n = 2\\ns = 0.5\\np = 2.5\\nhls_box_list = 8\\nhls_grid_list = 32\\n"
            f"hls_field = {out / 'sweep' / 'rescaled_w.bin'}\\n"),
    "kernels": "cutoff = 16,16\\ngrid = 32,32\\nkernel_pairs = 50\\n",
}
for command, text in configs.items():
    cfg = out / f"{command}.cfg"
    cfg.write_text(text)
    assert cli_io.main([command, "--config", str(cfg), "--out", str(out / command)]) in (0, 1)
cfg = out / "sweep3d.cfg"
cfg.write_text("n = 3\\np = 1.0\\neps_schedule = 0.1\\ncutoff = 8,8,8\\ngrid = 16,16,16\\n")
assert cli_io.main(["sweep", "--config", str(cfg), "--out", str(out / "sweep3d")]) in (0, 1)
assert "field_quotient" in (out / "hls" / "hls_report.json").read_text()
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_cli_commands_never_import_scipy(tmp_path):
    # SciPy costs about 180 ms of start-up, so no CLI path may load it: a 2-d
    # sweep, hls on its field (the order-2000 rule and the n = 2 elliptic
    # integral), kernels and a 3-d p = 1 sweep (g_tilde's small rules), in a
    # fresh interpreter, because this one may have imported SciPy already
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUNS, str(tmp_path)], env=env,
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_kernels_3d_without_p(tmp_path):
    # the default p = 2.5 has no admissible eps in 3-d, but kernels reads neither
    cfg = tmp_path / "k3.cfg"
    cfg.write_text(
        "command = kernels\nn = 3\ns = 0.6\ncutoff = 16,16,16\ngrid = 32,32,32\n"
        "kernel_pairs = 20\nkernel_margin = 0.2\n"
    )
    assert cli_io.parse_config(cfg.read_text()).p == cli_io.RunConfig().p
    out = tmp_path / "k3out"
    assert run_cli(["kernels", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "kernels_report.json").read_text())
    assert rep["pairs"] == 20 and all(c["passed"] for c in rep["checks"])


def test_cli_validates_config_against_subcommand(tmp_path):
    # no command line: the file alone would be checked as a solve config,
    # whose default eps has no admissible q in 3-d
    cfg = tmp_path / "k3.cfg"
    cfg.write_text(
        "n = 3\ns = 0.6\ncutoff = 16,16,16\ngrid = 32,32,32\n"
        "kernel_pairs = 20\nkernel_margin = 0.2\n"
    )
    with pytest.raises(cli_io.ConfigError, match="q >= p"):
        cli_io.parse_config(cfg.read_text())
    out = tmp_path / "k3out"
    assert run_cli(["kernels", "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert json.loads((out / "kernels_report.json").read_text())["pairs"] == 20


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 2.5\neps = 0.1\n")
    assert run_cli(["solve", "--config", str(cfg)]) == 2


def test_cli_sweep_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "command = sweep\nn = 2\nlengths = 1,1\ns = 0.5\np = 2.5\n"
        "eps_schedule = 0.06,0.05\ncutoff = 16,16\ngrid = 32,32\n"
    )
    outs = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ["sweep.csv", "constants.csv", "green_devs.csv", "profile_v.csv",
                 "rescaled_w.bin", "sweep_report.json"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _dumps(*names):
    return {f"{name}{suffix}" for name in names for suffix in (".bin", ".bin.hdr.txt")}


# every file each command writes: its CSV tables, each field dump with its
# text header, and its report; a table has no JSON twin
OUTPUT_MANIFESTS = {
    "solve": (SOLVE_CFG, {"solve.csv", "solve_report.json",
                          *_dumps("field_u", "field_v", "field_w")}),
    "sweep": ("n = 2\np = 2.5\neps_schedule = 0.06,0.05\ncutoff = 16,16\ngrid = 32,32\n",
              {"sweep.csv", "constants.csv", "green_devs.csv", "profile_u.csv", "profile_v.csv",
               "sweep_report.json", *_dumps("rescaled_u", "rescaled_v", "rescaled_w")}),
    "hls": ("n = 2\ns = 0.5\np = 2.5\nhls_box_list = 8\nhls_grid_list = 32\n",
            {"hls.csv", "hls_report.json"}),
    "kernels": ("cutoff = 16,16\ngrid = 32,32\nkernel_pairs = 50\n",
                {"kernels.csv", "kernels_report.json"}),
}


@pytest.mark.filterwarnings("ignore:blow-up core:UserWarning")
@pytest.mark.parametrize("command", OUTPUT_MANIFESTS)
def test_cli_output_manifest(tmp_path, command):
    text, expect = OUTPUT_MANIFESTS[command]
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) in (0, 1)
    assert sorted(p.name for p in out.iterdir()) == sorted(expect)


# Each bad config names the rule it breaks. The domain objects phrase the
# rules themselves, so each pattern accepts the object's wording.
_SOLVE = "command = solve\n"
_SWEEP = "command = sweep\neps_schedule = 0.06,0.04\ncutoff = 8,8\ngrid = 16,16\n"
BAD_CONFIGS = [
    ("s_above_one", _SOLVE + "s = 1.2\n", r"s (in|must lie in) \(0, ?1\)"),
    ("s_zero", _SOLVE + "s = 0\n", r"s (in|must lie in) \(0, ?1\)"),
    ("n_not_above_2s", _SOLVE + "n = 1\nlengths = 1\ns = 0.6\ncutoff = 8\ngrid = 16\n",
     r"n > 2s"),
    ("lengths_count", _SOLVE + "lengths = 1,1,1\n", r"needs? 2 entries"),
    ("cutoff_count", _SOLVE + "cutoff = 8\ngrid = 16,16\n", r"needs? 2 entries"),
    ("grid_count", "command = kernels\ncutoff = 8,8\ngrid = 16,16,16\n", r"needs? 2 entries"),
    ("length_not_positive", _SOLVE + "lengths = 1,0\n", r"lengths must be positive"),
    ("cutoff_zero", _SOLVE + "cutoff = 0,8\ngrid = 16,16\n", r"cutoff entries must be >= 1"),
    ("aliasing_solve", _SOLVE + "cutoff = 64,64\ngrid = 100,128\n", r"anti-aliasing"),
    ("aliasing_kernels", "command = kernels\ncutoff = 8,8\ngrid = 15,16\n", r"anti-aliasing"),
    ("aliasing_sweep", _SWEEP.replace("grid = 16,16", "grid = 16,12"), r"anti-aliasing"),
    ("p_low_solve", _SOLVE + "p = 0.9\n", r"p > 2s/\(n-2s\)"),
    ("p_low_sweep", _SWEEP + "p = 0.9\n", r"p > 2s/\(n-2s\)"),
    ("p_low_hls", "command = hls\np = 0.9\n", r"p > 2s/\(n-2s\)"),
    ("eps_above_limit_solve", _SOLVE + "p = 2.5\neps = 0.1\n", r"q >= p"),
    ("eps_above_limit_schedule", _SWEEP.replace("0.06,0.04", "0.2,0.04"), r"q >= p"),
    ("hls_lists", "command = hls\nhls_box_list = 8,13\nhls_grid_list = 64\n",
     r"hls_box_list and hls_grid_list"),
    ("hls_n_not_above_2s", "command = hls\nn = 1\ns = 0.6\n", r"n > 2s"),
    ("hls_s_above_one", "command = hls\nn = 3\ns = 1.2\n", r"s must lie in \(0, 1\)"),
    # the oracle's sphere integral has closed forms for n = 3, and for n = 2 at s = 1/2
    ("hls_oracle_n1", f"command = hls\nn = 1\ns = 0.25\np = {le.diagonal_exponent(1, 0.25)!r}\n",
     r"radial-quadrature oracle needs n = 3, or n = 2 with lam = n - 2s = 1"),
    ("hls_oracle_n2", f"command = hls\nn = 2\ns = 0.25\np = {le.diagonal_exponent(2, 0.25)!r}\n",
     r"radial-quadrature oracle needs n = 3, or n = 2 with lam = n - 2s = 1"),
    # the sampling box would be 0.02 wide, too narrow for two points 0.1 apart
    ("kernel_margin_too_wide", "command = kernels\nkernel_margin = 0.49\n", r"kernel_margin"),
    ("kernel_margin_negative", "command = kernels\nkernel_margin = -0.1\n", r"kernel_margin"),
    ("kernel_seed_negative", "command = kernels\nkernel_seed = -1\n", r"kernel_seed"),
    ("key_set_twice", _SOLVE + "p = 3.0\np = 2.5\n", r"line 3: key 'p' already set on line 2"),
]


@pytest.mark.parametrize("text,rule", [row[1:] for row in BAD_CONFIGS],
                         ids=[row[0] for row in BAD_CONFIGS])
def test_bad_config_names_violated_rule(text, rule):
    with pytest.raises(cli_io.ConfigError, match=rule):
        cli_io.parse_config(text)


# The commands that read each float key of a config; a float key missing here
# fails the collection of the test below.
_FLOAT_KEY_READERS = {
    "lengths": ("solve", "sweep", "kernels"), "s": ("solve", "sweep", "hls", "kernels"),
    "p": ("solve", "sweep", "hls"), "eps": ("solve",), "eps_schedule": ("sweep",),
    "theta_tol": ("solve", "sweep"), "residual_tol": ("solve", "sweep"),
    "hls_box_list": ("hls",), "kernel_margin": ("kernels",),
}


def _non_finite_cases():
    """(command, key, value) with one float key, or one entry of a tuple key,
    at its default but NaN or +-inf."""
    cases = []
    for f in dataclasses.fields(cli_io.RunConfig):
        entries = f.default if isinstance(f.default, tuple) else (f.default,)
        if not isinstance(entries[0], float):
            continue
        for command in _FLOAT_KEY_READERS[f.name]:
            for bad, i in itertools.product(("nan", "inf", "-inf"), range(len(entries))):
                raw = ",".join(bad if j == i else repr(e) for j, e in enumerate(entries))
                cases.append((command, f.name, raw))
    return cases


@pytest.mark.parametrize("command,key,raw", _non_finite_cases())
def test_non_finite_config_values_are_refused(command, key, raw):
    # the tolerances take inf as "no bound"
    text = f"{key} = {raw}\n"
    if key in ("theta_tol", "residual_tol") and raw == "inf":
        assert getattr(cli_io.parse_config(text, command), key) == math.inf
        return
    with pytest.raises(cli_io.ConfigError):
        cli_io.parse_config(text, command)


def test_kernel_margin_at_its_limit_is_accepted():
    # sides of 1 - 2 * 0.4 = 0.2 = 2 _KERNEL_MIN_SEP: each drawn pair still succeeds w.p. >= 1/4
    assert cli_io.parse_config("command = kernels\nkernel_margin = 0.4\n").kernel_margin == 0.4


# Configs whose pair sits on q = p, where rounding puts q_eps an ulp below p:
# each was refused (exit 2) while q >= p was checked without THRESHOLD_TOL.
ON_THE_HYPOTHESIS = {
    "solve": "n = 3\nlengths = 1,1,1\ns = 0.5\np = 1.3\n"
             f"eps = {le.hyperbola_gap(1.3, 1.3, 3, 0.5)!r}\ncutoff = 4,4,4\ngrid = 8,8,8\n",
    "hls": f"n = 3\ns = 0.74\np = {le.diagonal_exponent(3, 0.74)!r}\n",
}


@pytest.mark.parametrize("command", ON_THE_HYPOTHESIS)
def test_config_on_the_q_ge_p_boundary_is_accepted(command):
    pair = cli_io._exponents(cli_io.parse_config(ON_THE_HYPOTHESIS[command], command))
    assert abs(pair.q - pair.p) <= le.THRESHOLD_TOL


def test_cli_solves_on_the_q_ge_p_boundary(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(ON_THE_HYPOTHESIS["solve"])
    assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


# Rejected at parse time, before anything runs. Without these rules each one
# ran: hls_p_above_diagonal to its end, hls_no_rung into an IndexError (exit
# 1), a tolerance <= 0 through max_iter iterations to exit 3, a NaN
# kernel_margin into a pair sampler that never ended, and the rest into an
# error of the run (exit 3), the non-finite sides and radii after a NumPy
# RuntimeWarning.
NEWLY_REJECTED = [
    ("schedule_not_decreasing", "sweep", _SWEEP.replace("0.06,0.04", "0.04,0.06"),
     r"strictly decreasing"),
    ("sub_serrin_p_below_one", "sweep",
     "n = 3\ns = 0.5\np = 0.8\neps_schedule = 0.06\ncutoff = 4,4,4\ngrid = 8,8,8\n",
     r"p >= 1"),
    ("hls_p_above_diagonal", "hls", "n = 2\ns = 0.5\np = 3.5\n", r"q >= p"),
    ("kernel_pairs_zero", "kernels", "kernel_pairs = 0\n", r"kernel_pairs must be >= 1, got 0"),
    ("kernel_pairs_negative", "kernels", "kernel_pairs = -3\n", r"kernel_pairs must be >= 1"),
    ("hls_radius_zero", "hls", "hls_box_list = 8,0\nhls_grid_list = 64,104\n",
     r"box radii must be positive"),
    ("hls_grid_zero", "hls", "hls_box_list = 8,13\nhls_grid_list = 64,0\n",
     r"at least one node per axis"),
    ("hls_no_rung", "hls", "hls_box_list =\nhls_grid_list =\n", r"at least one rung"),
    ("solve_max_iter_zero", "solve", "max_iter = 0\n", r"max_iter must be >= 1"),
    ("solve_theta_tol_negative", "solve", "theta_tol = -1\n", r"theta_tol must be > 0"),
    ("solve_residual_tol_zero", "solve", "residual_tol = 0\n", r"residual_tol must be > 0"),
    ("sweep_max_iter_zero", "sweep", _SWEEP + "max_iter = 0\n", r"max_iter must be >= 1"),
    ("sweep_theta_tol_negative", "sweep", _SWEEP + "theta_tol = -1\n", r"theta_tol must be > 0"),
    ("solve_length_inf", "solve", "lengths = inf,1\n", r"lengths must be positive and finite"),
    ("sweep_length_nan", "sweep", _SWEEP + "lengths = 1,nan\n",
     r"lengths must be positive and finite"),
    ("hls_radius_inf", "hls", "hls_box_list = 8,inf\nhls_grid_list = 64,104\n",
     r"box radii must be positive and finite"),
    ("kernel_margin_nan", "kernels", "cutoff = 4,4\ngrid = 8,8\nkernel_margin = nan\n",
     r"kernel_margin must be finite"),
]


@pytest.mark.parametrize("command,text,rule", [row[1:] for row in NEWLY_REJECTED],
                         ids=[row[0] for row in NEWLY_REJECTED])
def test_newly_rejected_configs_exit_2(tmp_path, capsys, command, text, rule):
    with pytest.raises(cli_io.ConfigError, match=rule):
        cli_io.parse_config(text, command)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    assert "config error" in capsys.readouterr().err


def test_cli_without_config_is_validated(tmp_path, monkeypatch):
    seen = []
    real = cli_io.parse_config

    def spy(text, command=None):
        seen.append((text, command))
        return real(text, command)

    monkeypatch.setattr(cli_io, "parse_config", spy)
    monkeypatch.setitem(cli_io._COMMANDS, "kernels", lambda cfg, out: ({}, []))
    assert run_cli(["kernels", "--out", str(tmp_path)]) == 0
    assert seen == [("", "kernels")]


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_shipped_configs_parse(path):
    # each file names its own subcommand in its `command` line
    text = path.read_text()
    assert f"command = {cli_io.parse_config(text).command}\n" in text


# The check list of each shipped config's report, in report order: name,
# gating, budget and passed. A sweep's bands and decay facts report and never
# gate; three of the square's and two of the cube's miss at their resolution.
SHIPPED_CHECKS = {
    "hls_bubble": [("bubble_refinement_monotone", True, None, True),
                   ("bubble_within_1pct", True, 0.01, True)],
    "kernels_square": [("kernel_bound", True, None, True),
                       ("green_symmetry_exact", True, None, True),
                       ("regular_part_symmetry", True, 1e-12, True),
                       ("operator_inverse_identity", True, 1e-12, True),
                       ("operator_semigroup", True, 1e-12, True)],
    "solve_square": [("converged", True, None, True),
                     ("residual_w", True, 1e-6, True),
                     ("theta_nondecreasing", True, 0.0, True),
                     ("identity_a75", True, 1e-6, True),
                     ("identity_a74", True, 1e-6, True),
                     ("identity_a80", True, 1e-6, True),
                     ("identity_a7", True, 1e-6, True),
                     ("positivity_clamp", True, 1e-4, True)],
    "sweep_cube_p1": [("lambda_increasing", True, None, True),
                      ("lambda_dist_increasing", True, None, True),
                      ("s_omega_decreasing", True, None, True),
                      ("green_dev_nonincreasing", True, None, True),
                      ("lam_pow_eps_gap_decreasing_tail", False, None, True),
                      ("v_decay_slope", False, 0.1, False),
                      ("sharp_decay_sandwich", False, 0.0, False)],
    "sweep_square": [("lambda_increasing", True, None, True),
                     ("lambda_dist_increasing", True, None, True),
                     ("s_omega_decreasing", True, None, True),
                     ("green_dev_nonincreasing", True, None, True),
                     ("quotient_bound", True, 1e-12, True),
                     ("lam_pow_eps_band", False, 0.1, False),
                     ("energy_limit_gap", False, 0.1, False),
                     ("green_dev_final", False, 0.15, True),
                     ("lam_pow_eps_gap_decreasing_tail", False, None, True),
                     ("c1_stabilizing", False, None, True),
                     ("v_decay_slope", False, 0.1, False),
                     ("sharp_decay_sandwich", False, 0.0, True)],
}

# The checks that pass only strictly below their budget (rule "<"); every
# other valued check passes at its budget too (rule "<=").
STRICT_CHECKS = {"operator_inverse_identity", "operator_semigroup", "bubble_within_1pct",
                 "lam_pow_eps_band", "energy_limit_gap", "green_dev_final", "serrin_log_integral"}

# The payload keys of each command's report, beside the keys every report
# has; each judgement is a check, and no payload entry repeats one.
REPORT_KEYS = {"solve": {"theta", "symmetry", "node_set"},
               "sweep": {"regime", "x0", "s_hat", "e_limit", "rows_failed", "core_cells", "decay"},
               "hls": {"oracle", "field_quotient"},
               "kernels": {"pairs"}}


def _rederived(check):
    """A report check's verdict from its record alone: a flag, which carries
    no value or budget, gives its own; a bound's follows from its value,
    rule and budget."""
    rule, value, budget = check["rule"], check["value"], check["budget"]
    if rule == "flag":
        assert value is None and budget is None, check
        return check["passed"]
    return {"<=": value <= budget, "<": value < budget}[rule]


def _keys_and_numbers(payload):
    """Every key and every nonzero float of a JSON payload, at any depth."""
    keys, numbers = set(), set()
    stack = [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            keys.update(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float) and item != 0.0:
            numbers.add(item)
    return keys, numbers


# the shipped sweeps clamp and reach the core-resolution floor; they warn of both
@pytest.mark.filterwarnings("ignore:clamped:UserWarning", "ignore:blow-up core:UserWarning")
@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_shipped_config_check_lists(tmp_path, path):
    command = cli_io.parse_config(path.read_text()).command
    assert run_cli([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"{command}_report.json").read_text())
    checks = [(c["name"], c["gating"], c["budget"], c["passed"]) for c in report["checks"]]
    assert checks == SHIPPED_CHECKS[path.stem]
    assert [_rederived(c) for c in report["checks"]] == [c["passed"] for c in report["checks"]]
    assert {c["name"] for c in report["checks"] if c["rule"] == "<"} == (
        STRICT_CHECKS & {c["name"] for c in report["checks"]})
    assert set(report) == {"config", "version", "input_sha256", "checks", *REPORT_KEYS[command]}
    names = [c["name"] for c in report["checks"]]
    assert len(set(names)) == len(names)
    keys, numbers = _keys_and_numbers({key: report[key] for key in REPORT_KEYS[command]})
    _, values = _keys_and_numbers([c["value"] for c in report["checks"]])
    assert not keys & set(names) and not numbers & values
