"""Config parsing, tables, field dumps, CLI round trips and determinism."""

import json
import math
import numpy as np
import pytest

import fraclane as fl
from fraclane import cli_io
from fraclane.hls_limit import FreeField


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
    cols, back = cli_io.read_table(path)
    assert cols == ["a", "b", "c"]
    for row, expect in zip(back, rows, strict=True):
        for v, e in zip(row, expect, strict=True):
            assert v == e  # 17 significant digits round-trip float64 exactly
    twin = json.loads(path.with_suffix(".csv.json").read_text())
    assert twin["columns"] == cols
    assert twin["rows"][0][1] == 1.0 / 3.0


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


def test_radial_profile_export(tmp_path):
    m = 32
    ax = (np.arange(m) + 0.5) * (8.0 / m) - 4.0
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    f = FreeField.centered(4.0, 1.0 / (1.0 + X**2 + Y**2))
    path = tmp_path / "prof.csv"
    cli_io.write_radial_profile(f, path)
    cols, rows = cli_io.read_table(path)
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
    for gap in report["identities"].values():
        assert gap["value"] <= gap["tol"]
    u = cli_io.load_field(out / "field_u.bin")
    assert u.max() > 0


def test_cli_solve_determinism(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ["solve.csv", "solve.csv.json", "field_u.bin", "field_v.bin",
                 "field_w.bin", "solve_report.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


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
    cols, rows = cli_io.read_table(out / "sweep.csv")
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
