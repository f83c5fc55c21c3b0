import ast
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import operator
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hardylab import cli
from hardylab import evolution as evo
from hardylab import flatness as fla
from hardylab import lapack
from hardylab import spectral as spc
from hardylab.cli import LabConfig, load_config, main, run, validate_config
from hardylab.errors import IllPosedTruncationError, SupercriticalCouplingError


def light_config(**overrides) -> LabConfig:
    cfg = LabConfig(
        n_interior=200, n_ang=128, time_steps=100, k_modes=4,
        tau_steps=256, kernel_t_nodes=65, transform_t_nodes=1001,
        spectrum_modes=5, obs_time_steps=16, hum_verify_steps=20_000,
        inverse_steps=2000, recon_steps=500,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def read_rows(path: Path):
    with open(path) as fh:
        return list(csv.reader(fh))


def find_run_dir(root: Path, sub: str) -> Path:
    dirs = [p for p in root.iterdir() if p.name.startswith(sub)]
    assert len(dirs) == 1
    return dirs[0]


def test_spectrum_run_writes_csv(tmp_path):
    code = run("spectrum", light_config(n_interior=800), tmp_path)
    assert code == 0
    outdir = find_run_dir(tmp_path, "spectrum")
    rows = read_rows(outdir / "spectrum.csv")
    assert rows[0] == ["k", "mu_k", "bessel_oracle", "rel_err"]
    assert len(rows) == 6  # header + 5 modes
    assert all(float(r[3]) <= 5e-3 for r in rows[1:])
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["checks"]["spectrum_oracle_rel_err"] is True
    assert "spectrum.csv" in manifest["digests"]


def test_supercritical_coupling_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("lam = 0.3\n")
    code = main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 3
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "supercritical_coupling"
    assert payload["lambda_star"] == 0.25


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("no_such_key = 1\n")
    code = main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"


@pytest.mark.parametrize("key", ["tol_eigen_residual", "tol_oracle_rel"])
def test_removed_tolerance_keys_are_unknown(tmp_path, capsys, key):
    cfg_file = tmp_path / "old.cfg"
    cfg_file.write_text(f"{key} = 1e-3\n")
    code = main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert f"unknown key {key!r}" in payload["message"]


def test_every_config_field_is_read():
    # a LabConfig field that cli.py never reads as cfg.<field> configures nothing
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    assert {f.name for f in dataclasses.fields(LabConfig)} - read == set()


def test_missing_config_file_exit_code(tmp_path, capsys):
    out_root = tmp_path / "out"
    code = main(["spectrum", "--config", str(tmp_path / "absent.cfg"), "--out", str(out_root)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"
    assert not out_root.exists()


@pytest.mark.parametrize("text", [
    "dimension_n = 11\n",       # nu = 4.5
    "lam = -12\n",              # nu = 3.5
])
def test_oracle_range_rejected_before_output(tmp_path, capsys, text):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    out_root = tmp_path / "out"
    code = main(["spectrum", "--config", str(cfg_file), "--out", str(out_root)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"
    assert f"nu <= {cli.MAX_BESSEL_ORDER:g}" in payload["message"]
    assert not out_root.exists()


@pytest.mark.parametrize("text", [
    "spectrum_modes = 25\n",    # J_0.5 has 19 zeros below 60, where the oracle once stopped
    "spectrum_modes = 800\n",   # every mode of the default grid
])
def test_spectrum_modes_up_to_n_interior_run(tmp_path, text):
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text(text)
    out_root = tmp_path / "out"
    code = main(["spectrum", "--check", "--config", str(cfg_file), "--out", str(out_root)])
    assert code in (0, 1)
    (run_dir,) = out_root.iterdir()
    assert (run_dir / "spectrum.csv").exists()


@pytest.mark.parametrize("text", [
    "mask_a = 0.0\nmask_b = 0.001\n",                        # no node in (0, 0.001)
    "mask_kind = cantor\nmask_a = 0.5\nmask_b = 0.504\n",    # base under 4 spacings
])
@pytest.mark.parametrize("stage", ["uniqueness", "hum", "evolve"])
def test_empty_mask_rejected_before_output(tmp_path, capsys, text, stage):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    out_root = tmp_path / "out"
    code = main([stage, "--config", str(cfg_file), "--out", str(out_root)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"
    assert "mask" in payload["message"]
    assert not out_root.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field, template", [
    ("lam", "{}"), ("horizon", "{}"), ("mask_a", "{}"), ("mask_b", "{}"),
    ("eps_list", "1e-1, {}"), ("eps_list", "{}, 1e-1"),
])
def test_non_finite_floats_rejected_before_output(tmp_path, capsys, field, template, value):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"{field} = {template.format(value)}\n")
    out_root = tmp_path / "out"
    code = main(["all", "--config", str(cfg_file), "--out", str(out_root)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"
    assert field in payload["message"]
    assert not out_root.exists()


def test_spectrum_modes_above_n_interior_rejected_before_output(tmp_path, capsys):
    # the Bessel oracle has 10 zeros, but an 8-node grid has 8 eigenpairs
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text("n_interior = 8\nspectrum_modes = 10\n")
    for subcommand in ("spectrum", "all"):
        out_root = tmp_path / subcommand
        code = main([subcommand, "--config", str(cfg_file), "--out", str(out_root)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"] == "invalid_config"
        assert "spectrum_modes" in payload["message"]
        assert not out_root.exists()


# one node of the default 800-node grid lies in (0.3, 0.3015)
@pytest.mark.parametrize("text", [
    "obs_time_steps = 1\n",   # 2 observability samples for 8 modes
    "k_modes = 40\n",         # 33 observability samples for 40 modes
    "k_modes = 20\n",         # 33 UCP window samples for 40 unknowns
])
def test_mask_too_narrow_for_uniqueness_rejected_before_output(tmp_path, capsys, text):
    cfg_file = tmp_path / "narrow.cfg"
    cfg_file.write_text("mask_a = 0.3\nmask_b = 0.3015\n" + text)
    for subcommand in ("uniqueness", "all"):
        out_root = tmp_path / subcommand
        code = main([subcommand, "--config", str(cfg_file), "--out", str(out_root)])
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["error"] == "invalid_config"
        assert "mask" in payload["message"]
        assert not out_root.exists()
    for subcommand in ("hum", "evolve"):   # they sample the mask at their own sizes
        assert main([subcommand, "--config", str(cfg_file), "--out", str(tmp_path)]) == 0


def test_stage_value_error_exits_4(tmp_path, capsys, monkeypatch):
    def broken(cfg, outdir):
        (outdir / "partial.csv").write_text("t\n")
        raise ValueError("no convergence")

    monkeypatch.setitem(cli._RUNNERS, "hardy", broken)
    out_root = tmp_path / "out"
    code = main(["all", "--out", str(out_root)])
    assert code == 4
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "stage_failure", "stage": "hardy", "exception": "ValueError",
                       "message": "no convergence"}
    assert list(out_root.iterdir()) == []


@pytest.mark.parametrize("error", [RuntimeError, FloatingPointError, IllPosedTruncationError])
def test_stage_numerical_error_exits_4(tmp_path, capsys, monkeypatch, error):
    def broken(cfg, outdir):
        (outdir / "partial.csv").write_text("t\n")
        raise error("numerical failure")

    monkeypatch.setitem(cli._RUNNERS, "transform", broken)
    out_root = tmp_path / "out"
    code = main(["all", "--out", str(out_root)])
    assert code == 4
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "stage_failure", "stage": "transform",
                       "exception": error.__name__, "message": "numerical failure"}
    assert list(out_root.iterdir()) == []


@pytest.mark.parametrize("text", [
    "transform_t_nodes = 1\n",   # IndexError in the elliptic residual
    "transform_t_nodes = 2\n",   # no interior node for the second difference
    "tau_steps = 1\n",           # zero kernel: the residual ratio divides by 0
    "recon_steps = 13\n",        # titchmarsh bumps 8 dt wide exceed 0.3 of 2T
    "kernel_t_nodes = 0\n",      # the kernel residual reduces an empty array
    "kernel_t_nodes = 1\n",      # t = -1 alone: the residual ratio reads exactly 0
    "seed = -1\n",               # numpy rejects negative seeds
])
def test_short_grids_rejected_before_output(tmp_path, capsys, text):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    out_root = tmp_path / "out"
    code = main(["all", "--config", str(cfg_file), "--out", str(out_root)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"
    assert text.split(" =")[0] in payload["message"]
    assert not out_root.exists()


@pytest.mark.parametrize("field, least", [
    ("transform_t_nodes", 3), ("tau_steps", 2), ("recon_steps", 14), ("kernel_t_nodes", 2),
])
def test_shortest_accepted_grids_run_all(tmp_path, field, least):
    assert run("all", light_config(**{field: least}), tmp_path) == 0


def test_oracle_range_limits_run(tmp_path):
    # the largest accepted order runs to completion
    cfg = light_config(lam=-8.75, spectrum_modes=17)   # nu = 3
    assert run("spectrum", cfg, tmp_path) == 0


def test_shortest_inverse_grid_runs(tmp_path):
    assert run("inverse-source", light_config(inverse_steps=2), tmp_path) == 0


_KERNEL_FLOOR = cli.HORIZON_FLOORS["kernel"]
_TITCHMARSH_FLOOR = cli.HORIZON_FLOORS["titchmarsh"]


@pytest.mark.parametrize("subcommand, horizon", [
    ("kernel", math.nextafter(_KERNEL_FLOOR, 0.0)),
    ("kernel", 0.3),              # the Cauchy sums overflow at truncation 24
    ("transform", math.nextafter(_KERNEL_FLOOR, 0.0)),
    ("all", math.nextafter(_KERNEL_FLOOR, 0.0)),
    ("titchmarsh", math.nextafter(_TITCHMARSH_FLOOR, 0.0)),
    ("titchmarsh", 0.16),         # a wide bump leaves no room for its start
])
def test_short_horizon_rejected_before_output(tmp_path, capsys, subcommand, horizon):
    cfg_file = tmp_path / "short.cfg"
    cfg_file.write_text(f"horizon = {horizon!r}\n")
    out_root = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg_file), "--out", str(out_root)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"
    assert "horizon" in payload["message"]
    assert not out_root.exists()


@pytest.mark.parametrize("subcommand, overrides", [
    # the largest truncation overflows first, so the floor is run at it
    ("kernel", {"horizon": _KERNEL_FLOOR, "k_trunc": fla.MAX_TRUNCATION}),
    ("transform", {"horizon": _KERNEL_FLOOR, "transform_k_trunc": fla.MAX_TRUNCATION}),
    ("titchmarsh", {"horizon": _TITCHMARSH_FLOOR}),
    ("uniqueness", {"horizon": 0.05}),   # builds no kernel: no floor
])
def test_horizon_at_floor_runs(tmp_path, subcommand, overrides):
    assert run(subcommand, light_config(**overrides), tmp_path) == 0


def test_horizon_floor_applies_to_the_stages_run():
    short = light_config(horizon=0.05)
    for subcommand in ("spectrum", "hardy", "evolve", "uniqueness", "angular", "hum",
                       "inverse-source"):
        validate_config(short, subcommand)
    with pytest.raises(cli.ConfigError, match="horizon"):
        validate_config(short)   # one argument: every stage, as 'all'


# at horizon 30 the bump has not underflowed at the first tau node of 16384
# steps (1.8e-3), nor at the second of 32768, yet both lie in the contour
# guard band of derivative_table
@pytest.mark.parametrize("subcommand", ["kernel", "transform", "all"])
@pytest.mark.parametrize("tau_steps", [16384, 32768])
def test_tau_grid_in_the_guard_band_rejected_before_output(tmp_path, capsys, subcommand,
                                                           tau_steps):
    cfg_file = tmp_path / "long.cfg"
    cfg_file.write_text(f"horizon = 30\ntau_steps = {tau_steps}\n")
    out_root = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg_file), "--out", str(out_root)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"
    assert "tau_steps" in payload["message"] and "radius" in payload["message"]
    assert not out_root.exists()


@pytest.mark.parametrize("horizon, tau_steps, rejected", [
    (30.0, 16384, True), (30.0, 32768, True), (30.0, 1024, False), (20.0, 16384, False),
    (1.0, 65536, False),   # the bump has underflowed at every guard-band node
])
def test_tau_grid_validation_agrees_with_derivative_table(horizon, tau_steps, rejected):
    cfg = light_config(horizon=horizon, tau_steps=tau_steps)
    taus = np.linspace(0.0, horizon, tau_steps + 1)
    near_ends = taus[np.minimum(taus, horizon - taus) < 0.01]   # holds the guard band
    try:
        fla.derivative_table(fla.gevrey_bump(horizon, 2.0), near_ends, 0)
        table_raises = False
    except ValueError:
        table_raises = True
    assert table_raises == rejected
    if rejected:
        with pytest.raises(cli.ConfigError, match="tau_steps"):
            validate_config(cfg, "kernel")
    else:
        validate_config(cfg, "kernel")


@pytest.mark.parametrize("subcommand", ["kernel", "transform"])
def test_long_horizon_with_the_default_tau_grid_runs(tmp_path, subcommand):
    assert run(subcommand, light_config(horizon=30.0, tau_steps=LabConfig().tau_steps),
               tmp_path) == 0


def test_guard_band_applies_only_to_the_stages_that_build_a_kernel(tmp_path):
    cfg = light_config(horizon=30.0, tau_steps=16384)
    for subcommand in ("spectrum", "hardy", "evolve", "uniqueness", "angular", "hum",
                       "inverse-source", "titchmarsh"):
        validate_config(cfg, subcommand)
    assert run("uniqueness", cfg, tmp_path) == 0


def test_uniqueness_builds_no_flatness_kernel(tmp_path, monkeypatch):
    # the kernel and the transform are built by their own stages only
    def forbidden(*args, **kwargs):
        raise AssertionError("the uniqueness stage called hardylab.flatness")

    for name, obj in vars(fla).items():
        if inspect.isfunction(obj) and obj.__module__ == fla.__name__:
            monkeypatch.setattr(fla, name, forbidden)
    assert run("uniqueness", light_config(), tmp_path) == 0
    cert = json.loads((find_run_dir(tmp_path, "uniqueness") / "certificate.json").read_text())
    assert set(cert) == {"config", "eta", "sigma_min", "bound", "c0_norm",
                         "reconstruction_error"}


def test_default_all_builds_each_shared_object_once(tmp_path, monkeypatch):
    counts = {}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for module, name in ((spc, "solve_spectrum"), (fla, "gevrey_bump"),
                         (evo, "interval_mask"), (fla, "derivative_table")):
        counted(module, name)
    assert run("all", LabConfig(), tmp_path) == 0
    # spectrum_modes and k_modes at lam, k = 6 and k = 1 at lam = 3/16; one
    # derivative table, at order max(k_trunc, transform_k_trunc) + 1, serves
    # the kernel and transform stages
    assert counts == {"solve_spectrum": 4, "gevrey_bump": 1, "interval_mask": 1,
                      "derivative_table": 1}


def test_kernel_and_transform_read_one_table_of_the_config_order(tmp_path, monkeypatch):
    kernels = {}
    for stage in ("kernel", "transform"):
        measure = getattr(cli, f"measure_{stage}")

        def capture(*args, stage=stage, measure=measure):
            kernels[stage] = next(a for a in args if isinstance(a, fla.FlatnessKernel))
            return measure(*args)
        monkeypatch.setattr(cli, f"measure_{stage}", capture)
        assert run(stage, LabConfig(), tmp_path / stage) == 0
    cfg = LabConfig()
    bump = fla.gevrey_bump(cfg.horizon, 2.0)
    taus = evo.TimeGrid(cfg.horizon, cfg.tau_steps).times
    # the transform residual is rounding-dominated: it keeps the bits of the
    # table built at its own order, which the shared order equals by default
    own = fla.derivative_table(bump, taus, cfg.transform_k_trunc + 1)
    assert np.array_equal(kernels["transform"].deriv_table, own)
    # the kernel's own order-(k_trunc + 1) table differs in its last bits only
    kernel = kernels["kernel"]
    alone = fla.build_kernel(bump, kernel.t_nodes, taus, cfg.k_trunc).values
    assert np.abs(kernel.values - alone).max() <= 1e-14 * np.abs(alone).max()


def test_validate_config_rules():
    with pytest.raises(SupercriticalCouplingError):
        validate_config(light_config(lam=0.25))
    for bad, named in (
        ({"dimension_n": 2}, "dimension_n"),
        ({"mask_a": 0.9, "mask_b": 0.2}, "observation mask"),
        ({"eps_list": (1e-3, 1e-2)}, "eps_list"),
        ({"k_trunc": 50}, "k_trunc"),
        ({"n_interior": 4}, "n_interior"),
        ({"inverse_steps": 1}, "inverse_steps"),
        ({"n_ang": 63}, "n_ang"),
        ({"horizon": 0.0}, "horizon"),
        ({"transform_k_trunc": 0}, "transform_k_trunc"),
        ({"transform_k_trunc": fla.MAX_TRUNCATION + 1}, "transform_k_trunc"),
        ({"mask_kind": "annulus"}, "mask_kind"),
        ({"eps_list": (-1e-3,)}, "eps_list"),
    ):
        with pytest.raises(cli.ConfigError, match=named):
            validate_config(light_config(**bad))


@pytest.mark.parametrize("line, says", [
    ("n_interior 300", "expected 'key = value'"),
    ("n_interior = many", "bad value for n_interior: 'many'"),
])
def test_malformed_config_line_exit_code(tmp_path, capsys, line, says):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"# comment line\n{line}\n")
    out_root = tmp_path / "out"
    code = main(["spectrum", "--config", str(cfg_file), "--out", str(out_root)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config"
    assert payload["message"] == f"{cfg_file}:2: {says}"
    assert not out_root.exists()


def test_write_json_numpy_scalars(tmp_path):
    # json.dump hands numpy scalars that are not Python numbers to the default hook
    path = tmp_path / "scalars.json"
    cli.write_json(path, {"count": np.int64(3), "ok": np.bool_(True), "x": np.float64(0.1)})
    assert json.loads(path.read_text()) == {"count": 3, "ok": True, "x": 0.1}
    with pytest.raises(TypeError):
        cli.write_json(tmp_path / "other.json", {"path": tmp_path})


def test_config_file_round_trip(tmp_path):
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "lam = 0.1875\n"
        "n_interior = 300\n"
        "eps_list = 0.1, 0.01\n"
        "mask_kind = cantor  # trailing comment\n"
    )
    cfg = load_config(str(cfg_file))
    assert cfg.lam == 0.1875
    assert cfg.n_interior == 300
    assert cfg.eps_list == (0.1, 0.01)
    assert cfg.mask_kind == "cantor"


_FIELD_VALUES = {
    int: st.integers(-10**6, 10**6),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.sampled_from(["interval", "cantor"]),
    tuple: st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=6).map(tuple),
}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.fixed_dictionaries({f.name: _FIELD_VALUES[type(getattr(LabConfig(), f.name))]
                              for f in dataclasses.fields(LabConfig)}))
def test_load_config_round_trip_every_field(tmp_path, values):
    def text(value):
        if isinstance(value, tuple):
            return ", ".join(map(repr, value))
        return value if isinstance(value, str) else repr(value)

    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text("".join(f"{key} = {text(value)}\n" for key, value in values.items()))
    assert dataclasses.asdict(load_config(str(cfg_file))) == values


def _loaded_modules(imports: str, package: str) -> list[str]:
    """The modules of package loaded, sorted, after importing imports in a fresh interpreter."""
    code = f"import json, sys, {imports}; print(json.dumps(sorted(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return [name for name in json.loads(out.stdout) if name.split(".")[0] == package]


def test_cli_import_loads_no_scipy():
    # the import floor of every run: the eigensolves run on numpy's own
    # LAPACK, and importing scipy.linalg would more than double the start-up
    assert _loaded_modules("hardylab.cli", "scipy") == []


def test_module_import_loads_only_its_dependencies():
    # the package re-exports nothing, so importing one module by name loads
    # that module and what it imports, not the whole package
    assert _loaded_modules("hardylab.spectral", "hardylab") == [
        "hardylab", "hardylab.bessel", "hardylab.errors", "hardylab.lapack", "hardylab.spectral"]


def test_seed_and_out_flags(tmp_path, monkeypatch):
    env_root = tmp_path / "env_root"
    monkeypatch.setenv("LAB_OUT", str(env_root))
    code = main(["titchmarsh", "--out", str(tmp_path / "ignored"), "--seed", "3"])
    assert code == 0
    assert env_root.exists()  # LAB_OUT overrides --out
    outdir = find_run_dir(env_root, "titchmarsh")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3


def test_negative_seed_flag_rejected_before_output(tmp_path, capsys):
    out_root = tmp_path / "out"
    assert main(["all", "--out", str(out_root), "--seed", "-1"]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config" and "seed" in payload["message"]
    assert not out_root.exists()


def test_determinism_of_csv_bodies(tmp_path):
    cfg = light_config()
    for sub in ("spectrum", "titchmarsh", "hum"):
        root1 = tmp_path / f"{sub}_a"
        root2 = tmp_path / f"{sub}_b"
        assert run(sub, cfg, root1) == 0
        assert run(sub, cfg, root2) == 0
        m1 = json.loads((find_run_dir(root1, sub) / "manifest.json").read_text())
        m2 = json.loads((find_run_dir(root2, sub) / "manifest.json").read_text())
        assert m1["digests"] == m2["digests"]


def test_check_flag_fails_on_breach(tmp_path):
    # the kernel residual ratio check is red at the default truncation
    code = run("kernel", light_config(), tmp_path, check=True)
    assert code == 1
    outdir = find_run_dir(tmp_path, "kernel")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["checks"]["kernel_residual_ratio"] is False
    assert manifest["checks"]["kernel_boundary_exact"] is True


def test_failing_stage_leaves_no_output_directory(tmp_path, monkeypatch):
    def broken(cfg, outdir):
        (outdir / "partial.csv").write_text("t\n")
        raise OSError("stage failed")   # not a numerical failure: it propagates

    monkeypatch.setitem(cli._RUNNERS, "hardy", broken)
    out_root = tmp_path / "out"
    with pytest.raises(OSError, match="stage failed"):
        run("all", light_config(), out_root)
    assert list(out_root.iterdir()) == []


def test_output_root_under_a_regular_file_exits_2_before_any_stage(tmp_path, capsys,
                                                                   monkeypatch):
    # a root without write permission is not tested: a superuser may write anywhere
    def refuse(lab, outdir):
        raise AssertionError("a stage ran")

    monkeypatch.delenv("LAB_OUT", raising=False)
    monkeypatch.setitem(cli._RUNNERS, "spectrum", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_root = blocker / "sub"
    assert main(["spectrum", "--out", str(out_root)]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid_config" and str(out_root) in payload["message"]
    assert blocker.is_file() and blocker.read_text() == ""
    assert list(tmp_path.iterdir()) == [blocker]


def test_completed_run_leaves_only_the_stamped_directory(tmp_path):
    assert run("spectrum", light_config(), tmp_path) == 0
    (outdir,) = tmp_path.iterdir()
    assert outdir.name.startswith("spectrum-")
    assert (outdir / "manifest.json").exists()


@pytest.fixture(scope="module")
def all_run(tmp_path_factory):
    """One 'all' run at the light config with every runner wrapped as the
    benchmark harness wraps cli._RUNNERS: (exit code, the runners' return
    values, the printed summary, the manifest)."""
    returned = {}
    runners = dict(cli._RUNNERS)

    def keeper(stage, runner):
        def keep(cfg, outdir):
            returned[stage] = runner(cfg, outdir)
            return returned[stage]
        return keep

    cli._RUNNERS.update({stage: keeper(stage, r) for stage, r in runners.items()})
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            code = run("all", light_config(), tmp_path_factory.mktemp("all"))
    finally:
        cli._RUNNERS.update(runners)
    summary = json.loads(printed.getvalue().splitlines()[-1])
    manifest = json.loads((Path(summary["outdir"]) / "manifest.json").read_text())
    return code, returned, summary, manifest


def test_manifest_keeps_stage_reports_and_times(all_run):
    code, _, _, manifest = all_run
    assert code == 0
    assert list(manifest["reports"]) == sorted(cli._RUNNERS)
    assert list(manifest["stage_seconds"]) == sorted(cli._RUNNERS)
    assert all(seconds >= 0.0 for seconds in manifest["stage_seconds"].values())
    assert len(manifest["checks"]) == 31
    identity = manifest["check_details"]["hum_defect_identity"]
    assert identity["value"] == manifest["reports"]["hum"]["identity_gap"]
    if cli.resource is None:
        assert "stage_max_rss_mb" not in manifest
        return
    # each stage's resident-set high-water mark in MiB: a python process with
    # numpy holds tens of MiB, and the mark never falls from stage to stage
    assert list(manifest["stage_max_rss_mb"]) == sorted(cli._RUNNERS)
    marks = [manifest["stage_max_rss_mb"][name] for name in cli._RUNNERS]
    now = cli.resource.getrusage(cli.resource.RUSAGE_SELF).ru_maxrss
    now /= 2**20 if sys.platform == "darwin" else 2**10
    assert 10.0 < marks[0] and marks[-1] <= now < 10_000.0
    assert marks == sorted(marks)


def test_manifest_omits_the_rss_marks_without_resource(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "resource", None)
    assert run("spectrum", light_config(), tmp_path) == 0
    manifest = json.loads((find_run_dir(tmp_path, "spectrum") / "manifest.json").read_text())
    assert "stage_max_rss_mb" not in manifest and list(manifest["stage_seconds"]) == ["spectrum"]


def test_hardy_sweep_is_the_stream_of_one_row_draws():
    n = 64
    m = cli.measure_hardy(n, np.random.default_rng(3))
    rng, grid = np.random.default_rng(3), spc.RadialGrid(n)
    assert m["ratios"].tolist() == [spc.hardy_rayleigh(grid, rng.standard_normal(n))
                                    for _ in range(1000)]


def test_manifest_records_the_library_versions(tmp_path, all_run):
    _, _, _, manifest = all_run
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__, "lapack": lapack.LIBRARY,
                                    "blas": [name for name, _, _ in cli._openblas_libraries()]}
    # a repeated run under the same versions digests identically
    assert run("all", light_config(), tmp_path) == 0
    again = json.loads((find_run_dir(tmp_path, "all") / "manifest.json").read_text())
    assert again["versions"] == manifest["versions"]
    assert again["digests"] == manifest["digests"]


@pytest.fixture
def openblas_at_two_threads():
    """Every loaded OpenBLAS at two threads for the test, then as before."""
    libraries = cli._openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS library is loaded")
    before = [getter() for _, getter, _ in libraries]
    for _, _, setter in libraries:
        setter(2)
    yield libraries
    for (_, _, setter), count in zip(libraries, before):
        setter(count)


def _blas_threads(libraries) -> list[int]:
    return [getter() for _, getter, _ in libraries]


def test_stages_run_on_one_openblas_thread(tmp_path, monkeypatch, openblas_at_two_threads):
    seen = []

    def probe(cfg, outdir):
        seen.append(_blas_threads(openblas_at_two_threads))
        return {}, {}

    monkeypatch.setitem(cli._RUNNERS, "spectrum", probe)
    assert run("spectrum", light_config(), tmp_path) == 0
    assert seen == [[1] * len(openblas_at_two_threads)]
    assert _blas_threads(openblas_at_two_threads) == [2] * len(openblas_at_two_threads)
    manifest = json.loads((find_run_dir(tmp_path, "spectrum") / "manifest.json").read_text())
    assert manifest["versions"]["blas"] == [name for name, _, _ in openblas_at_two_threads]


def test_openblas_threads_restored_after_a_stage_fails(tmp_path, monkeypatch,
                                                      openblas_at_two_threads):
    seen = []

    def broken(cfg, outdir):
        seen.append(_blas_threads(openblas_at_two_threads))
        raise ValueError("no convergence")

    monkeypatch.setitem(cli._RUNNERS, "hardy", broken)
    with pytest.raises(cli.StageFailure):
        run("hardy", light_config(), tmp_path)
    assert seen == [[1] * len(openblas_at_two_threads)]
    assert _blas_threads(openblas_at_two_threads) == [2] * len(openblas_at_two_threads)


def test_manifest_names_no_blas_when_none_is_found(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_openblas_libraries", lambda: [])
    assert run("titchmarsh", light_config(), tmp_path) == 0
    manifest = json.loads((find_run_dir(tmp_path, "titchmarsh") / "manifest.json").read_text())
    assert manifest["versions"]["blas"] == []


def test_uniqueness_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at the default config an unpinned two-thread OpenBLAS moves the
    # certificate's reconstruction_error in its last bits
    src = str(Path(cli.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        env.pop("LAB_OUT", None)
        out = subprocess.run([sys.executable, "-m", "hardylab", "uniqueness",
                              "--out", str(tmp_path / threads)],
                             capture_output=True, text=True, check=True, env=env)
        outdir = Path(json.loads(out.stdout.splitlines()[-1])["outdir"])
        digests.append({name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                        for name in ("certificate.json", "observability.json")})
    assert digests[0] == digests[1]


def test_runner_contract_matches_manifest(all_run):
    # what the benchmark harness reads: (checks, report) per stage, reports
    # as saved in the manifest, and the printed checks equal to the manifest's
    _, returned, summary, manifest = all_run
    assert sorted(returned) == sorted(cli._RUNNERS) and len(returned) == 10
    names = []
    for stage, result in returned.items():
        assert isinstance(result, tuple) and len(result) == 2
        checks, report = result
        names += checks
        assert {name: bool(ok) for name, ok in checks.items()} == {
            name: manifest["checks"][name] for name in checks}
        assert json.loads(json.dumps(report, default=cli._json_default)) == manifest["reports"][stage]
    assert sorted(names) == sorted(manifest["checks"])
    assert summary["checks"] == manifest["checks"]


def test_manifest_records_the_sizes_each_stage_used(all_run):
    _, _, _, manifest = all_run
    cfg = light_config()
    basis = {"radial_nodes": cfg.n_interior, "modes": cfg.k_modes}
    observed = {**basis, "mask_nodes": cli.Lab(cfg, []).mask.n_nodes}
    table_order = max(cfg.k_trunc, cfg.transform_k_trunc) + 1
    kernel = {"tau_nodes": cfg.tau_steps + 1, "table_order": table_order}
    assert {stage: report["sizes"] for stage, report in manifest["reports"].items()} == {
        "spectrum": {**basis, "modes": cfg.spectrum_modes},
        "hardy": {"radial_nodes": cfg.n_interior, "rayleigh_vectors": 1000},
        "evolve": {**observed, "time_steps": cfg.time_steps},
        "kernel": {**kernel, "t_nodes": cfg.kernel_t_nodes, "k_trunc": cfg.k_trunc},
        "transform": {**basis, **kernel, "t_nodes": cfg.transform_t_nodes,
                      "k_trunc": cfg.transform_k_trunc},
        "uniqueness": {**observed, "obs_time_steps": cfg.obs_time_steps,
                       "certificate_time_steps": cfg.tau_steps,
                       "ucp_window_nodes": cli.UCP_WINDOW_NODES},
        "angular": {"angular_nodes": cfg.n_ang, "spectrum_rows": 32},
        "hum": {**observed, "verify_steps": cfg.hum_verify_steps, "sample_times": 201},
        "inverse-source": {"radial_nodes": cfg.n_interior, "modes": 6,
                           "recon_steps": cfg.recon_steps, "identity_steps": cfg.inverse_steps},
        "titchmarsh": {"steps": 2 * cfg.recon_steps, "pairs": 20},
    }


def _artifact_digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.iterdir()
            if p.name != "manifest.json"}


def test_each_stage_writes_alone_what_it_writes_in_all(tmp_path, all_run):
    # the objects the stages share leave no stage depending on those before it
    _, _, summary, _ = all_run
    alone = {}
    for stage in cli._RUNNERS:
        assert run(stage, light_config(), tmp_path / stage) == 0
        alone.update(_artifact_digests(find_run_dir(tmp_path / stage, stage)))
    assert alone == _artifact_digests(Path(summary["outdir"]))


_COMPARATORS = {
    "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt, "==": operator.eq,
    "open_interval": lambda value, bound: bound[0] < value < bound[1],
}


def test_check_details_record_value_comparator_bound(all_run):
    _, _, _, manifest = all_run
    details = manifest["check_details"]
    assert sorted(details) == sorted(manifest["checks"]) == sorted(cli.CHECKS)
    for name, detail in details.items():
        assert set(detail) == {"value", "comparator", "bound", "pass"}
        assert detail["pass"] is manifest["checks"][name]
        compare = _COMPARATORS[detail["comparator"]]
        assert detail["pass"] == compare(detail["value"], detail["bound"])
        _, comparator, bound = cli.CHECKS[name]
        assert detail["comparator"] == comparator
        assert detail["bound"] == (list(bound) if isinstance(bound, tuple) else bound)
