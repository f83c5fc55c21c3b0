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
import re
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hardylab import cli
from hardylab import evolution as evo
from hardylab import flatness as fla
from hardylab import inverse as inv
from hardylab import lapack
from hardylab import spectral as spc
from hardylab.cli import LabConfig, load_config, main, run, validate_config
from hardylab.elliptic import IllPosedTruncationError


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


_FIELDS = {f.name for f in dataclasses.fields(LabConfig)}


def test_every_config_field_is_read():
    # a LabConfig field that no stage reads configures nothing; the records of what
    # each stage reads are checked against its runs by test_stage_records_name_the_fields_read
    assert set().union(*(stage.reads for stage in cli._STAGES.values())) == _FIELDS


def test_readme_config_table_names_the_stages_that_read_each_field():
    # the last column of each field's row in the README's configuration table
    readme = Path(cli.__file__).resolve().parents[2] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        cells = line.strip().strip("|").split("|")
        if line.startswith("| `") and cells[0].strip().strip("`") in _FIELDS:
            rows[cells[0].strip().strip("`")] = set(re.findall(r"`([\w-]+)`", cells[-1]))
    assert rows == {field: {name for name, stage in cli._STAGES.items() if field in stage.reads}
                    for field in _FIELDS}


class _Recording(LabConfig):
    """A LabConfig that records the name of each field read from it."""

    def __getattribute__(self, name):
        if name in _FIELDS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("stage", list(cli._STAGES))
def test_stage_records_name_the_fields_read(tmp_path, stage):
    # the fields a stage's record lists are those its run reads, through the Lab or
    # directly, and validation of that stage alone reads none besides them
    cfg = _Recording(**dataclasses.asdict(light_config()))
    cfg.read = set()
    validate_config(cfg, stage)
    validated, cfg.read = cfg.read, set()
    with lapack.one_blas_thread():   # on a Lab that validation has not built into
        cli._RUNNERS[stage](cli.Lab(cfg, [stage]), tmp_path)
    assert validated <= cli._STAGES[stage].reads == cfg.read


# ---------------------------------------------------------------------------
# the exit-code contract: one table of probes and one test body that runs them

class Probe(NamedTuple):
    """`hardylab <subcommand> --check --config <a file holding config, or none if None> <argv>`
    exits code, and prints a message holding expect (exits 2 and 3: a fragment only the probed
    rule writes) or fails exactly the checks in expect (exits 0 and 1).  case is the id of the
    test node that runs the row: a test name, then [parameters] if it has any."""

    case: str
    subcommand: str
    config: str | None
    code: int
    expect: str | set | frozenset = frozenset()
    argv: tuple = ()


_KERNEL_FLOOR = fla.HORIZON_RANGE[0]
_BELOW_FLOOR = math.nextafter(_KERNEL_FLOOR, 0.0)


def _phase_ceiling(lam: float) -> float:
    """The largest horizon whose phases exp(i mu t) validation accepts for a stage that
    solves at lam on the default grid: DBL_MAX over the radial operator's infinity norm."""
    op = spc.assemble_hardy_operator(spc.RadialGrid(LabConfig().n_interior), lam, 3)
    return sys.float_info.max / spc.tridiagonal_norm(op.diagonal, op.offdiagonal)


_PHASE_CEILING = _phase_ceiling(0.0)   # at the default lam, the least coupling 'all' solves
_NARROW_MASK = "mask_a = 0.3\nmask_b = 0.3015\n"   # one node of the default 800-node grid
_INVERSE_IDENTITIES = {"inverse_factorization_identity", "inverse_convolution_identity",
                       "inverse_free_evolution", "inverse_reduction_agreement", "inverse_roundtrip"}
_HUM_QUADRATURE = {"hum_defect_identity", "hum_defect_decreasing"}   # ROADMAP item 3
_NODELESS_MASK = "mask_a = 0.9999\nmask_b = 0.99995\n"   # no node of the default grid

PROBES = [
    Probe("test_supercritical_coupling_exit_code", "spectrum", "lam = 0.3\n", 3,
          "lambda_star(3) = 0.25"),
    Probe("test_invalid_config_exit_code", "spectrum", "no_such_key = 1\n", 2,
          "unknown key 'no_such_key'"),
    *(Probe(f"test_removed_tolerance_keys_are_unknown[{key}]", "spectrum", f"{key} = 1e-3\n", 2,
            f"unknown key {key!r}") for key in ("tol_eigen_residual", "tol_oracle_rel")),
    Probe("test_missing_config_file_exit_code", "spectrum", None, 2, "cannot read"),
    # a key given twice is refused, not settled by its last line
    Probe("test_config_key_given_twice_exit_code", "titchmarsh",
          "horizon = 2\n# comment line\nhorizon = 3\n", 2,
          ":3: horizon given again, first on line 1"),
    *(Probe(f"test_malformed_config_line_exit_code[{line}-{says}]", "spectrum",
            f"# comment line\n{line}\n", 2, f":2: {says}")
      for line, says in (("n_interior 300", "expected 'key = value'"),
                         ("n_interior = many", "bad value for n_interior: 'many'"))),
    *(Probe(f"test_oracle_range_rejected_before_output[{text}]", "spectrum", text, 2,
            f"nu <= {cli.MAX_BESSEL_ORDER:g}") for text in ("dimension_n = 11\n", "lam = -12\n")),
    # each stage's coupling rules apply at the coupling it solves: inverse-source solves at
    # INVERSE_LAM = 3/16, where dimension 11 gives nu = 4.48, whatever lam is (nu = 2.87 at 12)
    *(Probe(f"test_oracle_range_at_the_coupling_each_stage_solves[{stage}]", stage,
            "dimension_n = 11\nlam = 12\n", 2, "Bessel order nu = 4.47912 at the coupling 0.1875")
      for stage in ("inverse-source", "all")),
    # the three-point scheme's error grows with the mode number: on the default
    # grid 88 modes pass and 89 to 800 fail (J_0.5 has 19 zeros below 60)
    *(Probe(f"test_spectrum_modes_up_to_n_interior_run[{text}]", "spectrum", text, code, failing)
      for text, code, failing in (("spectrum_modes = 25\n", 0, set()),
                                  ("spectrum_modes = 88\n", 0, set()),
                                  ("spectrum_modes = 89\n", 1, {"spectrum_oracle_rel_err"}),
                                  ("spectrum_modes = 800\n", 1, {"spectrum_oracle_rel_err"}))),
    *(Probe("test_spectrum_modes_above_n_interior_rejected_before_output", stage,
            "n_interior = 8\nspectrum_modes = 10\n", 2, "spectrum_modes must lie in [1,")
      for stage in ("spectrum", "all")),
    *(Probe(f"test_empty_mask_rejected_before_output[{stage}-{text}]", stage, text, 2, says)
      for stage in ("uniqueness", "hum", "evolve") for text, says in (
          ("mask_a = 0.0\nmask_b = 0.001\n", "interval contains no grid nodes"),
          ("mask_kind = cantor\nmask_a = 0.5\nmask_b = 0.504\n", "shorter than 4 grid spacings"))),
    # hum and evolve sample the mask at their own sizes
    *(Probe(f"test_mask_too_narrow_for_uniqueness_rejected_before_output[{text}]", stage,
            _NARROW_MASK + text, code, says if code else set())
      for text, says in (("obs_time_steps = 1\n", "fewer samples than k_modes = 8"),
                         ("k_modes = 40\n", "fewer samples than k_modes = 40"),
                         ("k_modes = 20\n", "fewer samples than 2 k_modes = 40"))
      for stage, code in (("uniqueness", 2), ("all", 2), ("hum", 0), ("evolve", 0))),
    *(Probe(f"test_non_finite_floats_rejected_before_output[{field}-{template}-{value}]", "all",
            f"{field} = {template.format(value)}\n", 2,
            "eps_list entries must be finite" if field == "eps_list" else f"{field} must be finite")
      for field, template in (("lam", "{}"), ("horizon", "{}"), ("mask_a", "{}"),
                              ("mask_b", "{}"), ("eps_list", "1e-1, {}"), ("eps_list", "{}, 1e-1"))
      for value in ("nan", "inf", "-inf")),
    # the hum checks compare successive penalties, so one penalty leaves them no value
    Probe("test_one_penalty_rejected_before_output", "hum", "eps_list = 1e-3\n", 2,
          "eps_list needs at least two penalties"),
    *(Probe(f"test_short_grids_rejected_before_output[{field} = {value}\n]", "all",
            f"{field} = {value}\n", 2, f"{field} must be {least}")
      for field, value, least in (
          ("transform_t_nodes", 1, "at least 3"), ("transform_t_nodes", 2, "at least 3"),
          ("tau_steps", 1, "at least 2"), ("recon_steps", 13, "at least 14"),
          ("time_steps", 0, "at least 1"), ("obs_time_steps", 0, "at least 1"),
          ("hum_verify_steps", 0, "at least 1"),
          ("kernel_t_nodes", 0, "at least 2"), ("kernel_t_nodes", 1, "at least 2"),
          ("seed", -1, "non-negative"))),
    Probe("test_negative_seed_flag_rejected_before_output", "all", "", 2,
          "seed must be non-negative", ("--seed", "-1")),
    Probe("test_validate_config_rules", "all", "lam = 0.25\n", 3, "is not subcritical"),
    *(Probe("test_validate_config_rules", "all", text, 2, says) for text, says in (
        ("dimension_n = 2\n", "dimension_n must be a positive integer != 2"),
        ("mask_a = 0.9\nmask_b = 0.2\n", "observation mask: invalid interval"),
        ("eps_list = 1e-3, 1e-2\n", "eps_list must be strictly decreasing"),
        ("eps_list = -1e-3\n", "eps_list needs at least two penalties"),
        ("eps_list = 1e-1, -1e-3\n", "eps_list entries must be positive"),
        ("k_trunc = 50\n", "k_trunc must lie in (0, "),
        ("transform_k_trunc = 0\n", "transform_k_trunc must lie in (0, "),
        (f"transform_k_trunc = {fla.MAX_TRUNCATION + 1}\n", "transform_k_trunc must lie in (0, "),
        ("n_interior = 4\n", "n_interior must be at least"),
        ("n_ang = 63\n", "n_ang must be at least"),
        ("inverse_steps = 1\n", "inverse_steps must be at least 2"),
        ("horizon = 0.0\n", "horizon must be positive"),
        ("mask_kind = annulus\n", "mask_kind must be 'interval' or 'cantor'"))),
    # a stage is refused only on the fields it reads: hardy, angular, titchmarsh and kernel
    # read neither lam, k_modes nor the mask, and neither kernel nor transform reads the
    # other's truncation; each runs as at the default config
    *(Probe(f"test_stages_run_on_fields_they_do_not_read[{stage}-{text}]", stage, text, code,
            failing) for text, stages in (
                ("lam = 1.0\n", ("hardy", "angular", "titchmarsh", "kernel")),
                ("k_modes = 5000\n", ("hardy",)), (_NODELESS_MASK, ("kernel",)),
                ("transform_k_trunc = 0\n", ("kernel",)), ("k_trunc = 50\n", ("transform",)))
      for stage, code, failing in (
          ("hardy", 1, {"hardy_pencil_in_range"}), ("angular", 0, set()), ("titchmarsh", 0, set()),
          ("kernel", 1, {"kernel_residual_ratio"}), ("transform", 0, set())) if stage in stages),
    *(Probe(f"test_stages_reading_a_field_refuse_it[{stage}-{text}]", stage, text, code, says)
      for stage, text, code, says in (
          ("spectrum", "lam = 1.0\n", 3, "lambda_star(3) = 0.25"),
          ("all", "lam = 1.0\n", 3, "lambda_star(3) = 0.25"),
          ("all", "k_modes = 5000\n", 2, "k_modes must lie in [1, n_interior], got 5000"),
          ("all", _NODELESS_MASK, 2, "observation mask: interval contains no grid nodes"))),
    # kernel and transform: a horizon below flatness.HORIZON_RANGE, where the smallest
    # contour radius raised to the table's top order underflows
    *(Probe(f"test_short_horizon_rejected_before_output[{stage}-{_BELOW_FLOOR!r}]", stage,
            f"horizon = {_BELOW_FLOOR!r}\n", 2, "outside the bump's range")
      for stage in ("kernel", "transform", "all")),
    # one bump shape at every horizon: both checks pass at long horizons, and below
    # T = 1 the truncated series fails faithfully, since psi^(k) grows like T^-k
    *(Probe(f"test_kernel_and_transform_check_across_horizons[{stage}-{horizon!r}]", stage,
            f"horizon = {horizon!r}\n", code, {check} if code else set())
      for stage, check in (("kernel", "kernel_residual_ratio"), ("transform", "transform_residual"))
      for horizon, code in ((2.0, 0), (3.0, 0), (1000.0, 0), (0.5, 1), (0.3, 1),
                            (_KERNEL_FLOOR, 1))),
    # where mu_8 dt = (8 pi)^2 horizon / tau_steps nears 2 pi, the tau grid samples the
    # top mode's phase as nearly constant: a resolution failure a finer grid removes
    *(Probe(f"test_transform_phase_resonance_with_the_tau_grid[{text}]", "transform", text, code,
            failing) for text, code, failing in (
                ("horizon = 10.2\n", 1, {"transform_residual"}),
                ("horizon = 10.2\ntau_steps = 2048\n", 0, set()))),
    # the kernel forms no phase: every finite horizon runs
    *(Probe(f"test_kernel_check_passes_at_long_horizons[{horizon!r}]", "kernel",
            f"horizon = {horizon!r}\n", 0) for horizon in (1e300, sys.float_info.max)),
    # the stages that form exp(i mu t) run up to the phase ceiling of the coupling they
    # solve and refuse past it; transform's tau grid no longer resolves the phases there
    *(Probe(f"test_stages_run_at_the_phase_ceiling[{stage}]", stage,
            f"horizon = {_PHASE_CEILING!r}\n", code, failing)
      for stage, code, failing in (
          ("evolve", 0, set()), ("uniqueness", 0, set()), ("hum", 1, _HUM_QUADRATURE),
          ("transform", 1, {"transform_residual", "transform_moment_consistency"}))),
    *(Probe(f"test_horizon_past_the_phase_ceiling_rejected_before_output[{stage}]", stage,
            f"horizon = {horizon!r}\n", 2, "overflows the phases exp(i mu t)")
      for stage in ("evolve", "transform", "uniqueness", "hum", "inverse-source", "all")
      for horizon in (math.nextafter(_phase_ceiling(cli.INVERSE_LAM if stage == "inverse-source"
                                                    else 0.0), math.inf), sys.float_info.max)),
    # titchmarsh runs from a normal step horizon / recon_steps to a finite 2 * horizon
    *(Probe(f"test_titchmarsh_check_passes_at_extreme_horizons[{horizon!r}]", "titchmarsh",
            f"horizon = {horizon!r}\n", 0)
      for horizon in (1e-9, 1e300, math.nextafter(2.0**1023, 0.0))),
    *(Probe(f"test_titchmarsh_horizon_outside_its_range_rejected_before_output[{horizon!r}]",
            "titchmarsh", f"horizon = {horizon!r}\n", 2, "recon_steps, got horizon")
      for horizon in (2.0**1023, 1e-311, 5e-324)),
    # the Gramian never forms horizon**2, and the other stages read it only as a time
    Probe("test_hum_at_a_huge_horizon_runs_without_numpy_warnings", "hum", "horizon = 1e200\n",
          1, _HUM_QUADRATURE),
    *(Probe(f"test_stages_run_at_horizon_1e300[{stage}]", stage, "horizon = 1e300\n", code, failing)
      for stage, code, failing in (("evolve", 0, set()), ("uniqueness", 0, set()),
                                   ("hum", 1, _HUM_QUADRATURE))),
    # at the default 10,000 steps the convolution identity's O(dt^2) error crosses its
    # bound near horizon 2.30021 (20,000 steps pass at 3); from 1e100 to the Duhamel-Volterra
    # chain's ceiling every identity fails
    *(Probe(f"test_inverse_source_check_at_long_horizons[{text}]", "inverse-source", text, code,
            failing) for text, code, failing in (
                ("horizon = 2.3\n", 0, set()),
                ("horizon = 2.31\n", 1, {"inverse_convolution_identity"}),
                ("horizon = 3\ninverse_steps = 20000\n", 0, set()),
                ("horizon = 10\n", 1, {"inverse_convolution_identity", "inverse_free_evolution"}),
                ("horizon = 1e100\n", 1, _INVERSE_IDENTITIES),
                (f"horizon = {inv.HORIZON_CEILING!r}\n", 1, _INVERSE_IDENTITIES))),
    # past the ceiling the chain's T^3 intermediate would overflow (from about 3.4e103);
    # the phase ceiling of inverse-source's coupling lies above the default one
    *(Probe(f"test_horizon_past_the_chain_ceiling_rejected_before_output[{horizon!r}]",
            "inverse-source", f"horizon = {horizon!r}\n", 2, "inverse.HORIZON_CEILING")
      for horizon in (math.nextafter(inv.HORIZON_CEILING, math.inf), 1e105, 1e200,
                      _PHASE_CEILING)),
]

_ERRORS = {2: "invalid_config", 3: "supercritical_coupling"}


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def _main(root: Path, probe: Probe) -> int:
    root.mkdir()
    if probe.config is not None:
        (root / "probe.cfg").write_text(probe.config)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main([probe.subcommand, "--check", "--config", str(root / "probe.cfg"),
                     "--out", str(root / "out"), *probe.argv])


def _probe_test(cases: dict[str, list[Probe]]):
    """A test with one node per case, which runs its rows; unparametrized if its case is."""
    def test(tmp_path, capsys, probes):
        for i, probe in enumerate(probes):
            code, out_root = _main(tmp_path / str(i), probe), tmp_path / str(i) / "out"
            printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert code == probe.code, printed
            if code >= 2:
                assert printed["error"] == _ERRORS[code] and probe.expect in printed["message"]
                assert not out_root.exists()
                continue
            assert {name for name, ok in printed["checks"].items() if not ok} == probe.expect
            paths = sorted(Path(printed["outdir"]).glob("*.json"))
            assert Path(printed["outdir"]) / "manifest.json" in paths
            for path in paths:
                json.loads(path.read_text(), parse_constant=_reject_constant)
    if list(cases) == [""]:
        return lambda tmp_path, capsys: test(tmp_path, capsys, cases[""])
    return pytest.mark.parametrize("probes", list(cases.values()), ids=list(cases))(test)


# one test per name in the case ids, so a probe that was once its own test keeps its id
_CASES = {}   # test name: {parameters: rows}
for _probe in PROBES:
    _name, _, _params = _probe.case.partition("[")
    _CASES.setdefault(_name, {}).setdefault(_params.removesuffix("]"), []).append(_probe)
globals().update({name: _probe_test(cases) for name, cases in _CASES.items()})


def test_every_config_rule_is_reached_by_a_probe(tmp_path, monkeypatch):
    # each raise ConfigError of cli.py but run's (the output root, which has its own test)
    # and each single-field rule of validate_config is an exit-2 row's
    reached, messages = set(), []

    class Traced(cli.ConfigError):
        def __init__(self, message):
            super().__init__(message)
            reached.add(sys._getframe(1).f_lineno)
            messages.append(message)

    monkeypatch.setattr(cli, "ConfigError", Traced)
    for i, probe in enumerate(p for p in PROBES if p.code == 2):
        _main(tmp_path / str(i), probe)
    tree = ast.parse(Path(cli.__file__).read_text())
    sites = [node for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             and func.name != "run" for node in ast.walk(func)
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "ConfigError"]
    assert len(sites) > 10
    assert [node.lineno for node in sites
            if not reached & set(range(node.lineno, node.end_lineno + 1))] == []
    assert [(name, refusal) for name, _, refusal in cli._FIELD_RULES
            if not any(m.startswith(f"{name} {refusal}, got ") for m in messages)] == []


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


def test_inverse_convolution_identity_converges_in_the_steps_at_horizon_3(tmp_path):
    # the failure of this identity past T = 2.3 at the default 10,000 steps is a
    # resolution limit, not a horizon ceiling: its error is O(dt^2) or better,
    # and 20,000 steps pass every check at horizon 3
    values = []
    for steps in (10_000, 20_000):
        code = run("inverse-source", LabConfig(horizon=3.0, inverse_steps=steps),
                   tmp_path / str(steps), check=True)
        manifest = json.loads(
            (find_run_dir(tmp_path / str(steps), "inverse-source") / "manifest.json").read_text())
        values.append(manifest["check_details"]["inverse_convolution_identity"]["value"])
    assert code == 0 and all(manifest["checks"].values())
    assert values[0] >= 3.5 * values[1]


@pytest.mark.parametrize("subcommand, overrides", [
    # the largest truncation overflows first, so the floor is run at it
    ("kernel", {"horizon": _KERNEL_FLOOR, "k_trunc": fla.MAX_TRUNCATION}),
    ("transform", {"horizon": _KERNEL_FLOOR, "transform_k_trunc": fla.MAX_TRUNCATION}),
    ("titchmarsh", {"horizon": 1e-9}),   # its bumps scale with the horizon: no floor
    ("uniqueness", {"horizon": 1e-9}),   # builds no kernel: no floor
])
def test_horizon_at_floor_runs(tmp_path, subcommand, overrides):
    assert run(subcommand, light_config(**overrides), tmp_path) == 0


def test_horizon_floor_applies_to_the_stages_run():
    short = light_config(horizon=1e-9)
    for subcommand in ("spectrum", "hardy", "evolve", "uniqueness", "angular", "hum",
                       "inverse-source", "titchmarsh"):
        validate_config(short, subcommand)
    with pytest.raises(cli.ConfigError, match="horizon"):
        validate_config(short)   # one argument: every stage, as 'all'


def _titchmarsh_table(tmp_path, horizon: float) -> tuple[np.ndarray, float]:
    """titchmarsh.csv of a light run at horizon as floats, and its additivity value."""
    out_root = tmp_path / repr(horizon)
    assert run("titchmarsh", light_config(horizon=horizon), out_root) == 0
    outdir = find_run_dir(out_root, "titchmarsh")
    manifest = json.loads((outdir / "manifest.json").read_text())
    rows = read_rows(outdir / "titchmarsh.csv")
    assert rows[0] == ["start_a", "start_b", "start_conv", "gap"]
    return (np.array(rows[1:], dtype=float),
            manifest["check_details"]["titchmarsh_additivity"]["value"])


@pytest.mark.parametrize("horizon", [0.125, 0.5, 1024.0])
def test_titchmarsh_table_scales_exactly_with_a_power_of_two_horizon(tmp_path, horizon):
    # every length of the stage is a multiple of the horizon: the bumps' starts
    # and widths, the 2T grid and the convolution's support
    table1, additivity1 = _titchmarsh_table(tmp_path, 1.0)
    table, additivity = _titchmarsh_table(tmp_path, horizon)
    assert np.array_equal(table, horizon * table1)
    assert additivity == additivity1


@pytest.mark.parametrize("subcommand", ["kernel", "transform"])
def test_long_horizon_with_the_default_tau_grid_runs(tmp_path, subcommand):
    assert run(subcommand, light_config(horizon=30.0, tau_steps=LabConfig().tau_steps),
               tmp_path) == 0


@pytest.mark.parametrize("subcommand", ["kernel", "transform"])
# 2.07e77 = 4 (DBL_MAX/25)^(1/4) was the ceiling of the bump whose shape changed with
# the horizon: there its contour's (T - z) z squared overflowed
@pytest.mark.parametrize("horizon", [1e10, 2.0713518623308863e+77])
def test_long_horizon_runs_without_numpy_warnings(tmp_path, subcommand, horizon):
    # r^k in derivative_table overflows from T = 4 DBL_MAX^(1/41) = 1.3e8 on
    # at the table's top order 41, and the entries divide to exact zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(subcommand, light_config(horizon=horizon), tmp_path) == 0


@settings(max_examples=50, deadline=None)
@given(st.floats(math.log10(_KERNEL_FLOOR / 10),
                 math.nextafter(math.log10(sys.float_info.max), 0.0)),
       st.sampled_from([2, 16, 1024]))
def test_validated_horizon_gives_a_finite_table(log_horizon, tau_steps):
    # a horizon that validation accepts runs: the largest table any truncation
    # reads is finite
    cfg = LabConfig(horizon=10.0**log_horizon, tau_steps=tau_steps)
    try:
        lab = validate_config(cfg, "kernel")
    except cli.ConfigError:
        return
    table = fla.derivative_table(lab.bump(), lab.tau_grid.times)
    assert np.all(np.isfinite(table))


def test_uniqueness_builds_no_flatness_kernel(tmp_path, monkeypatch):
    # the kernel and the transform are built by their own stages only
    def forbidden(*args, **kwargs):
        raise AssertionError("the uniqueness stage called hardylab.flatness")

    for name, obj in vars(fla).items():
        if inspect.isfunction(obj) and obj.__module__ == fla.__name__:
            monkeypatch.setattr(fla, name, forbidden)
    assert run("uniqueness", light_config(), tmp_path) == 0
    cert = json.loads((find_run_dir(tmp_path, "uniqueness") / "certificate.json").read_text())
    assert set(cert) == {"eta", "sigma_min", "bound", "c0_norm"}


def test_default_all_builds_each_shared_object_once(tmp_path, monkeypatch):
    counts = {}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for module, name in ((spc, "solve_spectrum"), (fla, "gevrey_bump"),
                         (evo, "interval_mask"), (fla, "derivative_table"),
                         (spc, "assemble_hardy_operator")):
        counted(module, name)
    assert run("all", LabConfig(), tmp_path) == 0
    # spectrum_modes and k_modes at lam, k = 6 and k = 1 at lam = 3/16, from one
    # operator per coupling, which the phase ceiling reads too; one derivative
    # table of every order serves the kernel and transform stages
    assert counts == {"solve_spectrum": 4, "gevrey_bump": 1, "interval_mask": 1,
                      "derivative_table": 1, "assemble_hardy_operator": 2}


def test_kernel_and_transform_read_one_table_of_every_order(tmp_path, monkeypatch):
    kernels = {}
    for stage in ("kernel", "transform"):
        measure = getattr(cli, f"measure_{stage}")

        def capture(*args, stage=stage, measure=measure):
            kernels[stage] = next(a for a in args if isinstance(a, fla.FlatnessKernel))
            return measure(*args)
        monkeypatch.setattr(cli, f"measure_{stage}", capture)
        assert run(stage, LabConfig(), tmp_path / stage) == 0
    cfg = LabConfig()
    bump = fla.gevrey_bump(cfg.horizon)
    taus = evo.TimeGrid(cfg.horizon, cfg.tau_steps).times
    table = fla.derivative_table(bump, taus)
    for stage, k_trunc in (("kernel", cfg.k_trunc), ("transform", cfg.transform_k_trunc)):
        kernel = kernels[stage]
        assert np.array_equal(kernel.deriv_table, table)
        alone = fla.build_kernel(bump, kernel.t_nodes, taus, k_trunc)
        assert np.array_equal(kernel.values, alone.values)


@pytest.mark.parametrize("k_trunc", [1, 24, 32, 40])
def test_build_kernel_is_the_stages_kernel(k_trunc):
    # one kernel per truncation, whichever truncation the run's other stage reads
    lab = validate_config(light_config(), "kernel")
    kernel = cli._kernel(lab, k_trunc, lab.cfg.kernel_t_nodes)
    alone = fla.build_kernel(lab.bump(), kernel.t_nodes, lab.tau_grid.times, k_trunc)
    assert np.array_equal(alone.deriv_table, kernel.deriv_table)
    assert np.array_equal(alone.values, kernel.values)


@pytest.mark.parametrize("stage, other, values", [
    ("kernel", "transform_k_trunc", (20, 32, 40)),
    ("transform", "k_trunc", (1, 24, 40)),
])
def test_a_stage_writes_the_same_bytes_at_any_other_truncation(tmp_path, stage, other, values):
    # at the default config: a table summed in one contour product as wide as the
    # orders requested would change its columns' last bits with that width here
    digests = []
    for value in values:
        out_root = tmp_path / str(value)
        assert run(stage, LabConfig(**{other: value}), out_root) == 0
        digests.append(_artifact_digests(find_run_dir(out_root, stage)))
    assert digests[0] and all(d == digests[0] for d in digests)


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
        "hardylab", "hardylab.bessel", "hardylab.lapack", "hardylab.spectral"]


def test_seed_and_out_flags(tmp_path, monkeypatch):
    # --out is the one way to name the output root: no environment variable overrides it
    env_root = tmp_path / "env_root"
    monkeypatch.setenv("LAB_OUT", str(env_root))
    code = main(["titchmarsh", "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == 0
    assert not env_root.exists()
    outdir = find_run_dir(tmp_path / "out", "titchmarsh")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3


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


def test_failing_stage_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    def broken(cfg, outdir):
        (outdir / "partial.csv").write_text("t\n")
        raise OSError("stage failed")   # not a numerical failure: it fails the stage too

    monkeypatch.setitem(cli._RUNNERS, "hardy", broken)
    out_root = tmp_path / "out"
    assert main(["all", "--out", str(out_root)]) == 4
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "stage_failure", "stage": "hardy", "exception": "OSError",
                       "message": "stage failed"}
    assert list(out_root.iterdir()) == []


def test_promoted_runtime_warning_exits_4(tmp_path, capsys, monkeypatch):
    def overflowing(lab, outdir):
        return {}, {"value": np.exp(np.float64(1000.0))}

    monkeypatch.setitem(cli._RUNNERS, "titchmarsh", overflowing)
    out_root = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["titchmarsh", "--out", str(out_root)]) == 4
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["stage"] == "titchmarsh" and payload["exception"] == "RuntimeWarning"
    assert list(out_root.iterdir()) == []


@pytest.mark.parametrize("value, report", [(math.inf, 0.5), (1.0, math.nan)])
def test_non_finite_check_value_or_report_fails_its_stage(tmp_path, capsys, monkeypatch,
                                                          value, report):
    def non_finite(lab, outdir):
        return {"titchmarsh_additivity": value}, {"gap": report}

    monkeypatch.setitem(cli._RUNNERS, "titchmarsh", non_finite)
    out_root = tmp_path / "out"
    assert main(["titchmarsh", "--out", str(out_root)]) == 4
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["stage"] == "titchmarsh"
    assert payload["message"] == ("check/titchmarsh_additivity is inf" if math.isinf(value)
                                  else "report/gap is nan")
    assert list(out_root.iterdir()) == []


def test_output_root_under_a_regular_file_exits_2_before_any_stage(tmp_path, capsys,
                                                                   monkeypatch):
    # a root without write permission is not tested: a superuser may write anywhere
    def refuse(lab, outdir):
        raise AssertionError("a stage ran")

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


def test_all_writes_strict_json(tmp_path, all_run):
    # json.dumps writes inf and nan as the tokens Infinity and NaN, which
    # strict parsers reject; no artifact of the default or the light run holds one
    _, _, summary, _ = all_run
    assert run("all", LabConfig(), tmp_path) == 0
    for outdir in (find_run_dir(tmp_path, "all"), Path(summary["outdir"])):
        paths = sorted(outdir.glob("*.json"))
        assert outdir / "manifest.json" in paths
        for path in paths:
            json.loads(path.read_text(), parse_constant=_reject_constant)


_STAGE_JSON_KEYS = {
    "kernel_residual.json": {"max_residual", "max_kernel", "tail_match_error",
                             "control_trace_sup"},
    "transform_report.json": {"per_mode", "moments_abs"},
    "observability.json": {"mask", "singular_values", "ucp_singular_values", "ucp_condition"},
    "certificate.json": {"eta", "sigma_min", "bound", "c0_norm"},
    # the steps are horizon / recon_steps and horizon / inverse_steps, from the config
    "reconstruction.json": {"lambda", "f_true", "f_recovered", "source_identity_residual"},
}


def test_stage_json_holds_only_what_the_manifest_does_not(tmp_path, all_run):
    # the manifest is the one home of the config and of every check and report value
    _, _, summary, manifest = all_run
    assert run("uniqueness", light_config(), tmp_path) == 0
    alone = find_run_dir(tmp_path, "uniqueness")
    for outdir, names in ((Path(summary["outdir"]), set(_STAGE_JSON_KEYS)),
                          (alone, {"observability.json", "certificate.json"})):
        stage_json = {p.name: json.loads(p.read_text()) for p in outdir.glob("*.json")
                      if p.name != "manifest.json"}
        assert set(stage_json) == names
        for name, data in stage_json.items():
            assert "config" not in data and set(data) == _STAGE_JSON_KEYS[name]
        # the mask's kind is the config's mask_kind
        assert set(stage_json["observability.json"]["mask"]) == {"intervals", "measure"}
    for run_manifest in (manifest, json.loads((alone / "manifest.json").read_text())):
        assert run_manifest["artifact_version"] == cli.ARTIFACT_VERSION == "0.4.0"


def test_defect_curve_csv_leaves_lambda_min_to_the_report(all_run):
    # lambda_min(G) is reports.hum.sigma_min once, not a column repeated on every row
    _, returned, summary, manifest = all_run
    rows = read_rows(Path(summary["outdir"]) / "defect_curve.csv")
    assert rows[0] == ["eps", "defect", "cost"] and len(rows) == 1 + len(LabConfig().eps_list)
    curve = returned["hum"][0]["curve"]
    assert {row["sigma_min"] for row in curve} == {manifest["reports"]["hum"]["sigma_min"]}


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
                                    "blas": list(lapack._BLAS)}
    # a repeated run under the same versions digests identically
    assert run("all", light_config(), tmp_path) == 0
    again = json.loads((find_run_dir(tmp_path, "all") / "manifest.json").read_text())
    assert again["versions"] == manifest["versions"]
    assert again["digests"] == manifest["digests"]


@pytest.fixture
def openblas_at_two_threads():
    """Each OpenBLAS that lapack pins at two threads for the test, then as before."""
    controls = list(lapack._BLAS.values())
    if not controls:
        pytest.skip("lapack reaches no OpenBLAS")
    before = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(2)
    yield controls
    for (_, setter), count in zip(controls, before):
        setter(count)


def _blas_threads(controls) -> list[int]:
    return [getter() for getter, _ in controls]


def test_stages_run_on_one_openblas_thread(tmp_path, monkeypatch, openblas_at_two_threads):
    seen = []

    def probe(cfg, outdir):
        seen.append(_blas_threads(openblas_at_two_threads))
        return {"spectrum_oracle_rel_err": 0.0}, {}

    monkeypatch.setitem(cli._RUNNERS, "spectrum", probe)
    assert run("spectrum", light_config(), tmp_path) == 0
    assert seen == [[1] * len(openblas_at_two_threads)]
    assert _blas_threads(openblas_at_two_threads) == [2] * len(openblas_at_two_threads)
    manifest = json.loads((find_run_dir(tmp_path, "spectrum") / "manifest.json").read_text())
    assert manifest["versions"]["blas"] == list(lapack._BLAS)


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
    monkeypatch.setattr(lapack, "_BLAS", {})
    assert run("titchmarsh", light_config(), tmp_path) == 0
    manifest = json.loads((find_run_dir(tmp_path, "titchmarsh") / "manifest.json").read_text())
    assert manifest["versions"]["blas"] == []


def test_uniqueness_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at the default config an unpinned two-thread OpenBLAS moves the
    # uniqueness_reconstruction check value, which only the manifest holds,
    # in its last bits
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-m", "hardylab", "uniqueness",
                              "--out", str(tmp_path / threads)],
                             capture_output=True, text=True, check=True, env=env)
        outdir = Path(json.loads(out.stdout.splitlines()[-1])["outdir"])
        manifest = json.loads((outdir / "manifest.json").read_text())
        runs.append({**{name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                        for name in ("certificate.json", "observability.json")},
                     **{key: manifest[key] for key in ("check_details", "reports")}})
    assert runs[0] == runs[1]


def test_runner_contract_matches_manifest(all_run):
    # what the benchmark harness reads: (measured, report) per stage, the
    # checks on the stage's record judged on what it measured, reports as
    # saved in the manifest, and the printed checks equal to the manifest's
    _, returned, summary, manifest = all_run
    assert sorted(returned) == sorted(cli._RUNNERS) and len(returned) == 10
    names = []
    for stage, result in returned.items():
        assert isinstance(result, tuple) and len(result) == 2
        measured, report = result
        checks = cli._STAGES[stage].checks
        names += checks
        assert {name: cli.judge(name, measured[name]) for name in checks} == {
            name: manifest["checks"][name] for name in checks}
        assert {name: measured[name] for name in checks} == {
            name: manifest["check_details"][name]["value"] for name in checks}
        assert json.loads(json.dumps(report, default=cli._json_default)) == manifest["reports"][stage]
    assert sorted(names) == sorted(manifest["checks"])
    assert summary["checks"] == manifest["checks"]


def test_each_check_is_defined_on_one_stage_record():
    # CHECKS is the view of the records: a name on two records would be
    # overwritten in it without any error
    assert sum(len(stage.checks) for stage in cli._STAGES.values()) == len(cli.CHECKS) == 31
    for name, (stage, comparator, bound) in cli.CHECKS.items():
        assert comparator in cli._COMPARATORS
        assert cli._STAGES[stage].checks[name] == (comparator, bound)


def test_a_check_the_runner_does_not_measure_fails_its_stage(tmp_path, capsys, monkeypatch):
    def silent(lab, outdir):
        return {}, {}

    monkeypatch.setitem(cli._RUNNERS, "titchmarsh", silent)
    out_root = tmp_path / "out"
    assert main(["titchmarsh", "--out", str(out_root)]) == 4
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "stage_failure", "stage": "titchmarsh", "exception": "KeyError",
                       "message": "'titchmarsh_additivity'"}
    assert list(out_root.iterdir()) == []


def test_manifest_records_the_sizes_each_stage_used(all_run):
    # only counts no config field holds: the fields themselves are under config
    _, _, _, manifest = all_run
    cfg = light_config()
    mask_nodes = cli.Lab(cfg, []).mask.n_nodes
    kernel = {"tau_nodes": cfg.tau_steps + 1}
    assert {stage: report["sizes"] for stage, report in manifest["reports"].items()
            if "sizes" in report} == {
        "hardy": {"rayleigh_vectors": 1000},
        "evolve": {"mask_nodes": mask_nodes},
        "kernel": kernel,
        "transform": kernel,
        "uniqueness": {"mask_nodes": mask_nodes, "ucp_window_nodes": cli.UCP_WINDOW_NODES},
        "angular": {"spectrum_rows": 32},
        "hum": {"mask_nodes": mask_nodes, "sample_times": 201},
        "inverse-source": {"modes": 6},
        "titchmarsh": {"steps": 2 * cfg.recon_steps, "pairs": 20},
    }
    assert "sizes" not in manifest["reports"]["spectrum"]


def test_manifest_names_the_fields_each_stage_read(tmp_path, all_run):
    # the records' reads, for the stages the run ran and no others
    _, _, _, manifest = all_run
    assert manifest["reads"] == {name: sorted(stage.reads) for name, stage in cli._STAGES.items()}
    assert run("kernel", light_config(), tmp_path) == 0
    alone = json.loads((find_run_dir(tmp_path, "kernel") / "manifest.json").read_text())
    assert alone["reads"] == {"kernel": sorted(cli._STAGES["kernel"].reads)}
    # each stage reads its own truncation and not the other's
    assert "transform_k_trunc" not in alone["reads"]["kernel"]
    assert "k_trunc" not in cli._STAGES["transform"].reads


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
        # the verdict is stated once, under checks
        assert set(detail) == {"value", "comparator", "bound"}
        compare = _COMPARATORS[detail["comparator"]]
        assert manifest["checks"][name] is compare(detail["value"], detail["bound"])
        _, comparator, bound = cli.CHECKS[name]
        assert detail["comparator"] == comparator
        assert detail["bound"] == (list(bound) if isinstance(bound, tuple) else bound)
