"""Batch front end: presets, deterministic runs, CSV/JSON artifacts.

Every subcommand writes its tables plus a manifest (config snapshot, the
python, numpy and scipy versions and the OpenBLAS libraries pinned to one
thread, check booleans, each check's value, comparator and bound from
CHECKS, each stage's report of measured values and of the sizes it used, its
wall seconds, sha256 digests) into a stamped directory under --out
(overridden by the LAB_OUT environment variable); the directory appears
under its stamped name only once the manifest is written.  A CSV table is a
header line, then one line per row with floats as %.17g and other values as
str, comma-separated and unquoted, every line ending in CRLF.  The stages run
with every loaded OpenBLAS on one thread, so bodies of the CSV/JSON
artifacts are functions of config and seed only, not of the core count, and
repeated runs digest identically.

Exit codes: 0 success, 1 tolerance breach under --check, 2 invalid
configuration (among others a non-finite lam, horizon, mask_a, mask_b or
eps_list entry, a Bessel order nu = sqrt(lambda_star - lam) above
MAX_BESSEL_ORDER, spectrum_modes or k_modes above n_interior, an observation
mask without grid nodes, a horizon below a stage's HORIZON_FLOORS entry, a
tau grid that flatness.guard_band refuses for kernel and transform, for
uniqueness a mask whose samples are fewer than the unknowns of its
observability or UCP map, or an output root under which the run directory
cannot be created, checked before any stage runs), 3 supercritical
coupling, 4 a stage failed on a configuration that passed validation: it
raised ValueError, RuntimeError (which covers IllPosedTruncationError, a
failed eigenpair residual and a Gramian that is not positive definite) or
FloatingPointError.  The stage_failure payload names the stage and the
exception class, and no output directory is left.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import platform
import re
import shutil
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import angular as ang
from . import control as ctl
from . import elliptic as ell
from . import evolution as evo
from . import flatness as fla
from . import inverse as inv
from . import spectral as spc
from .errors import SupercriticalCouplingError

ARTIFACT_VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


class StageFailure(Exception):
    """A stage raised one of _STAGE_ERRORS on a configuration that passed validation."""

    def __init__(self, stage: str, error: Exception):
        self.stage = stage
        self.exception = type(error).__name__
        super().__init__(str(error))


# failures a stage can raise on a validated configuration; they exit 4
_STAGE_ERRORS = (ValueError, RuntimeError, FloatingPointError)


@dataclass
class LabConfig:
    """Run configuration; serialized verbatim into every manifest."""

    dimension_n: int = 3
    lam: float = 0.0
    n_interior: int = 800
    n_ang: int = 512
    time_steps: int = 400
    horizon: float = 1.0
    k_modes: int = 8
    k_trunc: int = 24
    transform_k_trunc: int = 32
    transform_t_nodes: int = 4001
    kernel_t_nodes: int = 201
    tau_steps: int = 1024
    spectrum_modes: int = 5
    mask_kind: str = "interval"
    mask_a: float = 0.3
    mask_b: float = 0.6
    obs_time_steps: int = 32
    eps_list: tuple = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    hum_verify_steps: int = 200_000
    inverse_steps: int = 10_000
    recon_steps: int = 1000
    seed: int = 0


# the least horizon of each stage that cannot run at every positive one.  The
# kernel's Cauchy sums sample the sigma = 2 bump up to exp(5.76 / T^4) (at
# tau = T/2) and scale the samples by k!/r^k, so for some k_trunc <=
# MAX_TRUNCATION they overflow at T = 0.325 and below (0.3125 and below at
# k_trunc = 24).  The titchmarsh bumps are up to 0.6 T wide and must start in
# [0.05, 0.9 T - width].
HORIZON_FLOORS = {"kernel": 1 / 3, "transform": 1 / 3, "titchmarsh": 1 / 6}

# the largest Bessel order nu = sqrt(lambda_star - lam) a run accepts: the
# range the tests and the benchmark cover.  bessel_zeros has no ceiling, the
# stages do.  Measured with none: the mask (0.05, 0.1) exits 1 at nu = 10 but
# 4 at nu = 14.2 (lam = -200: uniqueness refuses its certificate, sigma_min
# 6.8e-13), the default mask 1 at nu = 100 but 4 at nu = 316 (lam = -1e5),
# and lam = -1e300 would need 1e150 rows of the recurrence matrix.
MAX_BESSEL_ORDER = 3.0


# t nodes of the uniqueness stage's UCP window on [-1, 1]
UCP_WINDOW_NODES = 33


class Lab:
    """What the stages of one run share, each built once: the config, its snapshot, the
    stages, the radial and tau grids and the mask, and on first call the sigma = 2 bump,
    its Cauchy derivative table on the tau grid and the basis of each exact (lam, k),
    never sliced from a larger k's basis, whose first eigenpairs differ in their last
    bits.  The table serves both flatness truncations at the order the config asks of
    either, never at one that depends on the stages run: its bits depend on the order."""

    def __init__(self, cfg: LabConfig, stages: list[str]):
        self.cfg, self.config, self.stages = cfg, dataclasses.asdict(cfg), stages
        self.grid = grid = spc.RadialGrid(cfg.n_interior)
        self.tau_grid = evo.TimeGrid(cfg.horizon, cfg.tau_steps)
        try:
            self.mask = (evo.interval_mask(grid, cfg.mask_a, cfg.mask_b) if cfg.mask_kind == "interval"
                         else evo.fat_cantor_mask(grid, (cfg.mask_a, cfg.mask_b)))
        except ValueError as exc:
            raise ConfigError(f"observation mask: {exc}") from exc
        self.bump = functools.cache(lambda: fla.gevrey_bump(cfg.horizon, 2.0))
        self.table = functools.cache(lambda: fla.derivative_table(
            self.bump(), self.tau_grid.times, max(cfg.k_trunc, cfg.transform_k_trunc) + 1))
        self.basis = functools.cache(lambda lam, k: spc.solve_spectrum(
            spc.assemble_hardy_operator(grid, lam, cfg.dimension_n), k))


def validate_config(cfg: LabConfig, subcommand: str = "all") -> Lab:
    """Reject cfg, before any output, if a stage of subcommand cannot run it; else its Lab."""
    for name in ("lam", "horizon", "mask_a", "mask_b"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")
    if not all(map(math.isfinite, cfg.eps_list)):
        raise ConfigError(f"eps_list entries must be finite, got {cfg.eps_list}")
    if cfg.dimension_n < 1 or cfg.dimension_n == 2:
        raise ConfigError(f"dimension_n must be a positive integer != 2, got {cfg.dimension_n}")
    nu = spc.bessel_order(cfg.lam, cfg.dimension_n)   # SupercriticalCouplingError: exit 3
    if nu > MAX_BESSEL_ORDER:
        raise ConfigError(f"Bessel order nu = {nu:.6g} exceeds the ceiling "
                          f"nu <= {MAX_BESSEL_ORDER:g}; lower dimension_n or raise lam")
    if cfg.n_interior < 8:
        raise ConfigError("n_interior must be at least 8")
    if cfg.n_ang < 64:
        raise ConfigError("n_ang must be at least 64")
    if cfg.horizon <= 0:
        raise ConfigError("horizon must be positive")
    stages = list(_RUNNERS) if subcommand == "all" else [subcommand]
    for stage in stages:
        if cfg.horizon < HORIZON_FLOORS.get(stage, 0.0):
            raise ConfigError(f"horizon must be at least {HORIZON_FLOORS[stage]:.6g} "
                              f"for the {stage} stage, got {cfg.horizon:g}")
    for name in ("spectrum_modes", "k_modes"):
        if not 1 <= getattr(cfg, name) <= cfg.n_interior:
            raise ConfigError(f"{name} must lie in [1, n_interior = {cfg.n_interior}], "
                              f"got {getattr(cfg, name)}")
    if not 0 < cfg.k_trunc <= fla.MAX_TRUNCATION:
        raise ConfigError(f"k_trunc must lie in (0, {fla.MAX_TRUNCATION}]")
    if not 0 < cfg.transform_k_trunc <= fla.MAX_TRUNCATION:
        raise ConfigError(f"transform_k_trunc must lie in (0, {fla.MAX_TRUNCATION}]")
    if cfg.mask_kind not in ("interval", "cantor"):
        raise ConfigError("mask_kind must be 'interval' or 'cantor'")
    if any(e <= 0 for e in cfg.eps_list):
        raise ConfigError("eps_list entries must be positive")
    if any(b >= a for a, b in zip(cfg.eps_list, cfg.eps_list[1:])):
        raise ConfigError("eps_list must be strictly decreasing")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    for name, least in (("time_steps", 1), ("obs_time_steps", 1), ("hum_verify_steps", 1),
                        ("tau_steps", 2),          # one step leaves a zero kernel
                        ("kernel_t_nodes", 2),     # t = -1 alone: a residual of exactly 0
                        ("inverse_steps", 2),      # the rho(0) = 0 route: centered differences
                        ("transform_t_nodes", 3),  # the elliptic residual: 3-point differences
                        ("recon_steps", 14)):      # titchmarsh bumps: 8 dt <= 0.3 * 2T
        if getattr(cfg, name) < least:
            raise ConfigError(f"{name} must be at least {least}")
    lab = Lab(cfg, stages)   # builds the mask, but neither the bump, the table nor a spectrum
    if {"kernel", "transform"} & set(stages):
        # both read the derivative table on this grid: refuse what derivative_table would
        try:
            fla.guard_band(lab.bump(), lab.tau_grid.times)
        except ValueError as exc:
            raise ConfigError(f"tau grid of horizon {cfg.horizon:g} and tau_steps "
                              f"{cfg.tau_steps}: {exc}") from exc
    if "uniqueness" in stages:
        # its observability maps sample each mask node at steps + 1 times (on the
        # obs_time_steps and tau_steps grids), its UCP map at UCP_WINDOW_NODES times
        steps = min(cfg.obs_time_steps, cfg.tau_steps)
        if (steps + 1) * lab.mask.n_nodes < cfg.k_modes:
            raise ConfigError(f"observation mask: {lab.mask.n_nodes} node(s) at {steps + 1} "
                              f"times give fewer samples than k_modes = {cfg.k_modes}")
        if UCP_WINDOW_NODES * lab.mask.n_nodes < 2 * cfg.k_modes:
            raise ConfigError(f"observation mask: {lab.mask.n_nodes} node(s) at the "
                              f"{UCP_WINDOW_NODES} times of the UCP window give fewer "
                              f"samples than 2 k_modes = {2 * cfg.k_modes}")
    return lab


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(LabConfig)}


def load_config(path: str | None) -> LabConfig:
    """Plain-text key = value file; '#' starts a comment."""
    cfg = LabConfig()
    if path is None:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key == "eps_list":
                parsed = tuple(float(v) for v in value.split(","))
            else:   # int, float or str, as the field's default
                parsed = type(getattr(cfg, key))(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        setattr(cfg, key, parsed)
    return cfg


# ---------------------------------------------------------------------------
# artifact helpers

def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


# text csv.writer would quote; write_csv writes fields unquoted
_QUOTED = (",", '"', "\r", "\n")


def write_csv(path: Path, header: list[str], columns) -> None:
    """A header line, then one line per row of the columns (one array per
    header name): values of a floating column as %.17g, any other value as
    str, separated by commas, every line ending in CRLF."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    text = [*header, *(v for col in columns if col.dtype.kind in "OSU" for v in col.tolist())]
    if any(q in str(v) for v in text for q in _QUOTED):
        raise ValueError("CSV fields must not hold commas, quotes or line breaks")
    n_rows = len(columns[0]) if columns else 0
    cells = [None] * (n_rows * len(columns))
    for j, col in enumerate(columns):
        cells[j::len(columns)] = col.tolist()   # ValueError unless n_rows long
    row = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write((row * n_rows) % tuple(cells))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# shared builders

def _complex_normal(rng: np.random.Generator, k: int) -> np.ndarray:
    """k standard complex normals: k real parts drawn first, then k imaginary."""
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def _sampled(xs, ys, values: np.ndarray, x_stride: int, y_stride: int) -> list[np.ndarray]:
    """Columns x_i, y_j, Re v_ij, Im v_ij on every x_stride-th x and y_stride-th
    y, one row per (i, j) with j running fastest."""
    block = np.asarray(values)[:len(xs):x_stride, :len(ys):y_stride]
    xs, ys = np.asarray(xs)[::x_stride], np.asarray(ys)[::y_stride]
    return [np.repeat(xs, len(ys)), np.tile(ys, len(xs)), block.real.ravel(), block.imag.ravel()]


# ---------------------------------------------------------------------------
# checks: each bounds one quantity its stage measures, which absorbs any
# dependence on the configuration

_COMPARATORS = {
    "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt, "==": operator.eq,
    "open_interval": lambda value, bound: bound[0] < value < bound[1],
}

CHECKS = {  # name: (stage, comparator, bound)
    "spectrum_oracle_rel_err": ("spectrum", "<=", 1e-2),  # worst rel. error vs the Bessel oracle
    "hardy_sweep_bound": ("hardy", ">=", 0.25 - 1e-10),   # least of 1000 Rayleigh quotients
    "hardy_pencil_decreasing": ("hardy", ">", 0.0),       # smallest drop, n/4 to n/2 to n nodes
    "hardy_pencil_in_range": ("hardy", "open_interval", (0.25, 0.30)),
    "evolution_norm_drift": ("evolve", "<=", 1e-12),
    "evolution_time_reversal": ("evolve", "<=", 1e-12),
    "kernel_boundary_exact": ("kernel", "<=", 1e-12),
    "kernel_tail_match": ("kernel", "<=", 1e-8),          # over max(max residual, 1)
    "kernel_residual_ratio": ("kernel", "<=", 1e-6),
    "transform_residual": ("transform", "<=", 1e-5),
    "transform_moment_consistency": ("transform", "<=", 1e-12),
    "observability_full_rank": ("uniqueness", "==", 0),   # rank deficit, k_modes - rank
    "ucp_full_rank": ("uniqueness", "==", 0),             # rank deficit, 2 k_modes - rank
    "uniqueness_reconstruction": ("uniqueness", "<=", 1e-8),
    "angular_gamma_identity": ("angular", "<=", 1e-12),
    "angular_arc_oracle": ("angular", "<=", 5e-3),
    "angular_monotone_in_lam": ("angular", ">", 0.0),     # smallest drop of mu_1 as lam grows
    "angular_blowup_exponent": ("angular", "<=", 0.1),    # relative error, inf if none fitted
    "hum_hermitian": ("hum", "<=", 1e-14),
    "hum_psd": ("hum", ">=", -1e-14),                     # lambda_min / max(lambda_max, 1)
    "hum_defect_identity": ("hum", "<=", 1e-6),
    "hum_defect_decreasing": ("hum", ">", 0.0),           # smallest drop along eps_list
    "hum_cost_nondecreasing": ("hum", ">=", -1e-12),      # smallest rise along eps_list
    "inverse_roundtrip": ("inverse-source", "<=", 1e-10),
    "inverse_reconstruction": ("inverse-source", "<=", 1e-3),  # inf for a zero source
    "inverse_factorization_identity": ("inverse-source", "<=", 1e-8),
    "inverse_convolution_identity": ("inverse-source", "<=", 1e-6),
    "inverse_free_evolution": ("inverse-source", "<=", 1e-4),
    "inverse_rho0_rejected": ("inverse-source", "==", True),
    "inverse_reduction_agreement": ("inverse-source", "<=", 1e-6),
    "titchmarsh_additivity": ("titchmarsh", "<=", 2.0),   # worst gap in units of dt
}


@dataclass(frozen=True)
class Verdict:
    """A measured value against its CHECKS entry; true when the check passes."""

    value: float | int | bool
    comparator: str
    bound: float | int | bool | tuple

    def __bool__(self) -> bool:
        return bool(_COMPARATORS[self.comparator](self.value, self.bound))


def judge(name: str, value) -> Verdict:
    return Verdict(value, *CHECKS[name][1:])


def _judge_stage(stage: str, measured: dict) -> dict[str, Verdict]:
    return {name: judge(name, measured[name]) for name in CHECKS if CHECKS[name][0] == stage}


def _basis_sizes(basis: spc.SpectralBasis, mask: evo.ObservationMask | None = None) -> dict:
    """The report's sizes of a basis and, if given, a mask."""
    sizes = {"radial_nodes": basis.grid.n_interior, "modes": basis.k_modes}
    return sizes if mask is None else {**sizes, "mask_nodes": mask.n_nodes}


def _smallest_step(values) -> float:
    """min of values[i] - values[i+1]: positive iff strictly decreasing."""
    return min((a - b for a, b in zip(values, values[1:])), default=math.inf)


def _exponent_error(study: ang.BlowupStudy) -> float:
    fit, expected = study.fitted_exponent, study.expected_exponent
    return math.inf if fit is None else abs(fit - expected) / expected


# ---------------------------------------------------------------------------
# stages: measure_<stage> maps explicit inputs to the checked quantities (keyed
# by check name) and what the artifacts need; run_<stage> takes the inputs
# from the run's Lab, writes the artifacts and returns (checks, report)

def run_spectrum(lab: Lab, outdir: Path):
    cfg = lab.cfg
    basis = lab.basis(cfg.lam, cfg.spectrum_modes)
    table = spc.bessel_oracle_table(basis)   # the measurement: (k, mu_k, oracle, rel_err) rows
    write_csv(outdir / "spectrum.csv", ["k", "mu_k", "bessel_oracle", "rel_err"], table.T)
    worst = float(table[:, 3].max())
    return (_judge_stage("spectrum", {"spectrum_oracle_rel_err": worst}),
            {"worst_rel_err": worst, "bessel_order": basis.bessel_order,
             "sizes": _basis_sizes(basis)})


def measure_hardy(n_interior: int, rng: np.random.Generator) -> dict:
    """Rayleigh quotients of 1000 random vectors, drawn in blocks of 100 rows
    (the stream of 1000 one-row draws); pencil infima at n/4, n/2 and n nodes."""
    grid = spc.RadialGrid(n_interior)
    ratios = np.concatenate([spc.hardy_rayleigh(grid, rng.standard_normal((100, n_interior)))
                             for _ in range(10)])
    pencil = [(n, spc.hardy_pencil_infimum(spc.RadialGrid(n)))
              for n in (n_interior // 4, n_interior // 2, n_interior)]
    return {"ratios": ratios, "pencil": pencil, "hardy_sweep_bound": float(ratios.min()),
            "hardy_pencil_decreasing": _smallest_step([inf for _, inf in pencil]),
            "hardy_pencil_in_range": pencil[-1][1]}


def run_hardy(lab: Lab, outdir: Path):
    m = measure_hardy(lab.cfg.n_interior, np.random.default_rng(lab.cfg.seed))
    write_csv(outdir / "hardy_pencil.csv", ["n_interior", "infimum"], zip(*m["pencil"]))
    write_csv(outdir / "hardy_sweep.csv", ["stat", "value"],
              [["min_ratio", "mean_ratio"], [m["ratios"].min(), m["ratios"].mean()]])
    return _judge_stage("hardy", m), {
        "min_ratio": m["hardy_sweep_bound"], "pencil": m["pencil"],
        "sizes": {"radial_nodes": lab.cfg.n_interior, "rayleigh_vectors": len(m["ratios"])}}


def measure_evolve(basis: spc.SpectralBasis, c0: np.ndarray, times) -> dict:
    """Norm drift and round-trip error of propagating c0 by each t and back."""
    state = evo.ModeState(c0)
    drift = reversal = 0.0
    for t in times:
        fwd = evo.propagate(state, basis, t)
        drift = max(drift, abs(fwd.norm() - state.norm()))
        back = evo.propagate(fwd, basis, -t)
        reversal = max(reversal, float(np.abs(back.coeffs - c0).max()))
    return {"evolution_norm_drift": drift, "evolution_time_reversal": reversal}


def run_evolve(lab: Lab, outdir: Path):
    cfg, basis, mask = lab.cfg, lab.basis(lab.cfg.lam, lab.cfg.k_modes), lab.mask
    c0 = _complex_normal(np.random.default_rng(cfg.seed), cfg.k_modes)
    m = measure_evolve(basis, c0, np.linspace(0.25, 10.0, 40))
    tg = evo.TimeGrid(cfg.horizon, cfg.time_steps)
    samples = evo.observe(evo.free_trajectory(c0, basis, tg), mask, basis)
    columns = _sampled(tg.times, basis.grid.nodes[mask.node_indices], samples,
                       max(1, tg.steps // 100), max(1, mask.n_nodes // 40))
    write_csv(outdir / "trajectory.csv", ["t", "node", "re_u", "im_u"], columns)
    return _judge_stage("evolve", m), {"norm_drift": m["evolution_norm_drift"],
                                       "reversal_error": m["evolution_time_reversal"],
                                       "sizes": {**_basis_sizes(basis, mask),
                                                 "time_steps": tg.steps}}


def measure_kernel(kernel: fla.FlatnessKernel) -> dict:
    res = fla.kernel_residual(kernel)
    # evaluate only the boundary slices, never the dense kernel
    initial = kernel.sub_grid(slice(0, 1))[0] - kernel.bump(kernel.tau_nodes)
    boundary = max(float(np.abs(kernel.sub_grid(tau_index=[0, -1])).max()),
                   float(np.abs(initial).max()))
    return {"residual": res, "kernel_boundary_exact": boundary,
            "kernel_tail_match": res.tail_match_error / max(res.max_residual, 1.0),
            "kernel_residual_ratio": res.max_residual / res.max_kernel}


def _kernel(lab: Lab, k_trunc: int, t_count: int) -> fla.FlatnessKernel:
    """The flatness kernel at k_trunc on t_count t nodes over [-1, 1], reading the run's table."""
    return fla.FlatnessKernel(lab.bump(), k_trunc, np.linspace(-1.0, 1.0, t_count),
                              lab.tau_grid.times, lab.table())


def _kernel_sizes(kernel: fla.FlatnessKernel) -> dict:
    return {"t_nodes": len(kernel.t_nodes), "tau_nodes": len(kernel.tau_nodes),
            "k_trunc": kernel.k_trunc, "table_order": kernel.deriv_table.shape[1] - 1}


def run_kernel(lab: Lab, outdir: Path):
    cfg = lab.cfg
    kernel = _kernel(lab, cfg.k_trunc, cfg.kernel_t_nodes)
    t_nodes, tau_nodes = kernel.t_nodes, kernel.tau_nodes
    m = measure_kernel(kernel)
    t_rows = slice(None, None, max(1, (len(t_nodes) - 1) // 50))
    tau_cols = slice(None, None, max(1, (len(tau_nodes) - 1) // 128))
    res = m["residual"]
    columns = _sampled(t_nodes[t_rows], tau_nodes[tau_cols], kernel.sub_grid(t_rows, tau_cols),
                       1, 1)
    write_csv(outdir / "kernel.csv", ["t", "tau", "re_k", "im_k"], columns)
    write_json(outdir / "kernel_residual.json", {
        "config": lab.config, "k_trunc": cfg.k_trunc,
        "max_residual": res.max_residual, "max_kernel": res.max_kernel,
        "residual_over_max_kernel": m["kernel_residual_ratio"],
        "tail_match_error": res.tail_match_error, "boundary_defect": m["kernel_boundary_exact"],
        "control_trace_sup": float(np.abs(fla.control_trace(kernel)).max()),
    })
    return _judge_stage("kernel", m), {"ratio": m["kernel_residual_ratio"],
                                       "boundary": m["kernel_boundary_exact"],
                                       "sizes": _kernel_sizes(kernel)}


def measure_transform(basis: spc.SpectralBasis, kernel: fla.FlatnessKernel, tau_grid) -> dict:
    """Transform of the free flow from the all-ones state on the kernel's tau grid."""
    trajectory = evo.free_trajectory(np.ones(basis.k_modes), basis, tau_grid)
    profile = ell.transform(trajectory, kernel, basis.eigenvalues)
    residual, per_mode = ell.elliptic_residual(profile)
    moments = ell.moment_trace(kernel.bump, trajectory)
    return {"profile": profile, "per_mode": per_mode, "moments": moments,
            "transform_residual": residual,
            "transform_moment_consistency": float(np.abs(profile.values[:, 0] - moments).max())}


def run_transform(lab: Lab, outdir: Path):
    cfg, basis = lab.cfg, lab.basis(lab.cfg.lam, lab.cfg.k_modes)
    kernel = _kernel(lab, cfg.transform_k_trunc, cfg.transform_t_nodes)
    m = measure_transform(basis, kernel, lab.tau_grid)
    columns = _sampled(range(1, m["profile"].k_modes + 1), kernel.t_nodes, m["profile"].values,
                       1, max(1, (cfg.transform_t_nodes - 1) // 200))
    write_csv(outdir / "elliptic_profile.csv", ["k", "t", "re_w", "im_w"], columns)
    write_json(outdir / "transform_report.json", {
        "config": lab.config, "k_trunc": cfg.transform_k_trunc,
        "residual": m["transform_residual"], "per_mode": m["per_mode"].tolist(),
        "moment_consistency": m["transform_moment_consistency"],
        "moments_abs": np.abs(m["moments"]).tolist(),
    })
    return _judge_stage("transform", m), {
        "residual": m["transform_residual"], "moment_consistency": m["transform_moment_consistency"],
        "sizes": {**_basis_sizes(basis), **_kernel_sizes(kernel)}}


def measure_uniqueness(basis: spc.SpectralBasis, mask: evo.ObservationMask, obs_grid,
                       cert_grid, c0: np.ndarray) -> dict:
    """Observability and UCP ranks on obs_grid, and the certificate that
    recovers c0 from its observations on cert_grid."""
    obs = evo.observability_matrix(basis, mask, obs_grid)
    ucp = ell.ucp_probe(basis, ell.CylinderWindow(mask, np.linspace(-1.0, 1.0, UCP_WINDOW_NODES)))
    cert = ell.uniqueness_pipeline(c0, basis, mask, cert_grid)
    return {"observability": obs, "ucp": ucp, "certificate": cert,
            "observability_full_rank": basis.k_modes - obs.rank,
            "ucp_full_rank": 2 * basis.k_modes - ucp.rank,
            "uniqueness_reconstruction": cert.reconstruction_error}


def run_uniqueness(lab: Lab, outdir: Path):
    cfg, basis, mask = lab.cfg, lab.basis(lab.cfg.lam, lab.cfg.k_modes), lab.mask
    obs_grid = evo.TimeGrid(cfg.horizon, cfg.obs_time_steps)
    m = measure_uniqueness(basis, mask, obs_grid, lab.tau_grid,
                           _complex_normal(np.random.default_rng(cfg.seed), cfg.k_modes))
    obs, ucp, cert = m["observability"], m["ucp"], m["certificate"]
    write_json(outdir / "observability.json", {
        "config": lab.config,
        "mask": {"kind": mask.kind, "intervals": mask.intervals,
                 "n_nodes": mask.n_nodes, "measure": mask.realized_measure()},
        "singular_values": obs.singular_values.tolist(), "rank": obs.rank,
        "ucp_singular_values": ucp.singular_values.tolist(), "ucp_rank": ucp.rank,
        "ucp_condition": ucp.condition,
    })
    write_json(outdir / "certificate.json", {
        "config": lab.config, "eta": cert.eta, "sigma_min": cert.sigma_min,
        "bound": cert.bound, "c0_norm": cert.c0_norm,
        "reconstruction_error": cert.reconstruction_error,
    })
    return _judge_stage("uniqueness", m), {
        "rank": obs.rank, "ucp_rank": ucp.rank,
        "sizes": {**_basis_sizes(basis, mask), "obs_time_steps": obs_grid.steps,
                  "certificate_time_steps": lab.tau_grid.steps,
                  "ucp_window_nodes": UCP_WINDOW_NODES}}


def measure_angular(n_ang: int) -> dict:
    """Circle spectra over a coupling sweep; the arc oracle and blow-up study at lam = 0."""
    rows, mu1, solved = [], [], []
    for lam in (0.0, 0.1, 0.1875, 0.24):
        prob = ang.AngularProblem(lam, n_ang)
        basis = ang.angular_spectrum(prob, 8)
        solved.append((prob, basis))
        mu1.append(basis.eigenvalues[0])
        for k, mu in enumerate(basis.eigenvalues, 1):
            rows.append((lam, k, mu, ang.gamma_exponent(mu, prob.dimension_N)))
    prob0, basis0 = solved[0]      # the sweep starts at lam = 0
    arcvals = basis0.eigenvalues[::2][:4]
    study = ang.blowup_profile_check([1.0, 0.5], [1.0, 2.0], basis0.eigenvectors[:, [0, 2]],
                                     prob0.spacing)
    gamma_defect = max(abs(g * (g + prob.dimension_N - 2) - mu) for _, _, mu, g in rows)
    oracle_err = float(max(abs(v - (j + 1) ** 2) / (j + 1) ** 2 for j, v in enumerate(arcvals)))
    return {"rows": rows, "study": study, "angular_gamma_identity": gamma_defect,
            "angular_arc_oracle": oracle_err, "angular_monotone_in_lam": _smallest_step(mu1),
            "angular_blowup_exponent": _exponent_error(study)}


def run_angular(lab: Lab, outdir: Path):
    m = measure_angular(lab.cfg.n_ang)
    study = m["study"]
    write_csv(outdir / "angular_spectrum.csv", ["lam", "k", "mu_k", "gamma_k"], zip(*m["rows"]))
    write_csv(outdir / "blowup.csv", ["r", "discrepancy"], [study.radii, study.discrepancies])
    return _judge_stage("angular", m), {"gamma_defect": m["angular_gamma_identity"],
                                        "oracle_err": m["angular_arc_oracle"],
                                        "blowup_exponent": study.fitted_exponent,
                                        "sizes": {"angular_nodes": lab.cfg.n_ang,
                                                  "spectrum_rows": len(m["rows"])}}


def measure_hum(basis: spc.SpectralBasis, mask: evo.ObservationMask, horizon: float,
                rng: np.random.Generator, eps_list, verify_steps: int) -> dict:
    """Gramian, defect curve and the eps = 1e-3 control for random u0 then ud from rng."""
    u0 = evo.ModeState(_complex_normal(rng, basis.k_modes))
    ud = evo.ModeState(_complex_normal(rng, basis.k_modes))
    gram = ctl.gramian(basis, mask, horizon)
    eigs = gram.eigenvalues
    curve = ctl.defect_curve(gram, u0, ud, eps_list)
    times = np.linspace(0.0, horizon, 201)
    result = ctl.hum_solve(gram, u0, ud, 1e-3, sample_times=times)
    forward = ctl.verify_control(result, gram, n_steps=verify_steps)
    return {"curve": curve, "times": times, "control": result, "lambda_min": float(eigs[0]),
            "hum_hermitian": float(np.abs(gram.matrix - gram.matrix.conj().T).max()),
            "hum_psd": eigs[0] / max(eigs[-1], 1.0),
            "hum_defect_identity": abs(forward - result.defect_predicted),
            "hum_defect_decreasing": _smallest_step([r["defect"] for r in curve]),
            "hum_cost_nondecreasing": _smallest_step([r["cost"] for r in curve][::-1])}


def run_hum(lab: Lab, outdir: Path):
    cfg, basis, mask = lab.cfg, lab.basis(lab.cfg.lam, lab.cfg.k_modes), lab.mask
    m = measure_hum(basis, mask, cfg.horizon, np.random.default_rng(cfg.seed), cfg.eps_list,
                    cfg.hum_verify_steps)
    header = ["eps", "defect", "cost", "sigma_min"]
    write_csv(outdir / "defect_curve.csv", header, [[r[key] for r in m["curve"]] for key in header])
    columns = _sampled(m["times"], basis.grid.nodes[mask.node_indices],
                       m["control"].control_samples, 4, max(1, mask.n_nodes // 40))
    write_csv(outdir / "control.csv", ["t", "node", "re_h", "im_h"], columns)
    return _judge_stage("hum", m), {"identity_gap": m["hum_defect_identity"],
                                    "sigma_min": m["lambda_min"],
                                    "sizes": {**_basis_sizes(basis, mask),
                                              "verify_steps": cfg.hum_verify_steps,
                                              "sample_times": len(m["times"])}}


def _linear_rho(grid: evo.TimeGrid, rho0: float, slope: float) -> inv.VolterraSystem:
    """The Volterra system of rho(t) = rho0 + slope t on the grid."""
    return inv.VolterraSystem(grid, rho0 + slope * grid.times, np.full_like(grid.times, slope))


def measure_inverse(basis6: spc.SpectralBasis, basis1: spc.SpectralBasis, f6: np.ndarray,
                    zr: np.ndarray, recon_grid: evo.TimeGrid, id_grid: evo.TimeGrid) -> dict:
    """Recovery of f6 and round trip of zr on recon_grid; on id_grid with one mode,
    the identity chain, the rho(0) = 0 rejection and the two rho(0) = 0 routes."""
    sys6 = _linear_rho(recon_grid, 1.0, 0.5)
    traj6 = evo.duhamel_solve(f6, sys6.rho, basis6, recon_grid)
    recon = inv.reconstruct_f(traj6, sys6, basis6.eigenvalues, f6)
    roundtrip = float(np.abs(inv.volterra_invert(sys6, inv.volterra_apply(sys6, zr)) - zr).max())
    sys1 = _linear_rho(id_grid, 1.0, 0.5)
    f1 = np.array([1.0 + 0.0j])
    traj1 = evo.duhamel_solve(f1, sys1.rho, basis1, id_grid)
    rec1 = inv.reconstruct_f(traj1, sys1, basis1.eigenvalues, f1)
    free = float(inv.free_evolution_check(rec1.z, basis1.eigenvalues, id_grid.dt).max())
    sys_t = _linear_rho(id_grid, 0.0, 1.0)
    rejected = False
    try:
        inv.volterra_invert(sys_t, np.ones(len(id_grid.times), dtype=complex))
    except ValueError:
        rejected = True
    traj_t = evo.duhamel_solve(f1, sys_t.rho, basis1, id_grid)
    w = inv.antiderivative_reduce(traj_t)
    v = evo.free_trajectory(-1j * f1, basis1, id_grid)
    route4 = inv.convolve_source(evo.cumulative_trapezoid(sys_t.rho, id_grid.dt), v,
                                 basis1.eigenvalues)
    return {"reconstruction": recon, "route4": route4, "inverse_roundtrip": roundtrip,
            "inverse_reconstruction": (math.inf if recon.relative_error is None
                                       else recon.relative_error),
            "inverse_factorization_identity": rec1.factorization_residual,
            "inverse_convolution_identity": inv.duhamel_identity_residual(traj1, sys1, rec1.z),
            "inverse_free_evolution": free, "inverse_rho0_rejected": rejected,
            "inverse_reduction_agreement": float(np.abs(route4.y.coeffs - w.coeffs).max())}


def run_inverse(lab: Lab, outdir: Path):
    cfg, lam = lab.cfg, 3.0 / 16.0
    recon_grid = evo.TimeGrid(cfg.horizon, cfg.recon_steps)
    id_grid = evo.TimeGrid(cfg.horizon, cfg.inverse_steps)
    f6 = _complex_normal(np.random.default_rng(cfg.seed), 6)
    zr = _complex_normal(np.random.default_rng(cfg.seed + 1), cfg.recon_steps + 1)
    basis6 = lab.basis(lam, 6)
    m = measure_inverse(basis6, lab.basis(lam, 1), f6, zr, recon_grid, id_grid)
    recon = m["reconstruction"]
    write_json(outdir / "reconstruction.json", {
        "config": lab.config, "lambda": lam, "recon_dt": recon_grid.dt,
        "f_true": [[c.real, c.imag] for c in f6],
        "f_recovered": [[c.real, c.imag] for c in recon.f_recovered],
        "relative_error": recon.relative_error, "volterra_roundtrip": m["inverse_roundtrip"],
        "identity_dt": id_grid.dt,
        "factorization_identity": m["inverse_factorization_identity"],
        "convolution_identity": m["inverse_convolution_identity"],
        "free_evolution_residual": m["inverse_free_evolution"],
        "rho0_zero_rejected": m["inverse_rho0_rejected"],
        "reduction_route_agreement": m["inverse_reduction_agreement"],
        "source_identity_residual": m["route4"].source_identity_residual,
    })
    return _judge_stage("inverse-source", m), {
        "roundtrip": m["inverse_roundtrip"], "rel_err": recon.relative_error,
        "id_conv": m["inverse_convolution_identity"], "id_free": m["inverse_free_evolution"],
        "agreement": m["inverse_reduction_agreement"],
        "sizes": {**_basis_sizes(basis6), "recon_steps": recon_grid.steps,
                  "identity_steps": id_grid.steps}}


def _random_bump(rng: np.random.Generator, times: np.ndarray, lo: float, hi: float,
                 min_width: float) -> np.ndarray:
    # quadratic onset keeps the sampled support within a node of the analytic
    # one, which the relative support cutoff then resolves exactly
    width = rng.uniform(min_width, 0.3 * times[-1])
    start = rng.uniform(lo, hi - width)
    x = np.zeros_like(times)
    inside = (times > start) & (times < start + width)
    s = (times[inside] - start) / width
    x[inside] = (s * (1.0 - s)) ** 2
    return x


def measure_titchmarsh(horizon: float, steps: int, rng: np.random.Generator) -> dict:
    """Support additivity of 20 pairs of random bumps on 2 * steps steps over (0, 2 horizon)."""
    grid = evo.TimeGrid(2.0 * horizon, 2 * steps)
    rows = []
    for _ in range(20):
        a = _random_bump(rng, grid.times, 0.05, 0.9 * horizon, 8 * grid.dt)
        b = _random_bump(rng, grid.times, 0.05, 0.9 * horizon, 8 * grid.dt)
        rep = inv.titchmarsh_support(a, b, grid.dt)
        rows.append((rep.start_a, rep.start_b, rep.start_convolution, rep.additivity_gap))
    worst = max([0.0] + [row[3] for row in rows])
    return {"rows": rows, "worst_gap": worst, "dt": grid.dt,
            "titchmarsh_additivity": worst / grid.dt}


def run_titchmarsh(lab: Lab, outdir: Path):
    cfg = lab.cfg
    m = measure_titchmarsh(cfg.horizon, cfg.recon_steps, np.random.default_rng(cfg.seed))
    write_csv(outdir / "titchmarsh.csv", ["start_a", "start_b", "start_conv", "gap"],
              zip(*m["rows"]))
    return _judge_stage("titchmarsh", m), {
        "worst_gap": m["worst_gap"], "dt": m["dt"],
        "sizes": {"steps": 2 * cfg.recon_steps, "pairs": len(m["rows"])}}


_RUNNERS = {
    "spectrum": run_spectrum,
    "hardy": run_hardy,
    "evolve": run_evolve,
    "kernel": run_kernel,
    "transform": run_transform,
    "uniqueness": run_uniqueness,
    "angular": run_angular,
    "hum": run_hum,
    "inverse-source": run_inverse,
    "titchmarsh": run_titchmarsh,
}


# the (getter, setter) symbol pairs of the OpenBLAS builds numpy and scipy ship
_OPENBLAS_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                     for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def _openblas_libraries() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(file name, thread-count getter, setter) of each OpenBLAS mapped into
    this process; none without /proc."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read())))
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)   # already loaded: the same handle, no second copy
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append((Path(path).name, getter, setter))
                break
    return found


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread; yield their file
    names.  The lab's products are too small to gain from more threads, whose
    workers busy-wait on a second core and whose split reductions change last
    bits with the core count.  The previous counts come back on exit."""
    libraries = _openblas_libraries()
    previous = [getter() for _, getter, _ in libraries]
    try:
        for _, _, setter in libraries:
            setter(1)
        yield [name for name, _, _ in libraries]
    finally:
        for (_, _, setter), count in zip(libraries, previous):
            setter(count)


def _run_stages(subcommand: str, lab: Lab, outdir: Path,
                blas: list[str]) -> dict[str, bool]:
    """Run the stages into outdir and write the manifest last; blas names the
    OpenBLAS libraries pinned to one thread for the run."""
    started = time.monotonic()
    checks, details, reports, stage_seconds = {}, {}, {}, {}
    for name in lab.stages:
        stage_started = time.monotonic()
        try:
            verdicts, rep = _RUNNERS[name](lab, outdir)
        except _STAGE_ERRORS as exc:
            raise StageFailure(name, exc) from exc
        stage_seconds[name] = time.monotonic() - stage_started
        for key, verdict in verdicts.items():
            checks[key] = bool(verdict)
            details[key] = {**dataclasses.asdict(verdict), "pass": checks[key]}
        reports[name] = rep
    digests = {p.name: _digest(p) for p in sorted(outdir.iterdir())
               if p.suffix in (".csv", ".json")}
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "subcommand": subcommand,
        "config": lab.config,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": blas},
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.monotonic() - started,
        "stage_seconds": stage_seconds,
        "checks": checks,
        "check_details": details,
        "reports": reports,
        "digests": digests,
    }
    write_json(outdir / "manifest.json", manifest)
    return checks


def run(subcommand: str, cfg: LabConfig, out_root: Path, check: bool = False) -> int:
    """Execute one subcommand (or 'all'), write artifacts + manifest.

    The stages write into a hidden sibling directory, which takes the stamped
    name only once the manifest is written; if a stage raises, it is removed.
    """
    lab = validate_config(cfg, subcommand)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S%f")
    outdir = out_root / f"{subcommand}-{stamp}"
    workdir = out_root / f".{outdir.name}.partial"
    try:
        workdir.mkdir(parents=True, exist_ok=False)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory under {out_root}: "
                          f"{exc.strerror}") from exc
    try:
        with _one_blas_thread() as blas:
            checks = _run_stages(subcommand, lab, workdir, blas)
        workdir.rename(outdir)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    print(json.dumps({"outdir": str(outdir), "checks": checks}, sort_keys=True))
    if check and not all(checks.values()):
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical laboratory for the singular Schrodinger operator "
                    "with an inverse-square potential",
    )
    parser.add_argument("subcommand", choices=(*_RUNNERS, "all"))
    parser.add_argument("--config", default=None, help="key = value configuration file")
    parser.add_argument("--out", default="out", help="output root (env LAB_OUT overrides)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on any tolerance breach")
    args = parser.parse_args(argv)
    out_root = Path(os.environ.get("LAB_OUT", args.out))
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        return run(args.subcommand, cfg, out_root, check=args.check)
    except SupercriticalCouplingError as exc:
        print(json.dumps({
            "error": "supercritical_coupling",
            "lambda": exc.lam,
            "lambda_star": exc.lam_star,
            "dimension": exc.dimension,
            "message": str(exc),
        }, sort_keys=True))
        return 3
    except StageFailure as exc:
        print(json.dumps({"error": "stage_failure", "stage": exc.stage,
                          "exception": exc.exception, "message": str(exc)}, sort_keys=True))
        return 4
    except ValueError as exc:
        # only loading, validation and creating the run directory raise
        # ValueError here: stage errors arrive as StageFailure
        print(json.dumps({"error": "invalid_config", "message": str(exc)}, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
