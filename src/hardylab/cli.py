"""Batch front end: deterministic runs, CSV/JSON artifacts.

Every subcommand writes its tables and a manifest, the one home of the config, of
the fields each stage read and of each check and report value (with the library
versions, each stage's seconds and peak RSS, sha256 digests), into a directory
under --out that takes its stamped name only once the manifest is written.  A CSV
line holds floats as %.17g and other values as str, unquoted, and ends in CRLF.
The stages run with the OpenBLAS that lapack computes with on one thread, so the
artifacts are functions of config and seed only, and repeated runs digest
identically.

Exit codes: 0 success, 1 tolerance breach under --check, 2 invalid
configuration (a refusal of load_config, of validate_config, which refuses a
field only if a stage of the subcommand reads it and applies each such stage's
cross-field rules at the coupling it solves, or an output root under which the
run directory cannot be created; all before any stage runs), 3 supercritical
coupling at a coupling a stage solves, 4 a stage raised on a configuration that
passed validation.  Every JSON file is RFC 8259 JSON, which has no inf or nan: a
stage whose artifact, check value or report holds one fails.  The stage_failure
payload names the stage and the exception class; no output directory is left.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import operator
import platform
import shutil
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

try:
    import resource
except ImportError:   # Windows: no ru_maxrss, so no stage_max_rss_mb
    resource = None

from . import angular as ang
from . import control as ctl
from . import elliptic as ell
from . import evolution as evo
from . import flatness as fla
from . import inverse as inv
from . import lapack
from . import spectral as spc

ARTIFACT_VERSION = "0.4.0"


class ConfigError(ValueError):
    pass


class StageFailure(Exception):
    """A stage raised on a configuration that passed validation."""

    def __init__(self, stage: str, error: Exception):
        self.stage = stage
        self.exception = type(error).__name__
        super().__init__(str(error))


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


# the largest Bessel order nu = sqrt(lambda_star - lam) a run accepts, the range the tests
# and the benchmark cover.  Measured with none: uniqueness refuses its certificate at nu =
# 14.2 with the mask (0.05, 0.1); lam = -1e300 would need 1e150 rows of the recurrence matrix.
MAX_BESSEL_ORDER = 3.0


# t nodes of the uniqueness stage's UCP window on [-1, 1]
UCP_WINDOW_NODES = 33

# the coupling of the inverse-source stage's spectra
INVERSE_LAM = 3.0 / 16.0


class Lab:
    """What the stages of one run share, each built once on first use, so a stage reads only
    the fields of what it uses: the config, the stages, the radial and tau grids, the mask,
    the flatness bump, its Cauchy derivative table of every order on the tau grid, of which
    each truncation reads a prefix, the operator of each coupling and the basis of each exact
    (lam, k), never sliced from a larger k's, whose last bits differ."""

    grid = functools.cached_property(lambda self: spc.RadialGrid(self.cfg.n_interior))
    tau_grid = functools.cached_property(
        lambda self: evo.TimeGrid(self.cfg.horizon, self.cfg.tau_steps))
    mask = functools.cached_property(lambda self: evo.interval_mask(
        self.grid, self.cfg.mask_a, self.cfg.mask_b) if self.cfg.mask_kind == "interval" else
        evo.fat_cantor_mask(self.grid, (self.cfg.mask_a, self.cfg.mask_b)))

    def __init__(self, cfg: LabConfig, stages: list[str]):
        self.cfg, self.stages = cfg, stages
        self.bump = functools.cache(lambda: fla.gevrey_bump(cfg.horizon))
        self.table = functools.cache(lambda: fla.derivative_table(self.bump(), self.tau_grid.times))
        self.operator = functools.cache(
            lambda lam: spc.assemble_hardy_operator(self.grid, lam, cfg.dimension_n))
        self.basis = functools.cache(lambda lam, k: spc.solve_spectrum(self.operator(lam), k))


# single-field rules, in the order applied: (field, test(value, cfg), what a refusal says)
_FIELD_RULES = [
    *((name, lambda v, cfg: math.isfinite(v), "must be finite")
      for name in ("lam", "horizon", "mask_a", "mask_b")),
    ("eps_list", lambda v, cfg: all(map(math.isfinite, v)), "entries must be finite"),
    ("dimension_n", lambda v, cfg: v >= 1 and v != 2, "must be a positive integer != 2"),
    *((name, lambda v, cfg, least=least: v >= least, f"must be at least {least}")
      for name, least in (("n_interior", spc.MIN_INTERIOR_NODES), ("n_ang", ang.MIN_ARC_NODES),
                          ("time_steps", 1), ("obs_time_steps", 1), ("hum_verify_steps", 1),
                          ("tau_steps", 2),          # one step leaves a zero kernel
                          ("kernel_t_nodes", 2),     # t = -1 alone: a residual of exactly 0
                          ("inverse_steps", 2),      # the rho(0) = 0 route: centered differences
                          ("transform_t_nodes", 3),  # the elliptic residual: 3-point differences
                          ("recon_steps", 14))),     # titchmarsh bumps: 8 dt <= 0.3 * 2T
    ("horizon", lambda v, cfg: v > 0, "must be positive"),
    *((name, lambda v, cfg: 1 <= v <= cfg.n_interior, "must lie in [1, n_interior]")
      for name in ("spectrum_modes", "k_modes")),
    *((name, lambda v, cfg: 0 < v <= fla.MAX_TRUNCATION, f"must lie in (0, {fla.MAX_TRUNCATION}]")
      for name in ("k_trunc", "transform_k_trunc")),
    ("mask_kind", lambda v, cfg: v in ("interval", "cantor"), "must be 'interval' or 'cantor'"),
    # the hum checks compare successive penalties
    ("eps_list", lambda v, cfg: len(v) >= 2, "needs at least two penalties"),
    ("eps_list", lambda v, cfg: all(e > 0 for e in v), "entries must be positive"),
    ("eps_list", lambda v, cfg: _smallest_step(v) > 0, "must be strictly decreasing"),
    ("seed", lambda v, cfg: v >= 0, "must be non-negative"),
]


# cross-field rules: rule(lab, lam) at the coupling lam its stage solves (None if none)
def _bessel_order(lab: Lab, lam: float) -> None:
    nu = spc.bessel_order(lam, lab.cfg.dimension_n)   # SupercriticalCouplingError: exit 3
    if nu > MAX_BESSEL_ORDER:
        raise ConfigError(f"Bessel order nu = {nu:.6g} at the coupling {lam:g} exceeds the "
                          f"ceiling nu <= {MAX_BESSEL_ORDER:g}")


def _phase_ceiling(lab: Lab, lam: float) -> None:
    # the stage forms the phases exp(i mu t) for t up to the horizon.  Every eigenvalue mu of
    # its operator has |mu| <= its infinity norm, so mu t stays finite if horizon times it does
    op = lab.operator(lam)
    norm = spc.tridiagonal_norm(op.diagonal, op.offdiagonal)
    if not math.isfinite(lab.cfg.horizon * norm):
        raise ConfigError(f"horizon {lab.cfg.horizon!r} times the eigenvalue bound {norm:.6g} "
                          f"overflows the phases exp(i mu t)")


def _chain_ceiling(lab: Lab, lam: float) -> None:
    if lab.cfg.horizon > inv.HORIZON_CEILING:
        raise ConfigError(f"horizon {lab.cfg.horizon!r} exceeds the Duhamel-Volterra chain's "
                          f"ceiling inverse.HORIZON_CEILING = {inv.HORIZON_CEILING:.6g}")


def _built(what: str, build):
    """The rule that builds a shared object of the Lab, refusing the config on its ValueError."""
    def rule(lab: Lab, lam: float) -> None:
        try:
            build(lab)
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
    return rule


_BUMP_RANGE = _built("flatness", lambda lab: lab.bump())
_MASK_NODES = _built("observation mask", lambda lab: lab.mask)


def _mask_samples(lab: Lab, lam: float) -> None:
    # the observability maps sample each mask node at steps + 1 times (on the
    # obs_time_steps and tau_steps grids), the UCP map at UCP_WINDOW_NODES times
    cfg, nodes = lab.cfg, lab.mask.n_nodes
    for times, unknowns, name in ((min(cfg.obs_time_steps, cfg.tau_steps) + 1, cfg.k_modes,
                                   "k_modes"), (UCP_WINDOW_NODES, 2 * cfg.k_modes, "2 k_modes")):
        if times * nodes < unknowns:
            raise ConfigError(f"observation mask: {nodes} node(s) at {times} times give fewer "
                              f"samples than {name} = {unknowns}")


def _titchmarsh_step(lab: Lab, lam: float) -> None:
    # its grid spans 2 horizon in steps of horizon / recon_steps: both must be normal floats
    horizon = lab.cfg.horizon
    if not (math.isfinite(2.0 * horizon) and horizon / lab.cfg.recon_steps >= sys.float_info.min):
        raise ConfigError(f"titchmarsh needs a finite 2 * horizon and a normal step horizon / "
                          f"recon_steps, got horizon {horizon!r}")


def validate_config(cfg: LabConfig, subcommand: str = "all") -> Lab:
    """Reject cfg, before any output, on a field a stage of subcommand reads, else return its
    Lab: each rule of a field read, then each stage's rules, which build only what they check."""
    lab = Lab(cfg, list(_STAGES) if subcommand == "all" else [subcommand])
    stages = [_STAGES[name] for name in lab.stages]
    reads = set().union(*(stage.reads for stage in stages))
    for name, test, refusal in _FIELD_RULES:
        if name in reads and not test(getattr(cfg, name), cfg):
            raise ConfigError(f"{name} {refusal}, got {getattr(cfg, name)!r}")
    for stage in stages:
        for rule in stage.rules:
            rule(lab, stage.coupling and stage.coupling(cfg))
    return lab


def load_config(path: str | None) -> LabConfig:
    """Plain-text key = value file, each key at most once; '#' starts a comment."""
    cfg, given = LabConfig(), {}   # key: the line that gave it
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
        if key not in {f.name for f in dataclasses.fields(cfg)}:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"{path}:{lineno}: {key} given again, first on line {given[key]}")
        given[key] = lineno
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

def _json_default(x):
    """numpy scalars (np.float64 is a float and never gets here) as the values they hold."""
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


# text csv.writer would quote; write_csv writes fields unquoted
_QUOTED = (",", '"', "\r", "\n")


def _column_cells(col: np.ndarray) -> tuple[str, list]:
    """The %-format and the cells of one column.  A float64 column that
    repeats (the t and node columns _sampled builds) is formatted once per
    distinct bit pattern, so -0.0 stays apart from 0.0, and its cells are
    those strings; any other column is left to the one %-pass over all cells."""
    if col.dtype != np.float64:
        return ("%.17g" if col.dtype.kind == "f" else "%s"), col.tolist()
    distinct, index = np.unique(col.view(np.uint64), return_inverse=True)
    if 2 * len(distinct) > len(col):
        return "%.17g", col.tolist()
    text = ["%.17g" % v for v in distinct.view(np.float64).tolist()]
    return "%s", [text[i] for i in index.tolist()]


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
    formats = []
    for j, col in enumerate(columns):
        fmt, values = _column_cells(col)
        cells[j::len(columns)] = values   # ValueError unless n_rows long
        formats.append(fmt)
    row = ",".join(formats) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write((row * n_rows) % tuple(cells))


def _refuse_non_finite(value, path: str = "") -> None:
    """ValueError '<path>/<key> is nan' (or inf) at the first non-finite float, keys sorted."""
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"{path} is {float(value)}")
    for key, item in (sorted(value.items()) if isinstance(value, dict) else
                      enumerate(value) if isinstance(value, (list, tuple)) else ()):
        _refuse_non_finite(item, f"{path}/{key}" if path else str(key))


def write_json(path: Path, payload: dict) -> None:
    """payload as indented JSON with sorted keys and a final newline, in one write;
    ValueError naming the file and key of a non-finite float, which JSON cannot hold."""
    _refuse_non_finite(payload, path.name)   # allow_nan=False below is only a backstop
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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
# dependence on the configuration.  A check is defined once, on its stage's
# record in _STAGES, as name: (comparator, bound); CHECKS is the view of them all

_COMPARATORS = {
    "<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt, "==": operator.eq,
    "open_interval": lambda value, bound: bound[0] < value < bound[1],
}


def judge(name: str, value) -> bool:
    """True when value passes the check name."""
    _, comparator, bound = CHECKS[name]
    return bool(_COMPARATORS[comparator](value, bound))


def _smallest_step(values) -> float:
    """min of values[i] - values[i+1] over two values or more: positive iff strictly decreasing."""
    return min(a - b for a, b in zip(values, values[1:]))


def _exponent_error(study: ang.BlowupStudy) -> float:
    fit, expected = study.fitted_exponent, study.expected_exponent
    return math.inf if fit is None else abs(fit - expected) / expected


# ---------------------------------------------------------------------------
# stages: measure_<stage> maps explicit inputs to the checked quantities (keyed
# by check name) and what the artifacts need; run_<stage> takes the inputs
# from the run's Lab, writes the artifacts and returns (measured, report), the
# measured values keyed by check name

def run_spectrum(lab: Lab, outdir: Path):
    cfg = lab.cfg
    basis = lab.basis(cfg.lam, cfg.spectrum_modes)
    table = spc.bessel_oracle_table(basis)   # the measurement: (k, mu_k, oracle, rel_err) rows
    write_csv(outdir / "spectrum.csv", ["k", "mu_k", "bessel_oracle", "rel_err"], table.T)
    worst = float(table[:, 3].max())
    return {"spectrum_oracle_rel_err": worst}, {
        "worst_rel_err": worst, "bessel_order": basis.bessel_order}


def measure_hardy(n_interior: int, rng: np.random.Generator) -> dict:
    """Rayleigh quotients of 1000 random vectors, drawn 100 rows at a time into one
    buffer (the stream of 1000 one-row draws); pencil infima at n/4, n/2 and n nodes."""
    grid = spc.RadialGrid(n_interior)
    draws = np.empty((100, n_interior))
    ratios = np.concatenate([spc.hardy_rayleigh(grid, rng.standard_normal(out=draws))
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
    return m, {
        "min_ratio": m["hardy_sweep_bound"], "pencil": m["pencil"],
        "sizes": {"rayleigh_vectors": len(m["ratios"])}}


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
    return m, {"norm_drift": m["evolution_norm_drift"],
               "reversal_error": m["evolution_time_reversal"],
               "sizes": {"mask_nodes": mask.n_nodes}}


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


def run_kernel(lab: Lab, outdir: Path):
    cfg = lab.cfg
    kernel = _kernel(lab, cfg.k_trunc, cfg.kernel_t_nodes)
    t_nodes, tau_nodes = kernel.t_nodes, kernel.tau_nodes
    m = measure_kernel(kernel)
    t_rows = slice(None, None, max(1, (len(t_nodes) - 1) // 50))
    tau_cols = slice(None, None, max(1, (len(tau_nodes) - 1) // 128))
    write_csv(outdir / "kernel.csv", ["t", "tau", "re_k", "im_k"], _sampled(
        t_nodes[t_rows], tau_nodes[tau_cols], kernel.sub_grid(t_rows, tau_cols), 1, 1))
    res = m["residual"]
    write_json(outdir / "kernel_residual.json", {
        "max_residual": res.max_residual, "max_kernel": res.max_kernel,
        "tail_match_error": res.tail_match_error,
        "control_trace_sup": float(np.abs(fla.control_trace(kernel)).max())})
    return m, {"ratio": m["kernel_residual_ratio"], "boundary": m["kernel_boundary_exact"],
               "sizes": {"tau_nodes": len(kernel.tau_nodes)}}


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
        "per_mode": m["per_mode"].tolist(), "moments_abs": np.abs(m["moments"]).tolist()})
    return m, {
        "residual": m["transform_residual"], "moment_consistency": m["transform_moment_consistency"],
        "sizes": {"tau_nodes": len(kernel.tau_nodes)}}


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
        "mask": {"intervals": mask.intervals, "measure": mask.realized_measure()},
        "singular_values": obs.singular_values.tolist(),
        "ucp_singular_values": ucp.singular_values.tolist(), "ucp_condition": ucp.condition})
    write_json(outdir / "certificate.json", {
        "eta": cert.eta, "sigma_min": cert.sigma_min, "bound": cert.bound, "c0_norm": cert.c0_norm})
    return m, {
        "rank": obs.rank, "ucp_rank": ucp.rank,
        "sizes": {"mask_nodes": mask.n_nodes, "ucp_window_nodes": UCP_WINDOW_NODES}}


def measure_angular(n_ang: int) -> dict:
    """Circle spectra over a coupling sweep; the arc oracle and blow-up study at lam = 0."""
    rows, mu1, solved = [], [], []
    for lam in (0.0, 0.1, 0.1875, 0.24):
        prob = ang.AngularProblem(lam, n_ang)
        basis = ang.angular_spectrum(prob, 8)
        solved.append((prob, basis))
        mu1.append(basis.eigenvalues[0])
        for k, mu in enumerate(basis.eigenvalues, 1):
            rows.append((lam, k, mu, ang.gamma_exponent(mu, ang.CIRCLE_DIMENSION)))
    prob0, basis0 = solved[0]      # the sweep starts at lam = 0
    arcvals = basis0.eigenvalues[::2][:4]
    study = ang.blowup_profile_check([1.0, 0.5], [1.0, 2.0], basis0.eigenvectors[:, [0, 2]],
                                     prob0.spacing)
    gamma_defect = max(abs(g * (g + ang.CIRCLE_DIMENSION - 2) - mu) for _, _, mu, g in rows)
    oracle_err = float(max(abs(v - (j + 1) ** 2) / (j + 1) ** 2 for j, v in enumerate(arcvals)))
    return {"rows": rows, "study": study, "angular_gamma_identity": gamma_defect,
            "angular_arc_oracle": oracle_err, "angular_monotone_in_lam": _smallest_step(mu1),
            "angular_blowup_exponent": _exponent_error(study)}


def run_angular(lab: Lab, outdir: Path):
    m = measure_angular(lab.cfg.n_ang)
    study = m["study"]
    write_csv(outdir / "angular_spectrum.csv", ["lam", "k", "mu_k", "gamma_k"], zip(*m["rows"]))
    write_csv(outdir / "blowup.csv", ["r", "discrepancy"], [study.radii, study.discrepancies])
    return m, {"gamma_defect": m["angular_gamma_identity"], "oracle_err": m["angular_arc_oracle"],
               "blowup_exponent": study.fitted_exponent,
               "sizes": {"spectrum_rows": len(m["rows"])}}


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
    header = ["eps", "defect", "cost"]   # lambda_min(G) is reports.hum.sigma_min
    write_csv(outdir / "defect_curve.csv", header, [[r[key] for r in m["curve"]] for key in header])
    columns = _sampled(m["times"], basis.grid.nodes[mask.node_indices],
                       m["control"].control_samples, 4, max(1, mask.n_nodes // 40))
    write_csv(outdir / "control.csv", ["t", "node", "re_h", "im_h"], columns)
    return m, {"identity_gap": m["hum_defect_identity"], "sigma_min": m["lambda_min"],
               "sizes": {"mask_nodes": mask.n_nodes, "sample_times": len(m["times"])}}


def _linear_rho(grid: evo.TimeGrid, rho0: float, slope: float) -> inv.VolterraSystem:
    """The Volterra system of rho(t) = rho0 + slope t on the grid."""
    return inv.VolterraSystem(grid, rho0 + slope * grid.times, np.full_like(grid.times, slope))


def measure_inverse(basis6: spc.SpectralBasis, basis1: spc.SpectralBasis, f6: np.ndarray,
                    zr: np.ndarray, recon_grid: evo.TimeGrid, id_grid: evo.TimeGrid) -> dict:
    """Recovery of f6 and round trip of zr on recon_grid; on id_grid with one mode,
    the identity chain, the rho(0) = 0 rejection and the two rho(0) = 0 routes.
    Each part drops its long-grid arrays once it has read its numbers."""
    sys6 = _linear_rho(recon_grid, 1.0, 0.5)
    recon = inv.reconstruct_f(evo.duhamel_solve(f6, sys6.rho, basis6, recon_grid), sys6,
                              basis6.eigenvalues, f6)
    roundtrip = float(np.abs(inv.volterra_invert(sys6, inv.volterra_apply(sys6, zr)) - zr).max())
    f1 = np.array([1.0 + 0.0j])
    return {"reconstruction": recon, "inverse_roundtrip": roundtrip,
            "inverse_reconstruction": (math.inf if recon.relative_error is None
                                       else recon.relative_error),
            **_identity_chain(basis1, f1, id_grid), **_vanishing_rho_routes(basis1, f1, id_grid)}


def _identity_chain(basis1: spc.SpectralBasis, f1: np.ndarray, grid: evo.TimeGrid) -> dict:
    """K z = du/dt, u = rho * z and z' = i mu z for the recovered z of rho(t) = 1 + t/2."""
    sys1 = _linear_rho(grid, 1.0, 0.5)
    traj1 = evo.duhamel_solve(f1, sys1.rho, basis1, grid)
    rec1 = inv.reconstruct_f(traj1, sys1, basis1.eigenvalues, f1)
    return {"inverse_factorization_identity": rec1.factorization_residual,
            "inverse_convolution_identity": inv.duhamel_identity_residual(traj1, sys1, rec1.z),
            "inverse_free_evolution": float(
                inv.free_evolution_check(rec1.z, basis1.eigenvalues, grid.dt).max())}


def _vanishing_rho_routes(basis1: spc.SpectralBasis, f1: np.ndarray, grid: evo.TimeGrid) -> dict:
    """For rho(t) = t: the rejected second-kind inversion, and the antiderivative
    reduction against the convolution route."""
    sys_t = _linear_rho(grid, 0.0, 1.0)
    rejected = False
    try:
        inv.volterra_invert(sys_t, np.ones(len(grid.times), dtype=complex))
    except ValueError:
        rejected = True
    w = inv.antiderivative_reduce(evo.duhamel_solve(f1, sys_t.rho, basis1, grid))
    route4 = inv.convolve_source(evo.cumulative_trapezoid(sys_t.rho, grid.dt),
                                 evo.free_trajectory(-1j * f1, basis1, grid), basis1.eigenvalues)
    return {"inverse_rho0_rejected": rejected,
            "inverse_reduction_agreement": float(np.abs(route4.y.coeffs - w.coeffs).max()),
            "source_identity_residual": route4.source_identity_residual}


def run_inverse(lab: Lab, outdir: Path):
    cfg, lam = lab.cfg, INVERSE_LAM
    recon_grid = evo.TimeGrid(cfg.horizon, cfg.recon_steps)
    id_grid = evo.TimeGrid(cfg.horizon, cfg.inverse_steps)
    f6 = _complex_normal(np.random.default_rng(cfg.seed), 6)
    zr = _complex_normal(np.random.default_rng(cfg.seed + 1), cfg.recon_steps + 1)
    basis6 = lab.basis(lam, 6)
    m = measure_inverse(basis6, lab.basis(lam, 1), f6, zr, recon_grid, id_grid)
    recon = m["reconstruction"]
    write_json(outdir / "reconstruction.json", {
        "lambda": lam, "f_true": [[c.real, c.imag] for c in f6],
        "f_recovered": [[c.real, c.imag] for c in recon.f_recovered],
        "source_identity_residual": m["source_identity_residual"]})
    return m, {
        "roundtrip": m["inverse_roundtrip"], "rel_err": recon.relative_error,
        "id_conv": m["inverse_convolution_identity"], "id_free": m["inverse_free_evolution"],
        "agreement": m["inverse_reduction_agreement"],
        "sizes": {"modes": basis6.k_modes}}


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
    """Support additivity of 20 pairs of random bumps on 2 * steps steps over (0, 2 horizon).
    Every length scales with horizon: at a power of two the rows are horizon times those at 1."""
    grid = evo.TimeGrid(2.0 * horizon, 2 * steps)
    rows = []
    for _ in range(20):
        a = _random_bump(rng, grid.times, 0.05 * horizon, 0.9 * horizon, 8 * grid.dt)
        b = _random_bump(rng, grid.times, 0.05 * horizon, 0.9 * horizon, 8 * grid.dt)
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
    return m, {
        "worst_gap": m["worst_gap"], "dt": m["dt"],
        "sizes": {"steps": 2 * cfg.recon_steps, "pairs": len(m["rows"])}}


class _Stage(NamedTuple):
    runner: object      # (lab, outdir) -> (measured, report), measured keyed by check name
    reads: frozenset    # the LabConfig fields its run reads, through the Lab or not; in manifests
    coupling: object    # cfg -> the coupling it solves, None if it solves none
    rules: tuple        # its cross-field rules, each called as rule(lab, coupling)
    checks: dict        # its checks, name: (comparator, bound), judged on what it measured


_BASIS, _MASK = "dimension_n n_interior", "mask_kind mask_a mask_b"   # read by a basis, a mask
# the coupling of the stages that solve at lam, and the rules of those that form exp(i mu t)
_LAM, _PHASES = operator.attrgetter("lam"), (_bessel_order, _phase_ceiling)
_STAGES = {name: _Stage(runner, frozenset(reads.split()), coupling, tuple(rules), checks)
           for name, runner, reads, coupling, checks, *rules in (   # in the order 'all' runs them
    ("spectrum", run_spectrum, f"{_BASIS} lam spectrum_modes", _LAM, {
        "spectrum_oracle_rel_err": ("<=", 1e-2)},   # worst rel. error vs the Bessel oracle
     _bessel_order),
    ("hardy", run_hardy, "n_interior seed", None, {
        "hardy_sweep_bound": (">=", 0.25 - 1e-10),   # least of 1000 Rayleigh quotients
        "hardy_pencil_decreasing": (">", 0.0),       # smallest drop, n/4 to n/2 to n nodes
        "hardy_pencil_in_range": ("open_interval", (0.25, 0.30))}),
    ("evolve", run_evolve, f"{_BASIS} {_MASK} horizon k_modes lam seed time_steps", _LAM, {
        "evolution_norm_drift": ("<=", 1e-12), "evolution_time_reversal": ("<=", 1e-12)},
     *_PHASES, _MASK_NODES),
    ("kernel", run_kernel, "horizon k_trunc kernel_t_nodes tau_steps", None, {
        "kernel_boundary_exact": ("<=", 1e-12),
        "kernel_tail_match": ("<=", 1e-8),          # over max(max residual, 1)
        "kernel_residual_ratio": ("<=", 1e-6)}, _BUMP_RANGE),
    ("transform", run_transform, f"{_BASIS} horizon k_modes lam tau_steps transform_k_trunc "
     "transform_t_nodes", _LAM, {
        "transform_residual": ("<=", 1e-5), "transform_moment_consistency": ("<=", 1e-12)},
     *_PHASES, _BUMP_RANGE),
    ("uniqueness", run_uniqueness, f"{_BASIS} {_MASK} horizon k_modes lam obs_time_steps seed "
     "tau_steps", _LAM, {
        "observability_full_rank": ("==", 0),   # rank deficit, k_modes - rank
        "ucp_full_rank": ("==", 0),             # rank deficit, 2 k_modes - rank
        "uniqueness_reconstruction": ("<=", 1e-8)}, *_PHASES, _MASK_NODES, _mask_samples),
    ("angular", run_angular, "n_ang", None, {
        "angular_gamma_identity": ("<=", 1e-12),
        "angular_arc_oracle": ("<=", 5e-3),
        "angular_monotone_in_lam": (">", 0.0),     # smallest drop of mu_1 as lam grows
        "angular_blowup_exponent": ("<=", 0.1)}),  # relative error; no fit fails the stage
    ("hum", run_hum, f"{_BASIS} {_MASK} eps_list horizon hum_verify_steps k_modes lam seed", _LAM, {
        "hum_hermitian": ("<=", 1e-14),
        "hum_psd": (">=", -1e-14),                   # lambda_min / max(lambda_max, 1)
        "hum_defect_identity": ("<=", 1e-6),
        "hum_defect_decreasing": (">", 0.0),         # smallest drop along eps_list
        "hum_cost_nondecreasing": (">=", -1e-12)},   # smallest rise along eps_list
     *_PHASES, _MASK_NODES),
    ("inverse-source", run_inverse, f"{_BASIS} horizon inverse_steps recon_steps seed",
     lambda cfg: INVERSE_LAM, {
        "inverse_roundtrip": ("<=", 1e-10),
        "inverse_reconstruction": ("<=", 1e-3),   # a zero source fails the stage
        "inverse_factorization_identity": ("<=", 1e-8),
        "inverse_convolution_identity": ("<=", 1e-6),
        "inverse_free_evolution": ("<=", 1e-4),
        "inverse_rho0_rejected": ("==", True),
        "inverse_reduction_agreement": ("<=", 1e-6)}, *_PHASES, _chain_ceiling),
    ("titchmarsh", run_titchmarsh, "horizon recon_steps seed", None, {
        "titchmarsh_additivity": ("<=", 2.0)},   # worst gap in units of dt
     _titchmarsh_step))}
_RUNNERS = {name: stage.runner for name, stage in _STAGES.items()}
# name: (stage, comparator, bound) of every check, in the order the stages run
CHECKS = {name: (stage, *check) for stage, record in _STAGES.items()
          for name, check in record.checks.items()}


def _run_stages(subcommand: str, lab: Lab, outdir: Path) -> dict[str, bool]:
    """Run the stages into outdir with OpenBLAS on one thread, then write the manifest."""
    started = time.monotonic()
    checks, details, reports, stage_seconds, stage_rss = {}, {}, {}, {}, {}
    with lapack.one_blas_thread() as blas:
        for name in lab.stages:
            stage_started = time.monotonic()
            try:
                measured, rep = _RUNNERS[name](lab, outdir)
                # each check on the stage's record reads its value (a missing one fails the
                # stage), and the rest of what it measured is dropped before the next stage
                measured = {key: measured[key] for key in _STAGES[name].checks}
                # a non-finite or unserializable value fails its stage here, by name, not
                # the manifest's write; allow_nan=False is only a backstop to the walk
                recorded = {"check": measured, "report": rep}
                _refuse_non_finite(recorded)
                json.dumps(recorded, allow_nan=False, default=_json_default)
            except Exception as exc:
                raise StageFailure(name, exc) from exc
            stage_seconds[name] = time.monotonic() - stage_started
            if resource is not None:   # the high-water mark in MiB; macOS counts bytes, Linux KiB
                stage_rss[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
                    2**20 if sys.platform == "darwin" else 2**10)
            for key, value in measured.items():
                _, comparator, bound = CHECKS[key]
                checks[key] = judge(key, value)
                details[key] = {"value": value, "comparator": comparator, "bound": bound}
            reports[name] = rep
    digests = {p.name: _digest(p) for p in sorted(outdir.iterdir())
               if p.suffix in (".csv", ".json")}
    write_json(outdir / "manifest.json", {
        "artifact_version": ARTIFACT_VERSION, "subcommand": subcommand,
        "config": dataclasses.asdict(lab.cfg),
        "reads": {name: sorted(_STAGES[name].reads) for name in lab.stages},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "lapack": lapack.LIBRARY, "blas": blas},
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.monotonic() - started, "stage_seconds": stage_seconds,
        **({"stage_max_rss_mb": stage_rss} if resource is not None else {}),
        "checks": checks, "check_details": details, "reports": reports, "digests": digests})
    return checks


def run(subcommand: str, cfg: LabConfig, out_root: Path, check: bool = False) -> int:
    """Execute one subcommand (or 'all'), write artifacts + manifest.  The stages write into
    a hidden sibling directory, which takes the stamped name only once the manifest is
    written; if a stage raises, it is removed."""
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
        checks = _run_stages(subcommand, lab, workdir)
        workdir.rename(outdir)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    print(json.dumps({"outdir": str(outdir), "checks": checks}, sort_keys=True))
    return int(check and not all(checks.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hardylab", description="Numerical laboratory for the "
                                     "singular Schrodinger operator with an inverse-square "
                                     "potential")
    parser.add_argument("subcommand", choices=(*_RUNNERS, "all"))
    parser.add_argument("--config", default=None, help="key = value configuration file")
    parser.add_argument("--out", default="out", help="output root")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on any tolerance breach")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        return run(args.subcommand, cfg, Path(args.out), check=args.check)
    except spc.SupercriticalCouplingError as exc:
        print(json.dumps({"error": "supercritical_coupling", "lambda": exc.lam,
                          "lambda_star": exc.lam_star, "dimension": exc.dimension,
                          "message": str(exc)}, sort_keys=True))
        return 3
    except StageFailure as exc:
        print(json.dumps({"error": "stage_failure", "stage": exc.stage,
                          "exception": exc.exception, "message": str(exc)}, sort_keys=True))
        return 4
    except ValueError as exc:
        # only loading, validation and creating the run directory raise ValueError here
        print(json.dumps({"error": "invalid_config", "message": str(exc)}, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
