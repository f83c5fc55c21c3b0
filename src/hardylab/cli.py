"""Batch front end: presets, deterministic runs, CSV/JSON artifacts.

Every subcommand writes its tables plus a manifest (config snapshot, check
booleans, each stage's report of measured values and wall seconds, sha256
digests) into a stamped directory under --out (overridden by the LAB_OUT
environment variable); the directory appears under its stamped name only
once the manifest is written.  Bodies of the CSV/JSON artifacts are
functions of config and seed only, so repeated runs digest identically.

Exit codes: 0 success, 1 tolerance breach under --check, 2 invalid
configuration, 3 supercritical coupling, 4 a stage failed on a configuration
that passed validation: it raised ValueError, RuntimeError (which covers
IllPosedTruncationError, a failed eigenpair residual and a Gramian that is
not positive definite) or FloatingPointError.  The stage_failure payload
names the stage and the exception class, and no output directory is left.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import angular as ang
from . import bessel as bes
from . import control as ctl
from . import elliptic as ell
from . import evolution as evo
from . import flatness as fla
from . import inverse as inv
from . import spectral as spc
from .errors import SupercriticalCouplingError

ARTIFACT_VERSION = "0.1.0"
ORACLE_REL_TOL = 1e-2   # worst relative error of the spectrum vs the Bessel oracle


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

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["eps_list"] = list(self.eps_list)
        return out


def validate_config(cfg: LabConfig) -> None:
    if cfg.dimension_n < 1 or cfg.dimension_n == 2:
        raise ConfigError(f"dimension_n must be a positive integer != 2, got {cfg.dimension_n}")
    lam_star = spc.critical_constant(cfg.dimension_n)
    if cfg.lam >= lam_star:
        raise SupercriticalCouplingError(cfg.lam, lam_star, cfg.dimension_n)
    # the spectrum stage checks against Bessel zeros; their range is closed-form
    nu = spc.bessel_order(cfg.lam, cfg.dimension_n)
    if nu > bes.MAX_ZERO_ORDER:
        raise ConfigError(
            f"Bessel oracle order nu = {nu:.6g} exceeds {bes.MAX_ZERO_ORDER:g}; "
            "lower dimension_n or raise lam"
        )
    max_modes = bes.zero_count_bound(nu)
    if not 1 <= cfg.spectrum_modes <= max_modes:
        raise ConfigError(
            f"spectrum_modes must lie in [1, {max_modes}]: the oracle finds "
            f"{max_modes} zeros of J_{nu:.6g} below {bes.ZERO_SEARCH_MAX:g}"
        )
    if cfg.n_interior < 8:
        raise ConfigError("n_interior must be at least 8")
    if cfg.n_ang < 64:
        raise ConfigError("n_ang must be at least 64")
    if cfg.horizon <= 0:
        raise ConfigError("horizon must be positive")
    if cfg.k_modes < 1 or cfg.k_modes > cfg.n_interior:
        raise ConfigError("k_modes must lie in [1, n_interior]")
    if not 0 < cfg.k_trunc <= fla.MAX_TRUNCATION:
        raise ConfigError(f"k_trunc must lie in (0, {fla.MAX_TRUNCATION}]")
    if not 0 < cfg.transform_k_trunc <= fla.MAX_TRUNCATION:
        raise ConfigError(f"transform_k_trunc must lie in (0, {fla.MAX_TRUNCATION}]")
    if cfg.mask_kind not in ("interval", "cantor"):
        raise ConfigError("mask_kind must be 'interval' or 'cantor'")
    if not (0.0 <= cfg.mask_a < cfg.mask_b <= 1.0):
        raise ConfigError("mask interval must satisfy 0 <= a < b <= 1")
    if any(e <= 0 for e in cfg.eps_list):
        raise ConfigError("eps_list entries must be positive")
    if any(b >= a for a, b in zip(cfg.eps_list, cfg.eps_list[1:])):
        raise ConfigError("eps_list must be strictly decreasing")
    for name in ("time_steps", "obs_time_steps", "tau_steps", "inverse_steps",
                 "recon_steps", "hum_verify_steps"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be positive")
    if cfg.inverse_steps < 2:
        # the rho(0) = 0 route certifies itself with centered differences
        raise ConfigError("inverse_steps must be at least 2")
    try:
        _mask(cfg, spc.RadialGrid(cfg.n_interior))
    except ValueError as exc:
        raise ConfigError(f"observation mask: {exc}") from exc


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
        current = getattr(cfg, key)
        try:
            if key == "eps_list":
                parsed = tuple(float(v) for v in value.split(","))
            elif isinstance(current, int):
                parsed = int(value)
            elif isinstance(current, float):
                parsed = float(value)
            else:
                parsed = value
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


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# shared builders

def _basis(cfg: LabConfig, lam: float | None = None, k: int | None = None) -> spc.SpectralBasis:
    grid = spc.RadialGrid(cfg.n_interior)
    op = spc.assemble_hardy_operator(grid, cfg.lam if lam is None else lam, cfg.dimension_n)
    return spc.solve_spectrum(op, cfg.k_modes if k is None else k)


def _mask(cfg: LabConfig, grid: spc.RadialGrid) -> evo.ObservationMask:
    if cfg.mask_kind == "interval":
        return evo.interval_mask(grid, cfg.mask_a, cfg.mask_b)
    return evo.fat_cantor_mask(grid, (cfg.mask_a, cfg.mask_b))


def _complex_normal(rng: np.random.Generator, k: int) -> np.ndarray:
    """k standard complex normals: k real parts drawn first, then k imaginary."""
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def _sampled(xs, ys, values: np.ndarray, x_stride: int, y_stride: int) -> list[tuple]:
    """Rows (x_i, y_j, Re v_ij, Im v_ij) on every x_stride-th x and y_stride-th y."""
    return [(xs[i], ys[j], values[i, j].real, values[i, j].imag)
            for i in range(0, len(xs), x_stride) for j in range(0, len(ys), y_stride)]


# ---------------------------------------------------------------------------
# subcommand runners: each returns (checks, report) and writes artifacts

def run_spectrum(cfg: LabConfig, outdir: Path):
    basis = _basis(cfg, k=cfg.spectrum_modes)
    table = spc.bessel_oracle_table(basis)
    write_csv(outdir / "spectrum.csv", ["k", "mu_k", "bessel_oracle", "rel_err"], table)
    worst = float(table[:, 3].max())
    checks = {"spectrum_oracle_rel_err": worst <= ORACLE_REL_TOL}
    return checks, {"worst_rel_err": worst, "bessel_order": basis.bessel_order}


def run_hardy(cfg: LabConfig, outdir: Path):
    grid = spc.RadialGrid(cfg.n_interior)
    rng = np.random.default_rng(cfg.seed)
    ratios = np.array([
        spc.hardy_rayleigh(grid, rng.standard_normal(cfg.n_interior))
        for _ in range(1000)
    ])
    sizes = [cfg.n_interior // 4, cfg.n_interior // 2, cfg.n_interior]
    pencil = [(n, spc.hardy_pencil_infimum(spc.RadialGrid(n))) for n in sizes]
    write_csv(outdir / "hardy_pencil.csv", ["n_interior", "infimum"], pencil)
    write_csv(outdir / "hardy_sweep.csv", ["stat", "value"],
              [("min_ratio", ratios.min()), ("mean_ratio", ratios.mean())])
    inf_final = pencil[-1][1]
    checks = {
        "hardy_sweep_bound": bool(ratios.min() >= 0.25 - 1e-10),
        "hardy_pencil_decreasing": all(a[1] > b[1] for a, b in zip(pencil, pencil[1:])),
        "hardy_pencil_in_range": bool(0.25 < inf_final < 0.30),
    }
    return checks, {"min_ratio": float(ratios.min()), "pencil": pencil}


def run_evolve(cfg: LabConfig, outdir: Path):
    basis = _basis(cfg)
    rng = np.random.default_rng(cfg.seed)
    c0 = _complex_normal(rng, cfg.k_modes)
    state = evo.ModeState(c0)
    drift = 0.0
    reversal = 0.0
    for t in np.linspace(0.25, 10.0, 40):
        fwd = evo.propagate(state, basis, t)
        drift = max(drift, abs(fwd.norm() - state.norm()))
        back = evo.propagate(fwd, basis, -t)
        reversal = max(reversal, float(np.abs(back.coeffs - c0).max()))
    tg = evo.TimeGrid(cfg.horizon, cfg.time_steps)
    mask = _mask(cfg, basis.grid)
    samples = evo.observe(evo.free_trajectory(c0, basis, tg), mask, basis)
    rows = _sampled(tg.times, basis.grid.nodes[mask.node_indices], samples,
                    max(1, tg.steps // 100), max(1, mask.n_nodes // 40))
    write_csv(outdir / "trajectory.csv", ["t", "node", "re_u", "im_u"], rows)
    checks = {
        "evolution_norm_drift": drift <= 1e-12,
        "evolution_time_reversal": reversal <= 1e-12,
    }
    return checks, {"norm_drift": drift, "reversal_error": reversal}


def run_kernel(cfg: LabConfig, outdir: Path):
    bump = fla.gevrey_bump(cfg.horizon, 2.0)
    t_nodes = np.linspace(-1.0, 1.0, cfg.kernel_t_nodes)
    tau_nodes = evo.TimeGrid(cfg.horizon, cfg.tau_steps).times
    kernel = fla.build_kernel(bump, t_nodes, tau_nodes, cfg.k_trunc)
    report = fla.kernel_residual(kernel)
    # evaluate only the boundary slices and the sample, never the dense kernel
    psi = bump(tau_nodes)
    boundary = max(
        float(np.abs(kernel.sub_grid(tau_index=[0, -1])).max()),
        float(np.abs(kernel.rows(0, 1)[0] - psi).max()),
    )
    trace = fla.control_trace(kernel)
    t_rows = slice(None, None, max(1, (len(t_nodes) - 1) // 50))
    tau_cols = slice(None, None, max(1, (len(tau_nodes) - 1) // 128))
    rows = _sampled(t_nodes[t_rows], tau_nodes[tau_cols], kernel.sub_grid(t_rows, tau_cols), 1, 1)
    write_csv(outdir / "kernel.csv", ["t", "tau", "re_k", "im_k"], rows)
    ratio = report.max_residual / report.max_kernel
    write_json(outdir / "kernel_residual.json", {
        "config": cfg.to_dict(),
        "k_trunc": cfg.k_trunc,
        "max_residual": report.max_residual,
        "max_kernel": report.max_kernel,
        "residual_over_max_kernel": ratio,
        "tail_match_error": report.tail_match_error,
        "boundary_defect": boundary,
        "control_trace_sup": float(np.abs(trace).max()),
    })
    checks = {
        "kernel_boundary_exact": boundary <= 1e-12,
        "kernel_tail_match": report.tail_match_error <= 1e-8 * max(report.max_residual, 1.0),
        "kernel_residual_ratio": ratio <= 1e-6,
    }
    return checks, {"ratio": ratio, "boundary": boundary}


def run_transform(cfg: LabConfig, outdir: Path):
    basis = _basis(cfg)
    bump = fla.gevrey_bump(cfg.horizon, 2.0)
    tau_grid = evo.TimeGrid(cfg.horizon, cfg.tau_steps)
    t_nodes = np.linspace(-1.0, 1.0, cfg.transform_t_nodes)
    kernel = fla.build_kernel(bump, t_nodes, tau_grid.times, cfg.transform_k_trunc)
    trajectory = evo.free_trajectory(np.ones(cfg.k_modes), basis, tau_grid)
    profile = ell.transform(trajectory, kernel, basis.eigenvalues)
    residual, per_mode = ell.elliptic_residual(profile)
    moments = ell.moment_trace(bump, trajectory)
    consistency = float(np.abs(profile.values[:, 0] - moments).max())
    rows = _sampled(range(1, profile.k_modes + 1), t_nodes, profile.values,
                    1, max(1, (len(t_nodes) - 1) // 200))
    write_csv(outdir / "elliptic_profile.csv", ["k", "t", "re_w", "im_w"], rows)
    write_json(outdir / "transform_report.json", {
        "config": cfg.to_dict(),
        "k_trunc": cfg.transform_k_trunc,
        "residual": residual,
        "per_mode": per_mode.tolist(),
        "moment_consistency": consistency,
        "moments_abs": np.abs(moments).tolist(),
    })
    checks = {
        "transform_residual": residual <= 1e-5,
        "transform_moment_consistency": consistency <= 1e-12,
    }
    return checks, {"residual": residual, "moment_consistency": consistency}


def run_uniqueness(cfg: LabConfig, outdir: Path):
    basis = _basis(cfg)
    mask = _mask(cfg, basis.grid)
    obs_grid = evo.TimeGrid(cfg.horizon, cfg.obs_time_steps)
    report = evo.observability_matrix(basis, mask, obs_grid)
    window = ell.CylinderWindow(mask, np.linspace(-1.0, 1.0, 33))
    ucp = ell.ucp_probe(basis, window)
    rng = np.random.default_rng(cfg.seed)
    c0 = _complex_normal(rng, cfg.k_modes)
    bump = fla.gevrey_bump(cfg.horizon, 2.0)
    cert = ell.uniqueness_pipeline(
        c0, basis, mask, bump, evo.TimeGrid(cfg.horizon, cfg.tau_steps),
        k_trunc=cfg.transform_k_trunc,
    )
    write_json(outdir / "observability.json", {
        "config": cfg.to_dict(),
        "mask": {"kind": mask.kind, "intervals": mask.intervals,
                 "n_nodes": mask.n_nodes, "measure": mask.realized_measure()},
        "singular_values": report.singular_values.tolist(),
        "rank": report.rank,
        "ucp_singular_values": ucp.singular_values.tolist(),
        "ucp_rank": ucp.rank,
        "ucp_condition": ucp.condition,
    })
    write_json(outdir / "certificate.json", {
        "config": cfg.to_dict(),
        "eta": cert.eta,
        "sigma_min": cert.sigma_min,
        "bound": cert.bound,
        "c0_norm": cert.c0_norm,
        "reconstruction_error": cert.reconstruction_error,
        "residuals": cert.residuals,
    })
    checks = {
        "observability_full_rank": report.rank == cfg.k_modes,
        "ucp_full_rank": ucp.rank == 2 * cfg.k_modes,
        "uniqueness_reconstruction": cert.reconstruction_error <= 1e-8,
    }
    return checks, {"rank": report.rank, "ucp_rank": ucp.rank}


def run_angular(cfg: LabConfig, outdir: Path):
    lam_sweep = (0.0, 0.1, 0.1875, 0.24)
    rows = []
    mu1 = []
    for lam in lam_sweep:
        prob = ang.AngularProblem(lam, cfg.n_ang)
        basis = ang.angular_spectrum(prob, 8)
        mu1.append(basis.eigenvalues[0])
        for k in range(basis.count):
            mu = basis.eigenvalues[k]
            rows.append((lam, k + 1, mu, ang.gamma_exponent(mu, prob.dimension_N)))
    write_csv(outdir / "angular_spectrum.csv", ["lam", "k", "mu_k", "gamma_k"], rows)
    gamma_defect = max(
        abs(g * (g + prob.dimension_N - 2) - mu)
        for lam, k, mu, g in rows
    )
    prob0 = ang.AngularProblem(0.0, cfg.n_ang)
    basis0 = ang.angular_spectrum(prob0, 8)
    arcvals = basis0.eigenvalues[::2][:4]
    oracle_err = float(max(
        abs(v - (j + 1) ** 2) / (j + 1) ** 2 for j, v in enumerate(arcvals)
    ))
    study = ang.blowup_profile_check(
        [1.0, 0.5], [1.0, 2.0], basis0.eigenvectors[:, [0, 2]], prob0.spacing
    )
    write_csv(outdir / "blowup.csv", ["r", "discrepancy"],
              list(zip(study.radii, study.discrepancies)))
    checks = {
        "angular_gamma_identity": gamma_defect <= 1e-12,
        "angular_arc_oracle": oracle_err <= 5e-3,
        "angular_monotone_in_lam": all(a > b for a, b in zip(mu1, mu1[1:])),
        "angular_blowup_exponent": (
            study.fitted_exponent is not None
            and abs(study.fitted_exponent - study.expected_exponent)
            <= 0.1 * study.expected_exponent
        ),
    }
    return checks, {"gamma_defect": gamma_defect, "oracle_err": oracle_err,
                    "blowup_exponent": study.fitted_exponent}


def run_hum(cfg: LabConfig, outdir: Path):
    basis = _basis(cfg)
    mask = _mask(cfg, basis.grid)
    gram = ctl.gramian(basis, mask, cfg.horizon)
    herm = float(np.abs(gram.matrix - gram.matrix.conj().T).max())
    eigs = np.linalg.eigvalsh(gram.matrix)
    rng = np.random.default_rng(cfg.seed)
    u0 = evo.ModeState(_complex_normal(rng, cfg.k_modes))
    ud = evo.ModeState(_complex_normal(rng, cfg.k_modes))
    curve = ctl.defect_curve(gram, u0, ud, cfg.eps_list)
    write_csv(outdir / "defect_curve.csv", ["eps", "defect", "cost", "sigma_min"],
              [(r["eps"], r["defect"], r["cost"], r["sigma_min"]) for r in curve])
    times = np.linspace(0.0, cfg.horizon, 201)
    result = ctl.hum_solve(gram, u0, ud, 1e-3, sample_times=times, basis=basis)
    forward = ctl.verify_control(result, gram, n_steps=cfg.hum_verify_steps)
    identity_gap = abs(forward - result.defect_predicted)
    rows = _sampled(times, basis.grid.nodes[mask.node_indices], result.control_samples,
                    4, max(1, mask.n_nodes // 40))
    write_csv(outdir / "control.csv", ["t", "node", "re_h", "im_h"], rows)
    defects = [r["defect"] for r in curve]
    costs = [r["cost"] for r in curve]
    checks = {
        "hum_hermitian": herm <= 1e-14,
        "hum_psd": bool(eigs[0] >= -1e-14 * max(eigs[-1], 1.0)),
        "hum_defect_identity": identity_gap <= 1e-6,
        "hum_defect_decreasing": all(a > b for a, b in zip(defects, defects[1:])),
        "hum_cost_nondecreasing": all(b >= a - 1e-12 for a, b in zip(costs, costs[1:])),
    }
    # sigma_min here is lambda_min(G), an eigenvalue (see Gramian.sigma_min)
    return checks, {"identity_gap": identity_gap, "sigma_min": float(eigs[0])}


def run_inverse(cfg: LabConfig, outdir: Path):
    lam = 3.0 / 16.0
    basis6 = _basis(cfg, lam=lam, k=6)
    rng = np.random.default_rng(cfg.seed)
    f6 = _complex_normal(rng, 6)
    recon_grid = evo.TimeGrid(cfg.horizon, cfg.recon_steps)
    sys6 = inv.VolterraSystem.from_callables(lambda t: 1 + t / 2, lambda t: 0.5, recon_grid)
    src6 = evo.SourceModel(f6, sys6.rho, sys6.rho_at_zero)
    traj6 = evo.duhamel_solve(src6, basis6, recon_grid)
    recon = inv.reconstruct_f(traj6, sys6, basis6.eigenvalues, f_true=f6)

    zr = _complex_normal(np.random.default_rng(cfg.seed + 1), cfg.recon_steps + 1)
    roundtrip = float(np.abs(inv.volterra_invert(sys6, inv.volterra_apply(sys6, zr)) - zr).max())

    basis1 = _basis(cfg, lam=lam, k=1)
    id_grid = evo.TimeGrid(cfg.horizon, cfg.inverse_steps)
    sys1 = inv.VolterraSystem.from_callables(lambda t: 1 + t / 2, lambda t: 0.5, id_grid)
    f1 = np.array([1.0 + 0.0j])
    traj1 = evo.duhamel_solve(evo.SourceModel(f1, sys1.rho, sys1.rho_at_zero), basis1, id_grid)
    rec1 = inv.reconstruct_f(traj1, sys1, basis1.eigenvalues, f_true=f1)
    id_factor = rec1.diagnostics["factorization_residual"]
    id_conv = inv.duhamel_identity_residual(traj1, sys1, rec1.z)
    id_free = float(inv.free_evolution_check(rec1.z, basis1.eigenvalues, sys1.dt).max())

    sys_t = inv.VolterraSystem.from_callables(lambda t: t, lambda t: 1.0, id_grid)
    rejected = False
    try:
        inv.volterra_invert(sys_t, np.ones(cfg.inverse_steps + 1, dtype=complex))
    except ValueError:
        rejected = True
    traj_t = evo.duhamel_solve(evo.SourceModel(f1, sys_t.rho, sys_t.rho_at_zero), basis1, id_grid)
    w = inv.antiderivative_reduce(traj_t)
    p_samples = evo.cumulative_trapezoid(sys_t.rho, sys_t.dt)
    v = evo.free_trajectory(-1j * f1, basis1, id_grid)
    route4 = inv.convolve_source(p_samples, v, basis1.eigenvalues)
    agreement = float(np.abs(route4.y.coeffs - w.coeffs).max())

    write_json(outdir / "reconstruction.json", {
        "config": cfg.to_dict(),
        "lambda": lam,
        "recon_dt": recon_grid.dt,
        "f_true": [[c.real, c.imag] for c in f6],
        "f_recovered": [[c.real, c.imag] for c in recon.f_recovered],
        "relative_error": recon.relative_error,
        "volterra_roundtrip": roundtrip,
        "identity_dt": id_grid.dt,
        "factorization_identity": id_factor,
        "convolution_identity": id_conv,
        "free_evolution_residual": id_free,
        "rho0_zero_rejected": rejected,
        "reduction_route_agreement": agreement,
        "source_identity_residual": route4.source_identity_residual,
    })
    rel_err = 1.0 if recon.relative_error is None else recon.relative_error
    checks = {
        "inverse_roundtrip": roundtrip <= 1e-10,
        "inverse_reconstruction": rel_err <= 1e-3,
        "inverse_factorization_identity": id_factor <= 1e-8,
        "inverse_convolution_identity": id_conv <= 1e-6,
        "inverse_free_evolution": id_free <= 1e-4,
        "inverse_rho0_rejected": rejected,
        "inverse_reduction_agreement": agreement <= 1e-6,
    }
    return checks, {"roundtrip": roundtrip, "rel_err": recon.relative_error,
                    "id_conv": id_conv, "id_free": id_free, "agreement": agreement}


def _random_bump(rng: np.random.Generator, times: np.ndarray, lo: float, hi: float,
                 min_width: float) -> tuple[np.ndarray, float]:
    # quadratic onset keeps the sampled support within a node of the analytic
    # one, which the relative support cutoff then resolves exactly
    t_end = times[-1]
    width = rng.uniform(min_width, 0.3 * t_end)
    start = rng.uniform(lo, hi - width)
    x = np.zeros_like(times)
    inside = (times > start) & (times < start + width)
    s = (times[inside] - start) / width
    x[inside] = (s * (1.0 - s)) ** 2
    return x, start


def run_titchmarsh(cfg: LabConfig, outdir: Path):
    grid = evo.TimeGrid(2.0 * cfg.horizon, 2 * cfg.recon_steps)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    for _ in range(20):
        a, _ = _random_bump(rng, grid.times, 0.05, 0.9 * cfg.horizon, 8 * grid.dt)
        b, _ = _random_bump(rng, grid.times, 0.05, 0.9 * cfg.horizon, 8 * grid.dt)
        rep = inv.titchmarsh_support(a, b, grid.dt)
        rows.append((rep.start_a, rep.start_b, rep.start_convolution, rep.additivity_gap))
        worst = max(worst, rep.additivity_gap)
    write_csv(outdir / "titchmarsh.csv",
              ["start_a", "start_b", "start_conv", "gap"], rows)
    checks = {"titchmarsh_additivity": worst <= 2.0 * grid.dt}
    return checks, {"worst_gap": worst, "dt": grid.dt}


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


def _run_stages(subcommand: str, cfg: LabConfig, outdir: Path) -> dict[str, bool]:
    """Run the stages into outdir and write the manifest last."""
    started = time.monotonic()
    names = list(_RUNNERS) if subcommand == "all" else [subcommand]
    checks: dict[str, bool] = {}
    reports: dict[str, dict] = {}
    stage_seconds: dict[str, float] = {}
    for name in names:
        stage_started = time.monotonic()
        try:
            cks, rep = _RUNNERS[name](cfg, outdir)
        except _STAGE_ERRORS as exc:
            raise StageFailure(name, exc) from exc
        stage_seconds[name] = time.monotonic() - stage_started
        checks.update({key: bool(value) for key, value in cks.items()})
        reports[name] = rep
    digests = {
        p.name: _digest(p)
        for p in sorted(outdir.iterdir())
        if p.suffix in (".csv", ".json")
    }
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "subcommand": subcommand,
        "config": cfg.to_dict(),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.monotonic() - started,
        "stage_seconds": stage_seconds,
        "checks": checks,
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
    validate_config(cfg)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S%f")
    outdir = out_root / f"{subcommand}-{stamp}"
    workdir = out_root / f".{outdir.name}.partial"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        checks = _run_stages(subcommand, cfg, workdir)
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
        # only loading and validation raise ValueError here: stage errors
        # arrive as StageFailure
        print(json.dumps({"error": "invalid_config", "message": str(exc)}, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
