"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 3 and 5 each contain a sub-assertion that is measurably
unattainable with the constructions this package pins down (see README,
"Numerical notes"); those asserts are kept faithful and expected to fail:
the Hardy pencil infimum at N = 800 sits near 0.367 (log-slow approach to
1/4), and the kernel residual ratio at truncation 24 is ~3e-5.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from hardylab import angular as ang
from hardylab import control as ctl
from hardylab import elliptic as ell
from hardylab import evolution as evo
from hardylab import flatness as fla
from hardylab import inverse as inv
from hardylab import spectral as spc
from hardylab.bessel import bessel_zeros
from hardylab.cli import LabConfig, _random_bump, run


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f"  ({detail})" if detail else ""))
    return ok


@lru_cache(maxsize=None)
def basis800(lam: float, k: int) -> spc.SpectralBasis:
    grid = spc.RadialGrid(800)
    return spc.solve_spectrum(spc.assemble_hardy_operator(grid, lam, 3), k)


@lru_cache(maxsize=None)
def bump_default() -> fla.GevreyBump:
    return fla.gevrey_bump(1.0, 2.0)


def test_criterion_01_spectrum_oracle():
    exact = (np.arange(1, 6) * np.pi) ** 2
    rel = np.abs(basis800(0.0, 5).eigenvalues - exact) / exact
    errs = []
    for n in (200, 400, 800):
        grid = spc.RadialGrid(n)
        mu1 = spc.solve_spectrum(spc.assemble_hardy_operator(grid, 0.0, 3), 1).eigenvalues[0]
        errs.append(abs(mu1 - np.pi**2))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = rel.max() <= 5e-3 and all(abs(o - 2.0) <= 0.2 for o in orders)
    assert report("criterion 01 spectrum oracle (rel err, Richardson order)", ok,
                  f"max rel {rel.max():.2e}, orders {orders[0]:.3f}/{orders[1]:.3f}")


def test_criterion_02_singular_oracle():
    basis = basis800(3 / 16, 3)
    oracle = bessel_zeros(0.25, 3) ** 2
    rel = np.abs(basis.eigenvalues - oracle) / oracle
    lo = bessel_zeros(0.0, 1)[0] ** 2
    hi = bessel_zeros(0.5, 1)[0] ** 2
    ok = rel.max() <= 1e-2 and lo < basis.eigenvalues[0] < hi
    assert report("criterion 02 singular oracle (nu = 1/4)", ok,
                  f"max rel {rel.max():.2e}, mu1 in ({lo:.3f}, {hi:.3f})")


def test_criterion_03_hardy():
    grid = spc.RadialGrid(800)
    rng = np.random.default_rng(0)
    ratios = np.array([
        spc.hardy_rayleigh(grid, rng.standard_normal(800)) for _ in range(1000)
    ])
    sweep_ok = bool(ratios.min() >= 0.25 - 1e-10)
    infima = [spc.hardy_pencil_infimum(spc.RadialGrid(n)) for n in (200, 400, 800)]
    decreasing = infima[0] > infima[1] > infima[2]
    in_range = 0.25 < infima[-1] < 0.30
    ok = sweep_ok and decreasing and in_range
    report("criterion 03 Hardy (sweep, pencil range, decreasing)", ok,
           f"min ratio {ratios.min():.6f}, infimum(N=800) {infima[-1]:.4f}")
    assert sweep_ok and decreasing
    # faithful to the stated criterion; measured infimum is ~0.367 at N=800
    # (the quotient approaches 1/4 only logarithmically), so this is red
    assert in_range, f"pencil infimum {infima[-1]:.4f} outside (0.25, 0.30)"


def test_criterion_04_evolution():
    basis = basis800(0.0, 8)
    rng = np.random.default_rng(1)
    c0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state = evo.ModeState(c0)
    drift = reversal = 0.0
    for t in np.linspace(0.1, 10.0, 64):
        fwd = evo.propagate(state, basis, t)
        drift = max(drift, abs(fwd.norm() - state.norm()))
        back = evo.propagate(fwd, basis, -t)
        reversal = max(reversal, float(np.abs(back.coeffs - c0).max()))
    ok = drift <= 1e-12 and reversal <= 1e-12
    assert report("criterion 04 evolution (norm drift, reversal)", ok,
                  f"drift {drift:.2e}, reversal {reversal:.2e}")


def test_criterion_05_kernel():
    bump = bump_default()
    tau_nodes = evo.TimeGrid(1.0, 1024).times
    kernel = fla.build_kernel(bump, np.linspace(-1, 1, 201), tau_nodes, 24)
    rep = fla.kernel_residual(kernel)
    boundary = max(
        float(np.abs(kernel.values[:, 0]).max()),
        float(np.abs(kernel.values[:, -1]).max()),
        float(np.abs(kernel.values[0] - bump(tau_nodes)).max()),
    )
    # Cauchy vs exact-recurrence cross-validation, k <= 25
    cross_ok = True
    for tau in (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        cau = fla.cauchy_derivatives(bump, float(tau), 25)
        exact = fla.bump_derivatives_exact(bump, tau, 25)
        r = 0.5 * min(float(tau), 1 - float(tau))
        theta = 2 * np.pi * np.arange(512) / 512
        peak = np.abs(bump.eval_complex(float(tau) + r * np.exp(1j * theta))).max()
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 26))))
        floor = 1e-13 * peak * fact / r ** np.arange(26)
        cross_ok &= bool(np.all(np.abs(cau - exact) <= 1e-8 * np.abs(exact) + floor))
    ratio = rep.max_residual / rep.max_kernel
    tail_ok = rep.tail_match_error <= 1e-8 * max(rep.max_residual, 1.0)
    ratio_ok = ratio <= 1e-6
    ok = boundary <= 1e-12 and tail_ok and cross_ok and ratio_ok
    report("criterion 05 kernel (boundary, tail, cross-validation, ratio@24)", ok,
           f"boundary {boundary:.1e}, ratio {ratio:.2e}")
    assert boundary <= 1e-12 and tail_ok and cross_ok
    # faithful to the stated criterion; the tail of the pinned construction
    # is ~3e-5 of max|K| at truncation 24 (<= 1e-6 first holds near 28+)
    assert ratio_ok, f"residual ratio {ratio:.2e} above 1e-6 at k_trunc = 24"


def test_criterion_06_transform():
    bump = bump_default()
    tau_grid = evo.TimeGrid(1.0, 1024)
    t_nodes = np.linspace(-1.0, 1.0, 4001)
    kernel = fla.build_kernel(bump, t_nodes, tau_grid.times, 32)
    worst = 0.0
    consistency = 0.0
    for lam in (0.0, 3 / 16):
        basis = basis800(lam, 8)
        traj = evo.free_trajectory(np.ones(8), basis, tau_grid)
        profile = ell.transform(traj, kernel, basis.eigenvalues)
        residual, _ = ell.elliptic_residual(profile)
        worst = max(worst, residual)
        moments = ell.moment_trace(bump, traj)
        consistency = max(consistency, float(np.abs(profile.values[:, 0] - moments).max()))
    ok = worst <= 1e-5 and consistency <= 1e-12
    assert report("criterion 06 transform (residual, moment consistency)", ok,
                  f"residual {worst:.2e}, consistency {consistency:.1e}")


def test_criterion_07_uniqueness_surrogate():
    obs_grid = evo.TimeGrid(1.0, 32)
    ok = True
    details = []
    for lam in (0.0, 3 / 16):
        basis = basis800(lam, 8)
        mask = evo.interval_mask(basis.grid, 0.3, 0.6)
        rep = evo.observability_matrix(basis, mask, obs_grid)
        window = ell.CylinderWindow(mask, np.linspace(-1, 1, 33))
        ucp = ell.ucp_probe(basis, window)
        ok &= rep.rank == 8 and ucp.rank == 16
        details.append(f"lam={lam}: obs {rep.rank}/8, ucp {ucp.rank}/16")
    basis0 = basis800(0.0, 8)
    cantor = evo.fat_cantor_mask(basis0.grid, (0.0, 1.0))
    series = sum(2.0**k * 4.0 ** (-(k + 1)) for k in range(60))
    measure_ok = (
        abs(series - 0.5) <= 1e-12
        and abs(cantor.analytic_measure - (0.5 + 2.0 ** (-(cantor.depth + 1)))) <= 1e-12
        and abs(cantor.realized_measure() - cantor.analytic_measure)
        <= 2 * basis0.grid.spacing * cantor.depth
    )
    rep_c = evo.observability_matrix(basis0, cantor, obs_grid)
    ok &= measure_ok and rep_c.rank == 8
    details.append(f"cantor: rank {rep_c.rank}/8, measure {cantor.realized_measure():.4f}")
    assert report("criterion 07 uniqueness surrogate (ranks, fat-Cantor)", ok,
                  "; ".join(details))


def test_criterion_08_hum():
    basis = basis800(3 / 16, 8)
    mask = evo.interval_mask(basis.grid, 0.3, 0.6)
    gram = ctl.gramian(basis, mask, 1.0)
    herm = float(np.abs(gram.matrix - gram.matrix.conj().T).max())
    eigs = np.linalg.eigvalsh(gram.matrix)
    psd_ok = bool(eigs[0] >= -1e-14 * max(eigs[-1], 1.0))
    rng = np.random.default_rng(2)
    u0 = evo.ModeState(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    ud = evo.ModeState(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    res = ctl.hum_solve(gram, u0, ud, 1e-3)
    fwd = ctl.verify_control(res, gram, n_steps=200_000)
    identity_gap = abs(fwd - res.defect_predicted)
    rows = ctl.defect_curve(gram, u0, ud, (1e-1, 1e-2, 1e-3, 1e-4, 1e-5))
    defects = [r["defect"] for r in rows]
    costs = [r["cost"] for r in rows]
    monotone = all(a > b for a, b in zip(defects, defects[1:])) and all(
        b >= a - 1e-12 for a, b in zip(costs, costs[1:])
    )
    ok = herm <= 1e-14 and psd_ok and identity_gap <= 1e-6 and monotone
    assert report("criterion 08 HUM (identity, monotonicity, Hermitian PSD)", ok,
                  f"identity gap {identity_gap:.2e}, hermitian {herm:.1e}")


def test_criterion_09_inverse_source():
    lam = 3 / 16
    basis6 = basis800(lam, 6)
    recon_grid = evo.TimeGrid(1.0, 1000)  # dt = 1e-3 as stated
    sys6 = inv.VolterraSystem.from_callables(lambda t: 1 + t / 2, lambda t: 0.5, recon_grid)
    rng = np.random.default_rng(3)
    f6 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    traj6 = evo.duhamel_solve(evo.SourceModel(f6, sys6.rho, sys6.rho_at_zero), basis6, recon_grid)
    recon = inv.reconstruct_f(traj6, sys6, basis6.eigenvalues, f_true=f6)
    zr = rng.standard_normal(1001) + 1j * rng.standard_normal(1001)
    roundtrip = float(np.abs(inv.volterra_invert(sys6, inv.volterra_apply(sys6, zr)) - zr).max())

    # identity chain on a time-resolved configuration: first mode, dt = 1e-4
    basis1 = basis800(lam, 1)
    id_grid = evo.TimeGrid(1.0, 10_000)
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
        inv.volterra_invert(sys_t, np.ones(10_001, dtype=complex))
    except ValueError:
        rejected = True
    traj_t = evo.duhamel_solve(evo.SourceModel(f1, sys_t.rho, sys_t.rho_at_zero), basis1, id_grid)
    w = inv.antiderivative_reduce(traj_t)
    p = np.zeros_like(sys_t.rho)
    p[1:] = 0.5 * sys_t.dt * np.cumsum(sys_t.rho[1:] + sys_t.rho[:-1])
    v = evo.free_trajectory(-1j * f1, basis1, id_grid)
    y = inv.convolve_source(p, v, basis1.eigenvalues)
    agreement = float(np.abs(y.y.coeffs - w.coeffs).max())

    ok = (roundtrip <= 1e-10 and recon.relative_error <= 1e-3 and id_factor <= 1e-8
          and id_conv <= 1e-6 and id_free <= 1e-4 and rejected and agreement <= 1e-6)
    assert report(
        "criterion 09 inverse source (roundtrip, recon, identities, routes)", ok,
        f"roundtrip {roundtrip:.1e}, rel err {recon.relative_error:.1e}, "
        f"factor {id_factor:.1e}, conv {id_conv:.1e}, free {id_free:.1e}, "
        f"agree {agreement:.1e}",
    )


def test_criterion_10_titchmarsh():
    grid = evo.TimeGrid(2.0, 2000)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        a, _s = _random_bump(rng, grid.times, 0.05, 0.9, 8 * grid.dt)
        b, _s = _random_bump(rng, grid.times, 0.05, 0.9, 8 * grid.dt)
        rep = inv.titchmarsh_support(a, b, grid.dt)
        worst = max(worst, rep.additivity_gap)
    ok = worst <= 2 * grid.dt
    assert report("criterion 10 Titchmarsh support additivity (20 pairs)", ok,
                  f"worst gap {worst:.2e} vs 2*dt {2 * grid.dt:.2e}")


def test_criterion_11_angular():
    gamma_defect = 0.0
    mu1 = []
    for lam in (0.0, 0.1, 0.1875, 0.24):
        prob = ang.AngularProblem(lam, 512)
        basis = ang.angular_spectrum(prob, 8)
        mu1.append(basis.eigenvalues[0])
        for mu in basis.eigenvalues:
            g = ang.gamma_exponent(mu, 2)
            gamma_defect = max(gamma_defect, abs(g * g - mu))
    prob0 = ang.AngularProblem(0.0, 1024)
    basis0 = ang.angular_spectrum(prob0, 10)
    arcvals = basis0.eigenvalues[::2]
    ks = np.arange(1, len(arcvals) + 1)
    arc_err = float((np.abs(arcvals - ks**2) / ks**2).max())
    study = ang.blowup_profile_check([1.0, 0.5], [1.0, 2.0],
                                     basis0.eigenvectors[:, [0, 2]], prob0.spacing)
    blow_ok = abs(study.fitted_exponent - study.expected_exponent) <= 0.1 * study.expected_exponent
    alphas = prob0.circle_angles()
    psi = np.sin(alphas) / np.sqrt(np.pi)
    betas = [ang.beta_coefficients(r * np.sin(alphas), psi, 1.0, r, prob0.spacing)[0]
             for r in (0.1, 0.2, 0.5)]
    beta_ok = (abs(betas[0] - math.sqrt(math.pi)) <= 1e-8
               and max(abs(b - betas[0]) for b in betas) <= 1e-8)
    ok = (gamma_defect <= 1e-12 and arc_err <= 5e-3
          and all(a > b for a, b in zip(mu1, mu1[1:])) and blow_ok and beta_ok)
    assert report("criterion 11 angular (gamma, arc oracle, blow-up, beta)", ok,
                  f"gamma defect {gamma_defect:.1e}, arc err {arc_err:.2e}, "
                  f"exponent {study.fitted_exponent:.3f}, beta {betas[0]:.10f}")


def test_criterion_12_determinism(tmp_path):
    import json

    cfg = LabConfig(
        n_interior=200, n_ang=128, time_steps=100, k_modes=4,
        tau_steps=256, kernel_t_nodes=65, transform_t_nodes=1001,
        spectrum_modes=5, obs_time_steps=16, hum_verify_steps=20_000,
        inverse_steps=2000, recon_steps=500, seed=0,
    )
    digests = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        assert run("all", cfg, root) == 0
        rundir = next(p for p in root.iterdir() if p.name.startswith("all"))
        manifest = json.loads((rundir / "manifest.json").read_text())
        digests.append(manifest["digests"])
    ok = digests[0] == digests[1] and len(digests[0]) >= 10
    assert report("criterion 12 determinism (repeated 'all' digests)", ok,
                  f"{len(digests[0])} artifacts compared")
