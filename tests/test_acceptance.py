"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

A criterion that covers a CLI check judges its quantity through
`hardylab.cli.CHECKS`, so every check bound is written once. Criteria that
exercise a whole stage call that stage's measurement function in
`hardylab.cli` with their own seeds and sizes; the rest compute the quantity
from the library directly. Bounds of claims no CLI check covers (criterion
01's accuracy and order, criterion 05's cross-validation, the fat-Cantor
measure, the beta coefficients) stay literal here.

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
from hardylab import cli
from hardylab import elliptic as ell
from hardylab import evolution as evo
from hardylab import flatness as fla
from hardylab import spectral as spc
from hardylab.bessel import bessel_zeros
from hardylab.cli import LabConfig, run


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f"  ({detail})" if detail else ""))
    return ok


def passes(measured: dict, *names: str) -> bool:
    """Whether the named CLI checks, by default every one in `measured`, pass."""
    return all(cli.judge(name, measured[name]) for name in names or cli.CHECKS.keys() & measured)


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
    ok = passes({"spectrum_oracle_rel_err": rel.max()}) and lo < basis.eigenvalues[0] < hi
    assert report("criterion 02 singular oracle (nu = 1/4)", ok,
                  f"max rel {rel.max():.2e}, mu1 in ({lo:.3f}, {hi:.3f})")


def test_criterion_03_hardy():
    m = cli.measure_hardy(800, np.random.default_rng(0))
    sweep_and_decreasing = passes(m, "hardy_sweep_bound", "hardy_pencil_decreasing")
    in_range = passes(m, "hardy_pencil_in_range")
    infimum = m["hardy_pencil_in_range"]
    report("criterion 03 Hardy (sweep, pencil range, decreasing)",
           sweep_and_decreasing and in_range,
           f"min ratio {m['hardy_sweep_bound']:.6f}, infimum(N=800) {infimum:.4f}")
    assert sweep_and_decreasing
    # faithful to the stated criterion; measured infimum is ~0.367 at N=800
    # (the quotient approaches 1/4 only logarithmically), so this is red
    window = cli.CHECKS["hardy_pencil_in_range"][2]
    assert in_range, f"pencil infimum {infimum:.4f} outside {window}"


def test_criterion_04_evolution():
    rng = np.random.default_rng(1)
    c0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    m = cli.measure_evolve(basis800(0.0, 8), c0, np.linspace(0.1, 10.0, 64))
    assert report("criterion 04 evolution (norm drift, reversal)", passes(m),
                  f"drift {m['evolution_norm_drift']:.2e}, "
                  f"reversal {m['evolution_time_reversal']:.2e}")


def test_criterion_05_kernel():
    bump = bump_default()
    m = cli.measure_kernel(fla.build_kernel(bump, np.linspace(-1, 1, 201),
                                            evo.TimeGrid(1.0, 1024).times, 24))
    # Cauchy vs exact-recurrence cross-validation, k <= 25
    cross_ok = True
    for tau in (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        cau = fla.derivative_table(bump, np.array([float(tau)]), 25)[0]
        exact = fla.bump_derivatives_exact(bump, tau, 25)
        r = 0.5 * min(float(tau), 1 - float(tau))
        theta = 2 * np.pi * np.arange(512) / 512
        peak = np.abs(bump.eval_complex(float(tau) + r * np.exp(1j * theta))).max()
        fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 26))))
        floor = 1e-13 * peak * fact / r ** np.arange(26)
        cross_ok &= bool(np.all(np.abs(cau - exact) <= 1e-8 * np.abs(exact) + floor))
    exact_ok = passes(m, "kernel_boundary_exact", "kernel_tail_match") and cross_ok
    ratio_ok = passes(m, "kernel_residual_ratio")
    ratio = m["kernel_residual_ratio"]
    report("criterion 05 kernel (boundary, tail, cross-validation, ratio@24)",
           exact_ok and ratio_ok,
           f"boundary {m['kernel_boundary_exact']:.1e}, ratio {ratio:.2e}")
    assert exact_ok
    # faithful to the stated criterion; the tail of the pinned construction
    # is ~3e-5 of max|K| at truncation 24 (<= 1e-6 first holds near 28+)
    assert ratio_ok, (f"residual ratio {ratio:.2e} above "
                      f"{cli.CHECKS['kernel_residual_ratio'][2]} at k_trunc = 24")


def test_criterion_06_transform():
    tau_grid = evo.TimeGrid(1.0, 1024)
    kernel = fla.build_kernel(bump_default(), np.linspace(-1.0, 1.0, 4001), tau_grid.times, 32)
    worst = {"transform_residual": 0.0, "transform_moment_consistency": 0.0}
    for lam in (0.0, 3 / 16):
        m = cli.measure_transform(basis800(lam, 8), kernel, tau_grid)
        worst = {name: max(value, m[name]) for name, value in worst.items()}
    assert report("criterion 06 transform (residual, moment consistency)", passes(worst),
                  f"residual {worst['transform_residual']:.2e}, "
                  f"consistency {worst['transform_moment_consistency']:.1e}")


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
        # the checks measure rank deficits
        ok &= passes({"observability_full_rank": 8 - rep.rank, "ucp_full_rank": 16 - ucp.rank})
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
    ok &= measure_ok and passes({"observability_full_rank": 8 - rep_c.rank})
    details.append(f"cantor: rank {rep_c.rank}/8, measure {cantor.realized_measure():.4f}")
    assert report("criterion 07 uniqueness surrogate (ranks, fat-Cantor)", ok,
                  "; ".join(details))


def test_criterion_08_hum():
    basis = basis800(3 / 16, 8)
    m = cli.measure_hum(basis, evo.interval_mask(basis.grid, 0.3, 0.6), 1.0,
                        np.random.default_rng(2), (1e-1, 1e-2, 1e-3, 1e-4, 1e-5), 200_000)
    assert report("criterion 08 HUM (identity, monotonicity, Hermitian PSD)", passes(m),
                  f"identity gap {m['hum_defect_identity']:.2e}, "
                  f"hermitian {m['hum_hermitian']:.1e}")


def test_criterion_09_inverse_source():
    lam = 3 / 16
    rng = np.random.default_rng(3)
    f6 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    zr = rng.standard_normal(1001) + 1j * rng.standard_normal(1001)
    # recovery at dt = 1e-3 as stated; the identity chain on a time-resolved
    # configuration: first mode, dt = 1e-4
    m = cli.measure_inverse(basis800(lam, 6), basis800(lam, 1), f6, zr,
                            evo.TimeGrid(1.0, 1000), evo.TimeGrid(1.0, 10_000))
    assert report(
        "criterion 09 inverse source (roundtrip, recon, identities, routes)", passes(m),
        f"roundtrip {m['inverse_roundtrip']:.1e}, rel err {m['inverse_reconstruction']:.1e}, "
        f"factor {m['inverse_factorization_identity']:.1e}, "
        f"conv {m['inverse_convolution_identity']:.1e}, free {m['inverse_free_evolution']:.1e}, "
        f"agree {m['inverse_reduction_agreement']:.1e}",
    )


def test_criterion_10_titchmarsh():
    m = cli.measure_titchmarsh(1.0, 1000, np.random.default_rng(4))
    bound = cli.CHECKS["titchmarsh_additivity"][2] * m["dt"]
    assert report("criterion 10 Titchmarsh support additivity (20 pairs)", passes(m),
                  f"worst gap {m['worst_gap']:.2e} vs 2*dt {bound:.2e}")


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
    alphas = prob0.circle_angles()
    psi = np.sin(alphas) / np.sqrt(np.pi)
    betas = [ang.beta_coefficients(r * np.sin(alphas), psi, 1.0, r, prob0.spacing)[0]
             for r in (0.1, 0.2, 0.5)]
    beta_ok = (abs(betas[0] - math.sqrt(math.pi)) <= 1e-8
               and max(abs(b - betas[0]) for b in betas) <= 1e-8)
    ok = passes({
        "angular_gamma_identity": gamma_defect,
        "angular_arc_oracle": arc_err,
        "angular_monotone_in_lam": cli._smallest_step(mu1),
        "angular_blowup_exponent": cli._exponent_error(study),
    }) and beta_ok
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
