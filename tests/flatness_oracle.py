"""Exact rational oracle for the bump's derivatives, shared by the flatness
tests and the acceptance criteria."""

from fractions import Fraction

import numpy as np

from hardylab.flatness import C_NORM, GevreyBump


def bump_derivatives_exact(bump: GevreyBump, tau, k_max: int) -> np.ndarray:
    """Independent oracle: psi^(k) = R_k(1/tau, 1/(T-tau)) * psi with the
    polynomial recurrence R_{k+1} = R_k' + R_k * E', run in exact rational
    arithmetic for the exponent sigma = 2; tau may be a Fraction for exactness.
    psi(tau) = psi_1(tau/T) = exp(C_NORM + E) with E = -T^(2 sigma) (tau (T-tau))^-sigma.
    """
    psi_val = float(np.exp(log_bump(bump, tau)))
    return np.array([float(r) for r in derivative_factors_exact(bump, tau, k_max)]) * psi_val


def log_bump(bump: GevreyBump, tau) -> float:
    """log psi(tau) = C_NORM - (s (1 - s))^-2 at s = tau/T, the power taken exactly."""
    s = Fraction(tau) / Fraction(bump.horizon)
    return C_NORM - float((s * (1 - s)) ** -2)


def derivative_factors_exact(bump: GevreyBump, tau, k_max: int) -> list[Fraction]:
    """The exact rationals R_k(1/tau, 1/(T-tau)), k = 0..k_max, of psi^(k) = R_k psi."""
    sigma = 2
    t_end = Fraction(bump.horizon)
    tau = Fraction(tau)
    if not 0 < tau < t_end:
        raise ValueError("tau must be interior to (0, T)")

    # monomials u^a w^b with u = 1/tau, w = 1/(T-tau):
    # d/dtau u = -u^2, d/dtau w = w^2
    def differentiate(poly):
        out = {}
        for (a, b), c in poly.items():
            if a:
                key = (a + 1, b)
                out[key] = out.get(key, Fraction(0)) - a * c
            if b:
                key = (a, b + 1)
                out[key] = out.get(key, Fraction(0)) + b * c
        return out

    def add_product(poly, other, acc):
        for (a1, b1), c1 in poly.items():
            for (a2, b2), c2 in other.items():
                key = (a1 + a2, b1 + b2)
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return acc

    scale = t_end ** (2 * sigma)
    log_deriv = {
        (sigma + 1, sigma): sigma * scale,
        (sigma, sigma + 1): -sigma * scale,
    }
    u = 1 / tau
    w = 1 / (t_end - tau)
    poly = {(0, 0): Fraction(1)}
    out = [Fraction(1)]
    for _ in range(k_max):
        poly = add_product(poly, log_deriv, differentiate(poly))
        out.append(sum(c * u**a * w**b for (a, b), c in poly.items()))
    return out
