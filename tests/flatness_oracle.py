"""Exact rational oracle for the bump's derivatives, shared by the flatness
tests and the acceptance criteria."""

from fractions import Fraction

import numpy as np

from hardylab.flatness import GevreyBump


def bump_derivatives_exact(bump: GevreyBump, tau, k_max: int) -> np.ndarray:
    """Independent oracle: psi^(k) = R_k(1/tau, 1/(T-tau)) * psi with the
    polynomial recurrence R_{k+1} = R_k' + R_k * E', run in exact rational
    arithmetic for the exponent sigma = 2; tau may be a Fraction for exactness.
    """
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

    log_deriv = {
        (sigma + 1, sigma): Fraction(sigma),
        (sigma, sigma + 1): Fraction(-sigma),
    }
    u = 1 / tau
    w = 1 / (t_end - tau)
    psi_val = float(np.exp(bump.c_norm - float((tau * (t_end - tau)) ** -sigma)))
    poly = {(0, 0): Fraction(1)}
    out = np.empty(k_max + 1)
    out[0] = psi_val
    for k in range(1, k_max + 1):
        poly = add_product(poly, log_deriv, differentiate(poly))
        value = sum(c * u**a * w**b for (a, b), c in poly.items())
        out[k] = float(value) * psi_val
    return out
