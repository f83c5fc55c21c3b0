"""Numerical laboratory for the Schrodinger equation with an inverse-square
potential: radial spectra with Bessel oracles, discrete Hardy inequalities,
flatness-built control kernels, Schrodinger-to-elliptic transforms,
penalized approximate control, and Volterra-based source recovery."""

__version__ = "0.1.0"
