"""Numerical laboratory for the Schrodinger equation with an inverse-square
potential: radial spectra with Bessel oracles, discrete Hardy inequalities,
flatness-built control kernels, Schrodinger-to-elliptic transforms,
penalized approximate control, and Volterra-based source recovery."""

__version__ = "0.1.0"

from .angular import (AngularBasis, AngularProblem, angular_spectrum,
                      beta_coefficients, blowup_profile_check, gamma_exponent,
                      separated_residual)
from .bessel import bessel_zeros
from .control import (ControlResult, Gramian, defect_curve, gramian, hum_solve,
                      verify_control)
from .elliptic import (CylinderWindow, EllipticProfile, elliptic_residual,
                       moment_trace, transform, ucp_probe, uniqueness_pipeline)
from .errors import IllPosedTruncationError, SupercriticalCouplingError
from .evolution import (ModeState, ModeTrajectory, ObservationMask, TimeGrid,
                        duhamel_solve, fat_cantor_mask, free_trajectory,
                        interval_mask, observability_matrix, observe, propagate)
from .flatness import (FlatnessKernel, GevreyBump, build_kernel, control_trace,
                       gevrey_bump, kernel_residual)
from .inverse import (ReconstructionResult, VolterraSystem, antiderivative_reduce,
                      convolve_source, free_evolution_check, reconstruct_f,
                      titchmarsh_support, volterra_apply, volterra_invert)
from .spectral import (HardyDiscretization, RadialGrid, SpectralBasis,
                       assemble_hardy_operator, bessel_order, critical_constant,
                       hardy_pencil_infimum, hardy_rayleigh, solve_spectrum)
