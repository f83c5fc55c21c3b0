"""Working-set bounds of the stages that hold the largest temporaries.

tracemalloc sees numpy's data buffers, so each peak is the most memory the
call held at once above what existed before it.  Measured at the default
config on numpy 2.x (MiB): derivative_table 1.78, kernel_residual 4.87 and
run_uniqueness 4.19, each with its basis and table built beforehand.  Each
bound is that measurement plus 12 to 15 %, and sits far below the peak of the
same call computing its contour samples, residual series or weighted samples
as whole (tau, m) or (t, tau) arrays: 16.2, 9.0 and 9.5 MiB (derivative_table
sampling in row blocks but contracting the whole (tau, m) samples at once:
5.59 MiB).

derivative_table is also bounded at 8,192 tau steps: 4.19 MiB measured, of
which the (8193, 42) table is 2.6, against 42.9 MiB with the whole contour.
Both bounds hold only if each row block's contour samples are freed before
the next block's are drawn.

measure_inverse is bounded at the benchmark's time-stepping sizes (4,000
reconstruction steps, 40,000 identity steps): 6.7 MiB measured, against 8.9
MiB when every identity kept its arrays to the end and each FFT convolution
and Duhamel sum held a fresh array per step.
"""

import tracemalloc

import numpy as np
import pytest

from hardylab import cli
from hardylab import evolution as evo
from hardylab import flatness as fla

MIB = 2**20


def traced_peak(call) -> float:
    """The most memory call() held at once, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def lab():
    lab = cli.validate_config(cli.LabConfig(), "all")
    lab.table()
    lab.basis(lab.cfg.lam, lab.cfg.k_modes)
    return lab


def test_derivative_table_working_set(lab):
    peak = traced_peak(lambda: fla.derivative_table(lab.bump(), lab.tau_grid.times))
    assert peak <= 2.0


def test_derivative_table_working_set_on_a_long_tau_grid(lab):
    taus = evo.TimeGrid(lab.cfg.horizon, 8192).times
    peak = traced_peak(lambda: fla.derivative_table(lab.bump(), taus))
    assert peak <= 4.3


def test_kernel_residual_working_set(lab):
    kernel = cli._kernel(lab, lab.cfg.k_trunc, lab.cfg.kernel_t_nodes)
    assert traced_peak(lambda: fla.kernel_residual(kernel)) <= 5.6


def test_uniqueness_stage_working_set(lab, tmp_path):
    assert traced_peak(lambda: cli.run_uniqueness(lab, tmp_path)) <= 4.8


def test_inverse_source_working_set_at_the_time_stepping_sizes(lab):
    basis6, basis1 = lab.basis(3 / 16, 6), lab.basis(3 / 16, 1)
    f6 = cli._complex_normal(np.random.default_rng(0), 6)
    zr = cli._complex_normal(np.random.default_rng(1), 4001)
    peak = traced_peak(lambda: cli.measure_inverse(basis6, basis1, f6, zr, evo.TimeGrid(1.0, 4000),
                                                   evo.TimeGrid(1.0, 40_000)))
    assert peak <= 7.7
