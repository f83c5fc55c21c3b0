"""Working-set bounds of the stages that hold the largest temporaries.

tracemalloc sees numpy's data buffers, so each peak is the most memory the
call held at once above what existed before it.  Measured at the default
config on numpy 2.x (MiB): derivative_table 5.65, kernel_residual 4.87 and
run_uniqueness 4.19, each with its basis and table built beforehand.  Each
bound is that measurement plus about 15 %, and sits far below the peak of the
same call computing its contour samples, residual series or weighted samples
as whole (tau, m) or (t, tau) arrays: 16.2, 9.0 and 9.5 MiB.
"""

import tracemalloc

import numpy as np
import pytest

from hardylab import cli
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
    peak = traced_peak(lambda: fla.derivative_table(lab.bump(), lab.tau_grid.times,
                                                    lab.table().shape[1] - 1))
    assert peak <= 6.5


def test_kernel_residual_working_set(lab):
    kernel = cli._kernel(lab, lab.cfg.k_trunc, lab.cfg.kernel_t_nodes)
    assert traced_peak(lambda: fla.kernel_residual(kernel)) <= 5.6


def test_uniqueness_stage_working_set(lab, tmp_path):
    assert traced_peak(lambda: cli.run_uniqueness(lab, tmp_path)) <= 4.8
