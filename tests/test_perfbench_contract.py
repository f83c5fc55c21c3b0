"""What the benchmark in perfbench/ reads of the program, checked without
running the benchmark: the traced functions and their counted parameters,
the kernel attributes it sizes, and the reference values of its three
workloads."""

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hardylab import cli
from hardylab import flatness as fla

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
# import the benchmark's modules without writing bytecode into its directory
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
sys.dont_write_bytecode = _write_bytecode


def _arguments_read(counter) -> set[str]:
    """The keys a counter reads from its bound arguments, args["..."]."""
    tree = ast.parse(inspect.getsource(counter))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.slice, ast.Constant)}


@pytest.mark.parametrize("span", sorted(spans.COUNTERS))
def test_counted_span_resolves_to_a_function_with_the_counted_parameter(span):
    module, name = span.split(".")
    fn = getattr(importlib.import_module(f"hardylab.{module}"), name)
    assert inspect.isfunction(fn) and spans._span_name(fn) == span
    _, counter = spans.COUNTERS[span]
    assert _arguments_read(counter) <= set(inspect.signature(fn).parameters)


def test_kernel_counter_reads_values_and_derivative_table():
    kernel = fla.build_kernel(fla.gevrey_bump(1.0), np.linspace(-1.0, 1.0, 5),
                              np.linspace(0.0, 1.0, 9), 4)
    _, counter = spans.COUNTERS["flatness.build_kernel"]
    assert counter({}, kernel) == kernel.values.nbytes + kernel.deriv_table.nbytes > 0


def test_lab_default_reference_keys_come_from_a_default_run(tmp_path):
    # the values are flattened by the workload's own CliOp, as the benchmark does
    op = workloads.CliOp("lab-default", cli.LabConfig(), tmp_path)
    with op.capturing_reports():
        op.run()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    expected = reference["lab-default"]["per_seed"]["0"]
    values = op.values()
    assert set(expected) <= set(values)
    assert workloads.compare(values, expected) == []


def test_time_stepping_reference_keys_come_from_a_seed_0_run(tmp_path):
    # the workload's config file at seed 0, loaded and flattened as the benchmark does
    config = tmp_path / "time-stepping.cfg"
    config.write_text(inputs.config_text("time-stepping", 0))
    op = workloads.CliOp("time-stepping", cli.load_config(str(config)), tmp_path / "out")
    with op.capturing_reports():
        op.run()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    expected = reference["time-stepping"]["per_seed"]["0"]
    values = op.values()
    assert set(expected) <= set(values)
    assert workloads.compare(values, expected) == []
    assert op.check(None) == []


def test_coupling_sweep_pass_at_seed_0_meets_the_reference(tmp_path):
    # one pass of the sweep at the workload's seed-0 config and rng, checked
    # as the benchmark checks every pass: its Bessel zeros to ZERO_RTOL
    config = tmp_path / "coupling-sweep.cfg"
    config.write_text(inputs.config_text("coupling-sweep", 0))
    cfg = cli.load_config(str(config))
    rng = np.random.default_rng(inputs.config_seed("coupling-sweep", 0))
    rows = workloads.sweep_pass(cfg, rng)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    expected = reference["coupling-sweep"]["all_seeds"]
    assert any(".bessel_zero_sq." in key for key in expected)
    assert workloads.sweep_check(cfg, rows, expected) == []
