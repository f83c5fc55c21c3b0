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


@pytest.fixture(scope="module")
def lab_default(tmp_path_factory):
    """The lab-default workload's run at the default config, through its own CliOp."""
    op = workloads.CliOp("lab-default", cli.LabConfig(), tmp_path_factory.mktemp("lab-default"))
    with op.capturing_reports():
        op.run()
    return op


def test_lab_default_reference_keys_come_from_a_default_run(lab_default):
    # the values are flattened by the workload's own CliOp, as the benchmark does
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    expected = reference["lab-default"]["per_seed"]["0"]
    values = lab_default.values()
    assert set(expected) <= set(values)
    assert workloads.compare(values, expected) == []
    assert lab_default.check(None) == []


# the report keys that restate a check value, each pinned by reference.json: stated twice
# in every manifest until the benchmark's reference drops them.  hum.sigma_min is not one:
# it equals hum_psd = lambda_min / max(lambda_max, 1) only while lambda_max < 1
REPORT_COPIES_OF_CHECKS = {
    "spectrum.worst_rel_err": "spectrum_oracle_rel_err",
    "hardy.min_ratio": "hardy_sweep_bound",
    "evolve.norm_drift": "evolution_norm_drift",
    "evolve.reversal_error": "evolution_time_reversal",
    "kernel.ratio": "kernel_residual_ratio",
    "kernel.boundary": "kernel_boundary_exact",
    "transform.residual": "transform_residual",
    "transform.moment_consistency": "transform_moment_consistency",
    "angular.gamma_defect": "angular_gamma_identity",
    "angular.oracle_err": "angular_arc_oracle",
    "hum.identity_gap": "hum_defect_identity",
    "inverse-source.roundtrip": "inverse_roundtrip",
    "inverse-source.rel_err": "inverse_reconstruction",
    "inverse-source.id_conv": "inverse_convolution_identity",
    "inverse-source.id_free": "inverse_free_evolution",
    "inverse-source.agreement": "inverse_reduction_agreement",
}


def test_report_copies_of_check_values_are_the_reference_keys_named(lab_default):
    (_, summary), = lab_default.results
    manifest = json.loads((Path(summary["outdir"]) / "manifest.json").read_text())
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert set(REPORT_COPIES_OF_CHECKS) <= set(reference["lab-default"]["per_seed"]["0"])
    for key, check in REPORT_COPIES_OF_CHECKS.items():
        stage, name = key.split(".")
        assert cli.CHECKS[check][0] == stage
        assert manifest["reports"][stage][name] == manifest["check_details"][check]["value"], key
    # and no other report value equals a check value of its stage
    equal = {f"{stage}.{name}" for stage, report in manifest["reports"].items()
             for name, value in report.items() for check, (owner, _, _) in cli.CHECKS.items()
             if owner == stage and value == manifest["check_details"][check]["value"]}
    assert equal == {*REPORT_COPIES_OF_CHECKS, "hum.sigma_min"}


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
