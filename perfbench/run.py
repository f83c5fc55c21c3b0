"""hardylab benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload lab-default|time-stepping|coupling-sweep \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports hardylab from `src/` there
and fails (exit 2) when that tree is missing.  It writes only under
`.perfbench_out/` in the checkout.

With `--trace 0` it reports the end-to-end metrics, measured with tracing
off: `setup_s` (a fresh interpreter imports `hardylab.cli` and loads and
validates the workload's config; median of several), `run_s` and `cpu_s`
(median per operation), and `peak_rss_mb` (median over processes).  With
`--trace 1` it reports the per-layer metrics of BENCHMARK.json from traced
operations, alternating with untraced ones to measure the tracing overhead.
The last line of standard output is the result object; the lines before it
give machine notes and a readable summary, with `failed_frac`.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4
IMPORTTIME_PROBES = 3
STAGES = ("spectrum", "hardy", "evolve", "kernel", "transform", "uniqueness",
          "angular", "hum", "inverse-source", "titchmarsh")
MODULES = ("spectral", "bessel", "evolution", "flatness", "elliptic", "angular",
           "control", "inverse", "cli")
IMPORTED = ("numpy", "scipy.linalg", "scipy.signal", "hardylab",
            *(f"hardylab.{m}" for m in MODULES))

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hardylab.cli as c; "
    "c.validate_config(c.load_config(sys.argv[2]))"
)

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; span times are self time, except the stage
# times, which are each stage's wall time
PER_LAYER = {
    **{f"{name}.s": "s" for name in (
        "flatness.build_kernel", "flatness.derivative_table", "flatness.kernel_residual",
        "elliptic.transform", "inverse.volterra_invert", "inverse.trapezoid_convolution",
        "control.verify_control", "evolution.duhamel_modal_source", "bessel.bessel_zeros",
        "bessel.bessel_j", "evolution.observability_matrix", "elliptic.ucp_probe",
        "elliptic.uniqueness_pipeline", "control.gramian", "spectral.solve_spectrum",
        "cli.io")},
    "flatness.derivative_table.rows": "count",
    "flatness.kernel.bytes": "bytes",
    "inverse.volterra_invert.steps": "count",
    "control.verify_control.steps": "count",
    "evolution.duhamel_modal_source.steps": "count",
    "bessel.bessel_j.calls": "count",
    "control.hum_solve.calls": "count",
    "spectral.solve_spectrum.calls": "count",
    "cli.io.bytes": "bytes",
    **{f"cli.stage.{stage}.s": "s" for stage in STAGES},
    **{f"layer.{module}.s": "s" for module in MODULES},
    **{f"setup.import.{module}.s": "s" for module in IMPORTED},
    "trace.run_s": "s",
    "trace.outside_stages_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def setup_probe(config: Path) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config)],
                   check=True, timeout=120)
    return time.perf_counter() - started


def importtime_probe() -> dict:
    """Cumulative import seconds per module from `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import hardylab.cli", str(SRC)],
        check=True, timeout=120, capture_output=True, text=True)
    out = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)", line)
        if m and m.group(2) in IMPORTED:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return out


def run_worker(workload: str, seed: int, config: Path, work: Path, index: int,
               mode: str, budget: float) -> dict:
    out = work / f"worker-{index}.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--config", str(config), "--out", str(out),
         "--mode", mode, "--budget", str(budget)],
        check=True, timeout=170)
    return json.loads(out.read_text())


def summarize_trace(ops: list[dict], setup_imports: list[dict]) -> dict:
    traced = [o["trace"] for o in ops if o["traced"]]
    plain = [o["run_s"] for o in ops if not o["traced"]]
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("setup.import."):
            module = name[len("setup.import."):-2]
            metrics[name] = statistics.median(p.get(module, 0.0) for p in setup_imports)
        elif not name.startswith("trace."):
            metrics[name] = statistics.median(t.get(name, 0) for t in traced)
    metrics["trace.run_s"] = statistics.median(o["run_s"] for o in ops if o["traced"])
    metrics["trace.outside_stages_s"] = statistics.median(
        o["run_s"] - sum(v for k, v in o["trace"].items()
                         if k.startswith("cli.stage.") and k.endswith(".s"))
        for o in ops if o["traced"])
    metrics["trace.untraced_run_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hardylab" / "cli.py").is_file():
        print(f"error: no hardylab source tree at {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "lab.cfg"
    config.write_text(inputs.config_text(args.workload, args.seed))

    setup_probe(config)   # untimed: fills the page cache and writes .pyc files
    setup_times = [setup_probe(config) for _ in range(SETUP_PROBES)]
    setup_imports = ([importtime_probe() for _ in range(IMPORTTIME_PROBES)]
                     if args.trace else [])

    ops, rss, notes = [], [], {}
    started = time.perf_counter()
    if args.workload in inputs.WARM_PROCESS:
        result = run_worker(args.workload, args.seed, config, work, 0,
                            "alternate" if args.trace else "plain", args.seconds)
        ops, rss, notes = result["ops"], [result["peak_rss_mb"]], result["notes"]
    else:
        while True:
            mode = "trace" if args.trace and len(ops) % 2 == 0 else "plain"
            result = run_worker(args.workload, args.seed, config, work, len(ops), mode, 0.0)
            ops += result["ops"]
            rss.append(result["peak_rss_mb"])
            notes = result["notes"]
            elapsed = time.perf_counter() - started
            if len(ops) >= inputs.MIN_OPS and elapsed * (1 + 1 / len(ops)) > args.seconds:
                break
    failed = [o for o in ops if o["errors"]]

    if args.trace:
        metrics = summarize_trace(ops, setup_imports)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(o["run_s"] for o in ops),
            "cpu_s": statistics.median(o["cpu_s"] for o in ops),
            "peak_rss_mb": statistics.median(rss),
        }
        units = END_TO_END
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "ops": len(ops), "failed_frac": len(failed) / len(ops),
               "setup_samples_s": setup_times,
               "run_samples_s": [o.get("run_s") for o in ops], "notes": notes}
    (work / "result.json").write_text(json.dumps({**summary, "metrics": metrics,
                                                  "errors": [o["errors"] for o in failed]},
                                                 indent=1))
    print("notes " + json.dumps(notes, sort_keys=True))
    for o in failed:
        print("FAILED: " + " | ".join(e.strip().replace("\n", " / ") for e in o["errors"])[:2000])
    print(f"{args.workload} seed={args.seed} ops={len(ops)} "
          f"failed_frac={summary['failed_frac']:.4g}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
