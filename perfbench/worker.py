"""One benchmark process: set up hardylab, run operations, check them.

Started by run.py in a fresh interpreter:

    python3 perfbench/worker.py --workload NAME --seed N --config FILE \
        --out RESULT.json --mode plain|trace|alternate [--budget SECONDS]

lab-default runs one operation per process.  The other workloads run an
untimed warm-up operation and then timed operations until `--budget`
seconds have gone.  In `alternate` mode every other operation is traced,
in `trace` mode all are.  The result (per-operation times, CPU, checks,
span summaries, peak RSS and machine notes) is written as JSON to `--out`.
"""

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def machine_notes() -> dict:
    """Cores, BLAS libraries with their thread counts, library versions."""
    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                blas[Path(path).name] = getter()
                break
        else:
            blas[Path(path).name] = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas,
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "alternate"), default="plain")
    parser.add_argument("--budget", type=float, default=0.0)
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import hardylab.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "hardylab").resolve():
        raise SystemExit(f"hardylab imported from {cli.__file__}, not from {src}")
    cfg = cli.load_config(args.config)
    cli.validate_config(cfg)

    import inputs
    import spans
    import workloads

    references = json.loads((Path(__file__).parent / "reference.json").read_text())
    ref = references[args.workload]
    if "per_seed" in ref:
        reference = ref["per_seed"][str(inputs.config_seed(args.workload, args.seed))]
    else:
        reference = ref["all_seeds"]

    tracer = spans.Tracer()
    work = Path(args.out).parent
    ops = []
    kept_spans = []

    def measure(body, traced: bool, check) -> None:
        record = {"traced": traced, "errors": []}
        tracer.reset()
        if traced:
            tracer.install()
        result = None
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            result = body()
        except Exception:
            record["errors"].append(traceback.format_exc(limit=4))
        finally:
            record["run_s"] = time.perf_counter() - t0
            record["cpu_s"] = _cpu_seconds() - cpu0
            tracer.uninstall()
        if traced:
            record["trace"] = tracer.summary()
            kept_spans[:] = tracer.spans
        if not record["errors"]:
            try:
                record["errors"] += check(result)
            except Exception:
                record["errors"].append(traceback.format_exc(limit=4))
        ops.append(record)

    if args.workload in inputs.CLI_WORKLOADS:
        artifacts = work / f"artifacts-{os.getpid()}"

        def body():
            op = workloads.CliOp(args.workload, cfg, artifacts / f"op{len(ops)}")
            with op.capturing_reports():
                op.run()
            return op

        def check(op):
            try:
                return op.check(reference)
            finally:
                shutil.rmtree(artifacts)
    else:
        import numpy as np

        rng = np.random.default_rng(inputs.config_seed(args.workload, args.seed))

        def body():
            return workloads.sweep_pass(cfg, rng)

        def check(rows):
            return workloads.sweep_check(cfg, rows, reference)

    warmup_errors = []
    if args.workload in inputs.WARM_PROCESS:
        try:
            warmup_errors += check(body())   # untimed
        except Exception:
            # the timed operations record the failure again
            warmup_errors.append(traceback.format_exc(limit=4))
    started = time.perf_counter()
    while True:
        traced = args.mode == "trace" or (args.mode == "alternate" and len(ops) % 2 == 0)
        measure(body, traced, check)
        if args.workload not in inputs.WARM_PROCESS:
            break
        elapsed = time.perf_counter() - started
        typical = statistics.median(o["run_s"] for o in ops)
        if len(ops) >= inputs.MIN_OPS and elapsed + typical > args.budget:
            break

    shutil.rmtree(work / f"artifacts-{os.getpid()}", ignore_errors=True)
    result = {
        "ops": ops,
        "warmup_errors": warmup_errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "notes": machine_notes(),
    }
    if kept_spans:
        (work / f"spans-{os.getpid()}.json").write_text(json.dumps(kept_spans))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
