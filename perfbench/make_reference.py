"""Record the values the benchmark checks against (perfbench/reference.json).

    python3 perfbench/make_reference.py

Run it from the root of a checkout at the commit whose values are the
reference.  It runs every CLI workload at each of the SEED_POOL config seeds
and one coupling-sweep pass, checks the manifests as the benchmark does, and
stores the reported values.  The coupling-sweep values do not depend on the
seed, so they are stored once.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hardylab import cli  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench_out" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    for workload in inputs.CLI_WORKLOADS:
        per_seed = {}
        for seed in range(inputs.SEED_POOL):
            config = work / "lab.cfg"
            config.write_text(inputs.config_text(workload, seed))
            op = workloads.CliOp(workload, cli.load_config(str(config)), work / "artifacts")
            with op.capturing_reports():
                op.run()
            errors = op.check(None)
            if errors:
                raise SystemExit(f"{workload} seed {seed}: {errors}")
            per_seed[str(seed)] = op.values()
            print(workload, seed, len(per_seed[str(seed)]), "values", flush=True)
        reference[workload] = {"per_seed": per_seed}
    config = work / "lab.cfg"
    config.write_text(inputs.config_text("coupling-sweep", 0))
    cfg = cli.load_config(str(config))
    rows = workloads.sweep_pass(cfg, np.random.default_rng(0))
    errors = workloads.sweep_check(cfg, rows, None)
    if errors:
        raise SystemExit(f"coupling-sweep: {errors}")
    reference["coupling-sweep"] = {"all_seeds": workloads.sweep_values(rows)}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
