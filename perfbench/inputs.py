"""Workload inputs: the config each workload runs at, derived from the seed.

Kept free of numpy and hardylab imports so that run.py can write configs
without importing the program it measures.
"""

# CLI workloads draw their config seed from this many seeds; reference.json
# holds the seed commit's values for each of them
SEED_POOL = 32

CLI_WORKLOADS = {
    "lab-default": {
        "config": {},
        "stages": ("all",),
        # acceptance criteria 03 and 05: kept failing at their stated bounds
        "expected_false": ("hardy_pencil_in_range", "kernel_residual_ratio"),
        "n_checks": 31,
    },
    "time-stepping": {
        "config": {"k_modes": 16, "time_steps": 1600, "inverse_steps": 40000,
                   "recon_steps": 4000, "hum_verify_steps": 800000},
        "stages": ("evolve", "hum", "inverse-source"),
        "expected_false": (),
        "n_checks": 14,
    },
}
SWEEP_CONFIG = {"n_interior": 800, "k_modes": 8}
WORKLOADS = (*CLI_WORKLOADS, "coupling-sweep")
# a run measures at least this many operations, even past --seconds
MIN_OPS = 3
# workloads that repeat their operation in one warm process; lab-default
# starts a fresh process for every operation, as a command-line user does
WARM_PROCESS = ("time-stepping", "coupling-sweep")


def config_seed(workload: str, seed: int) -> int:
    return seed % SEED_POOL if workload in CLI_WORKLOADS else seed


def config_text(workload: str, seed: int) -> str:
    """The workload's `key = value` config file for `hardylab.cli.load_config`."""
    items = dict(CLI_WORKLOADS[workload]["config"] if workload in CLI_WORKLOADS
                 else SWEEP_CONFIG)
    items["seed"] = config_seed(workload, seed)
    return "".join(f"{key} = {value}\n" for key, value in items.items())
