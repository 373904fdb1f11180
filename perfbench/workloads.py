"""Workload definitions: configs, sizes and seeds, all derived from one seed.

Stdlib only, so the parent process can import it without mepsim.  The
child turns the round counts below into horizons, because those depend on
the derived timing parameters.
"""

WORKLOADS = ("grid-long", "hypercube-arrivals")

# Seeds whose output digests are recorded in digests.json.  The committed
# baseline is measured on seeds 1..10.  Seed 11 is recorded for correctness
# but kept out of the baseline, so a later speed-up claim can be re-checked
# on a seed nobody tuned against.
RECORDED_SEEDS = range(0, 16)

# Rounds past required_horizon: horizon = required_horizon + rounds * tau2.
# "tiny" is the harness self-check size.
SIZES = {
    "full": {"grid-long": 150, "hypercube-arrivals": 150},
    "tiny": {"grid-long": 3, "hypercube-arrivals": 3},
}


def make_config(workload: str, seed: int) -> dict:
    """The config file (a JSON-able dict) for one workload and seed.

    Keys it omits keep mepsim's defaults (d_min=0, paper-sim timing,
    uniform delays, random-uniform init).
    """
    if workload == "grid-long":
        return {"topology": "grid:16x16", "d_max": 100, "rho": 0.0,
                "drift": {"mode": "zero"}, "record_arrivals": False,
                "seed": seed}
    if workload == "hypercube-arrivals":
        return {"topology": "hypercube:6", "d_max": 1000, "omission_p": 0.1,
                "drift": {"mode": "uniform"}, "record_arrivals": True,
                "association_checks": True, "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")
