"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 setup_probe.py <repo root> <config.json>

Prints one JSON object: the seconds spent importing stochns (numpy and
scipy included, as a user of the CLI pays them), loading and validating the
config file, and running `studies.prepare` (lattice, noise validation,
initial field).
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, f"{sys.argv[1]}/src")
import stochns.cli  # noqa: E402,F401  (the entry point's imports)
from stochns import studies  # noqa: E402
from stochns.config import ExperimentConfig  # noqa: E402

t1 = time.perf_counter()
config = ExperimentConfig.from_file(sys.argv[2])
t2 = time.perf_counter()
studies.prepare(config)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1, "prepare_s": t3 - t2,
                  "setup_s": t3 - t0}))
