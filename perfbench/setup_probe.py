"""Set one workload up in a fresh interpreter; ``run.py`` times this process.

    python3 perfbench/setup_probe.py WORKLOAD SEED full|small
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.require_source()

import workloads  # noqa: E402

name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.WORKLOADS[name].setup(seed, workloads.SMALL if size == "small" else workloads.FULL)
