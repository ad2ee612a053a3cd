"""Set-up probe: a fresh interpreter imports ckops, generates one seeded
workload's inputs (for ``cli``, writes its input files) and prints ``ready``.
run.py times it from process start to that line.

    python3 perfbench/probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ckops  # noqa: E402,F401  (the import is part of what set-up costs)
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1:]
    workloads.make_inputs(workload, int(seed), Path(workdir))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
