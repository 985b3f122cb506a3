"""One cold start of a workload's set-up, timed by the caller from outside.

    python3 perfbench/setup_once.py WORKLOAD SEED WORKDIR

The interpreter start and the import of `agd` count as set-up, because
every `agd` command pays them. The caller has already pinned the BLAS
threads in the environment this process inherits.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:]
    WORKLOADS[name](int(seed), workdir).setup()
