"""Check that a traced run's exact counters and output digest repeat between
two processes with the same seed.

    python3 perfbench/repeat_check.py --workload NAME --seed N

Exits 0 when both runs pass their own checks and agree exactly.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from tracer import EXACT_METRICS  # noqa: E402


def traced_run(workload: str, seed: int):
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"traced run failed ({out.returncode}):\n{out.stderr}")
    digest = next(line.split()[-1] for line in lines if line.startswith("# digest "))
    metrics = json.loads(lines[-1])["metrics"]
    return {"digest": digest, **{k: metrics[k]["value"] for k in EXACT_METRICS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    first = traced_run(args.workload, args.seed)
    second = traced_run(args.workload, args.seed)
    for name, value in first.items():
        same = value == second[name]
        print(f"{'same' if same else 'DIFFERENT'} {name} {value} {second[name]}")
    return 0 if first == second else 1


if __name__ == "__main__":
    sys.exit(main())
