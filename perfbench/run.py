"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the `agd` package is imported from its
`src/` directory. With `--trace 0` the workload runs closed loop (one caller,
the next call issued when the previous one returns) for S seconds and the
end-to-end metrics are printed. With `--trace 1` one operation runs untraced
and then once more under the span tracer, and the per-layer metrics are
printed. The last line of stdout is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
operation and every output check passed.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy loads: one BLAS/OpenMP thread, and the
# library's own generation thread pool off.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("AGD_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# Contract metrics, printed in the JSON line: name -> unit.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "graphs_per_s": "graphs/s"}
SETUP_REPEATS = 7     # cold starts per run; setup_s is their median


def git_commit(root: Path) -> str | None:
    """The checked-out commit, or None outside a git checkout. git does not
    look above `root`, so a tree inside another repository reads None."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": git_commit(ROOT)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations and output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op_failed(self, label: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAIL {label}:", file=sys.stderr)
        traceback.print_exc()

    def record(self, result, checks, reference_digest: str | None) -> None:
        checks = list(checks)
        if reference_digest is not None:
            checks.append(("outputs_repeat", result.digest == reference_digest))
        self.attempted += 1 + len(checks)
        for name, ok in checks:
            if not ok:
                self.failed += 1
                print(f"FAIL check {name}", file=sys.stderr)


def cold_setup_seconds(name: str, workload) -> float:
    """Wall time of a fresh interpreter that imports agd and runs the
    workload's set-up once."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "setup_once.py"), name,
                    str(workload.seed), workload.workdir], check=True)
    return time.perf_counter() - started


def run_untraced(name: str, workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    state = workload.setup()
    results, setup_times = [], []
    started = time.perf_counter()
    op_s = cold_s = op_cpu_s = op_wall_s = 0.0
    while True:
        # Cold starts fall due evenly over the run, so that setup_s samples
        # the host over the same stretch as the operations; their own time
        # does not count against the run.
        elapsed = time.perf_counter() - started - cold_s
        while (len(setup_times) < SETUP_REPEATS
               and elapsed >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(cold_setup_seconds(name, workload))
            cold_s += setup_times[-1]
        # Issue the next call only if it should end within the run's time.
        if results and elapsed + op_s > seconds:
            break
        op_started, cpu_started = time.perf_counter(), time.process_time()
        try:
            result = workload.run_op(state)
            op_cpu_s += time.process_time() - cpu_started
            op_wall_s += time.perf_counter() - op_started
            checks = workload.check(state, result)
        except Exception:
            tally.op_failed(f"operation {len(results) + 1}")
            break
        op_s = time.perf_counter() - op_started
        tally.record(result, checks, results[0].digest if results else None)
        results.append(result)
    setup_times += [cold_setup_seconds(name, workload)
                    for _ in range(SETUP_REPEATS - len(setup_times))]
    if not results:
        return {}, {}
    # Throughput over the whole run: co-tenants of a shared host slow the CPU
    # in stretches of seconds to minutes, and a sum over the run averages
    # them where the median or the fastest of short operations would not.
    totals = {phase: (sum(r.phases[phase][0] for r in results),
                      sum(r.phases[phase][1] for r in results))
              for phase in results[0].phases}
    metrics = {"setup_s": statistics.median(setup_times),
               "peak_rss_mb": peak_rss_mb(),
               "graphs_per_s": (sum(g for g, _ in totals.values())
                                / sum(s for _, s in totals.values()))}
    figures = {}
    for phase, (figure, unit) in workload.FIGURES.items():
        graphs, phase_s = totals[phase]
        figures[figure] = (phase_s / len(results) if unit == "s" else graphs / phase_s, unit)
    figures.update(results[0].values)
    # Near 1 when the process kept its CPU: a slow run then means a slow
    # CPU, not a descheduled process, and CPU time is no steadier than wall.
    figures["op_cpu_over_wall"] = (op_cpu_s / op_wall_s, "ratio")
    figures["operations"] = (len(results), "count")
    return metrics, {"figures": figures, "digest": results[0].digest}


def run_traced(workload, run_id: str, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    from tracer import Tracer

    try:
        started = time.perf_counter()
        state = workload.setup()
        untraced = workload.run_op(state)
        untraced_s = time.perf_counter() - started
        tally.record(untraced, workload.check(state, untraced), None)
    except Exception:
        tally.op_failed("untraced operation")
        return {}, {}

    tracer = Tracer(run_id)
    tracer.install()
    try:
        started = time.perf_counter()
        state = workload.setup()
        traced = workload.run_op(state)
        traced_s = time.perf_counter() - started
    except Exception:
        tally.op_failed("traced operation")
        return {}, {}
    finally:
        tracer.restore()
    # The checks call the library too, so they run untraced; the traced
    # outputs must be byte-identical to the untraced ones.
    try:
        tally.record(traced, workload.check(state, traced), untraced.digest)
    except Exception:
        tally.op_failed("traced operation's checks")
        return {}, {}
    tracer.write(spans_path)
    return (tracer.layer_metrics((traced_s - untraced_s) / untraced_s),
            {"digest": traced.digest})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agd" / "__init__.py").is_file():
        print(f"error: no agd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    from tracer import LAYER_METRICS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    env = environment()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=run_id + "-", dir=OUT_DIR)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    try:
        workload.prepare()
        if args.trace:
            metrics, details = run_traced(workload, run_id, tally,
                                          OUT_DIR / f"spans-{run_id}.jsonl")
            units = LAYER_METRICS
        else:
            metrics, details = run_untraced(args.workload, workload, args.seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and bool(metrics)
    metrics = {name: metrics.get(name, 0.0) for name in units}
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# {run_id} env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, (value, unit) in details.get("figures", {}).items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ratio ({tally.failed}/{tally.attempted})")
    print(f"# digest {details.get('digest')}")
    result = {"correct": correct, "attempted": max(tally.attempted, 1),
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(OUT_DIR / f"result-{run_id}.json", "w") as fh:
        json.dump({**result, **details, "env": env}, fh, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
