"""Benchmark launcher for the disorder package.

    python3 perfbench/run.py --workload mc_filter --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  It starts every process with BLAS/OpenMP
threads pinned to 1, one after another, so the cores measure the program and
not the scheduler:

  1. SETUP_PROBES fresh processes that only set up (import, load_spec plus
     validate, build the rules), half before and half after the measuring
     process; setup_s is the median over them and the measuring process;
  2. one fresh measuring process (worker.py) that runs the workload for
     --seconds and checks its outputs.

It prints every metric by name with its unit, writes a run record to
perfbench/out/, and prints one JSON result as the last line of stdout.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Exit code 0 when every output checked out,
1 when a check failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUP_PROBES = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# The whole invocation must end within 180 s; the measuring process gets the
# run length plus this margin for set-up, its last rep and the checks.
WORKER_MARGIN_S = 100.0
PROBE_TIMEOUT_S = 30.0


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, crashed worker)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh process and return its last stdout line as JSON."""
    cmd = [sys.executable, str(WORKER)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """Commit of the checkout, read from .git inside it; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    """End-to-end metrics of one run (worker.py explains run_s)."""
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "run_s": {"value": result["run_s"], "unit": "s"},
        "traj_per_s": {"value": result["trajectories"] / result["run_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {name: {"value": result["layers"][name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced sizes")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in ("src/disorder/__init__.py", "configs"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{needed} not found under {ROOT}: run from the root of a full checkout")

    common = ["--workload", args.workload, "--size", args.size]

    def probe_setup(count: int) -> list[float]:
        return [run_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(count)]

    # Half the probes run before and half after the measuring process, so the
    # median spans the run rather than one moment of the host's load.
    setup_samples = probe_setup(SETUP_PROBES // 2)
    result = run_worker(
        common + ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        args.seconds + WORKER_MARGIN_S,
    )
    setup_samples += [result["setup_s"]] + probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    if result["run_s"] is None or (args.trace and "layers" not in result):
        raise BenchError(f"no rep completed: {result['failures']}")

    metrics = per_layer(result, spec) if args.trace else end_to_end(result, setup_samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(),
        "setup_samples_s": setup_samples,
        "metrics": metrics,
        "worker": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} commit {env['git_commit']}")
    print(f"python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"config_digest {result['config_digest']}")
    print(f"reps {result['reps']}  output digest {result['digest']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_rate':40s} {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    print(f"record written to {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
