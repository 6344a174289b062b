"""Self-test of the benchmark; takes about a minute.

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, through run.py:
   each must pass its checks and emit exactly the metric names and units that
   BENCHMARK.json lists for its mode.
2. The correctness gate must fail when given a wrong reference value, for a
   Monte Carlo estimate and for an exact value.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import worker

ROOT = worker.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_tiny_runs() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny")
            assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metric names or units differ from BENCHMARK.json"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok  tiny {workload} trace {trace}: {len(got)} metrics, {result['attempted']} operations")


def check_gate_rejects_wrong_references() -> None:
    ctx = worker.setup("mc_filter", "tiny")
    from disorder.simulate import mix_seed

    ctx["chunk_seeds"] = [mix_seed(3, b) for b in range(ctx["params"]["calls"])]
    reports = worker.mc_rep(ctx, worker.make_rules(ctx), 3)["reports"]
    ref = worker.load_references()["mc_filter"]
    assert worker.check_mc(reports, ref, None) == []
    wrong = dict(ref, rules=dict(ref["rules"], threshold=ref["rules"]["threshold"] + 0.3))
    failures = worker.check_mc(reports, wrong, None)
    assert len(failures) == 1 and failures[0].startswith("threshold"), failures
    print(f"ok  gate rejects a wrong MC reference: {failures[0]}")

    ctx = worker.setup("exact_verify", "tiny")
    rep = worker.exact_rep(ctx, worker.make_rules(ctx), 3)
    assert worker.check_exact(rep) == []
    rep["values"]["state_indexed"] += 1e-6
    failures = worker.check_exact(rep)
    assert len(failures) == 1 and failures[0].startswith("restricted"), failures
    print(f"ok  gate rejects a wrong exact value: {failures[0]}")


def check_bare_directory_fails() -> None:
    bare = worker.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(worker.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, "--workload", "mc_filter", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_tiny_runs()
    check_gate_rejects_wrong_references()
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
