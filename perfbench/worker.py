"""One benchmark workload, run inside one fresh process.

Usage (run.py starts it with BLAS/OpenMP threads pinned to 1):

    python3 perfbench/worker.py --workload mc_filter --seed 3 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload mc_filter --setup-only

The process first times its own set-up: importing numpy and the package,
load_spec plus validate, and building the rules the workload passes in.  It
then repeats one rep of the workload, on the same seed-derived inputs and
with freshly built rules, until the next rep would overrun --seconds.  Every
rep's outputs are checked.  It prints one JSON line.

A rep is a fixed sequence of short timed calls into the package, and run_s
is the sum over those calls of each call's fastest time among the run's reps.
On a shared host contention only ever adds time, and it comes in bursts that
last seconds: the median of a 15 s window of identical 15 ms calls moves by
30% from one window to the next, while the fastest call moves by 4%.  Short
calls and their fastest times make the figure repeat; README.md has the data.

Workloads (README.md says why each exists):

    mc_filter     monte_carlo_eval on m3, rules fixed + threshold, horizon 16,
                  2000 trajectories in 40 calls of 50
    mc_optimal    monte_carlo_eval on m4, rules optimal + fixed + threshold,
                  ValueIterConfig(k_max=4), horizon 5, 1000 trajectories in
                  100 calls of 10 that share one set of rules
    exact_verify  on m3_d1: build_joint(9), exact_optimal_rule restricted and
                  unrestricted, optimal_value_state_indexed(9),
                  exact_rule_value of OptimalStoppingRule(k_max=5),
                  run_crosscheck at horizon 5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

WORKLOADS = {
    "mc_filter": {"config": "configs/m3.json", "horizon": 16, "rules": ("fixed", "threshold"),
                  "calls": 40, "chunk": 50},
    "mc_optimal": {"config": "configs/m4.json", "horizon": 5, "rules": ("optimal", "fixed", "threshold"),
                   "k_max": 4, "calls": 100, "chunk": 10},
    "exact_verify": {"config": "configs/m3_d1.json", "horizon": 9, "k_max": 5, "crosscheck_horizon": 5},
}

# Sizes for the self-test: same configs, horizons and references, less work.
TINY = {
    "mc_filter": {"calls": 2, "chunk": 50},
    "mc_optimal": {"calls": 2, "chunk": 10},
    "exact_verify": {"horizon": 7, "k_max": 4, "crosscheck_horizon": 4},
}

# An MC estimate passes when it lies within Z_GATE standard errors of the
# exact reference (two-sided false-alarm rate 5.7e-7 per check).
Z_GATE = 5.0
# exact_rule_value(optimal) may fall short of the optimal value by at most
# this much: the tolerance of acceptance criterion 5.
OPTIMALITY_GAP = 5e-3
STATE_INDEXED_TOL = 1e-10

TAIL_LEVELS = (99.99, 99.9, 99.0, 90.0, 50.0)


def setup(name: str, size: str) -> dict:
    """Import, load and validate the config, build the rules; all timed."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (part of the import cost being measured)

    sys.path.insert(0, str(ROOT / "src"))
    from disorder import crosscheck, model  # noqa: F401  (crosscheck is not imported by the package)

    params = dict(WORKLOADS[name])
    if size == "tiny":
        params.update(TINY[name])
    t1 = time.perf_counter()
    spec = model.load_spec(ROOT / params["config"])
    violations = model.validate(spec)
    t2 = time.perf_counter()
    if violations:
        raise SystemExit(f"config {params['config']} is invalid: {violations}")
    ctx = {"name": name, "spec": spec, "params": params}
    make_rules(ctx)
    ctx["setup_s"] = time.perf_counter() - t0
    ctx["load_validate_s"] = t2 - t1
    return ctx


def make_rules(ctx) -> dict:
    """Fresh rules, built as `disorder evaluate` builds them."""
    from disorder import simulate, stopping

    spec, params = ctx["spec"], ctx["params"]
    build = {
        "optimal": lambda: stopping.OptimalStoppingRule(spec, stopping.ValueIterConfig(k_max=params["k_max"])),
        "fixed": lambda: simulate.fixed_time_rule(spec),
        "threshold": lambda: simulate.posterior_threshold_rule(spec),
    }
    return {rule: build[rule]() for rule in params.get("rules", ("optimal",))}


# ---------------------------------------------------------------- reps ----


def timed(calls: list, name: str, fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    calls.append((name, time.perf_counter() - t))
    return out


def mc_rep(ctx, rules, seed: int) -> dict:
    """monte_carlo_eval over `calls` chunks of trajectories; chunk b has base
    seed mix_seed(seed, b), and all chunks share the rules (and so the
    optimal rule's prefix cache)."""
    from disorder import simulate

    p = ctx["params"]
    calls: list = []
    reports = [
        timed(calls, f"monte_carlo_eval.{b}", simulate.monte_carlo_eval,
              ctx["spec"], rules, p["chunk"], p["horizon"], chunk_seed)
        for b, chunk_seed in enumerate(ctx["chunk_seeds"])
    ]
    return {"calls": calls, "trajectories": p["calls"] * p["chunk"], "reports": reports}


def exact_rep(ctx, rules, seed: int) -> dict:
    """One exact verification pass; crosscheck sampling uses `seed`."""
    from disorder import crosscheck, oracle

    spec, p = ctx["spec"], ctx["params"]
    h = p["horizon"]
    calls: list = []
    table = timed(calls, "build_joint", oracle.build_joint, spec, h)
    restricted, _ = timed(calls, "exact_optimal_rule.restricted", oracle.exact_optimal_rule, table, True)
    unrestricted, _ = timed(calls, "exact_optimal_rule.unrestricted", oracle.exact_optimal_rule, table, False)
    state_indexed = timed(calls, "optimal_value_state_indexed", oracle.optimal_value_state_indexed, spec, h)
    rule_value = timed(calls, "exact_rule_value", oracle.exact_rule_value, table, rules["optimal"])
    checks = timed(calls, "run_crosscheck", crosscheck.run_crosscheck, spec, p["crosscheck_horizon"], seed=seed)
    return {
        "calls": calls,
        # exact_rule_value applies the rule to every path of length h
        "trajectories": len(table.levels[h]),
        "values": {"restricted": restricted, "unrestricted": unrestricted,
                   "state_indexed": state_indexed, "rule_value": rule_value},
        "checks": [(c.name, bool(c.passed), float(c.max_err), float(c.tol)) for c in checks],
    }


def fastest(reps: list) -> float:
    """Sum over a rep's calls of each call's fastest time among `reps`."""
    best: dict = {}
    for rep in reps:
        for name, seconds in rep["calls"]:
            best[name] = min(seconds, best.get(name, math.inf))
    return sum(best.values())


# ---------------------------------------------------------------- gate ----


def load_references(path=BENCH / "references.json") -> dict:
    return json.loads(Path(path).read_text())


def check_mc(reports: list, ref: dict, k_max) -> list[str]:
    """Failures of a rep's MC reports against the exact references (empty:
    pass).  Each rule's estimate pools the chunks' hits."""
    for report in reports:
        if (report.config_digest, report.horizon, k_max) != (ref["config_digest"], ref["horizon"], ref["k_max"]):
            return [f"report ({report.config_digest[:12]}, horizon {report.horizon}, k_max {k_max}) "
                    "is not what the references cover"]
    n = sum(report.n_trajectories for report in reports)
    failures = []
    for rule, exact in sorted(ref["rules"].items()):
        estimate = sum(r.rules[rule].estimate * r.n_trajectories for r in reports) / n
        se = math.sqrt(exact * (1.0 - exact) / n)
        if not abs(estimate - exact) <= Z_GATE * se:
            failures.append(f"{rule}: estimate {estimate:.6f} vs exact {exact:.6f} exceeds {Z_GATE:g} x se {se:.6f}")
    return failures


def check_exact(rep: dict) -> list[str]:
    """Failures of one exact_verify pass (empty: pass)."""
    v = rep["values"]
    failures = []
    if not abs(v["restricted"] - v["state_indexed"]) <= STATE_INDEXED_TOL:
        failures.append(f"restricted {v['restricted']!r} != state-indexed {v['state_indexed']!r}")
    if not v["restricted"] - v["rule_value"] <= OPTIMALITY_GAP:
        failures.append(f"optimal rule value {v['rule_value']!r} short of {v['restricted']!r}")
    failures += [f"crosscheck {name} max_err={err:.3e} tol={tol:.0e}"
                 for name, passed, err, tol in rep["checks"] if not passed]
    return failures


def mc_digest(reports: list) -> str:
    """sha256 of the reports' report_to_csv bytes, in chunk order."""
    from disorder import simulate

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"report-{os.getpid()}.csv"
    digest = hashlib.sha256()
    try:
        for report in reports:
            simulate.report_to_csv(report, path)
            digest.update(path.read_bytes())
    finally:
        path.unlink(missing_ok=True)
    return digest.hexdigest()


def exact_digest(rep: dict) -> str:
    """sha256 of the exact values and crosscheck errors, 17 digits each."""
    lines = [f"{k},{v:.17g}" for k, v in sorted(rep["values"].items())]
    lines += [f"{name},{passed},{err:.17g}" for name, passed, err, _ in rep["checks"]]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class Ledger:
    """Attempted and failed operations, with the first reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons += failures[: max(0, 20 - len(self.reasons))]


def run_and_check(ctx, refs: dict, seed: int, ledger: Ledger, tracer=None):
    """Run one rep (traced when a tracer is given) and check its outputs.

    The rep is one operation, and an exception in it one failed operation;
    each output check is one more operation.
    """
    rules = make_rules(ctx)
    if tracer is not None:
        rules = {rule: tracer.wrap(fn, f"rule.{rule}", rule_layer(fn), probe=True) for rule, fn in rules.items()}
        tracer.install()
    try:
        rep = (exact_rep if ctx["name"] == "exact_verify" else mc_rep)(ctx, rules, seed)
    except Exception as exc:  # a failing program is a measured outcome, not a crash
        ledger.record(1, [f"{type(exc).__name__}: {exc}"])
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if ctx["name"] == "exact_verify":
        rep["digest"] = exact_digest(rep)
        ledger.record(1 + 2 + len(rep["checks"]), check_exact(rep))
    else:
        reports = rep.pop("reports")  # not kept: peak RSS must not grow with the rep count
        rep["digest"] = mc_digest(reports)
        ref = refs[ctx["name"]]
        ledger.record(1 + len(ref["rules"]), check_mc(reports, ref, ctx["params"].get("k_max")))
    return rep


def rule_layer(fn) -> str:
    """Layer (package module) that defines a rule callable."""
    return getattr(fn, "__module__", type(fn).__module__).rsplit(".", 1)[-1]


# ------------------------------------------------------------- metrics ----


def tail(values):
    """(p50, tail, level): the tail is the value at the highest level of
    TAIL_LEVELS with at least 10 samples beyond it."""
    import numpy as np

    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0.0
    level = next((p for p in TAIL_LEVELS if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return float(np.percentile(values, 50.0)), float(np.percentile(values, level)), level


def layer_metrics(tracer, ctx, traced_s: float, overhead: float, crosscheck_failed: int) -> dict:
    """Per-layer metrics from the spans of one traced rep of `traced_s` seconds."""
    import numpy as np
    from tracer import CHECKS, LAYERS

    cols = tracer.columns()
    ids = {key: i for i, key in enumerate(tracer.names)}

    def mask(*keys):
        return np.isin(cols["name"], [ids[k] for k in keys if k in ids])

    def count(*keys):
        return int(mask(*keys).sum())

    def self_s(*keys):
        return float(cols["self"][mask(*keys)].sum())

    def total_s(*keys):
        return float(cols["dur"][mask(*keys)].sum())

    def timing(layer, prefix, scale, unit, *keys):
        p50, hi, level = tail(cols["dur"][mask(*keys)] * scale)
        return {f"{layer}.{prefix}_p50_{unit}": p50, f"{layer}.{prefix}_tail_{unit}": hi,
                f"{layer}.{prefix}_tail_pct": level}

    layer_self = np.bincount(cols["layer"], weights=cols["self"], minlength=len(LAYERS))
    layer_calls = np.bincount(cols["layer"], minlength=len(LAYERS))
    m = {f"{layer}.self_s": float(layer_self[i]) for i, layer in enumerate(LAYERS)}

    sample = "simulate.TrajectorySampler.sample"
    m["simulate.sample_calls"] = count(sample)
    m["simulate.sample_self_s"] = self_s(sample)
    m.update(timing("simulate", "sample", 1e6, "us", sample))
    for rule in ("optimal", "fixed", "threshold"):
        m[f"simulate.rule_s.{rule}"] = total_s(f"rule.{rule}")

    m["posterior.state_step_calls"] = count("posterior.state_step")
    m["posterior.state_step_self_s"] = self_s("posterior.state_step")
    m.update(timing("posterior", "state_step", 1e6, "us", "posterior.state_step"))
    m["posterior.predictive_calls"] = count("posterior.predictive")
    m["posterior.predictive_self_s"] = self_s("posterior.predictive")

    m["likelihood.calls"] = int(layer_calls[LAYERS.index("likelihood")])
    m["payoff.calls"] = int(layer_calls[LAYERS.index("payoff")])

    decisions = ("stopping.stop_decision", "stopping.boundary_decision")
    results = tracer.results["stopping.value_iterate"]
    m["stopping.decisions"] = count(*decisions)
    m["stopping.value_iterate_calls"] = count("stopping.value_iterate")
    m["stopping.value_iterate_self_s"] = self_s("stopping.value_iterate")
    m.update(timing("stopping", "decision", 1e3, "ms", *decisions))
    m["stopping.k_used_mean"] = statistics.fmean(k for k, _ in results) if results else 0.0
    m["stopping.converged_frac"] = sum(c for _, c in results) / len(results) if results else 0.0
    rule_calls = count("rule.optimal")
    m["stopping.decisions_per_rule_call"] = m["stopping.decisions"] / rule_calls if rule_calls else 0.0

    m["oracle.cells"] = sum(tracer.results["oracle.build_joint"])
    m["oracle.build_joint_s"] = total_s("oracle.build_joint")
    m["oracle.exact_optimal_rule_s"] = total_s("oracle.exact_optimal_rule")
    m["oracle.state_indexed_s"] = total_s("oracle.optimal_value_state_indexed")
    m["oracle.exact_rule_value_s"] = total_s("oracle.exact_rule_value")

    for check in CHECKS:
        m[f"crosscheck.{check}_s"] = total_s(f"crosscheck.check_{check}")
    m["crosscheck.failed"] = crosscheck_failed

    m["model.load_validate_s"] = ctx["load_validate_s"]

    m["trace.run_s"] = traced_s
    m["trace.overhead_frac"] = overhead
    m["trace.coverage_frac"] = float(cols["self"].sum()) / traced_s
    m["trace.spans"] = len(cols["dur"])
    return m


def reducers() -> dict:
    """What the tracer keeps from return values: k_used and converged of each
    value_iterate result, the cell count of each joint table."""
    return {
        "stopping.value_iterate": lambda res: (res.k_used, bool(res.converged)),
        "oracle.build_joint": lambda table: sum(j.size for level in table.levels for j in level.values()),
    }


# ---------------------------------------------------------------- main ----


def run(ctx, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat reps until the next one would overrun `seconds`; at least one.

    A traced run alternates an untraced and a traced rep, so the tracing
    overhead is measured on identical work in this process; the per-layer
    metrics come from the first traced rep.
    """
    from disorder.model import config_digest
    from disorder.simulate import mix_seed

    refs = load_references()
    ledger = Ledger()
    ctx["chunk_seeds"] = [mix_seed(seed, b) for b in range(ctx["params"].get("calls", 0))]
    deadline = time.perf_counter() + seconds
    plain, traced_reps, rounds = [], [], []
    first_tracer = None
    # Rounds alternate between the CPUs this process may use, so a core that a
    # neighbour slows for a while does not set every per-call minimum.
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        started = time.perf_counter()
        rep = run_and_check(ctx, refs, seed, ledger)
        if rep is not None:
            plain.append(rep)
        if traced:
            from tracer import Tracer

            tracer = Tracer(reducers())
            rep = run_and_check(ctx, refs, seed, ledger, tracer)
            if rep is not None:
                traced_reps.append(rep)
                first_tracer = first_tracer or tracer
        rounds.append(time.perf_counter() - started)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            break
    os.sched_setaffinity(0, cpus)
    # identical inputs must reproduce identical outputs
    digests = sorted({r["digest"] for r in plain + traced_reps})
    ledger.record(1, [] if len(digests) <= 1 else [f"outputs differ between reps: {digests}"])
    out = {
        "workload": ctx["name"],
        "seed": seed,
        "params": ctx["params"],
        "config_digest": config_digest(ctx["spec"]),
        "setup_s": ctx["setup_s"],
        "load_validate_s": ctx["load_validate_s"],
        "reps": len(plain),
        "run_s": fastest(plain) if plain else None,
        "trajectories": plain[0]["trajectories"] if plain else None,
        "call_seconds": [dict(r["calls"]) for r in plain],
        "digest": digests[0] if digests else None,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if ctx["name"] == "exact_verify" and plain:
        out["exact_values"] = {k: repr(v) for k, v in plain[0]["values"].items()}
    if traced and plain and traced_reps:
        out["traced_call_seconds"] = [dict(r["calls"]) for r in traced_reps]
        first = traced_reps[0]
        crosscheck_failed = sum(not passed for _, passed, _, _ in first.get("checks", []))
        overhead = fastest(traced_reps) / out["run_s"] - 1.0
        out["layers"] = layer_metrics(
            first_tracer, ctx, sum(s for _, s in first["calls"]), overhead, crosscheck_failed
        )
        OUT.mkdir(parents=True, exist_ok=True)
        first_tracer.save(OUT / f"trace-{ctx['name']}.npz")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ctx = setup(args.workload, args.size)
    if args.setup_only:
        print(json.dumps({"setup_s": ctx["setup_s"], "load_validate_s": ctx["load_validate_s"]}))
        return 0
    sys.path.insert(0, str(BENCH))
    print(json.dumps(run(ctx, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
