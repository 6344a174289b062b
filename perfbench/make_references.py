"""Compute the exact references the Monte Carlo workloads are checked against.

    python3 perfbench/make_references.py

For every rule of the mc_filter and mc_optimal workloads this evaluates the
exact success probability with `oracle.exact_rule_value` over the full path
tree at the workload's horizon, and writes perfbench/references.json.  It
takes about half a minute, most of it the threshold rule at horizon 16.  Rerun it
only when a config, a horizon or a rule definition changes; the stored
config digest makes a stale file fail the correctness gate.
"""

from __future__ import annotations

import json
import sys
import time

import worker


def main() -> int:
    out = {}
    for name, params in worker.WORKLOADS.items():
        if "rules" not in params:
            continue
        ctx = worker.setup(name, "full")
        from disorder import model, oracle

        table = oracle.build_joint(ctx["spec"], params["horizon"])
        rules = {}
        for rule, fn in worker.make_rules(ctx).items():
            t = time.perf_counter()
            rules[rule] = oracle.exact_rule_value(table, fn)
            print(f"{name} {rule}: {rules[rule]!r} ({time.perf_counter() - t:.1f} s)", file=sys.stderr)
        out[name] = {
            "config": params["config"],
            "config_digest": model.config_digest(ctx["spec"]),
            "horizon": params["horizon"],
            "k_max": params.get("k_max"),
            "rules": rules,
        }
        del table
    (worker.BENCH / "references.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
