"""Command-line interface.

Subcommands: validate, simulate, evaluate, value-iterate, oracle, crosscheck.
Exit codes and the "error" kind of the JSON record:

    0  success / all checks pass
    1  usage error ("usage"), or another runtime failure ("runtime")
    2  validation failure ("validation", "config")
    3  invariant failure ("invariant")
    4  resource budget exceeded ("budget"): an oracle table or a value
       iteration table outgrew its budget, also when a rule hit it during
       `evaluate`

Errors are echoed as one JSON record per line on stderr.  Relative output
paths honour the DISORDER_OUT_DIR environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import crosscheck as crosscheck_mod
from . import oracle as oracle_mod
from .errors import BudgetError, ConfigError, DisorderError, RuleError
from .model import load_spec, validate
from .posterior import PosteriorState, PrefixTree
from .simulate import (
    TrajectorySampler,
    fixed_time_rule,
    mix_seeds,
    monte_carlo_eval,
    posterior_threshold_rule,
    report_to_csv,
    report_to_json,
)
from .stopping import OptimalStoppingRule, ValueIterConfig, ValueTable, stop_decision

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(raw: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit_error(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("DISORDER_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _build_parser() -> _Parser:
    parser = _Parser(prog="disorder", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model config file")
    p.add_argument("config")

    p = sub.add_parser("simulate", help="sample trajectories to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--horizon", type=_count, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="Monte Carlo comparison of stopping rules")
    p.add_argument("--config", required=True)
    p.add_argument("--rules", default="optimal,fixed,threshold")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--horizon", type=_count, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json-out", default=None)
    p.add_argument("--kmax", type=_count, default=10)
    p.add_argument("--variant", choices=("expected", "literal"), default="expected")

    p = sub.add_parser("value-iterate", help="continuation values at probe states")
    p.add_argument("--config", required=True)
    p.add_argument("--kmax", type=_count, default=10)
    p.add_argument("--probe", type=_count, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("oracle", help="exact joint table and optimal value")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=_count, required=True)
    p.add_argument("--dump", default=None)

    p = sub.add_parser("crosscheck", help="run the filter/oracle identity battery")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=_count, required=True)
    p.add_argument("--seed", type=int, default=7)
    return parser


def _cmd_validate(args) -> int:
    spec = load_spec(args.config)
    report = validate(spec)
    if report:
        for item in report:
            print(f"VIOLATION {item}")
            _emit_error("validation", item)
        return EXIT_VALIDATION
    print("OK")
    return EXIT_OK


def _cmd_simulate(spec, args) -> int:
    seeds = mix_seeds(args.seed, np.arange(args.n))
    batch = TrajectorySampler(spec, args.horizon).sample_batch(seeds)
    out = _out_path(args.out)
    header = ["trajectory", "seed", "theta", "beta1", "beta2"]
    header += [f"x{t}" for t in range(args.horizon + 1)]
    lines = [",".join(header)]
    rows = zip(
        seeds.tolist(),
        batch.theta.tolist(),
        batch.beta1.tolist(),
        batch.beta2.tolist(),
        batch.observations.tolist(),
    )
    for idx, (seed, theta, beta1, beta2, path) in enumerate(rows):
        lines.append(",".join(map(str, [idx, seed, theta, beta1, beta2, *path])))
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.n} trajectories to {out}")
    return EXIT_OK


def _cmd_evaluate(spec, args) -> int:
    cfg = ValueIterConfig(k_max=args.kmax)
    available = {
        "optimal": lambda: OptimalStoppingRule(spec, cfg, variant=args.variant),
        "fixed": lambda: fixed_time_rule(spec),
        "threshold": lambda: posterior_threshold_rule(spec),
    }
    rules = {}
    for name in args.rules.split(","):
        name = name.strip()
        if name not in available:
            raise UsageError(f"unknown rule {name!r}; choose from {sorted(available)}")
        rules[name] = available[name]()
    report = monte_carlo_eval(spec, rules, args.n, args.horizon, args.seed)
    out = _out_path(args.out)
    report_to_csv(report, out)
    if args.json_out:
        report_to_json(report, _out_path(args.json_out))
    for name in sorted(report.rules):
        stats = report.rules[name]
        print(
            f"{name}: estimate={stats.estimate:.6f} se={stats.std_error:.6f} "
            f"mean_stop={stats.mean_stop_time:.3f} censored={stats.censored_rate:.4f}"
        )
    if "optimal" in rules:
        print(f"optimal: {rules['optimal'].explain()}")
    print(f"wrote report to {out}")
    return EXIT_OK


def _cmd_value_iterate(spec, args) -> int:
    seeds = mix_seeds(args.seed, np.arange(args.probe))
    paths = TrajectorySampler(spec, spec.d + 3).sample_batch(seeds).observations
    # a tree that never stops filters each distinct probe prefix once
    tree = PrefixTree(spec, lambda n, nodes: np.full(nodes.stop - nodes.start, -1))
    last = tree.walk(paths)[:, -1]
    state = PosteriorState(spec.d + 3, paths[:, -(spec.d + 2) :], tree.unchanged[last], tree.changed[last])
    dec = stop_decision(ValueTable(spec), state, ValueIterConfig(k_max=args.kmax))
    fields = (dec.k_used, dec.continue_value, dec.bound, dec.stop_value, dec.converged)
    lines = ["probe,k_used,s_k,bound,stop_value,converged"]
    for idx, (k_used, s_k, bound, stop_value, converged) in enumerate(zip(*(f.tolist() for f in fields))):
        lines.append(f"{idx},{k_used},{s_k:.17g},{bound:.17g},{stop_value:.17g},{int(converged)}")
    print("\n".join(lines))
    if args.out:
        _out_path(args.out).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_oracle(spec, args) -> int:
    table = oracle_mod.build_joint(spec, args.horizon)
    value_r, tree = oracle_mod.exact_optimal_rule(table, restrict_after_d=True)
    value_u, _ = oracle_mod.exact_optimal_rule(table, restrict_after_d=False)
    deep_mass = sum(table.mass[args.horizon].tolist())
    print(f"paths at horizon: {len(table.mass[args.horizon])}")
    print(f"total mass at horizon: {deep_mass:.15f}")
    print(f"optimal value (stops from d+1): {value_r:.15f}")
    print(f"optimal value (unrestricted):  {value_u:.15f}")
    if args.dump:
        directory = _out_path(args.dump)
        oracle_mod.dump_joint(table, directory)
        oracle_mod.dump_tree(tree, directory)
        print(f"dumped tables to {directory}")
    return EXIT_OK


def _cmd_crosscheck(spec, args) -> int:
    results = crosscheck_mod.run_crosscheck(spec, args.horizon, seed=args.seed)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} max_err={res.max_err:.3e} tol={res.tol:.0e}")
        if not res.passed:
            failures += 1
            _emit_error("invariant", f"{res.name} max_err={res.max_err:.3e}")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "validate":
            return _cmd_validate(args)
        spec = load_spec(args.config)
        report = validate(spec)
        for item in report:
            _emit_error("validation", item)
        if report:
            return EXIT_VALIDATION
        handlers = {
            "simulate": _cmd_simulate,
            "evaluate": _cmd_evaluate,
            "value-iterate": _cmd_value_iterate,
            "oracle": _cmd_oracle,
            "crosscheck": _cmd_crosscheck,
        }
        return handlers[args.command](spec, args)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except (ConfigError, FileNotFoundError) as exc:
        _emit_error("config", str(exc))
        return EXIT_VALIDATION
    except DisorderError as exc:
        cause = exc.__cause__ if isinstance(exc, RuleError) else exc
        if isinstance(cause, BudgetError):
            _emit_error("budget", str(exc))
            return EXIT_BUDGET
        _emit_error("runtime", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
