"""What the benchmark's workloads read of the package.

perfbench/worker.py counts the paths of the joint table's deepest level as
its trajectories, reduces each traced table to its cell count, and gates a
rep on check_exact; this runs one rep at the self-test size.  It gates a
Monte Carlo rep on check_mc, which also requires each report's config
digest to be the one references.json was made for; this runs one rep of
each Monte Carlo workload at the self-test size, and one traced rep of
mc_optimal, whose rules the tracer wraps.  The tracer times each
crosscheck by its function name and reports it by its result name, so
every name it lists must be both.  After its first call the optimal rule of
mc_optimal decides every new node by its certified window class, with no
K loop, while the one of exact_verify keeps windows open and runs the K
loop on them, so one workload times each kind of decision.
"""

import importlib.util
from pathlib import Path

import pytest

from disorder import build_joint, crosscheck, load_spec, oracle, stopping
from disorder.simulate import mix_seed, monte_carlo_eval

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def worker():
    return load("worker")


def test_exact_rep_at_tiny_size(worker):
    ctx = worker.setup("exact_verify", "tiny")
    spec, h = ctx["spec"], ctx["params"]["horizon"]
    rep = worker.exact_rep(ctx, worker.make_rules(ctx), seed=1)
    assert worker.check_exact(rep) == []
    assert rep["trajectories"] == spec.alphabet_size**h

    table = build_joint(spec, h)
    paths = sum(spec.alphabet_size**n for n in range(h + 1))
    cells = spec.l0 * spec.l1 * (table.max_theta + 1) * paths
    assert worker.reducers()["oracle.build_joint"](table) == cells


@pytest.mark.parametrize("name", ["mc_filter", "mc_optimal"])
def test_mc_rep_at_tiny_size(worker, name):
    ctx = worker.setup(name, "tiny")
    params = ctx["params"]
    ctx["chunk_seeds"] = [mix_seed(1, b) for b in range(params["calls"])]  # as run() sets them
    rep = worker.mc_rep(ctx, worker.make_rules(ctx), seed=1)
    assert len(rep["reports"]) == params["calls"]
    assert rep["trajectories"] == params["calls"] * params["chunk"]
    assert worker.check_mc(rep["reports"], worker.load_references()[name], params.get("k_max")) == []


def test_traced_mc_optimal_rep_reads_the_batch_form(worker):
    # the tracer wraps each rule with functools.wraps, which copies the
    # optimal rule's batch form, so a traced rep reads whole chunks: no
    # per-path rule span, the decisions still traced inside stopping
    ctx = worker.setup("mc_optimal", "tiny")
    ctx["chunk_seeds"] = [mix_seed(1, b) for b in range(ctx["params"]["calls"])]  # as run() sets them
    tracer = load("tracer").Tracer(worker.reducers())
    ledger = worker.Ledger()
    assert worker.run_and_check(ctx, worker.load_references(), 1, ledger, tracer) is not None
    assert ledger.failed == 0, ledger.reasons
    spans = {tracer.names[i] for i in tracer.name}
    assert "rule.optimal" not in spans
    assert "stopping.stop_decision" in spans


def test_traced_checks_are_battery_checks():
    checks = load("tracer").CHECKS
    spec = load_spec(Path(__file__).parents[1] / "configs" / "m3_d1.json")
    names = [result.name for result in crosscheck.run_crosscheck(spec, 4)]
    for name in checks:
        assert name in names
        assert callable(getattr(crosscheck, f"check_{name}", None))


def test_mc_optimal_rule_looks_up_after_its_first_call(worker, monkeypatch):
    ctx = worker.setup("mc_optimal", "full")
    params, rule = ctx["params"], worker.make_rules(ctx)["optimal"]
    assert (ctx["spec"].alphabet_size, params["k_max"]) == (3, 4)
    assert rule.windows is None  # nothing decided yet: level 1 leaves a window open
    monte_carlo_eval(ctx["spec"], {"optimal": rule}, params["chunk"], params["horizon"], mix_seed(1, 0))
    assert str(rule.windows) == "windows certified at K=2, stop after (0,2) (1,2) (2,2)"
    made, decide = [], stopping.stop_decision
    monkeypatch.setattr(stopping, "stop_decision", lambda *args: made.append(args) or decide(*args))
    for b in range(1, params["calls"]):
        monte_carlo_eval(ctx["spec"], {"optimal": rule}, params["chunk"], params["horizon"], mix_seed(1, b))
    assert made == []  # the boundary nodes all grew in the first call, every later node is a lookup


def test_exact_verify_rule_stays_on_the_tree(worker):
    ctx = worker.setup("exact_verify", "full")
    params, rule = ctx["params"], worker.make_rules(ctx)["optimal"]
    assert params["k_max"] == 5
    oracle.exact_rule_value(build_joint(ctx["spec"], params["horizon"]), rule)
    assert rule.windows is None
    assert rule.explain() == "4 of 8 windows open at K=5: (0,0,1) (0,1,0) (1,0,1) (1,1,0)"
