"""Identity battery tying the recursive filter to the enumeration oracle.

Each check sweeps every path up to a horizon (or a seeded random sample
where noted), measures the worst absolute deviation of one exact identity
and compares it against a fixed tolerance.  The battery is deterministic
given (spec, horizon, seed) and is the backbone of both the `crosscheck`
CLI subcommand and the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import oracle, payoff, posterior, stopping
from .errors import SupportError
from .likelihood import path_probability
from .model import ModelSpec, change_time_pmf
from .simulate import TrajectorySampler, _philox, mix_seed, mix_seeds

# Largest lag of the survival and lagged-change identities, back-shift trials,
# and the normalization check's sampled trajectories and levels k.
_LAG_MAX = 4
_BACKSHIFT_TRIALS = 200
_NORM_TRAJECTORIES = 50
_NORM_LEVELS = (0, 1, 2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    tol: float
    detail: str = ""


def _result(name: str, max_err: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=max_err <= tol, max_err=max_err, tol=tol, detail=detail)


def _paths(spec: ModelSpec, n: int):
    for tail in product(range(spec.alphabet_size), repeat=n):
        yield (spec.x0,) + tail


def check_path_unity(spec: ModelSpec, horizon: int) -> CheckResult:
    """Path probabilities sum to one at every depth."""
    worst = 0.0
    for n in range(1, horizon + 1):
        total = math.fsum(path_probability(spec, path) for path in _paths(spec, n))
        worst = max(worst, abs(total - 1.0))
    return _result("path_unity", worst, 1e-12)


def check_joint_consistency(spec: ModelSpec, table: oracle.JointTable) -> CheckResult:
    """Table mass, marginalisation across depths and the change-time marginal."""
    worst = 0.0
    for level in table.levels:
        total = math.fsum(oracle.path_prob(table, path) for path in level)
        worst = max(worst, abs(total - 1.0))
    for n in range(table.horizon):
        for path, joint in table.levels[n].items():
            merged = sum(
                table.levels[n + 1][path + (y,)] for y in range(spec.alphabet_size)
            )
            worst = max(worst, float(np.max(np.abs(merged - joint))))
    deep = table.levels[table.horizon]
    for t in range(1, table.max_theta + 1):
        mass = math.fsum(float(joint[t - 1].sum()) for joint in deep.values())
        worst = max(worst, abs(mass - change_time_pmf(spec, t)))
    for path in deep:
        worst = max(
            worst, abs(oracle.path_prob(table, path) - path_probability(spec, path))
        )
    return _result("joint_consistency", worst, 1e-12)


def check_filter_vs_oracle(spec: ModelSpec, table: oracle.JointTable, states: dict) -> CheckResult:
    """Recursive posteriors match definition-level posteriors on every path."""
    worst = 0.0
    for path, state in states.items():
        change, pair = oracle.exact_posterior(table, path)
        live = state.pair_prob > 1e-15
        worst = max(worst, float(np.max(np.abs(pair - state.pair_prob))))
        if np.any(live):
            worst = max(worst, float(np.max(np.abs((change - state.change_prob))[live])))
    return _result("filter_vs_oracle", worst, 1e-10)


def check_survival_projection(
    spec: ModelSpec, table: oracle.JointTable, states: dict
) -> CheckResult:
    """P(theta <= n + k | path, pair) = 1 - p^k (1 - change_prob)."""
    worst = 0.0
    for path, state in states.items():
        n = len(path) - 1
        for k in range(1, _LAG_MAX + 1):
            if n + k > table.max_theta:
                break
            expected = 1.0 - spec.p**k * (1.0 - state.change_prob)
            got = oracle.change_cdf_given_pair(table, path, n + k)
            live = state.pair_prob > 1e-15
            if np.any(live):
                worst = max(worst, float(np.max(np.abs(got - expected)[live])))
    return _result("survival_projection", worst, 1e-10)


def check_lagged_change(spec: ModelSpec, table: oracle.JointTable, states: dict) -> CheckResult:
    """Posterior of an old change from the current posterior and ratios."""
    worst = 0.0
    for path, state in states.items():
        n = len(path) - 1
        live = state.pair_prob > 1e-15
        for k in range(0, _LAG_MAX + 1):
            if n == k + 1:
                got = oracle.change_cdf_given_pair(table, path, 0)
                worst = max(worst, float(np.max(np.abs(got))))
            elif n >= k + 2 and np.any(live):
                got = oracle.change_cdf_given_pair(table, path, n - k - 1)
                expected = posterior.change_lagged(spec, k, path, state.change_prob)
                worst = max(worst, float(np.max(np.abs(got - expected)[live])))
    return _result("lagged_change", worst, 1e-10)


def check_payoff_criterion(spec: ModelSpec, horizon: int) -> CheckResult:
    """Fixed-stop success probability agrees between prior and payoff routes."""
    worst = 0.0
    for n in range(spec.d + 1, horizon + 1):
        chk = payoff.criterion_probability(spec, n)
        worst = max(worst, abs(chk.prior_value - chk.payoff_value))
    return _result("payoff_criterion", worst, 1e-10)


def check_multistep_composition(spec: ModelSpec, states: dict, horizon: int) -> CheckResult:
    """Multi-step posterior updates equal composed one-step updates, up to the horizon."""
    worst = 0.0
    for path, state in states.items():
        n = len(path) - 1
        if n > horizon:
            continue
        for l in range(0, min(n - 1, spec.d + 1)):
            window = path[n - l - 1 :]
            anchor = states[path[: n - l]].change_prob
            multi = posterior.change_multistep(spec, window, anchor)
            worst = max(worst, float(np.max(np.abs(multi - state.change_prob))))
        from_origin = posterior.change_from_origin(spec, path)
        worst = max(worst, float(np.max(np.abs(from_origin - state.change_prob))))
    return _result("multistep_composition", worst, 1e-12)


def check_backshift_inversion(spec: ModelSpec, seed: int = 20240) -> CheckResult:
    """Forward (d+1)-step update then back-shift returns the anchor."""
    # one row of d + 3 uniforms per trial from Philox key (seed, 0), counters
    # from 1: d + 2 window symbols floor(u * A), then the anchor
    width, trials = spec.d + 3, _BACKSHIFT_TRIALS
    counters = np.arange(1, -(-trials * width // 4) + 1, dtype=np.uint64)
    raw = _philox(np.uint64(seed), np.uint64(0), counters).ravel()[: trials * width]
    u = ((raw >> 11) * 2.0**-53).reshape(trials, width)
    symbols = (u[:, :-1] * spec.alphabet_size).astype(np.int64)
    worst = 0.0
    for window, anchor in zip(map(tuple, symbols.tolist()), u[:, -1].tolist()):
        try:
            forward = posterior.change_multistep(spec, window, anchor)
            back = posterior.change_backshift(spec, window, forward)
        except SupportError:
            continue
        # pairs under which either map is degenerate come back NaN and are masked
        live = ~np.isnan(back)
        if np.any(live):
            worst = max(worst, float(np.max(np.abs(back - anchor)[live])))
    return _result("backshift_inversion", worst, 1e-9)


def check_continuation_normalization(spec: ModelSpec, seed: int = 31337) -> CheckResult:
    """Scaling property of the continuation values along filtered trajectories to d + 4."""
    horizon = spec.d + 4
    seeds = mix_seeds(seed, np.arange(_NORM_TRAJECTORIES))
    paths = TrajectorySampler(spec, horizon).sample_batch(seeds)
    table = stopping.ValueTable(spec)
    worst = 0.0
    for path in paths.observations.tolist():
        state = posterior.state_init(spec)
        for n in range(1, horizon + 1):
            prev = state
            state = posterior.state_step(spec, state, path[n])
            if state.n <= spec.d + 1:
                continue
            x_prev, x_next = path[n - 1], path[n]
            norm = float(posterior.predictive(spec, prev)[x_next])
            composed = (
                spec.p * spec.pre_kernels[:, x_prev, x_next][:, None] * prev.pair_prob
            )
            u_state = table.weight(state.change_prob, state.pair_prob)
            u_prev = table.weight(prev.change_prob, composed)
            for k in _NORM_LEVELS:
                lhs = table.value(k, state.window, u_state) * norm
                rhs = table.value(k, state.window, u_prev)
                worst = max(worst, abs(lhs - rhs))
    return _result("continuation_normalization", worst, 1e-9)


def check_continuation_vs_oracle(
    spec: ModelSpec, table: oracle.JointTable, states: dict
) -> CheckResult:
    """The oracle's continuation at a node n >= d + 2 is s_{H - n - 1} at its filter state."""
    _, tree = oracle.exact_optimal_rule(table)
    values = stopping.ValueTable(spec)
    worst = 0.0
    for path, state in states.items():
        if spec.d + 2 <= state.n < table.horizon:
            u = values.weight(state.change_prob, state.pair_prob)
            s_k = values.value(table.horizon - state.n - 1, state.window, u)
            worst = max(worst, abs(tree.node(path).continuation - s_k))
    return _result("continuation_vs_oracle", worst, 1e-12)


def check_predictive_chain(spec: ModelSpec, states: dict, horizon: int) -> CheckResult:
    """Predictive density equals the ratio of consecutive path probabilities to the horizon."""
    worst = 0.0
    for path, state in states.items():
        if len(path) > horizon:
            continue
        pred = posterior.predictive(spec, state)
        base = path_probability(spec, path) if len(path) > 1 else 1.0
        for y in range(spec.alphabet_size):
            ratio = path_probability(spec, path + (y,)) / base
            worst = max(worst, abs(float(pred[y]) - ratio))
    # depth-zero predictive against first-step path probabilities
    root = posterior.state_init(spec)
    pred = posterior.predictive(spec, root)
    for y in range(spec.alphabet_size):
        worst = max(worst, abs(float(pred[y]) - path_probability(spec, (spec.x0, y))))
    return _result("predictive_chain", worst, 1e-12)


def run_crosscheck(spec: ModelSpec, horizon: int, seed: int = 7) -> list[CheckResult]:
    """Run the full battery; deterministic given (spec, horizon, seed)."""
    table = oracle.build_joint(spec, horizon, max_theta=horizon + spec.d + 4)
    states = posterior.filter_tree(spec, horizon)
    results = [
        check_path_unity(spec, horizon),
        check_joint_consistency(spec, table),
        check_filter_vs_oracle(spec, table, states),
        check_survival_projection(spec, table, states),
        check_lagged_change(spec, table, states),
        check_payoff_criterion(spec, min(horizon, 6)),
        check_multistep_composition(spec, states, min(horizon, 5)),
        check_backshift_inversion(spec, seed=mix_seed(seed, 1)),
        check_continuation_normalization(spec, seed=mix_seed(seed, 2)),
        check_predictive_chain(spec, states, horizon),
        check_continuation_vs_oracle(spec, table, states),
    ]
    return results
