"""Identity battery tying the recursive filter to the enumeration oracle.

Each check sweeps every path up to a horizon (or a seeded random sample
where noted), a tree level or a window batch at a time, measures the worst
absolute deviation of one exact identity and compares it against a fixed
tolerance.  The battery walks the filter tree once: run_crosscheck lists its
levels, and each check that reads them takes the levels its horizon needs,
finding a node's prefixes by its parent links; the joint-table checks read
each level against the table rows of its paths.  Both continuation checks
read s_k for a batch of rows off one stopping.ValueTable, which
run_crosscheck builds once.  The battery is deterministic given (spec,
horizon, seed) and backs both the `crosscheck` CLI subcommand and the
acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle, payoff, posterior, stopping
from .errors import SupportError
from .likelihood import _fsum_grids, path_probability
from .model import ModelSpec, change_time_pmf
from .simulate import _philox, mix_seed

# Largest lag of the survival and lagged-change identities, back-shift trials,
# and the normalization check's levels k.
_LAG_MAX = 4
_BACKSHIFT_TRIALS = 200
_NORM_LEVELS = (0, 1, 2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    tol: float


def _worse(worst: float, err: float) -> float:
    # a check's running maximum error, NaN from the first NaN error on (max(0.0, nan) is 0.0)
    return float(np.maximum(worst, err))


def _result(name: str, max_err: float, tol: float) -> CheckResult:
    return CheckResult(name=name, passed=max_err <= tol, max_err=max_err, tol=tol)


def check_path_unity(spec: ModelSpec, horizon: int) -> CheckResult:
    """Path probabilities sum to one at every depth."""
    worst = 0.0
    for n in range(1, horizon + 1):
        total = math.fsum(path_probability(spec, oracle._paths(spec, n)).tolist())
        worst = _worse(worst, abs(total - 1.0))
    return _result("path_unity", worst, 1e-12)


def check_joint_consistency(spec: ModelSpec, table: oracle.JointTable) -> CheckResult:
    """Table mass, marginalisation across depths and the change-time marginal."""
    worst = 0.0
    for mass in table.mass:
        worst = _worse(worst, abs(math.fsum(mass.tolist()) - 1.0))
    for joint, children in zip(table.arrays, table.arrays[1:]):
        merged = children.reshape((len(joint), spec.alphabet_size) + joint.shape[1:]).sum(axis=1)
        worst = _worse(worst, float(np.max(np.abs(merged - joint))))
    deep = table.arrays[table.horizon]
    masses = _fsum_grids(deep[:, :-1].sum(axis=(2, 3)).T, 1)
    pmf = [change_time_pmf(spec, t) for t in range(1, table.max_theta + 1)]
    worst = _worse(worst, float(np.max(np.abs(masses - pmf))))
    paths = oracle._paths(spec, table.horizon)
    worst = _worse(worst, float(np.max(np.abs(table.mass[table.horizon] - path_probability(spec, paths)))))
    return _result("joint_consistency", worst, 1e-12)


def check_filter_vs_oracle(spec: ModelSpec, table: oracle.JointTable, levels: list) -> CheckResult:
    """Recursive posteriors match definition-level posteriors on every path."""
    worst = 0.0
    for level in levels[1:]:
        change, pair = oracle.exact_posterior(table, level.paths)
        live = level.pair > 1e-15
        worst = _worse(worst, float(np.max(np.abs(pair - level.pair))))
        worst = _worse(worst, float(np.max(np.abs(change - level.change)[live], initial=0.0)))
    return _result("filter_vs_oracle", worst, 1e-10)


def check_survival_projection(spec: ModelSpec, table: oracle.JointTable, levels: list) -> CheckResult:
    """P(theta <= n + k | path, pair) = 1 - p^k P(theta > n | path, pair)."""
    worst = 0.0
    for level in levels[1:]:
        live, survival = level.pair > 1e-15, level.survival
        for k in range(1, min(_LAG_MAX, table.max_theta - level.n) + 1):
            expected = 1.0 - spec.p**k * survival
            got = oracle.change_cdf_given_pair(table, level.paths, level.n + k)
            worst = _worse(worst, float(np.max(np.abs(got - expected)[live], initial=0.0)))
    return _result("survival_projection", worst, 1e-10)


def check_lagged_change(spec: ModelSpec, table: oracle.JointTable, levels: list) -> CheckResult:
    """Posterior of an old change from the current posterior and ratios."""
    worst = 0.0
    for level in levels[1:]:
        n, live, survival = level.n, level.pair > 1e-15, level.survival
        # to k = n - 2: at k = n - 1 the cdf is the empty bucket sum, 0 by construction
        for k in range(0, min(_LAG_MAX, n - 2) + 1):
            got = oracle.change_cdf_given_pair(table, level.paths, n - k - 1)
            expected = posterior.change_lagged(spec, k, level.paths, survival)
            worst = _worse(worst, float(np.max(np.abs(got - expected)[live], initial=0.0)))
    return _result("lagged_change", worst, 1e-10)


def check_payoff_criterion(spec: ModelSpec, levels: list) -> CheckResult:
    """Fixed-stop success probability agrees between prior and payoff routes, from d + 1 on."""
    worst = 0.0
    for level in levels[spec.d + 1 :]:
        chk = payoff._criterion(spec, level)
        worst = _worse(worst, abs(chk.prior_value - chk.payoff_value))
    return _result("payoff_criterion", worst, 1e-10)


def check_payoff_window(spec: ModelSpec, table: oracle.JointTable, levels: list) -> CheckResult:
    """Each path's stop payoff from d + 1 on is P(|theta - n| <= d | path) from the joint table."""
    worst = 0.0
    for level in levels[spec.d + 1 :]:
        rank = oracle.path_rank(spec, level.paths)
        exact = table.detection[level.n][rank] / table.mass[level.n][rank]
        worst = _worse(worst, float(np.max(np.abs(payoff.level_payoff(spec, level) - exact))))
    return _result("payoff_window", worst, 1e-12)


def check_multistep_composition(spec: ModelSpec, levels: list) -> CheckResult:
    """Multi-step updates equal composed one-step updates at every level, on pairs of positive mass."""
    worst = 0.0
    for level in levels[1:]:
        n, row = level.n, np.arange(len(level.paths))
        change, live = level.change, level.pair > 0.0
        for m in reversed(range(max(1, n - spec.d - 1), n)):
            # the anchor is the filter row of the path's prefix of m steps, one parent link up
            row = levels[m + 1].parent[row]
            multi = posterior.change_multistep(spec, level.paths[:, m:], levels[m].change[row])
            worst = _worse(worst, float(np.max(np.abs(multi - change)[live], initial=0.0)))
        from_origin = posterior.change_from_origin(spec, level.paths)
        worst = _worse(worst, float(np.max(np.abs(from_origin - change)[live], initial=0.0)))
    return _result("multistep_composition", worst, 1e-12)


def check_backshift_inversion(spec: ModelSpec, seed: int = 20240) -> CheckResult:
    """Back-shift's anchor maps forward to the posterior it came from: a backward error, free of its condition."""
    # one row of d + 3 uniforms per trial from Philox key (seed, 0), counters
    # from 1: d + 2 window symbols floor(u * A), then the anchor
    width, trials = spec.d + 3, _BACKSHIFT_TRIALS
    counters = np.arange(1, -(-trials * width // 4) + 1, dtype=np.uint64)
    raw = _philox(np.uint64(seed), np.uint64(0), counters).ravel()[: trials * width]
    u = ((raw >> 11) * 2.0**-53).reshape(trials, width)
    windows = (u[:, :-1] * spec.alphabet_size).astype(np.int64)
    # degenerate pairs (or trials) are NaN, masked; an anchor off [0, 1] by rounding is clipped back
    try:
        current = posterior.change_multistep(spec, windows, u[:, -1, None, None])
        back = posterior.change_backshift(spec, windows, current)
        err = np.abs(posterior.change_multistep(spec, windows, np.clip(back, 0.0, 1.0)) - current)
    except SupportError:
        err = np.nan
    return _result("backshift_inversion", float(np.nanmax(err, initial=0.0)), 1e-9)


def check_continuation_normalization(values: stopping.ValueTable, levels: list) -> CheckResult:
    """Scaling property of the continuation values at every tree node from d + 2 to d + 4.

    A node's normaliser is its parent's predictive of its last symbol, and
    the other side reads the parent's unchanged mass; s_k is read once per k
    for both sides, their rows stacked.
    """
    spec = values.spec
    worst = 0.0
    for prev, level in zip(levels[spec.d + 1 : spec.d + 4], levels[spec.d + 2 : spec.d + 5]):
        up, x_prev, y = level.parent, level.paths[:, -2], level.paths[:, -1]
        norm = prev.pred[up, y]
        composed = spec.p * spec.pre_kernels[:, x_prev, y].T[:, :, None] * prev.unchanged[up]
        u = values.weight(np.concatenate((level.unchanged, composed)))
        windows = np.tile(level.paths[:, -(spec.d + 2) :], (2, 1))
        for k in _NORM_LEVELS:
            s_state, s_prev = values.value(k, windows, u).reshape(2, -1)
            worst = _worse(worst, float(np.max(np.abs(s_state * norm - s_prev))))
    return _result("continuation_normalization", worst, 1e-9)


def check_continuation_vs_oracle(
    values: stopping.ValueTable, table: oracle.JointTable, levels: list
) -> CheckResult:
    """The oracle's continuation at a node n >= d + 2 is s_{H - n - 1} at its filter state."""
    spec = values.spec
    _, tree = oracle.exact_optimal_rule(table)
    worst = 0.0
    for level in levels[spec.d + 2 : table.horizon]:
        u = values.weight(level.unchanged)
        s_k = values.value(table.horizon - level.n - 1, level.paths[:, -(spec.d + 2) :], u)
        cont = tree.levels[level.n].continuation[oracle.path_rank(spec, level.paths)]
        worst = _worse(worst, float(np.max(np.abs(cont - s_k))))
    return _result("continuation_vs_oracle", worst, 1e-12)


def check_predictive_chain(spec: ModelSpec, levels: list) -> CheckResult:
    """Predictive density equals the ratio of consecutive path probabilities, level by level."""
    worst = 0.0
    for level in levels[:-1]:
        base = path_probability(spec, level.paths) if level.n else np.ones(1)
        a = spec.alphabet_size
        ys = np.tile(np.arange(a), len(base))
        children = np.column_stack((level.paths.repeat(a, axis=0), ys))
        ratio = path_probability(spec, children).reshape(-1, a) / base[:, None]
        worst = _worse(worst, float(np.max(np.abs(level.pred - ratio))))
    return _result("predictive_chain", worst, 1e-12)


def run_crosscheck(spec: ModelSpec, horizon: int, seed: int = 7) -> list[CheckResult]:
    """Run the full battery; deterministic given (spec, horizon, seed)."""
    table = oracle.build_joint(spec, horizon, max_theta=horizon + spec.d + 4)
    levels = list(posterior.filter_levels(spec, horizon))
    values = stopping.ValueTable(spec)
    return [
        check_path_unity(spec, horizon),
        check_joint_consistency(spec, table),
        check_filter_vs_oracle(spec, table, levels),
        check_survival_projection(spec, table, levels),
        check_lagged_change(spec, table, levels),
        check_payoff_criterion(spec, levels[: min(horizon, 6) + 1]),
        check_payoff_window(spec, table, levels),
        check_multistep_composition(spec, levels[: min(horizon, 5) + 1]),
        check_backshift_inversion(spec, seed=mix_seed(seed, 1)),
        check_continuation_normalization(values, levels),
        check_predictive_chain(spec, levels),
        check_continuation_vs_oracle(values, table, levels),
    ]
