"""Exact ground truth by enumeration, for desk-scale instances.

build_joint materialises the joint law of (change time, kernel pair, path)
over every observation path up to a horizon.  Change times are bucketed as
{1, ..., max_theta} plus one closed-form tail bucket carrying the geometric
remainder, so every probability in the table is exact despite truncation.
Detection events {|theta - n| <= d} for n <= horizon never touch the tail.

On top of the table sit definition-level posteriors (plain Bayes, no
recursion), exact evaluation of arbitrary adapted rules, and finite-horizon
backward induction for the optimal value, with an independent state-indexed
induction, optimal_value_state_indexed(spec, horizon), as an implementation
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import BudgetError
from .likelihood import Window
from .model import ModelSpec
from .payoff import state_payoff
from .posterior import predictive, state_init, state_step

DEFAULT_CELL_BUDGET = 10_000_000


@dataclass(frozen=True)
class JointTable:
    """Joint probabilities per path and change-time bucket.

    levels[n] maps each path of length n + 1 (including x0) to an array of
    shape (max_theta + 1, l0, l1): bucket t - 1 holds P(theta = t, pair, path)
    for t <= max_theta, the last bucket holds P(theta > max_theta, pair, path).
    """

    spec: ModelSpec
    horizon: int
    max_theta: int
    levels: tuple[dict, ...]


def build_joint(
    spec: ModelSpec,
    horizon: int,
    max_theta: int | None = None,
    budget: int = DEFAULT_CELL_BUDGET,
) -> JointTable:
    """Enumerate the joint law of (change time, pair, path) up to `horizon`."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if max_theta is None:
        max_theta = horizon + spec.d
    if max_theta < horizon:
        raise ValueError("max_theta must cover the horizon")
    cells = spec.alphabet_size**horizon * spec.l0 * spec.l1 * (max_theta + 1)
    if cells > budget:
        raise BudgetError(f"joint table needs {cells} cells, budget is {budget}")

    n_buckets = max_theta + 1
    root = np.empty((n_buckets, spec.l0, spec.l1))
    q = 1.0 - spec.p
    for t in range(1, max_theta + 1):
        if t == 1:
            root[t - 1] = spec.pi * spec.b
        else:
            root[t - 1] = (1.0 - spec.pi) * spec.p ** (t - 2) * q * spec.b
    root[max_theta] = (1.0 - spec.pi) * spec.p ** (max_theta - 1) * spec.b

    levels: list[dict] = [{(spec.x0,): root}]
    for n in range(1, horizon + 1):
        prev = levels[n - 1]
        level: dict = {}
        for path, joint in prev.items():
            x_prev = path[-1]
            for y in range(spec.alphabet_size):
                child = np.empty_like(joint)
                # buckets with theta <= n: the transition into X_n is post-change
                child[:n] = joint[:n] * spec.post_kernels[:, x_prev, y][None, None, :]
                child[n:] = joint[n:] * spec.pre_kernels[:, x_prev, y][None, :, None]
                level[path + (y,)] = child
        levels.append(level)
    return JointTable(spec=spec, horizon=horizon, max_theta=max_theta, levels=tuple(levels))


def path_prob(table: JointTable, path: Window) -> float:
    """Exact probability of the path, summed over all latent buckets."""
    joint = table.levels[len(path) - 1][tuple(path)]
    return math.fsum(joint.ravel())


def exact_posterior(table: JointTable, path: Window) -> tuple[np.ndarray, np.ndarray]:
    """Definition-level posteriors (change grid, pair grid) given the path."""
    path = tuple(path)
    per_pair = table.levels[len(path) - 1][path].sum(axis=0)
    total = math.fsum(per_pair.ravel())
    if total < 1e-300:
        raise ValueError("path has zero probability")
    return change_cdf_given_pair(table, path, len(path) - 1), per_pair / total


def change_cdf_given_pair(table: JointTable, path: Window, m: int) -> np.ndarray:
    """P(theta <= m | path, pair) for every pair, from the table."""
    path = tuple(path)
    if not 0 <= m <= table.max_theta:
        raise ValueError(f"m must lie in [0, {table.max_theta}]")
    joint = table.levels[len(path) - 1][path]
    per_pair = joint.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(per_pair > 0.0, joint[:m].sum(axis=0) / per_pair, 0.0)


def detection_mass(table: JointTable, path: Window, n: int) -> float:
    """Unnormalised joint weight of the path and {|theta - n| <= d}."""
    spec = table.spec
    joint = table.levels[len(path) - 1][tuple(path)]
    lo = max(1, n - spec.d)
    hi = min(n + spec.d, table.max_theta)
    return math.fsum(joint[lo - 1 : hi].ravel())


def exact_rule_value(table: JointTable, rule: Callable[[Window], Optional[int]]) -> float:
    """Exact success probability of a rule, evaluated over the whole tree.

    The rule maps a full path to its stop time and must depend only on the
    prefix up to that time (adaptedness is the caller's contract).  A None
    stop time is treated as a forced stop at the horizon, mirroring the
    censoring policy of the simulator.  Paths of probability 0 carry no
    detection mass and are skipped; the rule is never called on them.
    """
    h = table.horizon
    terms = []
    for path, joint in table.levels[h].items():
        if not joint.any():
            continue
        tau = rule(path)
        if tau is None:
            tau = h
        if not 0 <= tau <= h:
            raise ValueError(f"rule returned stop time {tau} outside [0, {h}]")
        terms.append(detection_mass(table, path, tau))
    return math.fsum(terms)


@dataclass(frozen=True)
class NodeValue:
    """Backward-induction record for one path node."""

    z: float
    continuation: float | None
    value: float
    stop: bool


@dataclass(frozen=True)
class HistoryTreeValue:
    """Per-path stop payoff, continuation and optimal action, all normalised."""

    levels: tuple[dict, ...]

    def node(self, path: Window) -> NodeValue:
        return self.levels[len(path) - 1][tuple(path)]


def exact_optimal_rule(
    table: JointTable, restrict_after_d: bool = True
) -> tuple[float, HistoryTreeValue]:
    """Finite-horizon optimal stopping by backward induction on the tree.

    With restrict_after_d, stopping is allowed only from time d + 1 on (which
    provably loses nothing); otherwise any time from 0 on may stop.  The
    horizon forces a stop.  Returns the optimal value and the full tree.
    """
    spec = table.spec
    h = table.horizon
    w_levels: list[dict] = [dict() for _ in range(h + 1)]
    out_levels: list[dict] = [dict() for _ in range(h + 1)]
    for n in range(h, -1, -1):
        for path in table.levels[n]:
            pp = path_prob(table, path)
            uz = detection_mass(table, path, n)
            if n == h:
                w = uz
                w_levels[n][path] = w
                out_levels[n][path] = NodeValue(
                    z=uz / pp if pp > 0 else 0.0, continuation=None, value=w / pp if pp > 0 else 0.0, stop=True
                )
                continue
            uc = math.fsum(
                w_levels[n + 1][path + (y,)] for y in range(spec.alphabet_size)
            )
            allowed = n >= spec.d + 1 if restrict_after_d else True
            w = max(uz, uc) if allowed else uc
            w_levels[n][path] = w
            if pp > 0:
                out_levels[n][path] = NodeValue(
                    z=uz / pp,
                    continuation=uc / pp,
                    value=w / pp,
                    stop=bool(allowed and uz >= uc),
                )
            else:
                out_levels[n][path] = NodeValue(z=0.0, continuation=0.0, value=0.0, stop=False)
    value = w_levels[0][(spec.x0,)]
    return value, HistoryTreeValue(levels=tuple(out_levels))


def optimal_value_state_indexed(spec: ModelSpec, horizon: int) -> float:
    """Optimal value by induction on filter states instead of raw paths.

    Independent route: stop payoffs come from the payoff transform of the
    filter state and transition weights from the one-step predictive, no
    joint table involved; equal states reached by different paths are valued
    once.  Stops are allowed from d + 1 on, as in exact_optimal_rule, and the
    two must agree to near machine precision on valid instances.
    """
    if horizon < spec.d + 2:
        raise ValueError("state-indexed induction needs horizon >= d + 2")

    memo: dict = {}

    def state_key(state):
        return (
            state.n,
            state.window,
            state.change_prob.tobytes(),
            state.pair_prob.tobytes(),
        )

    def value(state) -> float:
        key = state_key(state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if state.n == horizon:
            v = state_payoff(spec, state)
        else:
            pred = predictive(spec, state)
            cont = 0.0
            for y in range(spec.alphabet_size):
                w = float(pred[y])
                if w > 0.0:
                    cont += w * value(state_step(spec, state, y))
            v = max(state_payoff(spec, state), cont) if state.n > spec.d else cont
        memo[key] = v
        return v

    return value(state_init(spec))


def dump_joint(table: JointTable, directory: str | Path) -> list[Path]:
    """Write the table as one CSV per depth: path, bucket, probability."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for n, level in enumerate(table.levels):
        out = directory / f"joint_level_{n}.csv"
        with out.open("w") as fh:
            fh.write("path,bucket,probability\n")
            for path in sorted(level):
                joint = level[path]
                pstr = "-".join(str(s) for s in path)
                for t in range(table.max_theta + 1):
                    label = str(t + 1) if t < table.max_theta else "tail"
                    mass = math.fsum(joint[t].ravel())
                    fh.write(f"{pstr},{label},{mass:.17g}\n")
        written.append(out)
    return written


def dump_tree(tree: HistoryTreeValue, directory: str | Path) -> Path:
    """Write the backward-induction tree as CSV: path, z, continuation, value, action."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / "value_tree.csv"
    with out.open("w") as fh:
        fh.write("path,z,continuation,value,action\n")
        for level in tree.levels:
            for path in sorted(level):
                node = level[path]
                pstr = "-".join(str(s) for s in path)
                cont = "" if node.continuation is None else f"{node.continuation:.17g}"
                action = "stop" if node.stop else "continue"
                fh.write(f"{pstr},{node.z:.17g},{cont},{node.value:.17g},{action}\n")
    return out
