"""Exact ground truth by enumeration, for desk-scale instances.

build_joint materialises the joint law of (change time, kernel pair, path)
over every observation path up to a horizon, one array per depth.  A depth's
rows are its paths in lexicographic order, so the row of a path is its
symbols after x0 read in base A (path_rank), and the children of row r are
rows r*A .. r*A + A - 1 of the next depth.  Change times are bucketed as
{1, ..., max_theta} plus one closed-form tail bucket carrying the geometric
remainder, so every probability in the table is exact despite truncation.
Detection events {|theta - n| <= d} for n <= horizon never touch the tail.
Each depth's path masses and detection masses are summed once, with the
table, for everything that reads them.

On top of the table sit definition-level posteriors (plain Bayes, no
recursion), exact evaluation of arbitrary adapted rules, and finite-horizon
backward induction for the optimal value, each depth backed up in one pass
from the horizon.  An independent state-indexed induction,
optimal_value_state_indexed(spec, horizon), is the implementation
cross-check, run level by level on batched filter levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import BudgetError
from .likelihood import _DENOM_FLOOR, Window, _check_window, _fsum_grids
from .model import ModelSpec
from .payoff import level_payoff
from .posterior import _given_pair, filter_levels
from .simulate import _stop_times

DEFAULT_CELL_BUDGET = 10_000_000


@dataclass(frozen=True)
class JointTable:
    """Joint probabilities per path and change-time bucket.

    arrays[n] has shape (A^n, max_theta + 1, l0, l1), one row per path of
    length n + 1 (including x0) in lexicographic order: bucket t - 1 holds
    P(theta = t, pair, path) for t <= max_theta, the last bucket holds
    P(theta > max_theta, pair, path).  mass[n] holds each row's path
    probability and detection[n] its joint weight with {|theta - n| <= d},
    both fsums over the row's cells, shape (A^n,).  Only these are stored:
    levels[n], mapping each path to a view of its row, is built on first read.
    """

    spec: ModelSpec
    horizon: int
    max_theta: int
    arrays: tuple[np.ndarray, ...]
    mass: tuple[np.ndarray, ...]
    detection: tuple[np.ndarray, ...]

    @cached_property
    def levels(self) -> tuple[dict, ...]:
        return tuple(dict(zip(map(tuple, _paths(self.spec, n).tolist()), joint)) for n, joint in enumerate(self.arrays))


def path_rank(spec: ModelSpec, paths) -> np.ndarray:
    """Row of a path in its depth's arrays, per row of an (N, n + 1) batch."""
    paths = _check_window(spec, paths)
    if np.any(paths[..., 0] != spec.x0):
        raise ValueError(f"path must start at x0={spec.x0}")
    n = paths.shape[-1] - 1
    return paths[..., 1:] @ spec.alphabet_size ** np.arange(n - 1, -1, -1)


def build_joint(spec: ModelSpec, horizon: int, max_theta: int | None = None) -> JointTable:
    """The joint law of (change time, pair, path) up to `horizon`, in DEFAULT_CELL_BUDGET cells."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if max_theta is None:
        max_theta = horizon + spec.d
    if max_theta < horizon:
        raise ValueError("max_theta must cover the horizon")
    a = spec.alphabet_size
    cells = spec.l0 * spec.l1 * (max_theta + 1) * sum(a**n for n in range(horizon + 1))
    if cells > DEFAULT_CELL_BUDGET:
        raise BudgetError(f"joint table needs {cells} cells, budget is {DEFAULT_CELL_BUDGET}")

    root = np.empty((max_theta + 1, spec.l0, spec.l1))
    q = 1.0 - spec.p
    root[0] = spec.pi * spec.b
    for t in range(2, max_theta + 1):
        root[t - 1] = (1.0 - spec.pi) * spec.p ** (t - 2) * q * spec.b
    root[max_theta] = (1.0 - spec.pi) * spec.p ** (max_theta - 1) * spec.b

    arrays = [root[None]]
    for n in range(1, horizon + 1):
        prev = arrays[-1][:, None]
        x_prev = np.arange(len(prev)) % a if n > 1 else np.array([spec.x0])
        # kernel factors of x_prev -> y per row and next symbol y, on the grid axis they index
        pre = spec.pre_kernels[:, x_prev].transpose(1, 2, 0)[:, :, None, :, None]
        post = spec.post_kernels[:, x_prev].transpose(1, 2, 0)[:, :, None, None, :]
        # buckets with theta <= n: the transition into X_n is post-change
        level = np.concatenate((prev[:, :, :n] * post, prev[:, :, n:] * pre), axis=2)
        arrays.append(level.reshape((-1,) + root.shape))
    mass = tuple(_fsum_grids(arrays[n], 3) for n in range(horizon + 1))
    detection = tuple(_detection_masses(spec, arrays[n], n) for n in range(horizon + 1))
    return JointTable(spec, horizon, max_theta, tuple(arrays), mass, detection)


def _paths(spec: ModelSpec, n: int) -> np.ndarray:
    # the (A**n, n + 1) paths of n steps in row order: path_rank read backwards
    digits = np.arange(spec.alphabet_size**n)[:, None] // spec.alphabet_size ** np.arange(n - 1, -1, -1)
    return np.column_stack((np.full(len(digits), spec.x0), digits % spec.alphabet_size))


def exact_posterior(table: JointTable, path: Window) -> tuple[np.ndarray, np.ndarray]:
    """Definition-level posteriors (change grid, pair grid) given the path, per row of a batch."""
    change, per_pair = _change_cdf(table, path, np.shape(path)[-1] - 1)
    total = _fsum_grids(per_pair)
    if np.any(total < _DENOM_FLOOR):
        raise ValueError("path has zero probability")
    return change, per_pair / total[..., None, None]


def change_cdf_given_pair(table: JointTable, path: Window, m: int) -> np.ndarray:
    """P(theta <= m | path, pair) for every pair, from the table, per row of a batch."""
    if not 0 <= m <= table.max_theta:
        raise ValueError(f"m must lie in [0, {table.max_theta}]")
    return _change_cdf(table, path, m)[0]


def _change_cdf(table: JointTable, path, m: int) -> tuple[np.ndarray, np.ndarray]:
    # one gather and bucket sum: the cdf at m (0 on zero-mass pairs) and the per-pair masses
    joint = table.arrays[np.shape(path)[-1] - 1][path_rank(table.spec, path)]
    per_pair = joint.sum(axis=-3)
    return _given_pair(joint[..., :m, :, :].sum(axis=-3), per_pair), per_pair


def _detection_masses(spec: ModelSpec, joint: np.ndarray, n) -> np.ndarray:
    # the joint weight of each row of joint, (rows, max_theta + 1, l0, l1),
    # and {|theta - n| <= d}, at time n or at one time per row; the tail
    # bucket never counts
    near = np.abs(np.arange(1, joint.shape[1]) - np.reshape(n, (-1, 1))) <= spec.d
    return _fsum_grids(joint[:, :-1] * near[:, :, None, None], 3)


def exact_rule_value(table: JointTable, rule: Callable[[Window], Optional[int]]) -> float:
    """Exact success probability of a rule, evaluated over the whole tree.

    The rule maps a full path to its stop time and must depend only on the
    prefix up to that time (adaptedness is the caller's contract).  It reads
    the live paths of the deepest level as one batch (simulate._stop_times),
    and a never-firing rule stops at the horizon, as in the simulator.
    Paths of probability 0 carry no detection mass; the rule never reads them.
    """
    spec, h = table.spec, table.horizon
    live = table.mass[h] > 0.0
    stops = _stop_times(rule, _paths(spec, h)[live])
    stops = np.where(stops < 0, h, stops)
    return math.fsum(_detection_masses(spec, table.arrays[h][live], stops).tolist())


@dataclass(frozen=True)
class HistoryTreeValue:
    """Per-path stop payoff, continuation and optimal action, all normalised.

    levels[n] is a record array over the paths of depth n in joint-table
    order, with fields z, continuation (NaN at the horizon), value and stop;
    the node of a path of n steps is levels[n][path_rank(spec, path)].
    """

    spec: ModelSpec
    levels: tuple[np.recarray, ...]


def exact_optimal_rule(
    table: JointTable, restrict_after_d: bool = True
) -> tuple[float, HistoryTreeValue]:
    """Finite-horizon optimal stopping by backward induction on the tree.

    With restrict_after_d, stopping is allowed only from time d + 1 on (which
    provably loses nothing); otherwise any time from 0 on may stop.  The
    horizon forces a stop.  Returns the optimal value and the full tree.
    Paths of probability 0 get z = continuation = value = 0 and continue,
    except at the horizon.
    """
    spec = table.spec
    levels = []
    w = None
    for n in range(table.horizon, -1, -1):
        pp, uz = table.mass[n], table.detection[n]
        live = pp > 0.0
        per = np.where(live, pp, 1.0)
        if w is None:
            w, cont, stop = uz, np.full(len(pp), np.nan), np.ones(len(pp), dtype=bool)
        else:
            # unnormalised continuation: the children's values, in symbol order
            uc = _fsum_grids(w.reshape(len(pp), spec.alphabet_size), 1)
            allowed = n >= spec.d + 1 if restrict_after_d else True
            w = np.maximum(uz, uc) if allowed else uc
            cont = np.where(live, uc / per, 0.0)
            stop = live & allowed & (uz >= uc)
        fields = (np.where(live, uz / per, 0.0), cont, np.where(live, w / per, 0.0), stop)
        levels.append(np.rec.fromarrays(fields, names="z,continuation,value,stop"))
    return float(w[0]), HistoryTreeValue(spec, tuple(reversed(levels)))


def optimal_value_state_indexed(spec: ModelSpec, horizon: int) -> float:
    """Optimal value by induction on filter states instead of raw paths.

    Independent route: stop payoffs come from the payoff transform of the
    filter state and transition weights from the one-step predictive, no
    joint table involved.  The filter tree is walked level by level, and
    each level is backed up from the horizon in one pass along the parent
    links, adding w_y * v_y over the children y in symbol order.  Stops are
    allowed from d + 1 on, as in exact_optimal_rule, and the two must agree
    to near machine precision on valid instances.  Raises BudgetError when
    the tree's grid cells exceed DEFAULT_CELL_BUDGET.
    """
    if horizon < spec.d + 2:
        raise ValueError("state-indexed induction needs horizon >= d + 2")
    cells = sum(spec.alphabet_size**n for n in range(horizon + 1)) * spec.l0 * spec.l1
    if cells > DEFAULT_CELL_BUDGET:
        raise BudgetError(f"filter tree needs {cells} cells, budget is {DEFAULT_CELL_BUDGET}")
    levels = []
    for level in filter_levels(spec, horizon):
        stop = level_payoff(spec, level) if level.n > spec.d else None
        # a copy of the last symbols, so that no level's paths are kept
        levels.append((level.pred, level.parent, level.paths[:, -1].copy(), stop))
    _, parent, y, value = levels.pop()
    for pred, up, x, stop in reversed(levels):
        # unbuffered, in row order: each parent adds its children in symbol order
        cont = np.zeros(len(pred))
        np.add.at(cont, parent, pred[parent, y] * value)
        value = cont if stop is None else np.maximum(stop, cont)
        parent, y = up, x
    return float(value[0])


def dump_joint(table: JointTable, directory: str | Path) -> list[Path]:
    """Write the table as one CSV per depth: path, bucket, probability."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labels = [str(t) for t in range(1, table.max_theta + 1)] + ["tail"]
    written = []
    for n, joint in enumerate(table.arrays):
        masses = _fsum_grids(joint)
        out = directory / f"joint_level_{n}.csv"
        with out.open("w") as fh:
            fh.write("path,bucket,probability\n")
            for path, row in zip(_paths(table.spec, n).tolist(), masses.tolist()):
                pstr = "-".join(str(s) for s in path)
                fh.writelines(f"{pstr},{label},{mass:.17g}\n" for label, mass in zip(labels, row))
        written.append(out)
    return written


def dump_tree(tree: HistoryTreeValue, directory: str | Path) -> Path:
    """Write the backward-induction tree as CSV: path, z, continuation, value, action."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = directory / "value_tree.csv"
    with out.open("w") as fh:
        fh.write("path,z,continuation,value,action\n")
        for n, level in enumerate(tree.levels):
            for path, (z, cont, value, stop) in zip(_paths(tree.spec, n).tolist(), level.tolist()):
                pstr = "-".join(str(s) for s in path)
                cstr = "" if math.isnan(cont) else f"{cont:.17g}"
                action = "stop" if stop else "continue"
                fh.write(f"{pstr},{z:.17g},{cstr},{value:.17g},{action}\n")
    return out
