"""Exact Bayesian filter for the change time and the kernel pair.

The filter state after n observations is

    eta_n = (window, unchanged, changed)

where `window` holds the last min(n, d+1) + 1 symbols, and unchanged[i, j] =
P(theta > n, pair (i, j) | data) and changed[i, j] = P(theta <= n, pair (i, j)
| data) are the joint posterior masses, which sum to 1 over the grid.  The
views P(change by n | pair, data) and P(pair | data) derive from them.  One
helper computes the Bayes update for the whole grid and broadcasts over a
leading batch axis, with the arithmetic of `state_step` on every row;
multi-step, back-shift and lagged variants expose the same posterior through
window mixtures and cross-check the recursion, a batch of windows at a time.
filter_levels filters every path of positive probability up to a horizon
level by level, one batched step and predictive per level, for the exact
checks.  PrefixTree keeps the filter states of the prefixes a rule has read,
with the rule's stop time at each, so the filter rules filter and decide
each observed prefix once and read a batch of paths one gather per step.

A zero-probability observation (outside the common kernel support) is not
renormalised away: the one-step update itself raises SupportError naming the
transition, for every filter built on it.  Under the model assumptions such
observations cannot occur, so they signal a model violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SupportError
from .likelihood import _DENOM_FLOOR, Window, _fsum_grids, likelihood_ratio_chain, window_mixture
from .model import ModelSpec

# Nodes a PrefixTree may hold when a batch starts; past it, the tree restarts
# from the root.
PREFIX_TREE_CAP = 1 << 16

# PrefixTree's reserved nodes: where an unread child points, where every
# child of a stopping node points (absorbing), and the root.
_UNGROWN, _STOPPED, _ROOT = 0, 1, 2


def _given_pair(mass: np.ndarray, pair: np.ndarray) -> np.ndarray:
    # mass / P(pair) per pair: the conditional views of the filter state, 0 on
    # a pair of zero mass as in oracle._change_cdf
    return np.divide(mass, pair, out=np.zeros(np.shape(mass)), where=pair > 0.0)


@dataclass(frozen=True)
class PosteriorState:
    """Filter state: time index, trailing window, joint posterior masses and their conditional views."""

    n: int
    window: Window
    unchanged: np.ndarray
    changed: np.ndarray

    @property
    def change_prob(self) -> np.ndarray:
        return _given_pair(self.changed, self.pair_prob)

    @property
    def pair_prob(self) -> np.ndarray:
        return self.unchanged + self.changed


def _advance(spec: ModelSpec, first: bool, unchanged, changed, f0, f1):
    # The unnormalised one-step update of the joint masses, with the initial
    # hazard pi on the step out of time 0 (`first`) and q = 1 - p after.  f0
    # and f1, the transition's pre and post densities, broadcast against the
    # pair grid; leading axes (next symbols, batch rows) broadcast through.
    keep, jump = (1.0 - spec.pi, spec.pi) if first else (spec.p, 1.0 - spec.p)
    return unchanged * keep * f0, (changed + unchanged * jump) * f1


def _filter_step(spec: ModelSpec, first: bool, unchanged, changed, x_prev, x_next):
    """One Bayes update of the joint masses, over any leading axes.

    `first` marks the step out of time 0; x_prev and x_next are symbols, or
    index arrays over the grids' leading batch axes.  Returns (unchanged,
    changed).  A row is dead where its total is below the floor or NaN, or
    where both kernels of a pair, of zero mass or not, forbid its transition:
    SupportError names the lowest dead row's transition.
    """
    f0 = spec.pre_kernels.T[x_next, x_prev][..., None]
    f1 = spec.post_kernels.T[x_next, x_prev][..., None, :]
    unchanged, changed = _advance(spec, first, unchanged, changed, f0, f1)
    total = (unchanged + changed).sum(axis=(-2, -1), keepdims=True)
    low = ~(np.minimum(f0 + f1, total) >= _DENOM_FLOOR)
    if low.any():
        row = np.flatnonzero(low.any(axis=(-2, -1)))[0]
        x, y = (np.broadcast_to(a, low.shape[:-2]).ravel()[row] for a in (x_prev, x_next))
        raise SupportError(f"observation {y} outside common support after {x}")
    return unchanged / total, changed / total


def _grid_ratio(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    # num / den per pair, NaN where the pair's denominator vanishes; a window
    # dead for every pair is a SupportError; in a batch, such a row is all
    # NaN unless every row is dead.
    dead = np.abs(den) < _DENOM_FLOOR
    if dead.all():
        raise SupportError(what)
    return np.where(dead, np.nan, num / np.where(dead, 1.0, den))


def _check_unit(name: str, value) -> None:
    value = np.asarray(value)
    if np.any((value < 0.0) | (value > 1.0)):
        raise ValueError(f"{name} posterior must lie in [0, 1]")


def change_multistep(spec: ModelSpec, window: Window, anchor) -> np.ndarray:
    """Posterior grid after len(window) - 1 steps from the posterior at the window start.

    Valid when the anchor sits strictly inside the sequence (time >= 1); the
    anchored-at-origin case is change_from_origin.  `anchor` is a scalar or
    an (l0, l1) grid, broadcast against (N, l0, l1) for an (N, T + 1) batch.
    """
    _check_unit("anchor", anchor)
    changed, total = window_mixture(spec, window, anchor)
    return _grid_ratio(changed, total, "window has zero probability under the common support")


def change_from_origin(spec: ModelSpec, window: Window) -> np.ndarray:
    """Posterior grid after len(window) - 1 steps starting from time 0.

    The window must start at the fixed initial symbol; the initial hazard
    pi replaces an anchor posterior.
    """
    changed, total = window_mixture(spec, window, spec.pi, origin=True)
    return _grid_ratio(changed, total, "window has zero probability under the common support")


def change_backshift(spec: ModelSpec, window: Window, current) -> np.ndarray:
    """Recover the posterior grid d + 1 steps back from the current one.

    Inverts the (d+1)-step forward map on the same window; `window` must have
    length d + 2 and `current` is the posterior at its last symbol.  The
    forward map is a ratio of two functions affine in the anchor, read off
    window_mixture at anchors 0 and 1.  Batches as change_multistep does.
    """
    if np.shape(window)[-1] != spec.d + 2:
        raise ValueError(f"window must have length {spec.d + 2}")
    _check_unit("current", current)
    changed, total = window_mixture(spec, window, 0.0)
    _, top = window_mixture(spec, window, 1.0)
    num = changed - current * total
    den = num - (1.0 - current) * top
    return _grid_ratio(num, den, "degenerate window: back-shift denominator vanished")


def change_lagged(spec: ModelSpec, k: int, window: Window, survival) -> np.ndarray:
    """Grid of P(change happened at least k + 1 steps before now | pair, data).

    Expressed through the current survival P(no change by now | pair, data)
    and the likelihood ratios of the last k + 1 transitions of `window`,
    batched as in change_multistep; the current time n must satisfy
    n >= k + 2 for the expression to be exact (at n = k + 1 the probability
    is identically 0).
    """
    if k < 0:
        raise ValueError("lag must be non-negative")
    if np.shape(window)[-1] < k + 2:
        raise ValueError(f"window must supply at least {k + 1} transitions")
    chain = likelihood_ratio_chain(spec, window, k + 1)
    return 1.0 - survival * (1.0 + (1.0 - spec.p) * chain)


def state_init(spec: ModelSpec) -> PosteriorState:
    """Filter state at time 0: only x0 seen, change impossible, prior pairs."""
    return PosteriorState(
        n=0,
        window=(spec.x0,),
        unchanged=spec.b.copy(),
        changed=np.zeros((spec.l0, spec.l1)),
    )


def state_step(spec: ModelSpec, state: PosteriorState, x_next: int) -> PosteriorState:
    """Advance the filter by one observation, trimming the window to d + 2.

    The first step uses the initial hazard pi; later steps use the geometric
    hazard q = 1 - p.
    """
    if not 0 <= x_next < spec.alphabet_size:
        raise ValueError(f"symbol {x_next} outside alphabet")
    x_prev = state.window[-1]
    unchanged, changed = _filter_step(spec, state.n == 0, state.unchanged, state.changed, x_prev, x_next)
    window = (state.window + (x_next,))[-(spec.d + 2) :]
    return PosteriorState(state.n + 1, window, unchanged, changed)


def _predictive(spec: ModelSpec, first: bool, unchanged, changed, x) -> np.ndarray:
    # (N, A) next-symbol law of rows with last symbols x, `first` as in
    # _filter_step; each entry is an fsum over the pair grid
    f0 = spec.pre_kernels[:, x, :].transpose(1, 2, 0)[..., None]
    f1 = spec.post_kernels[:, x, :].transpose(1, 2, 0)[..., None, :]
    unchanged, changed = _advance(spec, first, unchanged[:, None], changed[:, None], f0, f1)
    return _fsum_grids(unchanged + changed)


def predictive(spec: ModelSpec, state: PosteriorState) -> np.ndarray:
    """One-step predictive distribution of the next symbol given the state."""
    x = np.array([state.window[-1]])
    return _predictive(spec, state.n == 0, state.unchanged[None], state.changed[None], x)[0]


class FilterLevel(NamedTuple):
    """The paths of n steps with positive probability, (N, n + 1), in table
    order; their (N, l0, l1) joint masses; their (N, A) next-symbol
    predictive, None at the last level of a pass; and `parent`, the row of
    each path's prefix in the previous level, None at n = 0.  Views per row:
    change and pair (PosteriorState's change_prob and pair_prob) and
    survival, P(no change by n | pair, path)."""

    n: int
    paths: np.ndarray
    unchanged: np.ndarray
    changed: np.ndarray
    pred: np.ndarray | None
    parent: np.ndarray | None

    @property
    def change(self) -> np.ndarray:
        return _given_pair(self.changed, self.pair)

    @property
    def survival(self) -> np.ndarray:
        return _given_pair(self.unchanged, self.pair)

    @property
    def pair(self) -> np.ndarray:
        return self.unchanged + self.changed


def filter_levels(spec: ModelSpec, horizon: int):
    """Yield the filter tree's levels 0 .. horizon, one batched step per level.

    A level's rows are the children, in symbol order, of the previous level's
    rows with positive predictive mass; each row's masses equal state_step
    along its path bit for bit.
    """
    paths, rows = np.array([[spec.x0]]), None
    unchanged, changed = spec.b[None], np.zeros((1, spec.l0, spec.l1))
    for n in range(horizon + 1):
        x = paths[:, -1]
        pred = _predictive(spec, n == 0, unchanged, changed, x) if n < horizon else None
        yield FilterLevel(n, paths, unchanged, changed, pred, rows)
        if pred is None:
            return
        rows, ys = np.nonzero(pred > 0.0)
        unchanged, changed = _filter_step(spec, n == 0, unchanged[rows], changed[rows], x[rows], ys)
        paths = np.column_stack((paths[rows], ys))


def _check_read(spec: ModelSpec, obs: np.ndarray, symbols=()) -> None:
    # The per-path ValueError of the batch rules: the paths `obs` start at
    # x0, and the `symbols` read after it, in reading order, are in the alphabet.
    if not obs.shape[1] or (obs[:, 0] != spec.x0).any():
        raise ValueError(f"stream must start at x0={spec.x0}")
    symbols = np.asarray(symbols)
    if symbols.size and not (symbols.min() >= 0 and symbols.max() < spec.alphabet_size):  # a nan fails it too
        bad = next(y for y in symbols.ravel().tolist() if not 0 <= y < spec.alphabet_size)
        raise ValueError(f"symbol {bad} outside alphabet")


class PrefixTree:
    """Filter states of the observed prefixes a rule has read, and its stop time at each.

    A node is a prefix.  Its child table row, parent, last symbol, joint
    masses and stop time (-1, or the time at which the rule stops on reaching
    it) sit in flat arrays that double when full.  A walk reads a batch of
    paths one gather per step; rows that reach an unread child grow it
    there, in one batched _filter_step, so the masses are state_step's bit
    for bit and a SupportError names the lowest dead row.
    `decide(n, nodes)` gives the stop times of the new nodes of time n, the
    slice of ids one walk step grew.  A stopping node's children point to
    _STOPPED, so nothing after a stop is read; a path of fewer than
    `min_steps` steps is not read past x0.
    """

    def __init__(self, spec: ModelSpec, decide, min_steps: int = 1):
        self.spec, self._decide, self._min_steps = spec, decide, min_steps
        self.size, self.child = 3, np.zeros(3 * spec.alphabet_size, dtype=np.intp)
        self.up, self.last, self.stop = np.zeros((3, 3), dtype=np.intp)
        self.unchanged, self.changed = np.zeros((2, 3, spec.l0, spec.l1))
        self._restart()

    def _restart(self) -> None:
        # the reserved nodes alone, in the arrays as they are
        a = self.spec.alphabet_size
        self.child[: self.size * a] = _UNGROWN
        self.child[_STOPPED * a : (_STOPPED + 1) * a] = _STOPPED
        self.size = 3
        self.stop[:3], self.up[_ROOT], self.last[_ROOT] = -1, _ROOT, self.spec.x0
        self.unchanged[_ROOT], self.changed[_ROOT] = self.spec.b, 0.0

    def _add(self, k: int) -> slice:
        # k new nodes, their children unread; the arrays double as needed
        lo, cap, self.size = self.size, len(self.stop), self.size + k
        if self.size > cap:
            for name in ("child", "up", "last", "unchanged", "changed", "stop"):
                old = getattr(self, name)
                new = np.zeros((len(old) // cap * max(2 * cap, self.size),) + old.shape[1:], old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)
        return slice(lo, self.size)

    def walk(self, observations) -> np.ndarray:
        """The (N, h + 1) nodes a batch of paths visits, _STOPPED after a stop.

        Raises the per-path ValueError, checked before any gather, and the
        first SupportError the walk meets.
        """
        spec, a = self.spec, self.spec.alphabet_size
        obs = np.asarray(observations)
        _check_read(spec, obs)
        if self.size > PREFIX_TREE_CAP:
            self._restart()
        visits = np.full(obs.shape[::-1], _STOPPED)  # one contiguous row per step
        visits[0] = node = np.full(len(obs), _ROOT)
        if obs.shape[1] - 1 < self._min_steps:
            return visits.T
        in_alphabet = bool(((obs[:, 1:] >= 0) & (obs[:, 1:] < a)).all())
        for n in range(1, obs.shape[1]):
            y = obs[:, n]
            if not in_alphabet:
                running = (node != _STOPPED) & (self.stop[node] < 0)
                _check_read(spec, obs, y[running])
                y = np.where(running, y, 0)
            slot = node * a + y
            node = self.child.take(slot)
            if np.count_nonzero(node) < len(node):
                grow = np.flatnonzero(node == _UNGROWN)
                node[grow] = self._grow(n, slot[grow])
            visits[n] = node
        return visits.T

    def stop_times(self, observations) -> np.ndarray:
        """Stop time of each row of an (N, h + 1) batch of paths, -1 where the rule never fires."""
        visits = self.walk(observations)  # may reallocate self.stop
        return self.stop[visits].max(axis=1)

    def _grow(self, n: int, slots: np.ndarray) -> np.ndarray:
        # The children at child table `slots` (parent * A + symbol), one per
        # row that reached it unread: one new node per distinct slot.  Each
        # row marks its slot with its index, and the row whose mark the slot
        # keeps stands for it.  Returns each row's node.
        spec, a, k = self.spec, self.spec.alphabet_size, len(slots)
        self.child[slots] = np.arange(k)
        slot = slots[self.child[slots] == np.arange(k)]
        self.child[slots] = _UNGROWN
        up, ys = np.divmod(slot, a)
        try:
            masses = _filter_step(spec, n == 1, self.unchanged[up], self.changed[up], self.last[up], ys)
        except SupportError:  # filter every row in row order, so that the error names the lowest dead row
            up, ys = np.divmod(slots, a)
            _filter_step(spec, n == 1, self.unchanged[up], self.changed[up], self.last[up], ys)
            raise
        new = self._add(len(slot))
        self.up[new], self.last[new] = up, ys
        self.unchanged[new], self.changed[new] = masses
        self.stop[new] = stops = self._decide(n, new)
        self.child[slot] = np.arange(new.start, new.stop)
        self.child.reshape(-1, a)[new][stops >= 0] = _STOPPED
        return self.child[slots]
