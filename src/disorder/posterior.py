"""Exact Bayesian filter for the change time and the kernel pair.

The filter state after n observations is

    eta_n = (window, change_prob, pair_prob)

where `window` holds the last min(n, d+1) + 1 symbols, change_prob[i, j] is
P(change happened by n | pair (i, j), data) and pair_prob[i, j] is
P(pair (i, j) | data).  The state evolves by a one-step Bayes update per
observation, computed for the whole pair grid at once by one helper that
also broadcasts over a leading batch axis, so the Monte Carlo rules filter
many paths in lockstep with the arithmetic of `state_step`; multi-step,
back-shift and lagged variants expose the same posterior through window
mixtures and are used to cross-check the recursion.  filter_tree filters
every path of positive probability up to a horizon, for the exact checks.

Zero-probability observations (outside the common kernel support) raise
SupportError rather than being renormalised away; under the model assumptions
they cannot occur, so they signal a model violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SupportError
from .likelihood import _DENOM_FLOOR, Window, likelihood_ratio_chain, window_mixture
from .model import ModelSpec


@dataclass(frozen=True)
class PosteriorState:
    """Filter state: time index, trailing window and per-pair posteriors."""

    n: int
    window: Window
    change_prob: np.ndarray
    pair_prob: np.ndarray


def _transition_mixture(spec: ModelSpec, change, f0, f1) -> np.ndarray:
    # Per-pair density of the next transition: window_mixture at l = 0 in
    # closed form.  `change` is the change posterior grid, None at time 0
    # where the initial hazard pi applies.  f0 and f1 hold the pre and post
    # densities of the transition, broadcast against the pair grid; leading
    # axes (next symbols, batch rows) broadcast through.
    if change is None:
        a = spec.pi
        return (1.0 - a) * f0 + a * f1
    a = change
    return (1.0 - a) * ((1.0 - spec.p) * f1 + spec.p * f0) + a * f1


def _filter_step(spec: ModelSpec, change, pair, x_prev, x_next):
    """One Bayes update of the change and pair grids, over any leading axes.

    `change` and `pair` are the posterior grids (`change` is None at time 0,
    where the initial hazard pi replaces the geometric hazard q = 1 - p on
    the previous change posterior); x_prev and x_next are symbols, or index
    arrays over the grids' leading batch axes.  Both new grids are read from
    the same pre-update grids.  Returns (change, pair, dead): when the
    transition of some row lies outside the common support, both grids are
    None and `dead` flags those rows; otherwise `dead` is None.
    """
    f0 = spec.pre_kernels.T[x_next, x_prev][..., None]
    f1 = spec.post_kernels.T[x_next, x_prev][..., None, :]
    if change is None:
        num = f1 * spec.pi
        den = num + f0 * (1.0 - spec.pi)
    else:
        num = f1 * ((1.0 - spec.p) + spec.p * change)
        den = num + f0 * spec.p * (1.0 - change)
    pair = pair * _transition_mixture(spec, change, f0, f1)
    total = pair.sum(axis=(-2, -1), keepdims=True)
    # fmin flags a cell where either the change denominator or the row's
    # pair total is below the floor, NaN in one of them not masking the other
    low = np.fmin(den, total) < _DENOM_FLOOR
    if low.any():
        return None, None, low.any(axis=(-2, -1))
    return num / den, pair / total, None


def _grid_ratio(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    # num / den per pair, NaN where the pair's denominator vanishes; a window
    # dead for every pair is a SupportError.
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
    an (l0, l1) grid.
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
    window_mixture at anchors 0 and 1.
    """
    if len(window) != spec.d + 2:
        raise ValueError(f"window must have length {spec.d + 2}")
    _check_unit("current", current)
    changed, total = window_mixture(spec, window, 0.0)
    _, top = window_mixture(spec, window, 1.0)
    num = changed - current * total
    den = num - (1.0 - current) * top
    return _grid_ratio(num, den, "degenerate window: back-shift denominator vanished")


def change_lagged(spec: ModelSpec, k: int, window: Window, current) -> np.ndarray:
    """Grid of P(change happened at least k + 1 steps before now | pair, data).

    Expressed through the current posterior and the likelihood ratios of the
    last k + 1 transitions; `window` must supply at least k + 1 transitions
    and the current time n must satisfy n >= k + 2 for the expression to be
    exact (at n = k + 1 the probability is identically 0).
    """
    if k < 0:
        raise ValueError("lag must be non-negative")
    if len(window) < k + 2:
        raise ValueError(f"window must supply at least {k + 1} transitions")
    chain = likelihood_ratio_chain(spec, window, k + 1)
    return 1.0 - (1.0 - current) * (1.0 + (1.0 - spec.p) * chain)


def state_init(spec: ModelSpec) -> PosteriorState:
    """Filter state at time 0: only x0 seen, change impossible, prior pairs."""
    return PosteriorState(
        n=0,
        window=(spec.x0,),
        change_prob=np.zeros((spec.l0, spec.l1)),
        pair_prob=spec.b.copy(),
    )


def state_step(spec: ModelSpec, state: PosteriorState, x_next: int) -> PosteriorState:
    """Advance the filter by one observation, trimming the window to d + 2.

    The first step uses the initial hazard pi; later steps use the geometric
    hazard q = 1 - p applied to the previous change posterior.
    """
    if not 0 <= x_next < spec.alphabet_size:
        raise ValueError(f"symbol {x_next} outside alphabet")
    x_prev = state.window[-1]
    change = None if state.n == 0 else state.change_prob
    change, pair, dead = _filter_step(spec, change, state.pair_prob, x_prev, x_next)
    if dead is not None:
        raise SupportError(f"observation {x_next} outside common support after {x_prev}")
    window = (state.window + (x_next,))[-(spec.d + 2) :]
    return PosteriorState(state.n + 1, window, change, pair)


def predictive(spec: ModelSpec, state: PosteriorState) -> np.ndarray:
    """One-step predictive distribution of the next symbol given the state."""
    x = state.window[-1]
    f0 = spec.pre_kernels[:, x, :].T[:, :, None]
    f1 = spec.post_kernels[:, x, :].T[:, None, :]
    change = None if state.n == 0 else state.change_prob
    terms = state.pair_prob * _transition_mixture(spec, change, f0, f1)
    return np.array([math.fsum(row) for row in terms.reshape(spec.alphabet_size, -1).tolist()])


def filter_tree(spec: ModelSpec, horizon: int) -> dict:
    """path -> filter state of each path of 1 .. horizon steps, breadth first, zero mass skipped."""
    states: dict = {}
    frontier = {(spec.x0,): state_init(spec)}
    for _ in range(horizon):
        frontier = {
            path + (y,): state_step(spec, state, y)
            for path, state in frontier.items()
            for y in np.flatnonzero(predictive(spec, state) > 0.0).tolist()
        }
        states.update(frontier)
    return states
