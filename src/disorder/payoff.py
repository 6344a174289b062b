"""Detection payoff expressed through the filter state.

For a stop at time n >= d + 2 the success probability P(|theta - n| <= d)
conditional on the data is a function of the last d + 2 symbols and the two
posterior grids:

    stop_payoff(w, gamma, delta)
        = sum_ij (1 - p^d + q * sum_{k=1..d+1} L_k / (p^k L_0)) (1 - gamma_ij) delta_ij

with all split likelihoods over w.  At the earliest admissible stop n = d + 1
no change can predate the precision window, and the payoff collapses to the
window-free form stop_payoff_boundary; state_payoff applies the form due at
a filter state's own time.  criterion_probability evaluates the unconditional
success probability of a fixed-time stop both from the prior and as the
exact expectation of the payoff over the filter tree; the two must agree,
which is the module's core identity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .likelihood import Window, likelihood_ratio_chain, path_probability
from .model import ModelSpec, change_time_pmf
from .posterior import PosteriorState, filter_tree


def detection_coeff_matrix(spec: ModelSpec, window: Window) -> np.ndarray:
    """Per-pair payoff coefficients 1 - p^d + q * sum L_k / (p^k L_0)."""
    if len(window) != spec.d + 2:
        raise ValueError(f"window must have length {spec.d + 2}")
    q = 1.0 - spec.p
    return 1.0 - spec.p**spec.d + q * likelihood_ratio_chain(spec, window, spec.d + 1)


def stop_payoff(
    spec: ModelSpec, window: Window, gamma: np.ndarray, delta: np.ndarray
) -> float:
    """Conditional success probability of stopping now, at a time >= d + 2."""
    gamma = np.asarray(gamma, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    coeff = detection_coeff_matrix(spec, window)
    return math.fsum((coeff * (1.0 - gamma) * delta).ravel())


def stop_payoff_boundary(spec: ModelSpec, gamma: np.ndarray, delta: np.ndarray) -> float:
    """Conditional success probability of stopping at the boundary time d + 1."""
    gamma = np.asarray(gamma, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    return math.fsum(((1.0 - spec.p**spec.d * (1.0 - gamma)) * delta).ravel())


def state_payoff(spec: ModelSpec, state: PosteriorState) -> float:
    """Stop payoff of the filter state at its own time n >= d + 1."""
    if state.n < spec.d + 1:
        raise ValueError("stop payoffs apply from time d + 1 on")
    if state.n == spec.d + 1:
        return stop_payoff_boundary(spec, state.change_prob, state.pair_prob)
    return stop_payoff(spec, state.window, state.change_prob, state.pair_prob)


class CriterionCheck(NamedTuple):
    prior_value: float
    payoff_value: float


def criterion_probability(spec: ModelSpec, n: int) -> CriterionCheck:
    """P(|theta - n| <= d) computed two independent ways.

    prior_value sums the change-time pmf over the detection window;
    payoff_value takes the exact expectation of the stop payoff over every
    path of length n.  Exponential in n, intended for desk-scale checks.
    """
    if n < spec.d + 1:
        raise ValueError("fixed stops before d + 1 are outside the payoff transform")
    lo = max(1, n - spec.d)
    prior = math.fsum(change_time_pmf(spec, k) for k in range(lo, n + spec.d + 1))

    terms = [
        path_probability(spec, path) * state_payoff(spec, state)
        for path, state in filter_tree(spec, n).items()
        if state.n == n
    ]
    return CriterionCheck(prior_value=prior, payoff_value=math.fsum(terms))
