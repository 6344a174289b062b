"""Detection payoff expressed through the filter state.

For a stop at time n >= d + 2 the success probability P(|theta - n| <= d)
conditional on the data is a function of the last d + 2 symbols and the
unchanged mass U = P(theta > n, pair | data) of the filter state:

    stop_payoff(n, w, U, C) = sum_ij (1 - p^d + q * sum_{k=1..d+1} L_k / (p^k L_0)) U_ij

with all split likelihoods over w.  At the earliest admissible stop n = d + 1
no change can predate the precision window, and the payoff collapses to the
window-free form sum_ij (1 - p^d) U_ij + C_ij, with C the changed mass.
stop_payoff picks the form from n and, like the likelihood functions, takes a
batch of rows, a tuple window being the one-row case; level_payoff applies it
to the rows of a filter level, on each row's last d + 2 symbols.
criterion_probability evaluates the unconditional success probability of a
fixed-time stop both from the prior and as the exact expectation of the
payoff over the filter tree; the two must agree, which is the module's core
identity.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .likelihood import Window, _fsum_grids, likelihood_ratio_chain, path_probability
from .model import ModelSpec, change_time_pmf
from .posterior import FilterLevel, filter_levels


def detection_coeff_matrix(spec: ModelSpec, window: Window) -> np.ndarray:
    """Per-pair payoff coefficients 1 - p^d + q * sum L_k / (p^k L_0), per row of a batch."""
    if np.shape(window)[-1] != spec.d + 2:
        raise ValueError(f"window must have length {spec.d + 2}")
    q = 1.0 - spec.p
    return 1.0 - spec.p**spec.d + q * likelihood_ratio_chain(spec, window, spec.d + 1)


def stop_payoff(spec: ModelSpec, n: int, window: Window, unchanged, changed) -> float | np.ndarray:
    """Conditional success probability of stopping at time n >= d + 1, per batch row.

    `window` holds the last d + 2 symbols and `unchanged` and `changed` are
    the filter state's joint masses; the boundary form at n = d + 1 does not
    read the window, the window form does not read `changed`.
    """
    if n < spec.d + 1:
        raise ValueError("stop payoffs apply from time d + 1 on")
    if n == spec.d + 1:
        terms = (1.0 - spec.p**spec.d) * unchanged + changed
    else:
        terms = detection_coeff_matrix(spec, window) * unchanged
    value = _fsum_grids(terms)
    return value if value.ndim else float(value)


def level_payoff(spec: ModelSpec, level: FilterLevel) -> np.ndarray:
    """Stop payoff of each row of a filter level at its time n >= d + 1, on the row's last d + 2 symbols."""
    return stop_payoff(spec, level.n, level.paths[:, -(spec.d + 2) :], level.unchanged, level.changed)


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
    *_, level = filter_levels(spec, n)
    return _criterion(spec, level)


def _criterion(spec: ModelSpec, level: FilterLevel) -> CriterionCheck:
    # both routes at the level's time n >= d + 1, the payoff route over its rows
    lo = max(1, level.n - spec.d)
    prior = math.fsum(change_time_pmf(spec, k) for k in range(lo, level.n + spec.d + 1))
    terms = path_probability(spec, level.paths) * level_payoff(spec, level)
    return CriterionCheck(prior_value=prior, payoff_value=math.fsum(terms.tolist()))
