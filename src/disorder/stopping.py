"""Value iteration and the optimal stopping rule.

The continuation values s_k are defined by one backward-induction sweep per
level: s_0 integrates the stop payoff one step ahead, and for k >= 1

    s_k(w, gamma, delta) = sum_y max{ stop(w', y), s_{k-1}(w' + (y,), gamma, c(y) o delta) }

where w' drops the oldest symbol of w, stop(w', y) is the one-step-ahead
stop payoff weighted by the pre-change transition density, and the delta
argument is composed entrywise with c(y)[i, j] = p[i, j] * f0_i(x_last, y).
The gamma grid enters only through u = p o (1 - gamma) o delta, and every
term is linear in u, so s_k is the maximum of finitely many linear functions

    s_k(w, gamma, delta) = max_{g in Gamma_k(w')} g . u

(the alpha-vector form of POMDP value functions).  Gamma_0(w') holds the
one-step coefficients; Gamma_k(w') is the cross-sum over y of
{c_y} u {D_y o g : g in Gamma_{k-1}(w' + (y,))} with c_y the stop payoff
coefficients times f0(x_last, y) and D_y = p o f0(x_last, y).  ValueTable
builds these sets on demand, prunes dominated vectors and keeps them for
its lifetime, so one table serves every state of a spec.

s_k increases pointwise in k; its limit s* defines the stopping region
{ h >= s* }.  A decision raises K up to the cap k_max until h < s_K proves
continue or h >= s_K + bound (see ValueTable.bound) proves stop; at the cap
it compares h with s_{k_max}, flagged as not proved.  Either way it is the
s_{k_max} decision.  OptimalStoppingRule is the one implementation of the
rule: it never stops before d + 1, applies a boundary comparison at d + 1
and afterwards stops on first entry into the region.  The comparison at
d + 1 has two readings.  "expected" compares the boundary payoff with the
expected best of stop/continue one step ahead.  "literal" waits for the
next symbol and compares against the continuation value at the realised
next state; on a stop it reports d + 1 retroactively.  rule_runner is a
trace view of the rule on one stream.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetError
from .likelihood import Window, likelihood_ratio_chain
from .model import ModelSpec
from .payoff import detection_coeff_matrix, state_payoff
from .posterior import PosteriorState, state_init, state_step

# Hard cap on candidate vectors formed in cross-sums per table, a guard
# against runaway configs.
CANDIDATE_BUDGET = 2_000_000

# Relative rounding bound of the two-term orientation test in _envelope:
# eight float64 machine epsilons.
_EPS8 = 8.0 * 2.0**-52


@dataclass(frozen=True)
class ValueIterConfig:
    """Cap on the value-iteration level K."""

    k_max: int = 10

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")


@dataclass(frozen=True)
class StopDecision:
    """Outcome at time n of comparing the stop payoff with the continuation at K = k_used.

    The limit lies within [continue_value, continue_value + bound]; converged
    means the decision is proved against it.
    """

    n: int
    stop: bool
    stop_value: float
    continue_value: float
    bound: float
    k_used: int
    converged: bool = True


@dataclass(frozen=True)
class ValueIterResult:
    """s_K <= s* <= s_K + bound at K = k_used; converged: the stop value is decided against s*."""

    value: float
    bound: float
    k_used: int
    converged: bool


def _prune(vecs: np.ndarray) -> np.ndarray:
    """Remove vectors that cannot raise max(vecs @ u) for any u >= 0.

    A vector goes only when it is proven dominated: pointwise by another one
    (of equal copies the first stays; survivors keep their order) or, in two
    dimensions, by the segment between its neighbours on the upper envelope.
    Whatever survives, the maximum of the dot products is unchanged.
    """
    if vecs.shape[1] == 2:
        return _envelope(vecs)
    # Descending lexicographic order, stable: a vector that dominates another
    # comes before it.  So the first candidate left is never dominated by a
    # later one; it survives and drops every later one it dominates.
    order = np.lexsort(-vecs.T[::-1])
    rest = vecs[order]
    keep = []
    while len(order):
        keep.append(order[0])
        live = ~(rest[1:] <= rest[0]).all(axis=1)
        order, rest = order[1:][live], rest[1:][live]
    return vecs[np.sort(keep)]


def _envelope(vecs: np.ndarray) -> np.ndarray:
    # Upper-right convex chain of points in the plane.  Sorted by the first
    # coordinate, descending, a point survives pointwise dominance when its
    # second coordinate beats every point before it.
    stair: list[list[float]] = []
    for g in sorted(vecs.tolist(), key=lambda g: (-g[0], -g[1])):
        if not stair or g[1] > stair[-1][1]:
            stair.append(g)
    # Walk the staircase by ascending first coordinate and pop a middle point
    # only when it lies below the chord of its neighbours by more than the
    # rounding error of the test.
    hull: list[list[float]] = []
    for c in reversed(stair):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            t1 = (c[0] - a[0]) * (b[1] - a[1])
            t2 = (c[1] - a[1]) * (b[0] - a[0])
            if t1 - t2 >= -_EPS8 * (abs(t1) + abs(t2)):
                break
            hull.pop()
        hull.append(c)
    return np.array(hull)


def _base_coeff(spec: ModelSpec, tail: Window) -> np.ndarray:
    # One-step-ahead payoff coefficients integrated over the next symbol:
    # 1 - p^d + q (1 + sum_{t=1..d} L_t/(p^t L_0)) / p over the d+1 tail.
    q = 1.0 - spec.p
    chain = likelihood_ratio_chain(spec, tail, spec.d)
    return 1.0 - spec.p**spec.d + q * (1.0 + chain) / spec.p


class ValueTable:
    """Alpha-vector sets Gamma_k of the continuation values for one spec.

    s_k at a state is max(Gamma_k(w') @ u) with u = p o (1 - gamma) o delta
    and w' the last d + 1 symbols of the window.  Each set is built when it
    is first asked for and kept for the table's lifetime.  `budget` caps the
    candidate vectors formed in cross-sums over that lifetime.  The table is
    the handle that value_iterate, stop_decision and boundary_decision take:
    they read the spec from it and share its sets across calls.  Confine one
    table per worker, it is not synchronised.
    """

    def __init__(self, spec: ModelSpec, budget: int = CANDIDATE_BUDGET):
        self.spec = spec
        self.budget = budget
        self.formed = 0
        self._sets: dict[tuple[int, Window], np.ndarray] = {}
        self._branches: dict[Window, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        self._bounds: dict[int, float] = {0: math.inf}
        # transitions a -> b that can occur; validated kernels share zeros
        self._live = spec.pre_kernels.any(axis=0)

    def weight(self, gamma: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """The flattened u = p o (1 - gamma) o delta that the sets act on."""
        gamma = np.asarray(gamma, dtype=np.float64)
        delta = np.asarray(delta, dtype=np.float64)
        return (self.spec.p * (1.0 - gamma) * delta).ravel()

    def value(self, k: int, window: Window, u: np.ndarray) -> float:
        """s_k at window `window` and weight `u` (see `weight`), k >= 0."""
        if k < 0:
            raise ValueError("k must be non-negative")
        if len(window) != self.spec.d + 2:
            raise ValueError(f"window must have length {self.spec.d + 2}")
        return float(np.max(self.vectors(k, tuple(window[1:])) @ u))

    def vectors(self, k: int, tail: Window) -> np.ndarray:
        """Gamma_k for the d + 1 trailing symbols `tail`, one vector per row."""
        key = (k, tail)
        hit = self._sets.get(key)
        if hit is not None:
            return hit
        if k == 0:
            out = _base_coeff(self.spec, tail).reshape(1, -1)
        else:
            out = None
            for y, stop, gain in self._branch(tail):
                cont = self.vectors(k - 1, tail[1:] + (y,)) * gain
                opts = _prune(np.concatenate((stop, cont)))
                out = opts if out is None else self._cross_sum(out, opts)
        self._sets[key] = out
        return out

    def bound(self, k: int) -> float:
        """b_k with s* - s_k <= b_k * sum(u) at every window and u >= 0.

        The D_y sum to diag(p), so the growth s_k - s_{k-1} shrinks by
        p_max = max p per level, and b_k = M_k p_max / (1 - p_max).  M_k bounds
        the growth per unit of sum(u): at most p_max M_{k-1}, and at most the
        largest max_e (g - h)_e from a g in Gamma_k to its nearest h in
        Gamma_{k-1}, over the tails that can occur.
        """
        hit = self._bounds.get(k)
        if hit is None:
            spec = self.spec
            p_max = float(spec.p.max())
            growth = 0.0
            for tail in product(range(spec.alphabet_size), repeat=spec.d + 1):
                if all(self._live[a, b] for a, b in zip(tail, tail[1:])):
                    gap = self.vectors(k, tail)[:, None, :] - self.vectors(k - 1, tail)[None, :, :]
                    growth = max(growth, float(gap.max(axis=2).min(axis=1).max()))
            hit = min(growth * p_max / (1.0 - p_max), p_max * self.bound(k - 1))
            self._bounds[k] = hit
        return hit

    def _branch(self, tail: Window) -> list[tuple[int, np.ndarray, np.ndarray]]:
        # Per next symbol y that can follow the tail: y, c_y and the gain D_y.
        hit = self._branches.get(tail)
        if hit is not None:
            return hit
        spec = self.spec
        out = []
        for y in np.flatnonzero(self._live[tail[-1]]).tolist():
            f0 = spec.pre_kernels[:, tail[-1], y][:, None]
            stop = detection_coeff_matrix(spec, tail + (y,)) * f0
            out.append((y, stop.reshape(1, -1), (spec.p * f0).ravel()))
        self._branches[tail] = out
        return out

    def _cross_sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.formed += len(a) * len(b)
        if self.formed > self.budget:
            raise BudgetError(f"value iteration exceeded {self.budget} candidate vectors")
        if len(a) == 1 or len(b) == 1:
            # a translate of a pruned set is pruned
            return a + b
        return _prune((a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1]))


def _certify(table: ValueTable, cfg: ValueIterConfig, h: float, terms) -> ValueIterResult:
    # Raise K until sum max(h_y, s_K) <= sum max(h_y, s*) <= sum max(h_y, s_K + bound) decides h.
    for k in range(1, cfg.k_max + 1):
        lower = upper = 0.0
        for h_y, window, u in terms:
            s = table.value(k, window, u)
            lower += max(h_y, s)
            upper += max(h_y, s + table.bound(k) * float(u.sum()))
        if h < lower or h >= upper:
            return ValueIterResult(lower, upper - lower, k, True)
    return ValueIterResult(lower, upper - lower, cfg.k_max, False)


def value_iterate(
    table: ValueTable,
    window: Window,
    gamma: np.ndarray,
    delta: np.ndarray,
    cfg: ValueIterConfig,
    stop_value: float,
) -> ValueIterResult:
    """s_K at the first K <= k_max that decides `stop_value` against s*.

    The alpha-vector sets come from `table`, and with them the spec.
    """
    u = table.weight(gamma, delta)
    return _certify(table, cfg, stop_value, [(-math.inf, tuple(window), u)])


def stop_decision(table: ValueTable, state: PosteriorState, cfg: ValueIterConfig) -> StopDecision:
    """Membership test of the state in the stopping region of `table.spec`, ties stop."""
    spec = table.spec
    if state.n < spec.d + 2:
        raise ValueError("region test applies from time d + 2 on")
    h = state_payoff(spec, state)
    res = value_iterate(table, state.window, state.change_prob, state.pair_prob, cfg, h)
    return StopDecision(state.n, h >= res.value, h, res.value, res.bound, res.k_used, res.converged)


def boundary_decision(
    table: ValueTable,
    state: PosteriorState,
    cfg: ValueIterConfig,
    nxt: PosteriorState | None = None,
) -> StopDecision:
    """Stop-or-continue comparison at the earliest admissible time d + 1 of `table.spec`.

    Without `nxt`, compares the boundary payoff against the expected value of
    the better of stopping or continuing one step ahead, which is measurable
    at d + 1; one K serves every next symbol.  That expectation is one
    backup of the table: with u the state's weight, the next symbol y adds
    max(c_y . u, s_K(D_y o u)), since pred_y h_y = c_y . u, pred_y u_y = D_y o u
    and s_K is homogeneous in u.  With the realised next state `nxt`,
    compares it against the continuation value at `nxt` (the literal reading).
    """
    spec = table.spec
    if state.n != spec.d + 1:
        raise ValueError("boundary comparison applies exactly at time d + 1")
    h = state_payoff(spec, state)
    if nxt is not None:
        res = value_iterate(table, nxt.window, nxt.change_prob, nxt.pair_prob, cfg, h)
    else:
        tail = state.window[1:]
        u = table.weight(state.change_prob, state.pair_prob)
        terms = [(float(stop[0] @ u), tail + (y,), gain * u) for y, stop, gain in table._branch(tail)]
        res = _certify(table, cfg, h, terms)
    return StopDecision(state.n, h >= res.value, h, res.value, res.bound, res.k_used, res.converged)


class OptimalStoppingRule:
    """The optimal stopping rule, prefix-cached for simulation and exact evaluation.

    Decisions depend on the observed prefix only, so repeated evaluation over
    many trajectories reuses one decision per distinct prefix.  The rule
    keeps each StopDecision it makes and one ValueTable for its lifetime.
    """

    def __init__(self, spec: ModelSpec, cfg: ValueIterConfig, variant: str = "expected"):
        if variant not in ("expected", "literal"):
            raise ValueError("variant must be 'expected' or 'literal'")
        self.spec = spec
        self.cfg = cfg
        self.variant = variant
        self._table = ValueTable(spec)
        self._states: dict[Window, PosteriorState] = {}
        self._decisions: dict[tuple[int, Window], StopDecision] = {}

    def _state_at(self, prefix: Window) -> PosteriorState:
        hit = self._states.get(prefix)
        if hit is not None:
            return hit
        if len(prefix) == 1:
            state = state_init(self.spec)
        else:
            state = state_step(self.spec, self._state_at(prefix[:-1]), prefix[-1])
        self._states[prefix] = state
        return state

    def _decide(self, n: int, prefix: Window) -> StopDecision:
        """The decision at time n >= d + 1 on the observed prefix.

        The prefix ends at n, except for the literal boundary at d + 1,
        which reads one symbol more.  That prefix is also the one of the
        region decision at d + 2, so decisions are cached under (n, prefix).
        """
        key = (n, prefix)
        hit = self._decisions.get(key)
        if hit is None:
            spec, cfg, table = self.spec, self.cfg, self._table
            if n > spec.d + 1:
                hit = stop_decision(table, self._state_at(prefix), cfg)
            elif self.variant == "expected":
                hit = boundary_decision(table, self._state_at(prefix), cfg)
            else:
                hit = boundary_decision(
                    table, self._state_at(prefix[:-1]), cfg, nxt=self._state_at(prefix)
                )
            self._decisions[key] = hit
        return hit

    def decisions(self, observations: Window) -> Iterator[StopDecision]:
        """The decisions along a path, up to and including the first stop."""
        observations = tuple(observations)
        if not observations or observations[0] != self.spec.x0:
            raise ValueError(f"stream must start at x0={self.spec.x0}")
        d = self.spec.d
        for n in range(d + 1, len(observations)):
            # the literal boundary at d + 1 reads one symbol more
            end = n + 2 if n == d + 1 and self.variant == "literal" else n + 1
            if end > len(observations):
                return
            dec = self._decide(n, observations[:end])
            yield dec
            if dec.stop:
                return

    def stop_time(self, observations: Window) -> int | None:
        """First stop along the path, or None when the rule never fires."""
        for dec in self.decisions(observations):
            if dec.stop:
                return dec.n
        return None

    def __call__(self, observations: Window) -> int | None:
        return self.stop_time(observations)


@dataclass(frozen=True)
class RuleRun:
    """Trace of one rule application; stop_time is None when censored."""

    stop_time: int | None
    censored: bool
    trace: tuple[StopDecision, ...]
    final_state: PosteriorState


def rule_runner(
    spec: ModelSpec,
    observations: Window,
    cfg: ValueIterConfig,
    variant: str = "expected",
) -> RuleRun:
    """Apply a fresh OptimalStoppingRule to one observation stream.

    The trace holds the rule's decisions up to and including the stop.  The
    final state is the filter state at the stop, or at the end of the stream
    when the rule never fires (censored).
    """
    rule = OptimalStoppingRule(spec, cfg, variant)
    observations = tuple(observations)
    stop = rule.stop_time(observations)
    end = len(observations) if stop is None else stop + 1
    return RuleRun(
        stop, stop is None, tuple(rule.decisions(observations)), rule._state_at(observations[:end])
    )
