"""Value iteration and the optimal stopping rule.

The continuation values s_k read the filter state through its unchanged mass
U = P(theta > n, pair | data) alone, as u = p o U.  They are defined by one
backward-induction sweep per level: s_0 integrates the stop payoff one step
ahead, and for k >= 1

    s_k(w, U) = sum_y max{ c_y . u, s_{k-1}(w' + (y,), p o f0(x_last, y) o U) }

where w' drops the oldest symbol of w and c_y is the one-step-ahead stop
payoff coefficient grid times the pre-change transition density f0(x_last, y).
Every term is linear in u, so s_k is the maximum of finitely many linear
functions

    s_k(w, U) = max_{g in Gamma_k(w')} g . u

(the alpha-vector form of POMDP value functions).  Gamma_k(w') is the
cross-sum over y of {c_y} u {D_y o g : g in Gamma_{k-1}(w' + (y,))}, with
D_y = p o f0(x_last, y) and no continuation sets at k = 0.  ValueTable builds
these sets a level at a time, prunes dominated vectors and keeps them for
its lifetime, so one table serves every state of a spec.

s_k increases pointwise in k; its limit s* defines the stopping region
{ h >= s* }.  A decision raises K up to the cap k_max until h < s_K proves
continue or h >= s_K + bound (see ValueTable.bound) proves stop; at the cap
it compares h with s_{k_max}, flagged as not proved.  Either way it is the
s_{k_max} decision; stop_decision makes it from d + 1 on, with the stop
payoff due at the state's time, for one state or a batch of one time.
OptimalStoppingRule is the one rule: it never stops before d + 1, then stops
on first entry into the region, deciding the prefixes a posterior.PrefixTree
grows at one time in one batch.  At d + 1 the comparison has two readings.
"expected" is the region test, as s_k there is already the expected better
of stopping or continuing one step ahead: the next symbol y has
pred_y h_y = c_y . u and pred_y u_y = D_y o u.  "literal" waits for the
next symbol and compares against the continuation value at the realised
next state; on a stop it reports d + 1 retroactively.

From d + 2 on, the stop payoff c_w . u, with c_w = coeff_w / p, is linear in
the same u as every alpha-vector, so each window w of d + 2 symbols has a
cone as its stop set.  ValueTable.region(k) certifies a window as stopping
or continuing for every posterior by two entrywise tests against Gamma_k of
its tail, and leaves it open otherwise.  A rule that depends on the window
alone is a finitely transient policy (Sondik 1978): OptimalStoppingRule
decides a node of time d + 2 on by its window's certified class, one
lookup, and runs the K loop only for open windows, the boundary d + 1 and
rows whose unchanged mass is within _TINY of 0.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import product, takewhile

import numpy as np

from .errors import BudgetError, SupportError
from .likelihood import Window, _check_window
from .model import ModelSpec
from .payoff import detection_coeff_matrix, stop_payoff
from .posterior import _STOPPED, PosteriorState, PrefixTree
from .simulate import _with_batch_form

# Hard cap on candidate vectors formed in cross-sums per table, a guard
# against runaway configs.
CANDIDATE_BUDGET = 2_000_000

# Hard cap on the rows that _prune's pairwise scan compares per table: a
# scan's time grows with its candidates times its survivors, which the
# candidate budget does not bound.
COMPARE_BUDGET = 100_000_000

# Relative rounding bound of the two-term orientation test in _envelope:
# eight float64 machine epsilons.
_EPS8 = 8.0 * 2.0**-52

# Relative slack of the window tests in ValueTable.region: a window is
# certified only when its entrywise gap clears this share of the terms, far
# above the rounding of the payoff and of s_k + b_k sum(u) (a few ulp per
# term) that the decision compares.
_MARGIN = 1e-12

# The largest unchanged mass of a row at or below which OptimalStoppingRule
# does not read the row's window class: far above the subnormal range, so a
# class is read only where the decision's dot products keep their precision,
# and a row near u = 0, where a tie stops, takes the K loop.
_TINY = 1e-250


@dataclass(frozen=True)
class ValueIterConfig:
    """Cap on the value-iteration level K."""

    k_max: int = 10

    def __post_init__(self):
        if isinstance(self.k_max, bool) or not isinstance(self.k_max, (int, np.integer)):
            raise TypeError(f"k_max must be an integer, got {self.k_max!r}")
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


def _prune(vecs: np.ndarray, charge: Callable[[int], None]) -> np.ndarray:
    """Remove vectors that cannot raise max(vecs @ u) for any u >= 0.

    A vector goes only when it is proven dominated: pointwise by another one
    (of equal copies the first stays; survivors keep their order) or, in two
    dimensions, by the segment between its neighbours on the upper envelope.
    Whatever survives, the maximum of the dot products is unchanged.  Outside
    two dimensions a pairwise scan compares the candidates left with each
    survivor in turn, and `charge` is told each step's row count first.
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
        charge(len(order) - 1)
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


class ValueTable:
    """Alpha-vector sets Gamma_k of the continuation values for one spec.

    s_k at a state is max(Gamma_k(w') @ u) with u = p o unchanged and w' the
    last d + 1 symbols of the window.  Level k, Gamma_k of every live w' and
    b_k, is built from level k - 1 when first read and kept for the table's
    lifetime.  CANDIDATE_BUDGET caps the candidate vectors formed in
    cross-sums and COMPARE_BUDGET the rows the prune scan compares over that
    lifetime; the level being built when either is passed fails, and every
    read of it or a deeper level raises BudgetError at once.  The table is
    the handle that value_iterate and stop_decision take: they read the spec
    from it and share its levels.  Confine one table per worker, it is not
    synchronised.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.formed = 0
        self.compared = 0
        # transitions a -> b that can occur; validated kernels share zeros
        self._live = spec.pre_kernels.any(axis=0)
        # (Gamma_k by base-A tail rank, b_k) for k = 0, 1, ...
        self._levels: list[tuple[dict[int, np.ndarray], float]] = []

    def weight(self, unchanged: np.ndarray) -> np.ndarray:
        """The flattened u = p o unchanged that the sets act on, per (l0, l1) grid."""
        u = self.spec.p * unchanged
        return u.reshape(u.shape[:-2] + (-1,))

    def value(self, k: int, window: Window, u: np.ndarray):
        """s_k at window `window` and weight `u` (see `weight`), k >= 0.

        Batches of windows (N, d + 2) and weights give s_k per row, each the one-row float bit for bit.
        """
        if np.shape(window)[-1] != self.spec.d + 2:
            raise ValueError(f"window must have length {self.spec.d + 2}")
        if np.ndim(u) == 1:
            return float(self.value(k, np.atleast_2d(window), np.atleast_2d(u))[0])
        # rows sorted stably by their tail's base-A rank: one contiguous slice per tail, in the tails' order
        tails = _check_window(self.spec, window)[:, 1:]
        ranks = tails @ self.spec.alphabet_size ** np.arange(self.spec.d, -1, -1)
        order = np.argsort(ranks, kind="stable")
        tails, ranks, u = tails[order], ranks[order], u[order, :, None]
        dead = np.argwhere(~self._live[tails[:, :-1], tails[:, 1:]])
        if len(dead):  # the lowest-ranked tail that cannot occur, at its first impossible transition
            row, at = dead[0]
            raise SupportError(f"transition {tails[row, at]}->{tails[row, at + 1]} outside common support")
        sets = self._level(k)[0]
        cuts = [0, *(np.flatnonzero(np.diff(ranks)) + 1).tolist(), len(order)]
        s_k = np.empty(len(order))
        for lo, hi in zip(cuts, cuts[1:]):
            s_k[order[lo:hi]] = np.max(sets[int(ranks[lo])] @ u[lo:hi], axis=(1, 2))
        return s_k

    def bound(self, k: int) -> float:
        """b_k with s* - s_k <= b_k * sum(u) at every window and u >= 0; b_0 is infinite.

        The D_y sum to diag(p), so the growth s_k - s_{k-1} shrinks by
        p_max = max p per level, and b_k = M_k p_max / (1 - p_max).  M_k bounds
        the growth per unit of sum(u): at most p_max M_{k-1}, and at most the
        largest max_e (g - h)_e from a g in Gamma_k to its nearest h in
        Gamma_{k-1}, over the tails that can occur.
        """
        return self._level(k)[1]

    @cached_property
    def windows(self) -> np.ndarray:
        """The live windows of d + 2 symbols, each transition possible, one per row in base-A rank order."""
        spec = self.spec
        every = np.array(list(product(range(spec.alphabet_size), repeat=spec.d + 2)))
        return every[self._live[every[:, :-1], every[:, 1:]].all(axis=1)]

    @cached_property
    def coeff(self) -> np.ndarray:
        """The stop payoff's per-pair coefficients coeff_w of the live windows (see `windows`), (W, l0, l1)."""
        return detection_coeff_matrix(self.spec, self.windows)

    def region(self, k: int) -> np.ndarray:
        """The class at level k >= 1 of each live window (see `windows`): 1 stop, 0 continue, -1 open.

        From d + 2 on the stop payoff is c_w . u, with c_w = coeff_w / p, and
        s* lies in [s_k, s_k + b_k sum(u)], so two entrywise tests against
        Gamma_k of the window's tail decide every posterior with u != 0 at
        once.  Stop: c_w - g - b_k clears the margin in every entry for every
        g.  Continue: c_w - g falls below minus the margin in every entry for
        some g.  The margin is _MARGIN of the entries' terms.  Where the
        masses leave u = 0, the tie stops, so no window continues.  Like
        every K-loop decision that reaches level k, it reads the level whole.
        """
        spec, windows = self.spec, self.windows
        # every window's Gamma_k stacked, each row against its window's c_w
        b, sets = self.bound(k), self._level(k)[0]
        sets = [sets[tail] for tail in self._branch_table[1]]
        sizes = [len(g) for g in sets]
        starts, g = np.cumsum([0] + sizes[:-1]), np.concatenate(sets)
        c = np.repeat((self.coeff / spec.p).reshape(len(windows), -1), sizes, axis=0)
        stop = np.logical_and.reduceat((c - g - b >= _MARGIN * (c + g + b)).all(axis=1), starts)
        cont = np.logical_or.reduceat((c - g < -_MARGIN * (c + g)).all(axis=1), starts)
        cont &= bool((spec.b * (1.0 - spec.pi) > 0.0).any())  # some pair keeps U > 0 past time 1
        return np.where(stop, 1, np.where(cont, 0, -1)).astype(np.int8)

    @cached_property
    def _branch_table(self) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
        # per live window tail + (y,), in `windows` order: the base-A ranks of its first and
        # last d + 1 symbols, c_y = coeff_w o f0(x_last, y) and D_y = p o f0(x_last, y), flat
        spec, windows = self.spec, self.windows
        rank = spec.alphabet_size ** np.arange(spec.d, -1, -1)
        f0 = spec.pre_kernels[:, windows[:, -2], windows[:, -1]].T[:, :, None]
        stop, gain = (self.coeff * f0).reshape(len(windows), -1), (spec.p * f0).reshape(len(windows), -1)
        return (windows[:, :-1] @ rank).tolist(), (windows[:, 1:] @ rank).tolist(), stop, gain

    def _level(self, k: int) -> tuple[dict[int, np.ndarray], float]:
        # Gamma_k by tail rank and b_k, the levels to k built in order: per live tail, the cross-sum
        # over its next symbols y of {c_y} and D_y o Gamma_{k-1}(next tail) pruned; then b_k
        if k < 0:
            raise ValueError("k must be non-negative")
        head, nxt, stop, gain = self._branch_table
        while len(self._levels) <= k:
            self._check_budgets()  # past a budget the level being built failed, and no level follows
            below, bound = self._levels[-1] if self._levels else (None, math.inf)
            sets: dict[int, np.ndarray] = {}
            for w, (tail, succ) in enumerate(zip(head, nxt)):
                opts = stop[w : w + 1]
                if below:
                    opts = _prune(np.concatenate((opts, below[succ] * gain[w])), self._charge)
                sets[tail] = self._cross_sum(sets[tail], opts) if tail in sets else opts
            if below:
                p_max = float(self.spec.p.max())
                growth = 0.0
                for g, h in zip(sets.values(), below.values()):
                    growth = max(growth, float((g[:, None, :] - h[None, :, :]).max(axis=2).min(axis=1).max()))
                bound = min(growth * p_max / (1.0 - p_max), p_max * bound)
            self._levels.append((sets, bound))
        return self._levels[k]

    def _cross_sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.formed += len(a) * len(b)
        self._check_budgets()
        if len(a) == 1 or len(b) == 1:
            # a translate of a pruned set is pruned
            return a + b
        return _prune((a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1]), self._charge)

    def _charge(self, rows: int) -> None:
        self.compared += rows
        self._check_budgets()

    def _check_budgets(self) -> None:
        if self.formed > CANDIDATE_BUDGET:
            raise BudgetError(f"value iteration exceeded {CANDIDATE_BUDGET} candidate vectors")
        if self.compared > COMPARE_BUDGET:
            raise BudgetError(f"value iteration exceeded {COMPARE_BUDGET} compared rows")


def _iterate(table: ValueTable, window: np.ndarray, u: np.ndarray, cfg: ValueIterConfig, stop_value: np.ndarray):
    # value_iterate over (N, d + 2) windows, (N, L) weights and (N,) stop
    # values, its fields per row; K rises only on the rows not yet proved
    value, bound = np.empty((2, len(stop_value)))
    k_used, converged = np.full(len(stop_value), cfg.k_max), np.zeros(len(stop_value), dtype=bool)
    rows = np.arange(len(stop_value))
    for k in range(1, cfg.k_max + 1):
        s = table.value(k, window[rows], u[rows])
        upper = s + table.bound(k) * u[rows].sum(axis=-1)
        value[rows], bound[rows] = s, upper - s
        done = (stop_value[rows] < s) | (stop_value[rows] >= upper)
        k_used[rows[done]], converged[rows[done]] = k, True
        rows = rows[~done]
        if not len(rows):
            break
    return ValueIterResult(value, bound, k_used, converged)


def _row(record):
    # a one-row batch record as the one-row record, its fields Python scalars
    return type(record)(*(np.ravel(field)[0].item() for field in astuple(record)))


def value_iterate(
    table: ValueTable,
    window: Window,
    unchanged: np.ndarray,
    cfg: ValueIterConfig,
    stop_value: float,
) -> ValueIterResult:
    """s_K at the first K <= k_max that decides `stop_value` against s*.

    The alpha-vector sets come from `table`, and with them the spec; stop_decision's K loop on one row.
    """
    return _row(_iterate(table, np.atleast_2d(window), table.weight(unchanged)[None], cfg, np.array([stop_value])))


def stop_decision(
    table: ValueTable,
    state: PosteriorState,
    cfg: ValueIterConfig,
    nxt: PosteriorState | None = None,
) -> StopDecision:
    """Membership test of the state in the stopping region of `table.spec`, ties stop.

    Compares the stop payoff due at the state's time n >= d + 1 with the
    continuation value at the state.  With the realised next state `nxt`
    of a time-(d + 1) state, its one-step successor, compares it with the
    continuation value at `nxt` instead: the literal boundary reading.  A
    state with an (N, d + 2) window array is a batch of time n, `nxt` its
    rows' successors, and the fields are per row; a tuple window is one row.
    """
    spec = table.spec
    if state.n < spec.d + 1:
        raise ValueError("stop decisions apply from time d + 1 on")
    if nxt is not None and state.n != spec.d + 1:
        raise ValueError("the literal reading applies at time d + 1 only")
    at = state if nxt is None else nxt
    window, at_window = np.atleast_2d(state.window), np.atleast_2d(at.window)
    if nxt is not None and (nxt.n != state.n + 1 or not np.array_equal(at_window[:, :-1], window[:, 1:])):
        raise ValueError("nxt must be the one-step successor of state")
    h = np.atleast_1d(stop_payoff(spec, state.n, state.window, state.unchanged, state.changed))
    res = _iterate(table, at_window, np.atleast_2d(table.weight(at.unchanged)), cfg, h)
    dec = StopDecision(state.n, h >= res.value, h, res.value, res.bound, res.k_used, res.converged)
    return _row(dec) if np.ndim(state.window) == 1 else dec


@dataclass(frozen=True)
class WindowTable:
    """The classes of the live windows (ValueTable.windows) certified through level k: 1 stop, 0 continue, -1 open."""

    k: int
    windows: np.ndarray
    classes: np.ndarray

    def __str__(self) -> str:
        def show(rows):
            return " ".join(f"({','.join(map(str, w))})" for w in rows.tolist()) or "none"

        open_ = self.classes < 0
        if open_.any():
            return f"{open_.sum()} of {len(open_)} windows open at K={self.k}: {show(self.windows[open_])}"
        return f"windows certified at K={self.k}, stop after {show(self.windows[self.classes == 1])}"


class OptimalStoppingRule:
    """The optimal stopping rule on a prefix tree, for simulation and exact evaluation.

    Decisions depend on the observed prefix only, so the rule keeps a
    posterior.PrefixTree: each prefix is filtered and decided once, when a
    path first reaches it, all that one walk step grows in one batch, and
    `decisions` recomputes a path's by the K loop.  The rule keeps one
    ValueTable for its lifetime.

    It also certifies the live windows lazily, one level at a time at the
    start of a batch and when `windows` or `explain` is read, up to one
    level past the deepest its decisions have reached (those are formed
    already) and at most k_max; a level past the budget fails in the table,
    which records it, and certification stops below it.  From d + 2 on a
    node whose window has a certified class is decided by it: stop on 1,
    continue on 0.  The rest of the batch, and every row whose largest
    unchanged mass is at most _TINY, goes to one stop_decision call.  The
    tree is the only path to a stop time, so every error is the tree's.
    The per-path call `stop_time`, as the simulate rules build it, is the
    batch form `stop_times` on one row and carries it, and both are
    instance attributes, so a functools.wraps copy of the rule keeps them
    too.
    """

    def __init__(self, spec: ModelSpec, cfg: ValueIterConfig, variant: str = "expected"):
        if variant not in ("expected", "literal"):
            raise ValueError("variant must be 'expected' or 'literal'")
        self.spec = spec
        self.cfg = cfg
        self.variant = variant
        self._table = ValueTable(spec)
        # the first time decided: the literal boundary at d + 1 reads one symbol more
        self._start = spec.d + 1 + (variant == "literal")
        self._tree = PrefixTree(spec, lambda n, new: self._decide(n, np.arange(new.start, new.stop))[0], self._start)
        # the certified window classes by base-A window rank (all open at level 0), their
        # level and the deepest K a decision has used
        self._rank = spec.alphabet_size ** np.arange(spec.d + 1, -1, -1)
        self._by_rank = np.full(spec.alphabet_size ** (spec.d + 2), -1, dtype=np.int8)
        self._k, self._reach = 0, 0
        self.stop_times = self._stop_times
        self.stop_time = _with_batch_form(self.stop_times)

    @property
    def windows(self) -> WindowTable | None:
        """The certified window table, None while a live window is open."""
        region = self._region()
        return region if (region.classes >= 0).all() else None

    def explain(self) -> str:
        """One line on the window table: the stop windows once certified, else the open ones."""
        return str(self._region())

    def _region(self) -> WindowTable:
        self._certify()
        windows = self._table.windows
        return WindowTable(self._k, windows, self._by_rank[windows @ self._rank])

    def _certify(self) -> None:
        while self._k < min(self._reach + 1, self.cfg.k_max):
            live = self._table.windows @ self._rank
            if (self._by_rank[live] >= 0).all():
                return
            try:
                region = self._table.region(self._k + 1)
            except BudgetError:  # the table keeps the failure; the tree raises it if a decision needs the level
                return
            self._k += 1
            self._by_rank[live] = np.where(self._by_rank[live] < 0, region, self._by_rank[live])

    def _stop_times(self, observations) -> np.ndarray:
        self._certify()
        return self._tree.stop_times(observations)

    def _decide(self, n: int, nodes: np.ndarray, lookups: bool = True) -> tuple[np.ndarray, list[StopDecision]]:
        # Stop times of tree nodes of time n and their batch decisions, windows read
        # up the parent links: the literal reading decides the boundary d + 1 at the
        # nodes of time d + 2, then the region on the rows the boundary does not stop,
        # by their window classes where `lookups` and the K loop for the rest.
        tree, climb, stops, made = self._tree, [nodes], np.full(len(nodes), -1), []
        for _ in range(self.spec.d + 2):
            climb.insert(0, tree.up[climb[0]])
        last = tree.last[np.array(climb).T]
        state = PosteriorState(n, last[:, 1:], tree.unchanged[nodes], tree.changed[nodes])
        rows = np.arange(len(nodes) if n >= self._start else 0)
        if self.variant == "literal" and n == self._start:
            prev = PosteriorState(n - 1, last[:, :-1], tree.unchanged[climb[-2]], tree.changed[climb[-2]])
            made.append(stop_decision(self._table, prev, self.cfg, state))
            stops[made[0].stop], rows = n - 1, rows[~made[0].stop]
        if lookups and n >= self.spec.d + 2 and len(rows):
            classes = self._by_rank[state.window[rows] @ self._rank]
            classes[state.unchanged[rows].max(axis=(1, 2)) <= _TINY] = -1
            stops[rows[classes == 1]], rows = n, rows[classes < 0]
        if len(rows):
            region = PosteriorState(n, state.window[rows], state.unchanged[rows], state.changed[rows])
            made.append(stop_decision(self._table, region, self.cfg))
            stops[rows[made[-1].stop]] = n
        self._reach = max([self._reach, *(int(np.max(dec.k_used)) for dec in made)])
        return stops, made

    def decisions(self, observations: Window) -> Iterator[StopDecision]:
        """The decisions along a path, up to and including the first stop, recomputed node by node."""
        visits = self._tree.walk(np.array([tuple(observations)], dtype=np.int64))[0].tolist()
        for n, node in enumerate(takewhile(lambda node: node != _STOPPED, visits)):
            yield from map(_row, self._decide(n, np.array([node]), lookups=False)[1])

    def __call__(self, observations: Window) -> int | None:
        return self.stop_time(observations)
