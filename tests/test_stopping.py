import functools
import itertools
import math
import re
import time
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disorder import (
    BudgetError,
    SupportError,
    OptimalStoppingRule,
    PosteriorState,
    StopDecision,
    ValueIterConfig,
    load_spec,
    predictive,
    state_init,
    state_step,
    stop_decision,
    stop_payoff,
    value_iterate,
)
from disorder.likelihood import likelihood_ratio_chain
from disorder.payoff import detection_coeff_matrix
from disorder.posterior import _STOPPED, filter_levels
from disorder.simulate import TrajectorySampler, _stop_times, mix_seeds
from disorder import stopping
from disorder.stopping import ValueTable, _prune

from conftest import make_m1, make_m2, make_m3, make_m4, masses, random_spec, state_from, with_shared_zero

CONFIGS_DIR = Path(__file__).parents[1] / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))


def filter_through(spec, path):
    state = state_init(spec)
    for sym in path[1:]:
        state = state_step(spec, state, sym)
    return state


def random_state_inputs(spec, rng):
    window = tuple(rng.integers(0, spec.alphabet_size, size=spec.d + 2).tolist())
    gamma = rng.uniform(0, 1, (spec.l0, spec.l1))
    delta = rng.uniform(0, 1, (spec.l0, spec.l1))
    return window, masses(gamma, delta)[0]


def reference_continuation(spec, k, window, unchanged):
    """s_k by the plain scalar recursion of its definition, without a memo."""
    weight = spec.p * unchanged
    tail = tuple(window[1:])
    if k == 0:
        q = 1.0 - spec.p
        chain = likelihood_ratio_chain(spec, tail, spec.d)
        coeff = 1.0 - spec.p**spec.d + q * (1.0 + chain) / spec.p
        return float(np.sum(coeff * weight))
    total = 0.0
    for y in range(spec.alphabet_size):
        nxt = tail + (y,)
        f0 = spec.pre_kernels[:, window[-1], y][:, None]
        stop = float(np.sum(detection_coeff_matrix(spec, nxt) * f0 * weight))
        cont = reference_continuation(spec, k - 1, nxt, spec.p * f0 * unchanged)
        total += max(stop, cont)
    return total


def reference_value(spec, state, cfg):
    """s_{k_max} by the reference recursion: every decision, proved or not,
    is the comparison with s_{k_max}."""
    return reference_continuation(spec, cfg.k_max, state.window, state.unchanged)


def reference_stops(spec, cfg, horizon, variant="expected"):
    """Decisions (n, stop) of the reference rule over the full path tree.

    Keyed by the prefix at which a path's decisions end: the prefix its stop
    decision reads, or the whole path when the rule never fires.  The
    literal boundary decision at d + 1 reads the symbol at d + 2.
    """
    traces = {}

    def region_stops(state):
        h = stop_payoff(spec, spec.d + 2, state.window, state.unchanged, state.changed)
        return h >= reference_value(spec, state, cfg)

    def expected_boundary_stops(state):
        h = stop_payoff(spec, spec.d + 1, state.window, state.unchanged, state.changed)
        return h >= reference_value(spec, state, cfg)

    def literal_boundary_stops(state, nxt):
        h = stop_payoff(spec, spec.d + 1, state.window, state.unchanged, state.changed)
        return h >= reference_value(spec, nxt, cfg)

    def walk(prev, state, prefix, trace):
        n = state.n
        if n == spec.d + 1 and variant == "expected":
            trace += ((n, expected_boundary_stops(state)),)
        if n == spec.d + 2 and variant == "literal":
            trace += ((n - 1, literal_boundary_stops(prev, state)),)
        if n > spec.d + 1 and not (trace and trace[-1][1]):
            trace += ((n, region_stops(state)),)
        if (trace and trace[-1][1]) or n == horizon:
            traces[prefix] = trace
            return
        for y in range(spec.alphabet_size):
            walk(state, state_step(spec, state, y), prefix + (y,), trace)

    walk(None, state_init(spec), (spec.x0,), ())
    return traces


def filtered_backup(table, state, k):
    """sum_y pred_y max(h_y, s_k) over the filtered next states, s_{-1} = -inf."""
    spec = table.spec
    pred = predictive(spec, state)
    terms = []
    for y in range(spec.alphabet_size):
        if pred[y] != 0.0:
            after = state_step(spec, state, y)
            h_y = stop_payoff(spec, spec.d + 2, after.window, after.unchanged, after.changed)
            u = table.weight(after.unchanged)
            s_k = table.value(k, after.window, u) if k >= 0 else -math.inf
            terms.append(float(pred[y]) * max(h_y, s_k))
    return math.fsum(terms)


def reference_trace(traces, path):
    """The reference decisions along a full path."""
    return next(traces[path[:m]] for m in range(1, len(path) + 1) if path[:m] in traces)


def stop_of(trace):
    return trace[-1][0] if trace and trace[-1][1] else None


REFERENCE_SPECS = {
    "m2": make_m2(0),
    "m3": make_m3(0),
    "m4": make_m4(0),
    "m3_d1": make_m3(1),
    "m4_d1": make_m4(1),
}


class TestValueTable:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(REFERENCE_SPECS)), k=st.integers(0, 6), data=st.data())
    def test_matches_reference_recursion(self, name, k, data):
        spec = REFERENCE_SPECS[name]
        symbols = st.integers(0, spec.alphabet_size - 1)
        window = tuple(data.draw(st.lists(symbols, min_size=spec.d + 2, max_size=spec.d + 2)))
        grid = st.lists(st.floats(0.0, 1.0), min_size=spec.l0 * spec.l1, max_size=spec.l0 * spec.l1)
        gamma = np.reshape(data.draw(grid), (spec.l0, spec.l1))
        delta = np.reshape(data.draw(grid), (spec.l0, spec.l1))
        unchanged = masses(gamma, delta)[0]
        table = ValueTable(spec)
        got = table.value(k, window, table.weight(unchanged))
        assert abs(got - reference_continuation(spec, k, window, unchanged)) <= 1e-12

    @pytest.mark.parametrize(
        "spec, k_max, horizon", [(make_m4(0), 4, 5), (make_m3(1), 5, 9)], ids=["m4", "m3_d1"]
    )
    def test_rule_stops_like_reference(self, spec, k_max, horizon):
        cfg = ValueIterConfig(k_max=k_max)
        traces = reference_stops(spec, cfg, horizon)
        rule = OptimalStoppingRule(spec, cfg)
        for tail in itertools.product(range(spec.alphabet_size), repeat=horizon):
            path = (spec.x0,) + tail
            assert rule.stop_time(path) == stop_of(reference_trace(traces, path))

    def test_decisions_keep_iteration_flags(self):
        spec = make_m3(1)
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=5))
        decisions = [dec for tail in itertools.product(range(2), repeat=6) for dec in rule.decisions((0,) + tail)]
        assert decisions and all(isinstance(dec, StopDecision) for dec in decisions)
        assert {dec.k_used for dec in decisions} <= set(range(6))
        assert any(dec.converged for dec in decisions)
        assert any(not dec.converged for dec in decisions)

    def test_shared_table_gives_same_values(self, m4):
        rng = np.random.default_rng(3)
        table = ValueTable(m4)
        for _ in range(10):
            window, unchanged = random_state_inputs(m4, rng)
            for k in range(4):
                fresh = ValueTable(m4)
                assert table.value(k, window, table.weight(unchanged)) == fresh.value(
                    k, window, fresh.weight(unchanged)
                )

    def test_batch_rejects_symbol_outside_alphabet(self):
        # rows are grouped by their tail's base-A rank, which would read the
        # tail (0, 3) as (1, 0) on an alphabet of 3
        spec = make_m4(1)
        table = ValueTable(spec)
        grids = masses(np.zeros((2, spec.l0, spec.l1)), np.broadcast_to(spec.b, (2, spec.l0, spec.l1)))
        u = table.weight(grids[0])
        with pytest.raises(ValueError, match="^symbol 3 outside alphabet$"):
            table.value(1, np.array([[0, 1, 0], [0, 0, 3]]), u)
        # the one-row call is the batch form on one row: it reads window[0] too
        with pytest.raises(ValueError, match="^symbol 7 outside alphabet$"):
            table.value(1, (7, 0, 1), u[0])


def _brute_force_survivors(vecs):
    # Row j goes when some row i >= j pointwise beats it: i > j somewhere, or
    # i an equal copy that comes first.  Blocks of columns keep memory small.
    keep = []
    for j0 in range(0, len(vecs), 250):
        block = vecs[j0 : j0 + 250]
        ge = (vecs[:, None, :] >= block[None, :, :]).all(axis=2)
        gt = (vecs[:, None, :] > block[None, :, :]).any(axis=2)
        earlier = np.arange(len(vecs))[:, None] < np.arange(j0, j0 + len(block))[None, :]
        keep += (j0 + np.flatnonzero(~(ge & (gt | earlier)).any(axis=0))).tolist()
    return keep


class TestPrune:
    def test_equals_brute_force_in_small_memory(self):
        rng = np.random.default_rng(11)
        vecs = rng.uniform(0, 1, (4500, 4))
        # exact copies, so which copy survives, and where, is checked too
        vecs = np.concatenate([vecs, vecs[rng.integers(0, 4500, 500)]])[rng.permutation(5000)]
        tracemalloc.start()
        try:
            got = _prune(vecs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, vecs[_brute_force_survivors(vecs)])
        assert peak < 8 * 2**20


class TestBaseLevel:
    def test_single_pair_closed_form(self, m1):
        # one-step-ahead value with a trivial trailing window
        table = ValueTable(m1)
        got = table.value(0, (0, 1), table.weight(masses(np.array([[0.0]]), np.array([[1.0]]))[0]))
        assert got == pytest.approx(0.2, abs=1e-14)

    def test_certain_change_is_worthless(self, m3):
        window = (0, 1)
        table = ValueTable(m3)
        got = table.value(0, window, table.weight(masses(np.ones((2, 2)), np.full((2, 2), 0.25))[0]))
        assert got == 0.0

    @pytest.mark.parametrize("make", [make_m2, make_m3, make_m4])
    @pytest.mark.parametrize("d", [0, 1])
    def test_base_level_is_expected_payoff(self, make, d):
        # independent route: integrate the stop payoff at the next filter
        # state against the predictive, then compare with the closed form
        spec = make(d)
        paths = TrajectorySampler(spec, d + 3).sample_batch(mix_seeds(101, np.arange(20))).observations
        table = ValueTable(spec)
        for path in paths.tolist():
            state = filter_through(spec, path)
            pred = predictive(spec, state)
            expected = 0.0
            for y in range(spec.alphabet_size):
                if pred[y] == 0.0:
                    continue
                nxt = state_step(spec, state, y)
                expected += float(pred[y]) * stop_payoff(
                    spec, spec.d + 2, nxt.window, nxt.unchanged, nxt.changed
                )
            got = table.value(0, state.window, table.weight(state.unchanged))
            assert got == pytest.approx(expected, abs=1e-12)


class TestRecursion:
    @pytest.mark.parametrize("make", [make_m2, make_m3, make_m4])
    def test_monotone_in_k(self, make):
        spec = make(d=1)
        rng = np.random.default_rng(19)
        table = ValueTable(spec)
        for _ in range(25):
            window, unchanged = random_state_inputs(spec, rng)
            u = table.weight(unchanged)
            prev = table.value(0, window, u)
            for k in range(1, 5):
                cur = table.value(k, window, u)
                assert cur >= prev - 1e-12
                prev = cur

    def test_homogeneous_in_delta(self, m3):
        rng = np.random.default_rng(12)
        window, unchanged = random_state_inputs(m3, rng)
        table = ValueTable(m3)
        for k in (0, 1, 3):
            base = table.value(k, window, table.weight(unchanged))
            scaled = table.value(k, window, table.weight(0.37 * unchanged))
            assert scaled == pytest.approx(0.37 * base, rel=1e-12)

    @pytest.mark.parametrize("make", [make_m2, make_m3])
    @pytest.mark.parametrize("d", [0, 1])
    def test_normalization_property(self, make, d):
        spec = make(d)
        paths = TrajectorySampler(spec, d + 4).sample_batch(mix_seeds(77, np.arange(30))).observations
        table = ValueTable(spec)
        for path in paths.tolist():
            state = state_init(spec)
            for n in range(1, d + 5):
                prev = state
                state = state_step(spec, state, path[n])
                if state.n <= spec.d + 1:
                    continue
                x_prev, x_next = path[n - 1], path[n]
                norm = float(predictive(spec, prev)[x_next])
                composed = spec.p * spec.pre_kernels[:, x_prev, x_next][:, None] * prev.unchanged
                for k in (0, 1, 2):
                    lhs = norm * table.value(k, state.window, table.weight(state.unchanged))
                    rhs = table.value(k, state.window, table.weight(composed))
                    assert abs(lhs - rhs) <= 1e-9

    def test_bounded_by_worst_case_ratios(self, m3):
        # coefficient bound with the largest single-step likelihood ratio
        ratios = m3.post_kernels[None, :, :, :] / m3.pre_kernels[:, None, :, :]
        r_max = float(np.max(ratios))
        q = 1.0 - m3.p
        c_max = 1.0 - m3.p**m3.d + q * sum(
            r_max**m / m3.p**m for m in range(1, m3.d + 2)
        )
        rng = np.random.default_rng(31)
        table = ValueTable(m3)
        for _ in range(20):
            window, unchanged = random_state_inputs(m3, rng)
            bound = float(np.sum(c_max * unchanged))
            for k in (0, 1, 2, 4):
                val = table.value(k, window, table.weight(unchanged))
                assert val <= bound + 1e-12

    def test_budget_guard(self, m3, monkeypatch):
        monkeypatch.setattr(stopping, "CANDIDATE_BUDGET", 10)
        table = ValueTable(m3)
        with pytest.raises(BudgetError):
            table.value(12, (0, 1), table.weight(masses(np.zeros((2, 2)), np.full((2, 2), 0.25))[0]))

    def test_negative_k_rejected(self, m1):
        table = ValueTable(m1)
        with pytest.raises(ValueError):
            table.value(-1, (0, 1), table.weight(masses(np.zeros((1, 1)), np.ones((1, 1)))[0]))


class TestValueIterate:
    def test_proved_at_first_level(self, m2):
        state = filter_through(m2, (0, 1, 0))
        h = stop_payoff(m2, m2.d + 2, state.window, state.unchanged, state.changed)
        res = value_iterate(ValueTable(m2), state.window, state.unchanged, ValueIterConfig(k_max=10), h)
        assert res.converged
        assert res.k_used == 1
        table = ValueTable(m2)
        u = table.weight(state.unchanged)
        assert res.value == table.value(1, state.window, u)
        assert res.bound == pytest.approx(table.bound(1) * u.sum(), rel=1e-12)
        assert h < res.value  # proved continue

    def test_unconverged_flagged(self):
        # s_1 says stop here, but neither h < s_1 nor h >= s_1 + bound holds;
        # from K = 3 on the state is proved a continue
        spec = make_m3(1)
        state = filter_through(spec, (0, 1, 1, 0))
        h = stop_payoff(spec, spec.d + 2, state.window, state.unchanged, state.changed)
        res = value_iterate(ValueTable(spec), state.window, state.unchanged, ValueIterConfig(k_max=1), h)
        assert not res.converged
        assert res.k_used == 1
        assert res.value <= h < res.value + res.bound
        dec = stop_decision(ValueTable(spec), state, ValueIterConfig(k_max=1))
        assert dec.stop and not dec.converged
        deep = stop_decision(ValueTable(spec), state, ValueIterConfig(k_max=10))
        assert not deep.stop and deep.converged and deep.k_used == 3


    def test_config_rejects_non_integer_k_max(self):
        for bad in (1.5, True, "3"):
            with pytest.raises(TypeError, match="k_max must be an integer"):
                ValueIterConfig(k_max=bad)
        with pytest.raises(ValueError):
            ValueIterConfig(k_max=0)
        assert ValueIterConfig(k_max=np.int64(3)).k_max == 3


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alphabet=st.integers(2, 3),
        l0=st.integers(1, 2),
        l1=st.integers(1, 2),
        d=st.integers(0, 1),
    )
    def test_tail_bound_covers_deep_values(self, seed, alphabet, l0, l1, d):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, alphabet, l0, l1, d)
        window = tuple(rng.integers(0, alphabet, size=d + 2).tolist())
        # a small budget keeps each table small; instances whose sets
        # outgrow it before level 24 are skipped
        table = ValueTable(spec)
        u = table.weight(masses(rng.uniform(0, 1, (l0, l1)), rng.uniform(0, 1, (l0, l1)))[0])
        with patch.object(stopping, "CANDIDATE_BUDGET", 2000):
            try:
                deep = [table.value(k + 20, window, u) for k in range(1, 5)]
            except BudgetError:
                assume(False)
            for k in range(1, 5):
                assert table.value(k, window, u) + table.bound(k) * u.sum() >= deep[k - 1] - 1e-12

    @pytest.mark.parametrize("make, d", [(make_m2, 0), (make_m3, 0), (make_m3, 1)])
    def test_proved_decisions_equal_deep_decisions(self, make, d):
        # every reachable state to horizon 6 from d + 1 on, the boundary
        # included, against s_40
        spec = make(d)
        cfg = ValueIterConfig(k_max=12)
        table = ValueTable(spec)

        def deep(state):
            return table.value(40, state.window, table.weight(state.unchanged))

        frontier, proved = [state_init(spec)], 0
        for _ in range(6):
            frontier = [
                state_step(spec, state, y)
                for state in frontier
                for y in range(spec.alphabet_size)
                if predictive(spec, state)[y] > 0.0
            ]
            for state in frontier:
                if state.n < spec.d + 1:
                    continue
                dec = stop_decision(table, state, cfg)
                target = deep(state)
                if dec.converged:
                    proved += 1
                    assert dec.stop == (dec.stop_value >= target)
                    assert dec.continue_value <= target + 1e-12
                    assert target <= dec.continue_value + dec.bound + 1e-12
        assert proved > 100


class TestStopDecision:
    def test_certain_change_stops_on_tie(self, m3):
        spec = make_m3()
        state = filter_through(spec, (0, 1, 1))
        forced = state_from(state.n, state.window, np.ones((2, 2)), state.pair_prob)
        dec = stop_decision(ValueTable(spec), forced, ValueIterConfig(k_max=4))
        assert dec.stop_value == 0.0
        assert dec.continue_value == 0.0
        assert dec.stop  # tie resolves to stopping

    def test_identical_kernels_symbol_independent(self):
        spec = make_m1()
        same = type(spec)(
            alphabet_size=2,
            pre_kernels=spec.pre_kernels,
            post_kernels=spec.pre_kernels,
            b=spec.b,
            pi=spec.pi,
            p=spec.p,
            d=0,
            x0=0,
        )
        cfg = ValueIterConfig(k_max=6)
        decisions = set()
        gamma = np.array([[0.4]])
        delta = np.array([[1.0]])
        for window in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            h = stop_payoff(same, same.d + 2, window, *masses(gamma, delta))
            res = value_iterate(ValueTable(same), window, masses(gamma, delta)[0], cfg, h)
            decisions.add((round(h, 12), round(res.value, 12)))
        assert len(decisions) == 1

    def test_early_state_rejected(self, m2):
        spec = make_m2(d=1)
        for path in ((0,), (0, 1)):
            state = filter_through(spec, path)
            with pytest.raises(ValueError):
                stop_decision(ValueTable(spec), state, ValueIterConfig())
        with pytest.raises(ValueError):
            stop_decision(ValueTable(m2), state_init(m2), ValueIterConfig())


def row_state(level, row, width):
    """The one-row filter state of a filter level's row, its last `width` symbols a tuple window."""
    return PosteriorState(level.n, tuple(level.paths[row, -width:].tolist()), level.unchanged[row], level.changed[row])


def assert_rows_are_one_row_calls(batch, singles):
    for field in ("n", "stop", "stop_value", "continue_value", "bound", "k_used", "converged"):
        got = getattr(batch, field)
        want = [getattr(dec, field) for dec in singles]
        if field == "n":
            assert {got} == set(want)
        else:
            assert got.shape == (len(singles),)
            assert got.tolist() == want, field


class TestBatchDecision:
    """stop_decision on a batch of one time n is the one-row call on each row, field by field."""

    @pytest.mark.parametrize("k_max", [1, 5, 10])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_every_filter_state(self, config, k_max):
        # every state of the filter tree from d + 1 to horizon 6 (5 at alphabet 3)
        spec = load_spec(config)
        table, cfg = ValueTable(spec), ValueIterConfig(k_max=k_max)
        for level in filter_levels(spec, 6 if spec.alphabet_size == 2 else 5):
            if level.n <= spec.d:
                continue
            windows = level.paths[:, -(spec.d + 2) :]
            batch = stop_decision(table, PosteriorState(level.n, windows, level.unchanged, level.changed), cfg)
            singles = [stop_decision(table, row_state(level, row, spec.d + 2), cfg) for row in range(len(windows))]
            assert_rows_are_one_row_calls(batch, singles)

    @pytest.mark.parametrize("k_max", [1, 5, 10])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_literal_boundary(self, config, k_max):
        # each boundary state at d + 1 with each of its successors
        spec = load_spec(config)
        table, cfg = ValueTable(spec), ValueIterConfig(k_max=k_max)
        *_, prev, level = filter_levels(spec, spec.d + 2)
        up, width = level.parent, spec.d + 2
        state = PosteriorState(spec.d + 1, prev.paths[up, -width:], prev.unchanged[up], prev.changed[up])
        nxt = PosteriorState(spec.d + 2, level.paths[:, -width:], level.unchanged, level.changed)
        batch = stop_decision(table, state, cfg, nxt)
        singles = [
            stop_decision(table, row_state(prev, i, width), cfg, row_state(level, j, width))
            for j, i in enumerate(up.tolist())
        ]
        assert_rows_are_one_row_calls(batch, singles)

    def test_batch_without_every_successor_rejected(self):
        # one row's nxt is another boundary state's successor
        spec = make_m3(d=1)
        *_, prev, level = filter_levels(spec, spec.d + 2)
        up, width = level.parent, spec.d + 2
        state = PosteriorState(spec.d + 1, prev.paths[up, -width:], prev.unchanged[up], prev.changed[up])
        swap = np.arange(len(up))
        swap[[0, -1]] = swap[[-1, 0]]
        assert up[0] != up[-1]
        nxt = PosteriorState(spec.d + 2, level.paths[swap, -width:], level.unchanged[swap], level.changed[swap])
        with pytest.raises(ValueError, match="^nxt must be the one-step successor of state$"):
            stop_decision(ValueTable(spec), state, ValueIterConfig(k_max=4), nxt)


def recorded_decisions(monkeypatch):
    """The list that every later stop_decision call in stopping appends its decision to."""
    made, decide = [], stopping.stop_decision
    monkeypatch.setattr(stopping, "stop_decision", lambda *args: made.append(decide(*args)) or made[-1])
    return made


def no_lookups():
    """Every window open at every level: a rule built under it decides every node by the K loop."""
    return patch.object(ValueTable, "region", lambda table, k: np.full(len(table.windows), -1, dtype=np.int8))


def fields(dec):
    """A decision's fields as lists, for comparing batch decisions."""
    return {name: np.asarray(value).tolist() for name, value in vars(dec).items()}


class TestSlowChange:
    """The slow-change configs: rare changes, deep K and decisions unproved at k_max 10."""

    @pytest.mark.parametrize(
        "name, horizon, unproved, decided", [("m4_slow", 6, 68, 360), ("m1_d1_slow", 8, 40, 212)]
    )
    def test_unproved_decision_counts(self, name, horizon, unproved, decided, monkeypatch):
        # every live path in one batch with class lookups off: each tree node
        # decided once by the K loop, one stop_decision call per grown level
        spec = load_spec(CONFIGS_DIR / f"{name}.json")
        made = recorded_decisions(monkeypatch)
        *_, level = filter_levels(spec, horizon)
        with no_lookups():
            OptimalStoppingRule(spec, ValueIterConfig(k_max=10)).stop_times(level.paths)
        assert [dec.n for dec in made] == list(range(spec.d + 1, horizon + 1))
        converged = np.concatenate([dec.converged for dec in made])
        assert (np.count_nonzero(~converged), len(converged)) == (unproved, decided)

    @pytest.mark.parametrize("name, horizon, sent", [("m4_slow", 6, 122), ("m1_d1_slow", 8, 108)])
    def test_lookups_send_the_open_windows(self, name, horizon, sent, monkeypatch):
        # with lookups on, stop_decision receives the boundary nodes and, from
        # d + 2 on, exactly the nodes whose window class is -1 (no row here
        # is near u = 0); certification runs at the start of the call only
        spec = load_spec(CONFIGS_DIR / f"{name}.json")
        seen, decide = [], stopping.stop_decision
        monkeypatch.setattr(stopping, "stop_decision", lambda table, state, *rest: seen.append(state) or decide(table, state, *rest))
        *_, level = filter_levels(spec, horizon)
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=10))
        rule.stop_times(level.paths)
        visits, want = rule._tree.walk(level.paths), []
        for n in range(spec.d + 1, horizon + 1):
            nodes, first = np.unique(visits[:, n], return_index=True)
            windows = level.paths[first[nodes != _STOPPED], n - spec.d - 1 : n + 1]
            if n >= spec.d + 2:
                windows = windows[rule._by_rank[windows @ rule._rank] < 0]
            want += [(n, window) for window in windows.tolist()]
        got = [(state.n, window) for state in seen for window in state.window.tolist()]
        assert sorted(got) == sorted(want)
        assert len(got) == sent

    @pytest.mark.parametrize("variant", ["expected", "literal"])
    def test_one_call_per_grown_batch(self, variant, monkeypatch):
        # with lookups off, the literal boundary takes two calls at the nodes of
        # time d + 2: the boundary at d + 1, then the region on the rows it does not stop
        spec, horizon = make_m3(d=1), 6
        made = recorded_decisions(monkeypatch)
        *_, level = filter_levels(spec, horizon)
        with no_lookups():
            OptimalStoppingRule(spec, ValueIterConfig(k_max=5), variant=variant).stop_times(level.paths)
        assert [dec.n for dec in made] == list(range(spec.d + 1, horizon + 1))
        if variant == "literal":
            assert len(made[1].stop) == np.count_nonzero(~made[0].stop) < len(made[0].stop)


def run_rule(rule, path):
    """The rule along one stream: stop time, decision trace and final filter state.

    The final state is the one at the stop, or at the end of the stream when
    the rule never fires.
    """
    stop = rule.stop_time(path)
    end = len(path) if stop is None else stop + 1
    tree = rule._tree
    node = tree.walk(np.array([path]))[0, end - 1]
    final = PosteriorState(end - 1, tuple(path[:end][-(rule.spec.d + 2) :]), tree.unchanged[node], tree.changed[node])
    return stop, tuple(rule.decisions(path)), final


class TestRuleRunner:
    """Running the rule on one stream through `decisions` and the filter states of its prefix tree."""

    def test_never_stops_before_boundary(self):
        spec = make_m3(d=2)
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=3))
        stop, trace, _ = run_rule(rule, (0, 1, 1, 1, 1, 1, 1))
        if stop is not None:
            assert stop >= spec.d + 1
        assert trace and all(rec.n >= spec.d + 1 for rec in trace)

    def test_certain_immediate_change_stops_at_boundary(self):
        spec = type(make_m2())(
            alphabet_size=2,
            pre_kernels=[[[0.8, 0.2], [0.8, 0.2]]],
            post_kernels=[[[0.2, 0.8], [0.2, 0.8]]],
            b=[[1.0]],
            pi=[[1.0]],
            p=[[0.7]],
            d=0,
            x0=0,
        )
        stop, trace, _ = run_rule(OptimalStoppingRule(spec, ValueIterConfig(k_max=4)), (0, 1, 1, 1))
        assert stop == spec.d + 1
        assert trace[0].stop_value == pytest.approx(1.0)

    def test_censoring_reported(self, m2):
        stop, trace, final = run_rule(OptimalStoppingRule(m2, ValueIterConfig(k_max=4)), (0, 0))
        assert stop is None
        assert [dec.stop for dec in trace] == [False]
        assert final.n == 1

    def test_deterministic_trace(self, m2):
        cfg = ValueIterConfig(k_max=6)
        path = (0, 1, 0, 1, 1, 0)
        first = run_rule(OptimalStoppingRule(m2, cfg), path)[:2]
        second = run_rule(OptimalStoppingRule(m2, cfg), path)[:2]
        assert first == second

    def test_wrong_start_rejected(self, m2):
        with pytest.raises(ValueError):
            next(OptimalStoppingRule(m2, ValueIterConfig()).decisions((1, 0)))

    def test_readings_follow_reference(self):
        # every path to horizon 6 (4 at alphabet 3), the slow-change configs included
        cfg = ValueIterConfig(k_max=5)
        slow = [load_spec(CONFIGS_DIR / f"{name}.json") for name in ("m1_d1_slow", "m4_slow")]
        for spec, variant in itertools.product([make_m2(d=1), make_m3(d=1), *slow], ("expected", "literal")):
            horizon = 6 if spec.alphabet_size == 2 else 4
            traces = reference_stops(spec, cfg, horizon, variant)
            rule = OptimalStoppingRule(spec, cfg, variant=variant)
            for tail in itertools.product(range(spec.alphabet_size), repeat=horizon):
                path = (spec.x0,) + tail
                ref = reference_trace(traces, path)
                stop, trace, final = run_rule(rule, path)
                assert tuple((dec.n, dec.stop) for dec in trace) == ref
                assert stop == stop_of(ref)
                end = horizon + 1 if stop is None else stop + 1
                want = filter_through(spec, path[:end])
                assert final.n == end - 1
                assert np.array_equal(final.change_prob, want.change_prob)


class TestRuleShape:
    """The rule stores one form, its batch form; the per-path call is that form on one row and carries it."""

    @pytest.mark.parametrize("variant", ["expected", "literal"])
    @pytest.mark.parametrize("make, d", [(make_m2, 0), (make_m4, 1)], ids=["m2", "m4_d1"])
    def test_per_path_call_carries_the_batch_form(self, make, d, variant):
        spec = make(d)
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=4), variant=variant)
        assert not {"stop_times", "stop_time"} & set(vars(OptimalStoppingRule))
        assert rule.stop_times.__self__ is rule  # the rule's own batch form: a tree walk
        assert rule.stop_time.stop_times is rule.stop_times
        paths = np.array([(spec.x0,) + tail for tail in itertools.product(range(spec.alphabet_size), repeat=6)])
        assert np.array_equal(_stop_times(rule.stop_time, paths), rule.stop_times(paths))
        # the one-row call takes any iterable of symbols
        for path in paths[:: len(paths) // 7].tolist():
            assert rule.stop_time(iter(path)) == rule(path) == rule.stop_time(tuple(path))
        # functools.wraps copies instance attributes, so a wrapped rule keeps its batch form
        wrapped = functools.wraps(rule)(lambda observations: rule(observations))
        assert wrapped.stop_times is rule.stop_times


class TestBoundaryDecision:
    """The expected reading at d + 1 is the region test of the boundary payoff."""

    def test_expected_value_matches_manual_expectation(self):
        spec = make_m2(d=1)
        table = ValueTable(spec)
        state = filter_through(spec, (0, 1, 0))
        dec = stop_decision(table, state, ValueIterConfig(k_max=6))
        assert dec.stop_value == stop_payoff(spec, spec.d + 1, state.window, state.unchanged, state.changed)
        manual = filtered_backup(table, state, dec.k_used - 1)
        assert dec.continue_value == pytest.approx(manual, abs=1e-13)

    @pytest.mark.parametrize("make", [make_m1, make_m2, make_m3, make_m4])
    @pytest.mark.parametrize("d", [0, 1])
    def test_table_backup_equals_filtered_expectation(self, make, d):
        # every boundary state: s_{K+1} read off the table against the
        # expectation over filtered next states, from the base level
        # s_0 = sum_y pred_y h_y (K = -1) up
        spec = make(d)
        *_, level = filter_levels(spec, d + 1)
        states = [filter_through(spec, path) for path in level.paths.tolist()]
        table = ValueTable(spec)
        for state in states:
            u = table.weight(state.unchanged)
            for k in range(-1, 6):
                got = table.value(k + 1, state.window, u)
                assert got == pytest.approx(filtered_backup(table, state, k), rel=1e-13)

    def test_wrong_time_rejected(self, m2):
        # the literal reading pairs a time-(d + 1) state with its successor
        state = filter_through(m2, (0, 1, 0))
        nxt = state_step(m2, state, 1)
        with pytest.raises(ValueError):
            stop_decision(ValueTable(m2), state, ValueIterConfig(), nxt)

    def test_non_successor_rejected(self):
        # the literal reading pairs a time-(d + 1) state with its own successor
        spec = make_m3(d=1)
        table, cfg = ValueTable(spec), ValueIterConfig(k_max=4)
        state = filter_through(spec, (0, 1, 0))
        later = filter_through(spec, (0, 1, 0, 1, 1, 0, 1))  # four steps on
        other = filter_through(spec, (0, 0, 1, 1))  # one step on, another path
        for nxt in (later, other):
            with pytest.raises(ValueError, match="one-step successor"):
                stop_decision(table, state, cfg, nxt)
        assert stop_decision(table, state, cfg, state_step(spec, state, 1)).n == spec.d + 1


# The first k_max at which each config's live windows all end certified, up to
# k_max 10 (m4_slow at 30); the others keep windows open.
CERTIFIED_FROM = {"m1": 1, "m2": 1, "m2_d1": 1, "m1_d1": 4, "m3": 4, "m4": 2, "m4_slow": 30}


def every_path(spec, horizon):
    return np.array([(spec.x0,) + tail for tail in itertools.product(range(spec.alphabet_size), repeat=horizon)])


def assert_lookups_change_nothing(rule, paths):
    """The rule's batch form and per-path call, each called twice, give the stop times of the same rule with class lookups off.

    Returns whether the rule ends with every live window certified.
    """
    with no_lookups():
        want = OptimalStoppingRule(rule.spec, rule.cfg, rule.variant).stop_times(paths).tolist()
    some = slice(None, None, max(1, len(paths) // 40))
    for _ in range(2):
        assert rule.stop_times(paths).tolist() == want
        assert [rule(path) for path in paths[some].tolist()] == [None if tau < 0 else tau for tau in want[some]]
    return rule.windows is not None


class TestWindowScan:
    """The tree walk reads each new node's certified window class from d + 2 on, and walks as with lookups off."""

    @pytest.mark.parametrize("variant", ["expected", "literal"])
    @pytest.mark.parametrize("k_max", [1, 2, 4, 10])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_scan_equals_tree_walk(self, config, k_max, variant):
        # every path to horizon 8 (7 at alphabet 3)
        spec = load_spec(config)
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=k_max), variant=variant)
        paths = every_path(spec, 8 if spec.alphabet_size == 2 else 7)
        assert assert_lookups_change_nothing(rule, paths) == (k_max >= CERTIFIED_FROM.get(config.stem, math.inf))

    def test_slow_change_scans_at_depth(self):
        # every path to horizon 7 (8 at alphabet 2) leaves windows open; long
        # sampled paths take decisions deep enough to certify m4_slow's
        for name, certified in [("m4_slow", True), ("m1_d1_slow", False)]:
            spec = load_spec(CONFIGS_DIR / f"{name}.json")
            rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=30))
            assert not assert_lookups_change_nothing(rule, every_path(spec, 7 if spec.alphabet_size == 3 else 8))
            paths = TrajectorySampler(spec, 80).sample_batch(mix_seeds(1, np.arange(1000))).observations
            assert assert_lookups_change_nothing(rule, paths) == certified
            assert rule.explain().startswith("windows certified at K=" if certified else "2 of 8 windows open at K=30")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        alphabet=st.integers(2, 3),
        l0=st.integers(1, 2),
        l1=st.integers(1, 2),
        d=st.integers(0, 1),
        k_max=st.sampled_from([1, 2, 4]),
        variant=st.sampled_from(["expected", "literal"]),
        zero=st.booleans(),
    )
    def test_random_specs(self, seed, alphabet, l0, l1, d, k_max, variant, zero):
        # the live paths to horizon d + 4, with and without a transition outside the support
        spec = random_spec(np.random.default_rng(seed), alphabet, l0, l1, d)
        if zero:
            spec = with_shared_zero(spec, 0, alphabet - 1)
        *_, level = filter_levels(spec, d + 4)
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=k_max), variant=variant)
        assert_lookups_change_nothing(rule, level.paths)

    @staticmethod
    def raised(call, *args):
        try:
            call(*args)
        except Exception as exc:  # noqa: BLE001 - the type and text are compared
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("variant", ["expected", "literal"])
    def test_faults_raise_as_the_tree(self, variant):
        # m4 with 0 -> 1 and 2 -> 1 outside the support, where every stop
        # reads a 2: a wrong x0, a symbol outside the alphabet or a dead
        # transition before the stop raise the tree's exception; after the
        # stop they are not read
        spec = with_shared_zero(with_shared_zero(make_m4(), 0, 1), 2, 1)
        horizon, cfg = 7, ValueIterConfig(k_max=4)
        *_, level = filter_levels(spec, horizon)
        paths = level.paths
        rule = OptimalStoppingRule(spec, cfg, variant=variant)
        stops = rule.stop_times(paths)
        assert rule.windows is not None
        late = (stops > rule._start) & (stops < horizon)
        dead_before = int(np.flatnonzero(late & (paths[np.arange(len(paths)), stops - 1] == 0))[0])
        dead_after = int(np.flatnonzero(late & (paths[np.arange(len(paths)), stops] == 2))[0])
        row = int(np.flatnonzero(late)[0])
        faults = []
        for bad in (-1, spec.alphabet_size):
            faults += [(row, int(stops[row]), bad, True), (row, int(stops[row]) + 1, bad, False)]
        faults += [(dead_before, int(stops[dead_before]), 1, True), (dead_after, int(stops[dead_after]) + 1, 1, False)]
        for row, at, symbol, read in faults:
            batch = paths.copy()
            batch[row, at] = symbol
            fresh = OptimalStoppingRule(spec, cfg, variant=variant)._tree.stop_times
            want = self.raised(fresh, batch)
            assert (want is not None) == read
            assert self.raised(rule.stop_times, batch) == want
            if not read:
                assert rule.stop_times(batch).tolist() == stops.tolist()
        wrong = paths.copy()
        wrong[-1, 0] = 1
        want = self.raised(OptimalStoppingRule(spec, cfg, variant=variant)._tree.stop_times, wrong)
        assert want == (ValueError, f"stream must start at x0={spec.x0}")
        assert self.raised(rule.stop_times, wrong) == want
        # the faulty batches moved no stop time
        assert rule.stop_times(paths).tolist() == stops.tolist()

    @pytest.mark.parametrize("variant", ["expected", "literal"])
    def test_rows_near_zero_mass_take_the_k_loop(self, variant, monkeypatch):
        # with the floor at 1 every row counts as near u = 0: every node goes
        # to stop_decision, as with lookups off, and no stop time moves
        spec, cfg = make_m2(d=1), ValueIterConfig(k_max=4)
        paths = every_path(spec, 8)
        rule = OptimalStoppingRule(spec, cfg, variant=variant)
        stops = rule.stop_times(paths).tolist()
        assert rule.windows is not None
        made = recorded_decisions(monkeypatch)
        with no_lookups():
            OptimalStoppingRule(spec, cfg, variant=variant).stop_times(paths)
        plain, made[:] = list(made), []
        OptimalStoppingRule(spec, cfg, variant=variant).stop_times(paths)
        looked_up, made[:] = list(made), []
        monkeypatch.setattr(stopping, "_TINY", 1.0)
        floored = OptimalStoppingRule(spec, cfg, variant=variant)
        assert floored.stop_times(paths).tolist() == stops
        assert floored.windows is not None
        rows = [sum(len(dec.stop) for dec in decs) for decs in (plain, looked_up, made)]
        assert rows[0] == rows[2] > rows[1]
        assert list(map(fields, made)) == list(map(fields, plain))

    @staticmethod
    def budget_spec():
        # a random spec whose decisions on the paths to horizon 5 need level 2
        # at k_max 8, and whose tree forms 70 candidates to reach it
        rng = np.random.default_rng(0)
        alphabet = int(rng.integers(2, 4))
        l0, l1 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        d = int(rng.integers(0, 2))
        spec = with_shared_zero(random_spec(rng, alphabet, l0, l1, d), 0, alphabet - 1)
        return spec, list(filter_levels(spec, 5))

    def test_budget_is_never_spent_past_the_tree(self, monkeypatch):
        # certification tries one level past the decisions' at most
        spec, levels = self.budget_spec()
        paths = levels[-1].paths
        started = time.perf_counter()
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=8))
        assert not assert_lookups_change_nothing(rule, paths)
        assert time.perf_counter() - started < 1.0
        assert rule._k == rule._reach + 1 < 8
        tree = OptimalStoppingRule(spec, ValueIterConfig(k_max=8))
        tree._tree.stop_times(paths)
        assert tree._table.formed == 70
        # with the budget at what the tree forms, certification raises nothing and stops below the failed level
        monkeypatch.setattr(stopping, "CANDIDATE_BUDGET", 70)
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=8))
        assert_lookups_change_nothing(rule, paths)
        assert rule._k == rule._top == rule._reach
        assert rule.stop_times(paths).tolist() == tree._tree.stop_times(paths).tolist()

    def test_failed_level_fails_for_every_reader(self, monkeypatch):
        # certification fails at level reach + 1 and keeps what it formed:
        # the rule reads as one that never tried the level, and a decision
        # that needs the level raises on its table as on a fresh one
        spec, levels = self.budget_spec()
        paths, cfg = levels[-1].paths, ValueIterConfig(k_max=8)
        reach = 2
        below = OptimalStoppingRule(spec, ValueIterConfig(k_max=reach))
        want = below.stop_times(paths).tolist()
        # the states of time 3 whose decisions are not proved by level reach
        level = levels[3]
        state = PosteriorState(3, level.paths[:, -(spec.d + 2) :], level.unchanged, level.changed)
        deep = stop_decision(ValueTable(spec), state, cfg).k_used > reach
        assert deep.any()
        state = PosteriorState(3, state.window[deep], state.unchanged[deep], state.changed[deep])
        monkeypatch.setattr(stopping, "CANDIDATE_BUDGET", 70)
        rule = OptimalStoppingRule(spec, cfg)
        for _ in range(2):  # the second batch starts by trying level reach + 1
            assert rule.stop_times(paths).tolist() == want
        assert rule._reach == rule._top == rule._k == reach and rule._table.formed > 70
        assert rule.explain() == below.explain() and "open at K=2" in rule.explain()
        for path in paths[::7].tolist():
            assert list(map(fields, rule.decisions(path))) == list(map(fields, below.decisions(path)))
        for table in (rule._table, ValueTable(spec)):
            with pytest.raises(BudgetError):
                stop_decision(table, state, cfg)


def class_disagreements(spec, k_max=10):
    """(level, window) of each filter-tree state to horizon 8 (7 at alphabet 3), from d + 2 on,
    whose window class at that level is not its stop_decision: another stop, or not proved by that level."""
    table, cfg = ValueTable(spec), ValueIterConfig(k_max=k_max)
    width = spec.d + 2
    rank = spec.alphabet_size ** np.arange(width - 1, -1, -1)
    where = np.full(spec.alphabet_size**width, -1)
    where[table.windows @ rank] = np.arange(len(table.windows))
    decided = []
    for level in filter_levels(spec, 8 if spec.alphabet_size == 2 else 7):
        if level.n >= width:
            windows = level.paths[:, -width:]
            dec = stop_decision(table, PosteriorState(level.n, windows, level.unchanged, level.changed), cfg)
            decided.append((windows, where[windows @ rank], dec))
    out = []
    for k in range(1, k_max + 1):
        classes = table.region(k)
        for windows, rows, dec in decided:
            assert (rows >= 0).all()  # every window read is live
            cls = classes[rows]
            bad = (cls >= 0) & ((dec.stop != (cls == 1)) | ~dec.converged | (dec.k_used > k))
            out += [(k, tuple(w)) for w in windows[bad].tolist()]
    return out


class TestWindowClasses:
    """Each certified window class is the decision, proved by its level, at every state that reads the window."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_classes_agree_with_stop_decision(self, config):
        assert class_disagreements(load_spec(config)) == []

    @pytest.mark.parametrize("mutant", ["flipped", "half_bound"])
    def test_mutants_disagree(self, mutant, monkeypatch):
        region, bound = ValueTable.region, ValueTable.bound

        def flipped(table, k):
            classes = region(table, k)
            return np.where(classes >= 0, 1 - classes, classes)

        def half_bound(table, k):
            b = bound(table, k)
            with patch.object(ValueTable, "bound", lambda self, j: b / 2):
                return region(table, k)

        monkeypatch.setattr(ValueTable, "region", {"flipped": flipped, "half_bound": half_bound}[mutant])
        assert any(class_disagreements(load_spec(config)) for config in CONFIGS)

    @pytest.mark.parametrize("side", [1, -1])
    def test_tie_within_rounding_stays_open(self, side, monkeypatch):
        # Gamma_k one vector a few ulp inside the stop test's edge (side 1) or
        # the continue test's (side -1): the window stays open, and only the
        # margin keeps it so
        spec = make_m2()
        table = ValueTable(spec)
        coeff = (detection_coeff_matrix(spec, table.windows) / spec.p).reshape(len(table.windows), -1)
        b = float(coeff.min()) / 2
        monkeypatch.setattr(table, "bound", lambda k: b)
        for row, c in enumerate(coeff):
            g = c - b - 4 * np.spacing(c - b) if side == 1 else c + 4 * np.spacing(c)
            assert ((c - g - b >= 0) if side == 1 else (c - g < 0)).all()
            monkeypatch.setattr(table, "vectors", lambda k, tail: g[None])
            assert table.region(1)[row] == -1
            with monkeypatch.context() as mutant:
                mutant.setattr(stopping, "_MARGIN", 0.0)
                assert table.region(1)[row] == (1 if side == 1 else 0)
