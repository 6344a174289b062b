import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disorder import (
    BudgetError,
    OptimalStoppingRule,
    StopDecision,
    ValueIterConfig,
    filter_tree,
    predictive,
    rule_runner,
    state_init,
    state_step,
    stop_decision,
    stop_payoff,
    stop_payoff_boundary,
    value_iterate,
)
from disorder.likelihood import likelihood_ratio_chain
from disorder.payoff import detection_coeff_matrix
from disorder.simulate import TrajectorySampler, mix_seeds
from disorder.stopping import ValueTable, _prune, boundary_decision

from conftest import make_m1, make_m2, make_m3, make_m4, random_spec


def filter_through(spec, path):
    state = state_init(spec)
    for sym in path[1:]:
        state = state_step(spec, state, sym)
    return state


def random_state_inputs(spec, rng):
    window = tuple(rng.integers(0, spec.alphabet_size, size=spec.d + 2).tolist())
    gamma = rng.uniform(0, 1, (spec.l0, spec.l1))
    delta = rng.uniform(0, 1, (spec.l0, spec.l1))
    return window, gamma, delta


def reference_continuation(spec, k, window, gamma, delta):
    """s_k by the plain scalar recursion of its definition, without a memo."""
    weight = spec.p * (1.0 - gamma)
    tail = tuple(window[1:])
    if k == 0:
        q = 1.0 - spec.p
        chain = likelihood_ratio_chain(spec, tail, spec.d)
        coeff = 1.0 - spec.p**spec.d + q * (1.0 + chain) / spec.p
        return float(np.sum(coeff * weight * delta))
    total = 0.0
    for y in range(spec.alphabet_size):
        nxt = tail + (y,)
        f0 = spec.pre_kernels[:, window[-1], y][:, None]
        stop = float(np.sum(detection_coeff_matrix(spec, nxt) * f0 * weight * delta))
        cont = reference_continuation(spec, k - 1, nxt, gamma, spec.p * f0 * delta)
        total += max(stop, cont)
    return total


def reference_value(spec, state, cfg):
    """s_{k_max} by the reference recursion: every decision, proved or not,
    is the comparison with s_{k_max}."""
    return reference_continuation(
        spec, cfg.k_max, state.window, state.change_prob, state.pair_prob
    )


def reference_stops(spec, cfg, horizon, variant="expected"):
    """Decisions (n, stop) of the reference rule over the full path tree.

    Keyed by the prefix at which a path's decisions end: the prefix its stop
    decision reads, or the whole path when the rule never fires.  The
    literal boundary decision at d + 1 reads the symbol at d + 2.
    """
    traces = {}

    def region_stops(state):
        h = stop_payoff(spec, state.window, state.change_prob, state.pair_prob)
        return h >= reference_value(spec, state, cfg)

    def expected_boundary_stops(state):
        pred = predictive(spec, state)
        total = 0.0
        for y in range(spec.alphabet_size):
            if pred[y] == 0.0:
                continue
            nxt = state_step(spec, state, y)
            h_next = stop_payoff(spec, nxt.window, nxt.change_prob, nxt.pair_prob)
            total += float(pred[y]) * max(h_next, reference_value(spec, nxt, cfg))
        return stop_payoff_boundary(spec, state.change_prob, state.pair_prob) >= total

    def literal_boundary_stops(state, nxt):
        h = stop_payoff_boundary(spec, state.change_prob, state.pair_prob)
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


def reference_boundary_decision(table, state, cfg):
    """The expected boundary decision with every next symbol filtered.

    Each next symbol y of positive predictive weight adds
    pred_y max(h_y, s_K) at its own filter state, and the tail bound at that
    state widens the bracket; K rises until the bracket decides the payoff.
    """
    spec = table.spec
    h = stop_payoff_boundary(spec, state.change_prob, state.pair_prob)
    pred = predictive(spec, state)
    terms = []
    for y in range(spec.alphabet_size):
        if pred[y] != 0.0:
            after = state_step(spec, state, y)
            h_y = stop_payoff(spec, after.window, after.change_prob, after.pair_prob)
            u = table.weight(after.change_prob, after.pair_prob)
            terms.append((float(pred[y]), h_y, after.window, u))
    for k in range(1, cfg.k_max + 1):
        lower = upper = 0.0
        for w, h_y, window, u in terms:
            s = table.value(k, window, u)
            lower += w * max(h_y, s)
            upper += w * max(h_y, s + table.bound(k) * float(u.sum()))
        if h < lower or h >= upper:
            return StopDecision(state.n, h >= lower, h, lower, upper - lower, k, True)
    return StopDecision(state.n, h >= lower, h, lower, upper - lower, cfg.k_max, False)


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
        table = ValueTable(spec)
        got = table.value(k, window, table.weight(gamma, delta))
        assert abs(got - reference_continuation(spec, k, window, gamma, delta)) <= 1e-12

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
        for tail in itertools.product(range(2), repeat=6):
            rule.stop_time((0,) + tail)
        decisions = list(rule._decisions.values())
        assert decisions and all(isinstance(dec, StopDecision) for dec in decisions)
        assert {dec.k_used for dec in decisions} <= set(range(6))
        assert any(dec.converged for dec in decisions)
        assert any(not dec.converged for dec in decisions)

    def test_shared_table_gives_same_values(self, m4):
        rng = np.random.default_rng(3)
        table = ValueTable(m4)
        for _ in range(10):
            window, gamma, delta = random_state_inputs(m4, rng)
            for k in range(4):
                fresh = ValueTable(m4)
                assert table.value(k, window, table.weight(gamma, delta)) == fresh.value(
                    k, window, fresh.weight(gamma, delta)
                )


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
        got = table.value(0, (0, 1), table.weight(np.array([[0.0]]), np.array([[1.0]])))
        assert got == pytest.approx(0.2, abs=1e-14)

    def test_certain_change_is_worthless(self, m3):
        window = (0, 1)
        table = ValueTable(m3)
        got = table.value(0, window, table.weight(np.ones((2, 2)), np.full((2, 2), 0.25)))
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
                    spec, nxt.window, nxt.change_prob, nxt.pair_prob
                )
            got = table.value(0, state.window, table.weight(state.change_prob, state.pair_prob))
            assert got == pytest.approx(expected, abs=1e-12)


class TestRecursion:
    @pytest.mark.parametrize("make", [make_m2, make_m3, make_m4])
    def test_monotone_in_k(self, make):
        spec = make(d=1)
        rng = np.random.default_rng(19)
        table = ValueTable(spec)
        for _ in range(25):
            window, gamma, delta = random_state_inputs(spec, rng)
            u = table.weight(gamma, delta)
            prev = table.value(0, window, u)
            for k in range(1, 5):
                cur = table.value(k, window, u)
                assert cur >= prev - 1e-12
                prev = cur

    def test_homogeneous_in_delta(self, m3):
        rng = np.random.default_rng(12)
        window, gamma, delta = random_state_inputs(m3, rng)
        table = ValueTable(m3)
        for k in (0, 1, 3):
            base = table.value(k, window, table.weight(gamma, delta))
            scaled = table.value(k, window, table.weight(gamma, 0.37 * delta))
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
                composed = (
                    spec.p * spec.pre_kernels[:, x_prev, x_next][:, None] * prev.pair_prob
                )
                for k in (0, 1, 2):
                    lhs = norm * table.value(
                        k, state.window, table.weight(state.change_prob, state.pair_prob)
                    )
                    rhs = table.value(k, state.window, table.weight(prev.change_prob, composed))
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
            window, gamma, delta = random_state_inputs(m3, rng)
            bound = float(np.sum(c_max * (1 - gamma) * delta))
            for k in (0, 1, 2, 4):
                val = table.value(k, window, table.weight(gamma, delta))
                assert val <= bound + 1e-12

    def test_budget_guard(self, m3):
        table = ValueTable(m3, budget=10)
        with pytest.raises(BudgetError):
            table.value(12, (0, 1), table.weight(np.zeros((2, 2)), np.full((2, 2), 0.25)))

    def test_negative_k_rejected(self, m1):
        table = ValueTable(m1)
        with pytest.raises(ValueError):
            table.value(-1, (0, 1), table.weight(np.zeros((1, 1)), np.ones((1, 1))))


class TestValueIterate:
    def test_proved_at_first_level(self, m2):
        state = filter_through(m2, (0, 1, 0))
        args = (state.window, state.change_prob, state.pair_prob)
        h = stop_payoff(m2, *args)
        res = value_iterate(ValueTable(m2), *args, ValueIterConfig(k_max=10), h)
        assert res.converged
        assert res.k_used == 1
        table = ValueTable(m2)
        u = table.weight(state.change_prob, state.pair_prob)
        assert res.value == table.value(1, state.window, u)
        assert res.bound == pytest.approx(table.bound(1) * u.sum(), rel=1e-12)
        assert h < res.value  # proved continue

    def test_unconverged_flagged(self):
        # s_1 says stop here, but neither h < s_1 nor h >= s_1 + bound holds;
        # from K = 3 on the state is proved a continue
        spec = make_m3(1)
        state = filter_through(spec, (0, 1, 1, 0))
        args = (state.window, state.change_prob, state.pair_prob)
        h = stop_payoff(spec, *args)
        res = value_iterate(ValueTable(spec), *args, ValueIterConfig(k_max=1), h)
        assert not res.converged
        assert res.k_used == 1
        assert res.value <= h < res.value + res.bound
        dec = stop_decision(ValueTable(spec), state, ValueIterConfig(k_max=1))
        assert dec.stop and not dec.converged
        deep = stop_decision(ValueTable(spec), state, ValueIterConfig(k_max=10))
        assert not deep.stop and deep.converged and deep.k_used == 3


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
        table = ValueTable(spec, budget=2000)
        u = table.weight(rng.uniform(0, 1, (l0, l1)), rng.uniform(0, 1, (l0, l1)))
        try:
            deep = [table.value(k + 20, window, u) for k in range(1, 5)]
        except BudgetError:
            assume(False)
        for k in range(1, 5):
            assert table.value(k, window, u) + table.bound(k) * u.sum() >= deep[k - 1] - 1e-12

    @pytest.mark.parametrize("make, d", [(make_m2, 0), (make_m3, 0), (make_m3, 1)])
    def test_proved_decisions_equal_deep_decisions(self, make, d):
        # every reachable state to horizon 6: region decisions from d + 2 and
        # expected boundary decisions at d + 1, against s_40
        spec = make(d)
        cfg = ValueIterConfig(k_max=12)
        table = ValueTable(spec)

        def deep(state):
            return table.value(40, state.window, table.weight(state.change_prob, state.pair_prob))

        frontier, proved = [state_init(spec)], 0
        for _ in range(6):
            frontier = [
                state_step(spec, state, y)
                for state in frontier
                for y in range(spec.alphabet_size)
                if predictive(spec, state)[y] > 0.0
            ]
            for state in frontier:
                if state.n == spec.d + 1:
                    dec = boundary_decision(table, state, cfg)
                    pred = predictive(spec, state)
                    target = 0.0
                    for y in range(spec.alphabet_size):
                        after = state_step(spec, state, y)
                        h_y = stop_payoff(spec, after.window, after.change_prob, after.pair_prob)
                        target += float(pred[y]) * max(h_y, deep(after))
                elif state.n >= spec.d + 2:
                    dec = stop_decision(table, state, cfg)
                    target = deep(state)
                else:
                    continue
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
        forced = type(state)(
            n=state.n,
            window=state.window,
            change_prob=np.ones((2, 2)),
            pair_prob=state.pair_prob,
        )
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
            h = stop_payoff(same, window, gamma, delta)
            res = value_iterate(ValueTable(same), window, gamma, delta, cfg, h)
            decisions.add((round(h, 12), round(res.value, 12)))
        assert len(decisions) == 1

    def test_early_state_rejected(self, m2):
        state = filter_through(m2, (0, 1))
        with pytest.raises(ValueError):
            stop_decision(ValueTable(m2), state, ValueIterConfig())


class TestRuleRunner:
    def test_never_stops_before_boundary(self):
        spec = make_m3(d=2)
        cfg = ValueIterConfig(k_max=3)
        run = rule_runner(spec, (0, 1, 1, 1, 1, 1, 1), cfg)
        if run.stop_time is not None:
            assert run.stop_time >= spec.d + 1
        assert all(rec.n >= spec.d + 1 for rec in run.trace)

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
        run = rule_runner(spec, (0, 1, 1, 1), ValueIterConfig(k_max=4))
        assert run.stop_time == spec.d + 1
        assert run.trace[0].stop_value == pytest.approx(1.0)

    def test_censoring_reported(self, m2):
        run = rule_runner(m2, (0, 0), ValueIterConfig(k_max=4))
        assert run.censored
        assert run.stop_time is None
        assert run.final_state.n == 1

    def test_deterministic_trace(self, m2):
        cfg = ValueIterConfig(k_max=6)
        first = rule_runner(m2, (0, 1, 0, 1, 1, 0), cfg)
        second = rule_runner(m2, (0, 1, 0, 1, 1, 0), cfg)
        assert first == second

    def test_wrong_start_rejected(self, m2):
        with pytest.raises(ValueError):
            rule_runner(m2, (1, 0), ValueIterConfig())

    def test_readings_follow_reference(self):
        cfg = ValueIterConfig(k_max=5)
        for spec in (make_m2(d=1), make_m3(d=1)):
            for variant in ("expected", "literal"):
                traces = reference_stops(spec, cfg, 6, variant)
                rule = OptimalStoppingRule(spec, cfg, variant=variant)
                for tail in itertools.product(range(spec.alphabet_size), repeat=6):
                    path = (spec.x0,) + tail
                    trace = reference_trace(traces, path)
                    assert rule.stop_time(path) == stop_of(trace)
                    run = rule_runner(spec, path, cfg, variant=variant)
                    assert tuple((dec.n, dec.stop) for dec in run.trace) == trace
                    assert run.stop_time == stop_of(trace)
                    end = 7 if run.stop_time is None else run.stop_time + 1
                    final = filter_through(spec, path[:end])
                    assert run.final_state.n == end - 1
                    assert np.array_equal(run.final_state.change_prob, final.change_prob)


class TestBoundaryDecision:
    def test_expected_value_matches_manual_expectation(self, m2):
        spec = make_m2(d=1)
        cfg = ValueIterConfig(k_max=6)
        state = filter_through(spec, (0, 1, 0))
        dec = boundary_decision(ValueTable(spec), state, cfg)
        pred = predictive(spec, state)
        table = ValueTable(spec)
        manual = 0.0
        for y in range(2):
            nxt = state_step(spec, state, y)
            h_next = stop_payoff(spec, nxt.window, nxt.change_prob, nxt.pair_prob)
            u = table.weight(nxt.change_prob, nxt.pair_prob)
            manual += float(pred[y]) * max(h_next, table.value(dec.k_used, nxt.window, u))
        assert dec.continue_value == pytest.approx(manual, abs=1e-13)

    @pytest.mark.parametrize("make", [make_m1, make_m2, make_m3, make_m4])
    @pytest.mark.parametrize("d", [0, 1])
    def test_table_backup_equals_filtered_expectation(self, make, d):
        # every boundary state: the backup read off the table against the
        # expectation over filtered next states
        spec = make(d)
        states = [s for s in filter_tree(spec, d + 1).values() if s.n == d + 1]
        for k_max in (1, 2, 5, 10):
            cfg = ValueIterConfig(k_max=k_max)
            table = ValueTable(spec)
            for state in states:
                dec = boundary_decision(table, state, cfg)
                ref = reference_boundary_decision(table, state, cfg)
                assert (dec.stop, dec.k_used, dec.converged) == (ref.stop, ref.k_used, ref.converged)
                assert dec.stop_value == ref.stop_value
                assert dec.continue_value == pytest.approx(ref.continue_value, rel=1e-13)

    def test_wrong_time_rejected(self, m2):
        state = filter_through(m2, (0, 1, 0))
        with pytest.raises(ValueError):
            boundary_decision(ValueTable(m2), state, ValueIterConfig())
