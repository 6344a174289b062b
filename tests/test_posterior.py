import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disorder import (
    OptimalStoppingRule,
    SupportError,
    ValueIterConfig,
    change_backshift,
    change_from_origin,
    change_lagged,
    change_multistep,
    path_probability,
    spec_from_dict,
    spec_to_dict,
    posterior_threshold_rule,
    predictive,
    split_likelihoods,
    state_init,
    state_step,
    window_mixture,
)
from disorder import crosscheck, oracle
from disorder.likelihood import likelihood_ratio_chain
from disorder.payoff import detection_coeff_matrix
from disorder.posterior import _filter_step, filter_levels

import scalar_filter
from conftest import (
    make_m1,
    make_m2,
    make_m3,
    make_m4,
    make_zero_support,
    masses,
    random_spec,
    state_from,
    step_from,
    with_shared_zero,
)


def filter_through(spec, path):
    state = state_init(spec)
    for sym in path[1:]:
        state = state_step(spec, state, sym)
    return state


def all_paths(spec, n):
    for tail in itertools.product(range(spec.alphabet_size), repeat=n):
        yield (spec.x0,) + tail


class TestChangeStep:
    def test_first_step_zero_hazard(self, m1):
        assert state_step(m1, state_init(m1), 1).change_prob[0, 0] == 0.0

    def test_symmetric_update(self, m1):
        assert step_from(m1, 0.0, 0, 1)[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_identical_kernels_no_information(self):
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
        rng = np.random.default_rng(2)
        q = 1 - float(same.p[0, 0])
        for _ in range(20):
            prev = float(rng.uniform())
            x_prev, x_next = rng.integers(0, 2, size=2).tolist()
            got = step_from(same, prev, x_prev, x_next)[0, 0]
            assert got == pytest.approx(q + (1 - q) * prev, abs=1e-14)

    def test_out_of_range_prev_rejected(self, m1):
        # the one-step update from an arbitrary previous posterior is the
        # level-zero multi-step update
        with pytest.raises(ValueError):
            change_multistep(m1, (0, 1), 1.5)

    def test_support_error_on_dead_transition(self):
        spec = type(make_m1())(
            alphabet_size=2,
            pre_kernels=[[[1.0, 0.0], [0.5, 0.5]]],
            post_kernels=[[[1.0, 0.0], [0.5, 0.5]]],
            b=[[1.0]],
            pi=[[0.0]],
            p=[[0.8]],
            d=0,
            x0=0,
        )
        with pytest.raises(SupportError):
            step_from(spec, 0.0, 0, 1)


class TestMultiStep:
    def test_level_zero_reduces_to_one_step(self, m3):
        for x_prev, x_next in itertools.product(range(2), repeat=2):
            for prev in (0.0, 0.3, 1.0):
                one = step_from(m3, prev, x_prev, x_next)
                multi = change_multistep(m3, (x_prev, x_next), prev)
                assert multi == pytest.approx(one, abs=1e-14)

    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_composition_of_one_steps(self, make):
        spec = make()
        rng = np.random.default_rng(7)
        for _ in range(50):
            window = tuple(rng.integers(0, spec.alphabet_size, size=4).tolist())
            anchor = float(rng.uniform())
            chained = anchor
            for r in range(1, 4):
                chained = step_from(spec, chained, window[r - 1], window[r])
            multi = change_multistep(spec, window, anchor)
            assert np.max(np.abs(multi - chained)) <= 1e-12

    def test_anchor_one_stays_one(self, m3):
        rng = np.random.default_rng(8)
        window = tuple(rng.integers(0, 2, size=3).tolist())
        assert change_multistep(m3, window, 1.0) == pytest.approx(np.ones((2, 2)))

    def test_from_origin_equals_chained_filter(self, m4):
        for path in all_paths(m4, 3):
            state = filter_through(m4, path)
            got = change_from_origin(m4, path)
            assert got == pytest.approx(state.change_prob, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    def test_monotone_in_anchor(self, seed, a, b):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        l = int(rng.integers(0, 3))
        window = tuple(rng.integers(0, spec.alphabet_size, size=l + 2).tolist())
        lo, hi = min(a, b), max(a, b)
        f_lo = change_multistep(spec, window, lo)
        f_hi = change_multistep(spec, window, hi)
        assert np.all(f_hi >= f_lo - 1e-12)


class TestBackshift:
    def test_inverts_example(self, m1):
        assert change_backshift(m1, (0, 1), 0.5)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_certain_change_stays_certain(self, m3):
        spec = make_m3(d=1)
        rng = np.random.default_rng(4)
        for _ in range(10):
            window = tuple(rng.integers(0, 2, size=3).tolist())
            assert change_backshift(spec, window, 1.0) == pytest.approx(np.ones((2, 2)))

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_round_trip(self, d):
        spec = make_m3(d)
        rng = np.random.default_rng(13)
        for _ in range(100):
            window = tuple(rng.integers(0, 2, size=d + 2).tolist())
            anchor = float(rng.uniform(0.0, 1.0))
            forward = change_multistep(spec, window, anchor)
            assert change_backshift(spec, window, forward) == pytest.approx(
                np.full((2, 2), anchor), abs=1e-9
            )

    def test_window_length_enforced(self, m1):
        with pytest.raises(ValueError):
            change_backshift(m1, (0, 1, 0), 0.5)

    @pytest.mark.parametrize(
        "spec, dead",
        [(make(d), False) for make in (make_m1, make_m3, make_m4) for d in (0, 1)]
        + [(make_zero_support(), True)],
    )
    def test_batched_check_equals_per_window_loop(self, spec, dead):
        # the battery's one-call check against its per-window form: the same
        # draws, the backward error of the recovered anchor (clipped to
        # [0, 1]) through the forward map, windows skipped on SupportError
        # (only where 1 -> 1 is impossible), NaN pairs masked
        for seed in (1, 7):
            width, trials = spec.d + 3, 200
            counters = np.arange(1, -(-trials * width // 4) + 1, dtype=np.uint64)
            raw = crosscheck._philox(np.uint64(seed), np.uint64(0), counters).ravel()[: trials * width]
            u = ((raw >> 11) * 2.0**-53).reshape(trials, width)
            symbols = (u[:, :-1] * spec.alphabet_size).astype(np.int64)
            worst, skipped = 0.0, 0
            for window, anchor in zip(map(tuple, symbols.tolist()), u[:, -1].tolist()):
                try:
                    forward = change_multistep(spec, window, anchor)
                    back = change_backshift(spec, window, forward)
                except SupportError:
                    skipped += 1
                    continue
                err = np.abs(change_multistep(spec, window, np.clip(back, 0.0, 1.0)) - forward)
                live = ~np.isnan(err)
                if np.any(live):
                    worst = max(worst, float(np.max(err[live])))
            assert (skipped > 0) == dead
            assert crosscheck.check_backshift_inversion(spec, seed=seed).max_err == worst


class TestPairStep:
    def test_singleton_grid_stays_one(self, m1):
        state = state_from(1, (0,), np.array([[0.3]]), np.array([[1.0]]))
        out = state_step(m1, state, 1).pair_prob
        assert out == pytest.approx(np.array([[1.0]]))

    def test_rows_sum_to_one(self, m3):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5):
            raw = rng.uniform(0.1, 1, size=(2, 2))
            prev_pair = raw / raw.sum()
            prev_change = rng.uniform(0, 1, size=(2, 2))
            state = state_from(n - 1, (0,), prev_change, prev_pair)
            out = state_step(m3, state, 1).pair_prob
            assert float(out.sum()) == pytest.approx(1.0, abs=1e-12)
            assert np.all(out >= 0)

    def test_drifts_to_true_post_kernel(self):
        # On data generated by post kernel j=0, the pair posterior must
        # concentrate there; checked exactly against the enumeration oracle.
        spec = make_m3()
        table = oracle.build_joint(spec, 6)
        path = (0, 1, 1, 1, 1, 1, 1)  # strong post-change signature
        state = filter_through(spec, path)
        change, pair = oracle.exact_posterior(table, path)
        assert np.max(np.abs(pair - state.pair_prob)) <= 1e-10
        assert pair[0, 0] + pair[1, 0] > pair[0, 1] + pair[1, 1]


class TestStateEvolution:
    def test_init_state(self, m1):
        state = state_init(m1)
        assert state.n == 0
        assert state.window == (0,)
        assert state.change_prob == pytest.approx(np.zeros((1, 1)))
        assert state.pair_prob == pytest.approx(np.array([[1.0]]))

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_window_book_keeping(self, d):
        spec = make_m3(d)
        state = state_init(spec)
        for n in range(1, 8):
            state = state_step(spec, state, n % 2)
            assert len(state.window) == min(n, d + 1) + 1
        assert len(state.window) == d + 2

    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_filter_matches_oracle_everywhere(self, make):
        spec = make(d=1)
        table = oracle.build_joint(spec, 5)
        for n in range(1, 6):
            for path in all_paths(spec, n):
                state = filter_through(spec, path)
                change, pair = oracle.exact_posterior(table, path)
                assert np.max(np.abs(pair - state.pair_prob)) <= 1e-10
                assert np.max(np.abs(change - state.change_prob)) <= 1e-10


# the eight reference specs and one with a transition outside the common support
TREE_SPECS = [make(d) for make in (make_m1, make_m2, make_m3, make_m4) for d in (0, 1)] + [make_zero_support()]


class TestFilterTree:
    @pytest.mark.parametrize("spec", TREE_SPECS)
    def test_positive_paths_in_table_order(self, spec):
        # the paths of 1 .. h steps with positive probability, in the joint
        # table's order, each with the grids of filtering it step by step
        horizon = 6 if spec.alphabet_size == 2 else 4
        table = oracle.build_joint(spec, horizon)
        levels = list(filter_levels(spec, horizon))[1:]
        expected = [
            path
            for level, mass in zip(table.levels[1:], table.mass[1:])
            for path, live in zip(level, (mass > 0.0).tolist())
            if live
        ]
        assert [tuple(path) for level in levels for path in level.paths.tolist()] == expected
        for level in levels:
            for row, path in enumerate(level.paths.tolist()):
                ref = filter_through(spec, path)
                assert level.n == ref.n
                assert np.array_equal(level.change[row], ref.change_prob)
                assert np.array_equal(level.pair[row], ref.pair_prob)

    @pytest.mark.parametrize("spec", TREE_SPECS)
    def test_parent_is_the_prefix_row(self, spec):
        levels = list(filter_levels(spec, 6 if spec.alphabet_size == 2 else 4))
        assert levels[0].parent is None
        for prev, level in zip(levels, levels[1:]):
            assert np.array_equal(prev.paths[level.parent], level.paths[:, :-1])

    @pytest.mark.parametrize("spec", [make_m3(1), make_m4(0), make_zero_support()])
    def test_level_predictive_is_per_state_predictive(self, spec):
        levels = list(filter_levels(spec, 4))
        assert [level.n for level in levels] == [0, 1, 2, 3, 4]
        assert levels[-1].pred is None
        for level in levels[:-1]:
            for row, path in enumerate(level.paths.tolist()):
                assert _bits(level.pred[row]) == _bits(predictive(spec, filter_through(spec, path)))

    @pytest.mark.parametrize("spec", TREE_SPECS[:-1])
    def test_conditional_recursion_referees_the_views(self, spec):
        # the per-pair recursion on the conditional (change, pair) grids
        # follows the views of the joint masses to rounding, node by node
        levels = list(filter_levels(spec, 6 if spec.alphabet_size == 2 else 4))
        grids = [(np.zeros((spec.l0, spec.l1)), spec.b)]
        for level in levels[1:]:
            grids = [
                scalar_filter.conditional_step(spec, path[-2], path[-1], *grids[up], level.n)
                for up, path in zip(level.parent.tolist(), level.paths.tolist())
            ]
            change, pair = level.change, level.pair
            for row, (c, g) in enumerate(grids):
                assert np.max(np.abs(c - change[row])) <= 1e-14
                assert np.max(np.abs(g - pair[row])) <= 1e-14

    def test_dead_row_raises_like_state_step(self):
        # an invalid spec: 0 -> 1 impossible under pair (0, 0) only, so it
        # has positive predictive mass while pair (0, 0) has none
        payload = spec_to_dict(make_m3())
        payload["pre_kernels"][0][0] = [1.0, 0.0]
        payload["post_kernels"][0][0] = [1.0, 0.0]
        spec = spec_from_dict(payload)
        assert predictive(spec, state_init(spec))[1] > 0.0
        with pytest.raises(SupportError):
            state_step(spec, state_init(spec), 1)
        with pytest.raises(SupportError):
            list(filter_levels(spec, 2))

    def test_dead_row_names_its_transition(self):
        # filter_levels raises state_step's message, naming the transition
        payload = spec_to_dict(make_m3())
        payload["pre_kernels"][0][0] = [1.0, 0.0]
        payload["post_kernels"][0][0] = [1.0, 0.0]
        spec = spec_from_dict(payload)
        with pytest.raises(SupportError) as per_state:
            state_step(spec, state_init(spec), 1)
        with pytest.raises(SupportError) as levels:
            list(filter_levels(spec, 2))
        assert str(levels.value) == str(per_state.value) == "observation 1 outside common support after 0"


class TestSupportError:
    """The filter step raises the one SupportError, naming the lowest dead row's transition."""

    # alphabet 3 with 1 -> 1 and 2 -> 0 impossible under every kernel
    spec = with_shared_zero(with_shared_zero(make_m4(1), 1, 1), 2, 0)
    AFTER_2 = "observation 0 outside common support after 2"
    AFTER_1 = "observation 1 outside common support after 1"

    def raised(self, call, *args):
        with pytest.raises(SupportError) as err:
            call(*args)
        return str(err.value)

    def test_scalar_step(self):
        spec = self.spec
        assert self.raised(_filter_step, spec, True, *masses(0.0, spec.b), 2, 0) == self.AFTER_2
        grids = masses(np.full(spec.b.shape, 0.3), spec.b)
        assert self.raised(_filter_step, spec, False, *grids, 1, 1) == self.AFTER_1

    @pytest.mark.parametrize("time_zero", [True, False])
    def test_batch_names_lowest_dead_row(self, time_zero):
        spec = self.spec
        pair = np.broadcast_to(spec.b, (4,) + spec.b.shape)
        grids = masses(0.0 if time_zero else np.full(pair.shape, 0.3), pair)
        x_prev, x_next = np.array([0, 2, 1, 0]), np.array([1, 0, 1, 2])
        assert self.raised(_filter_step, spec, time_zero, *grids, x_prev, x_next) == self.AFTER_2
        assert self.raised(_filter_step, spec, time_zero, *grids, x_prev[::-1], x_next[::-1]) == self.AFTER_1

    def test_callers_raise_the_same_text(self):
        spec = self.spec
        state = state_step(spec, state_init(spec), 2)
        assert self.raised(state_step, spec, state, 0) == self.AFTER_2
        # both rows die at step 2, before a rule may stop; the second walk
        # meets the step-1 nodes the first one grew
        paths = np.array([(0, 2, 0, 0), (0, 1, 1, 0)])
        cfg = ValueIterConfig(k_max=5)
        for rule in (posterior_threshold_rule(spec), OptimalStoppingRule(spec, cfg), OptimalStoppingRule(spec, cfg, "literal")):
            assert self.raised(rule.stop_times, paths) == self.AFTER_2
            assert self.raised(rule.stop_times, paths[::-1]) == self.AFTER_1
            assert self.raised(rule, (0, 1, 1, 0)) == self.AFTER_1


class TestLagged:
    def test_matches_oracle(self, m4):
        spec = make_m4(d=1)
        table = oracle.build_joint(spec, 5)
        for n in range(2, 6):
            for path in all_paths(spec, n):
                state = filter_through(spec, path)
                for k in range(0, min(3, n - 2) + 1):
                    got_oracle = oracle.change_cdf_given_pair(table, path, n - k - 1)
                    expected = change_lagged(spec, k, path, state.unchanged / state.pair_prob)
                    assert np.max(np.abs(got_oracle - expected)) <= 1e-10

    def test_boundary_time_is_zero(self, m3):
        table = oracle.build_joint(m3, 4)
        for k in range(0, 3):
            n = k + 1
            for path in all_paths(m3, n):
                got = oracle.change_cdf_given_pair(table, path, 0)
                assert np.max(np.abs(got)) == 0.0

    def test_window_too_short_rejected(self, m1):
        with pytest.raises(ValueError):
            change_lagged(m1, 2, (0, 1), 0.5)


class TestPredictive:
    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_sums_to_one(self, make):
        spec = make(d=1)
        for path in all_paths(spec, 3):
            state = filter_through(spec, path)
            assert math.fsum(predictive(spec, state).tolist()) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_certain_change_uses_post_mixture(self, m3):
        state = filter_through(m3, (0, 1, 1, 1))
        forced = state_from(state.n, state.window, np.ones((2, 2)), state.pair_prob)
        got = predictive(m3, forced)
        x = state.window[-1]
        expected = np.zeros(2)
        for i, j in np.ndindex(m3.l0, m3.l1):
            expected += float(state.pair_prob[i, j]) * m3.post_kernels[j, x]
        assert got == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_chain_rule_against_path_probability(self, make):
        spec = make(d=1)
        for n in range(1, 4):
            for path in all_paths(spec, n):
                state = filter_through(spec, path)
                pred = predictive(spec, state)
                base = path_probability(spec, path)
                for y in range(spec.alphabet_size):
                    ratio = path_probability(spec, path + (y,)) / base
                    assert float(pred[y]) == pytest.approx(ratio, abs=1e-12)

    def test_depth_zero_matches_first_step_law(self, m4):
        pred = predictive(m4, state_init(m4))
        for y in range(m4.alphabet_size):
            assert float(pred[y]) == pytest.approx(
                path_probability(m4, (m4.x0, y)), abs=1e-14
            )


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    alphabet=st.integers(2, 3),
    l0=st.integers(1, 2),
    l1=st.integers(1, 2),
    d=st.integers(0, 2),
    horizon=st.integers(1, 6),
)
def test_grid_core_equals_scalar_reference(seed, alphabet, l0, l1, d, horizon):
    # the grid filter is the per-pair scalar filter, bit for bit, along a
    # random path of a random instance
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, alphabet, l0, l1, d)
    path = (spec.x0,) + tuple(rng.integers(0, alphabet, size=horizon).tolist())
    state = ref = state_init(spec)
    assert _bits(predictive(spec, state)) == _bits(scalar_filter.predictive(spec, ref))
    for n in range(1, horizon + 1):
        state = state_step(spec, state, path[n])
        ref = scalar_filter.state_step(spec, ref, path[n])
        assert state.window == ref.window
        assert _bits(state.unchanged) == _bits(ref.unchanged)
        assert _bits(state.changed) == _bits(ref.changed)
        assert _bits(predictive(spec, state)) == _bits(scalar_filter.predictive(spec, ref))
        assert path_probability(spec, path[: n + 1]) == scalar_filter.path_probability(spec, path[: n + 1])
    # every window density form against its per-pair formula
    window = path[-min(horizon + 1, d + 2) :]
    alpha = rng.uniform(0.0, 1.0, size=(l0, l1))
    splits = split_likelihoods(spec, window)
    for origin in (False, True):
        changed, total = window_mixture(spec, window, alpha, origin)
        for i, j in np.ndindex(spec.l0, spec.l1):
            a = float(alpha[i, j])
            assert list(splits[i, j]) == scalar_filter.splits(spec, i, j, window)
            assert total[i, j] == scalar_filter.window_marginal(spec, i, j, window, a, origin)
            assert changed[i, j] == scalar_filter.window_changed(spec, i, j, window, a, origin)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    alphabet=st.integers(2, 3),
    l0=st.integers(1, 3),
    l1=st.integers(1, 3),
    horizon=st.integers(1, 6),
)
@example(seed=1, alphabet=3, l0=3, l1=3, horizon=6)
def test_batched_step_equals_scalar_reference(seed, alphabet, l0, l1, horizon):
    # the filter step over a leading batch axis is the per-pair scalar filter,
    # row by row and bit for bit; a 3 x 3 grid takes numpy's 8-wide pairwise
    # summation, which 2 x 2 grids never reach
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, alphabet, l0, l1)
    paths = np.concatenate(
        [np.full((5, 1), spec.x0), rng.integers(0, alphabet, size=(5, horizon))], axis=1
    )
    refs = [state_init(spec)] * len(paths)
    unchanged, changed = np.broadcast_to(spec.b, (len(paths), l0, l1)), np.zeros((len(paths), l0, l1))
    for n in range(1, horizon + 1):
        # full support: the step does not raise
        unchanged, changed = _filter_step(spec, n == 1, unchanged, changed, paths[:, n - 1], paths[:, n])
        mass = changed.sum(axis=(1, 2))
        for row, path in enumerate(paths.tolist()):
            refs[row] = ref = scalar_filter.state_step(spec, refs[row], path[n])
            assert _bits(unchanged[row]) == _bits(ref.unchanged)
            assert _bits(changed[row]) == _bits(ref.changed)
            assert mass[row] == float(np.sum(ref.changed))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    alphabet=st.integers(2, 3),
    l0=st.integers(1, 2),
    l1=st.integers(1, 2),
    d=st.integers(0, 2),
    zero=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
@example(seed=0, alphabet=2, l0=2, l1=2, d=0, zero=(1, 1))
def test_batched_window_forms_equal_per_window(seed, alphabet, l0, l1, d, zero):
    # each row of a window batch is the per-window call bit for bit; a row
    # the per-window call rejects with SupportError comes back all NaN, and
    # a batch of such rows only raises SupportError
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, alphabet, l0, l1, d)
    windows = rng.integers(0, alphabet, size=(12, d + 2))
    if zero is not None:
        x, y = zero[0] % alphabet, zero[1] % alphabet
        spec = with_shared_zero(spec, x, y)
        windows[:3, :2] = (x, y)
    rows = list(map(tuple, windows.tolist()))
    grids = rng.uniform(0.0, 1.0, size=(2, 12, l0, l1))
    for origin in (False, True):
        changed, total = window_mixture(spec, windows, grids[0], origin)
        for r, window in enumerate(rows):
            one = window_mixture(spec, window, grids[0][r], origin)
            assert (_bits(changed[r]), _bits(total[r])) == (_bits(one[0]), _bits(one[1]))
    # the ratio chain, and the payoff coefficients and lagged posterior built
    # on it: a batch raises SupportError when one of its windows does
    forms = [lambda w, r, m=m: likelihood_ratio_chain(spec, w, m) for m in range(d + 2)]
    forms += [lambda w, r: detection_coeff_matrix(spec, w), lambda w, r: change_lagged(spec, d, w, grids[0][r])]
    for form in forms:
        ones = []
        for r, window in enumerate(rows):
            try:
                ones.append(_bits(form(window, r)))
            except SupportError:
                ones.append(None)
        if None in ones:
            with pytest.raises(SupportError):
                form(windows, slice(None))
        else:
            assert [_bits(row) for row in form(windows, slice(None))] == ones
    paths = np.column_stack((np.full(12, spec.x0), windows))
    probs = path_probability(spec, paths)
    assert [float(v) for v in probs] == [path_probability(spec, path) for path in paths.tolist()]
    for form, grid, name in ((change_multistep, grids[0], "anchor"), (change_backshift, grids[1], "current")):
        for batch in (windows, windows[:3]):
            try:
                got = form(spec, batch, grid[: len(batch)])
            except SupportError:
                got = None
            for r, window in enumerate(map(tuple, batch.tolist())):
                try:
                    one = form(spec, window, grid[r])
                except SupportError:
                    assert got is None or np.isnan(got[r]).all()
                else:
                    assert got is not None and _bits(got[r]) == _bits(one)
        bad = windows.copy()
        bad[5, -1] = alphabet
        with pytest.raises(ValueError, match=f"symbol {alphabet} outside alphabet"):
            form(spec, bad, grid)
        for value in (-0.25, 1.5):
            off = grid.copy()
            off[7, 0, 0] = value
            with pytest.raises(ValueError, match=f"{name} posterior must lie in"):
                form(spec, windows, off)
