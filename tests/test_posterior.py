import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disorder import (
    PosteriorState,
    SupportError,
    change_backshift,
    change_from_origin,
    change_lagged,
    change_multistep,
    filter_tree,
    path_probability,
    predictive,
    split_likelihoods,
    state_init,
    state_step,
    window_mixture,
)
from disorder import oracle
from disorder.posterior import _filter_step

import scalar_filter
from conftest import make_m1, make_m2, make_m3, make_m4, make_zero_support, random_spec, step_from


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


class TestPairStep:
    def test_singleton_grid_stays_one(self, m1):
        state = PosteriorState(n=1, window=(0,), change_prob=np.array([[0.3]]), pair_prob=np.array([[1.0]]))
        out = state_step(m1, state, 1).pair_prob
        assert out == pytest.approx(np.array([[1.0]]))

    def test_rows_sum_to_one(self, m3):
        rng = np.random.default_rng(21)
        for n in (1, 2, 5):
            raw = rng.uniform(0.1, 1, size=(2, 2))
            prev_pair = raw / raw.sum()
            prev_change = rng.uniform(0, 1, size=(2, 2))
            state = PosteriorState(n=n - 1, window=(0,), change_prob=prev_change, pair_prob=prev_pair)
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


class TestFilterTree:
    @pytest.mark.parametrize(
        "spec",
        [make(d) for make in (make_m1, make_m2, make_m3, make_m4) for d in (0, 1)]
        + [make_zero_support()],
    )
    def test_positive_paths_in_table_order(self, spec):
        # the paths of 1 .. h steps with positive probability, in the joint
        # table's order, each with the state of filtering it step by step
        horizon = 6 if spec.alphabet_size == 2 else 4
        table = oracle.build_joint(spec, horizon)
        tree = filter_tree(spec, horizon)
        expected = [
            path
            for level in table.levels[1:]
            for path in level
            if oracle.path_prob(table, path) > 0.0
        ]
        assert list(tree) == expected
        for path, state in tree.items():
            ref = filter_through(spec, path)
            assert (state.n, state.window) == (ref.n, ref.window)
            assert np.array_equal(state.change_prob, ref.change_prob)
            assert np.array_equal(state.pair_prob, ref.pair_prob)


class TestLagged:
    def test_matches_oracle(self, m4):
        spec = make_m4(d=1)
        table = oracle.build_joint(spec, 5)
        for n in range(2, 6):
            for path in all_paths(spec, n):
                state = filter_through(spec, path)
                for k in range(0, min(3, n - 2) + 1):
                    got_oracle = oracle.change_cdf_given_pair(table, path, n - k - 1)
                    expected = change_lagged(spec, k, path, state.change_prob)
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
        forced = type(state)(
            n=state.n,
            window=state.window,
            change_prob=np.ones((2, 2)),
            pair_prob=state.pair_prob,
        )
        got = predictive(m3, forced)
        x = state.window[-1]
        expected = np.zeros(2)
        for i, j in m3.pairs():
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
        assert _bits(state.change_prob) == _bits(ref.change_prob)
        assert _bits(state.pair_prob) == _bits(ref.pair_prob)
        assert _bits(predictive(spec, state)) == _bits(scalar_filter.predictive(spec, ref))
        assert path_probability(spec, path[: n + 1]) == scalar_filter.path_probability(spec, path[: n + 1])
    # every window density form against its per-pair formula
    window = path[-min(horizon + 1, d + 2) :]
    alpha = rng.uniform(0.0, 1.0, size=(l0, l1))
    splits = split_likelihoods(spec, window)
    for origin in (False, True):
        changed, total = window_mixture(spec, window, alpha, origin)
        for i, j in spec.pairs():
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
    change, pair = None, np.broadcast_to(spec.b, (len(paths), l0, l1))
    for n in range(1, horizon + 1):
        change, pair, dead = _filter_step(spec, change, pair, paths[:, n - 1], paths[:, n])
        assert dead is None
        mass = (change * pair).sum(axis=(1, 2))
        for row, path in enumerate(paths.tolist()):
            refs[row] = ref = scalar_filter.state_step(spec, refs[row], path[n])
            assert _bits(change[row]) == _bits(ref.change_prob)
            assert _bits(pair[row]) == _bits(ref.pair_prob)
            assert mass[row] == float(np.sum(ref.change_prob * ref.pair_prob))
