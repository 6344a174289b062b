import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disorder import (
    SupportError,
    change_time_pmf,
    criterion_probability,
    load_spec,
    path_probability,
    state_init,
    state_step,
    stop_payoff,
    validate,
)
from disorder.payoff import detection_coeff_matrix
from disorder.posterior import filter_levels

from conftest import make_m1, make_m2, make_m3, make_m4, make_zero_support, masses, random_spec
from conftest import with_shared_zero

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))


def filter_through(spec, path):
    state = state_init(spec)
    for sym in path[1:]:
        state = state_step(spec, state, sym)
    return state


def state_stop_payoff(spec, state):
    """The one-row stop payoff of a filter state at its own time."""
    return stop_payoff(spec, state.n, state.window, state.unchanged, state.changed)


class TestStopPayoff:
    def test_certain_change_pays_nothing(self, m3):
        delta = np.full((2, 2), 0.25)
        assert stop_payoff(m3, m3.d + 2, (0, 1), *masses(np.ones((2, 2)), delta)) == 0.0

    def test_frozen_example(self, m1):
        got = stop_payoff(m1, m1.d + 2, (0, 1), *masses(np.array([[0.5]]), np.array([[1.0]])))
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_identical_kernels_closed_form(self):
        spec = make_m1(d=1)
        same = type(spec)(
            alphabet_size=2,
            pre_kernels=spec.pre_kernels,
            post_kernels=spec.pre_kernels,
            b=spec.b,
            pi=spec.pi,
            p=spec.p,
            d=1,
            x0=0,
        )
        p = 0.8
        q = 0.2
        expected = 1 - p + q * (1 / p + 1 / p**2)
        got = stop_payoff(same, same.d + 2, (0, 1, 0), *masses(np.array([[0.0]]), np.array([[1.0]])))
        assert got == pytest.approx(expected, abs=1e-14)

    def test_bilinear_in_gamma_and_delta(self, m3):
        rng = np.random.default_rng(3)
        window = (0, 1)
        i, j = 1, 0
        g0 = rng.uniform(0, 1, (2, 2))
        d0 = rng.uniform(0, 1, (2, 2))
        g1, gm = g0.copy(), g0.copy()
        g1[i, j] = 1.0
        gm[i, j] = 0.5 * (g0[i, j] + 1.0)
        f0 = stop_payoff(m3, m3.d + 2, window, *masses(g0, d0))
        f1 = stop_payoff(m3, m3.d + 2, window, *masses(g1, d0))
        fm = stop_payoff(m3, m3.d + 2, window, *masses(gm, d0))
        assert fm == pytest.approx(0.5 * (f0 + f1), abs=1e-12)
        d1, dm = d0.copy(), d0.copy()
        d1[i, j] = 0.0
        dm[i, j] = 0.5 * d0[i, j]
        f0 = stop_payoff(m3, m3.d + 2, window, *masses(g0, d0))
        f1 = stop_payoff(m3, m3.d + 2, window, *masses(g0, d1))
        fm = stop_payoff(m3, m3.d + 2, window, *masses(g0, dm))
        assert fm == pytest.approx(0.5 * (f0 + f1), abs=1e-12)

    def test_nonnegative(self, m4):
        rng = np.random.default_rng(5)
        for _ in range(30):
            window = tuple(rng.integers(0, 3, size=m4.d + 2).tolist())
            gamma = rng.uniform(0, 1, (2, 1))
            delta = rng.uniform(0, 1, (2, 1))
            assert stop_payoff(m4, m4.d + 2, window, *masses(gamma, delta)) >= 0.0

    def test_filter_states_stay_in_unit_interval(self):
        spec = make_m3(d=1)
        for tail in itertools.product(range(2), repeat=4):
            path = (0,) + tail
            state = filter_through(spec, path)
            val = stop_payoff(spec, spec.d + 2, state.window, state.unchanged, state.changed)
            assert -1e-12 <= val <= 1.0 + 1e-12

    def test_support_error_on_dead_window(self):
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
            stop_payoff(spec, spec.d + 2, (0, 1), *masses(np.array([[0.0]]), np.array([[1.0]])))

    def test_window_length_enforced(self, m1):
        with pytest.raises(ValueError):
            stop_payoff(m1, m1.d + 2, (0, 1, 0), *masses(np.array([[0.0]]), np.array([[1.0]])))


class TestBoundaryPayoff:
    def test_certain_change_max_payoff(self, m3):
        delta = np.full((2, 2), 0.25)
        got = stop_payoff(m3, m3.d + 1, None, *masses(np.ones((2, 2)), delta))
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_zero_delta(self, m3):
        assert stop_payoff(m3, m3.d + 1, None, *masses(np.zeros((2, 2)), np.zeros((2, 2)))) == 0.0

    def test_single_pair_example(self):
        spec = make_m1(d=1)
        got = stop_payoff(spec, spec.d + 1, None, *masses(np.array([[0.0]]), np.array([[1.0]])))
        assert got == pytest.approx(0.2, abs=1e-14)

    def test_range_on_simplex(self, m4):
        rng = np.random.default_rng(6)
        for _ in range(30):
            raw = rng.uniform(0, 1, (2, 1))
            delta = raw / raw.sum()
            gamma = rng.uniform(0, 1, (2, 1))
            val = stop_payoff(m4, m4.d + 1, None, *masses(gamma, delta))
            assert 0.0 <= val <= 1.0 + 1e-14


def assert_batch_is_rows(spec):
    # the batched payoff is its one-row call on every row of filter levels
    # d + 1 .. d + 3, bit for bit
    for level in list(filter_levels(spec, spec.d + 3))[spec.d + 1 :]:
        windows = level.paths[:, -(spec.d + 2) :]
        batch = stop_payoff(spec, level.n, windows, level.unchanged, level.changed)
        rows = [
            stop_payoff(spec, level.n, tuple(window), unchanged, changed)
            for window, unchanged, changed in zip(windows.tolist(), level.unchanged, level.changed)
        ]
        assert all(type(row) is float for row in rows)
        assert [repr(v) for v in batch.tolist()] == [repr(v) for v in rows]


class TestBatchedPayoff:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_reference_configs(self, config):
        assert_batch_is_rows(load_spec(config))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        alphabet=st.integers(2, 3),
        l0=st.integers(1, 2),
        l1=st.integers(1, 2),
        d=st.integers(0, 2),
        zero=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_random_specs_with_shared_zero(self, seed, alphabet, l0, l1, d, zero):
        spec = random_spec(np.random.default_rng(seed), alphabet, l0, l1, d)
        spec = with_shared_zero(spec, zero[0] % alphabet, zero[1] % alphabet)
        assert validate(spec) == []
        assert_batch_is_rows(spec)

    def test_rejects_times_before_d_plus_1(self):
        spec = make_m3(d=1)
        for n in (0, 1):
            with pytest.raises(ValueError, match="from time d \\+ 1 on"):
                stop_payoff(spec, n, (0, 1, 0), *masses(np.zeros((2, 2)), spec.b))


class TestCriterion:
    def test_boundary_equals_head_window(self):
        for make in (make_m2, make_m3):
            for d in (0, 1):
                spec = make(d)
                chk = criterion_probability(spec, d + 1)
                head = math.fsum(change_time_pmf(spec, k) for k in range(1, 2 * d + 2))
                assert chk.prior_value == pytest.approx(head, abs=1e-14)
                assert chk.payoff_value == pytest.approx(head, abs=1e-10)

    def test_m1_zero_hazard_start(self, m1):
        chk = criterion_probability(m1, 1)
        assert chk.prior_value == 0.0
        assert abs(chk.payoff_value) <= 1e-14

    @pytest.mark.parametrize("make", [make_m1, make_m2, make_m3, make_m4, make_zero_support])
    @pytest.mark.parametrize("d", [0, 1])
    def test_identity_away_from_boundary(self, make, d):
        spec = make(d)
        for n in range(d + 1, 7):
            chk = criterion_probability(spec, n)
            assert abs(chk.prior_value - chk.payoff_value) <= 1e-10

    @pytest.mark.parametrize("make", [make_m3, make_m4])
    def test_payoff_route_reads_each_state(self, make):
        # the expectation does not see which d + 2 symbols the window form
        # reads, so each term is checked: P(path) times the path's one-row
        # stop payoff at its filter state, bit for bit
        spec = make(1)
        for n in range(spec.d + 1, 6):
            *_, level = filter_levels(spec, n)
            masses = path_probability(spec, level.paths).tolist()
            payoffs = [state_stop_payoff(spec, filter_through(spec, path)) for path in level.paths.tolist()]
            expected = math.fsum(m * h for m, h in zip(masses, payoffs))
            assert repr(criterion_probability(spec, n).payoff_value) == repr(expected)

    def test_early_stop_rejected(self, m1):
        with pytest.raises(ValueError):
            criterion_probability(make_m3(d=1), 1)


class TestPayoffIsConditionalProbability:
    @pytest.mark.parametrize("make", [make_m2, make_m3, make_m4])
    @pytest.mark.parametrize("d", [0, 1])
    def test_per_path_against_oracle(self, make, d):
        # h at the filter state must equal the oracle's conditional
        # detection probability on every single path, not just on average
        from disorder import build_joint
        from disorder.oracle import detection_mass, path_prob

        # the stop payoff at a filter state's own time picks the boundary
        # form at d + 1, the window form later, and rejects earlier states
        spec = make(d)
        table = build_joint(spec, 5)
        for tail in itertools.product(range(spec.alphabet_size), repeat=d):
            with pytest.raises(ValueError):
                state_stop_payoff(spec, filter_through(spec, (spec.x0,) + tail))
        for n in range(d + 1, 6):
            for tail in itertools.product(range(spec.alphabet_size), repeat=n):
                path = (spec.x0,) + tail
                state = filter_through(spec, path)
                z = detection_mass(table, path, n) / path_prob(table, path)
                if n == d + 1:
                    val = stop_payoff(spec, spec.d + 1, state.window, state.unchanged, state.changed)
                else:
                    val = stop_payoff(spec, spec.d + 2, state.window, state.unchanged, state.changed)
                assert abs(val - z) <= 1e-10
                assert state_stop_payoff(spec, state) == val


class TestCoeffMatrix:
    def test_matches_scalar_payoff(self, m3):
        window = (0, 1)
        coeff = detection_coeff_matrix(m3, window)
        gamma = np.array([[0.2, 0.4], [0.1, 0.9]])
        delta = np.array([[0.3, 0.2], [0.25, 0.25]])
        manual = float(np.sum(coeff * (1 - gamma) * delta))
        assert stop_payoff(m3, m3.d + 2, window, *masses(gamma, delta)) == pytest.approx(manual, abs=1e-14)
