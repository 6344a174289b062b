import itertools
import math

import numpy as np
import pytest

from disorder import (
    SupportError,
    change_time_pmf,
    criterion_probability,
    state_init,
    state_payoff,
    state_step,
    stop_payoff,
    stop_payoff_boundary,
)
from disorder.payoff import detection_coeff_matrix

from conftest import make_m1, make_m2, make_m3, make_m4, make_zero_support


def filter_through(spec, path):
    state = state_init(spec)
    for sym in path[1:]:
        state = state_step(spec, state, sym)
    return state


class TestStopPayoff:
    def test_certain_change_pays_nothing(self, m3):
        delta = np.full((2, 2), 0.25)
        assert stop_payoff(m3, (0, 1), np.ones((2, 2)), delta) == 0.0

    def test_frozen_example(self, m1):
        got = stop_payoff(m1, (0, 1), np.array([[0.5]]), np.array([[1.0]]))
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
        got = stop_payoff(same, (0, 1, 0), np.array([[0.0]]), np.array([[1.0]]))
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
        f0, f1 = stop_payoff(m3, window, g0, d0), stop_payoff(m3, window, g1, d0)
        fm = stop_payoff(m3, window, gm, d0)
        assert fm == pytest.approx(0.5 * (f0 + f1), abs=1e-12)
        d1, dm = d0.copy(), d0.copy()
        d1[i, j] = 0.0
        dm[i, j] = 0.5 * d0[i, j]
        f0, f1 = stop_payoff(m3, window, g0, d0), stop_payoff(m3, window, g0, d1)
        fm = stop_payoff(m3, window, g0, dm)
        assert fm == pytest.approx(0.5 * (f0 + f1), abs=1e-12)

    def test_nonnegative(self, m4):
        rng = np.random.default_rng(5)
        for _ in range(30):
            window = tuple(rng.integers(0, 3, size=m4.d + 2).tolist())
            gamma = rng.uniform(0, 1, (2, 1))
            delta = rng.uniform(0, 1, (2, 1))
            assert stop_payoff(m4, window, gamma, delta) >= 0.0

    def test_filter_states_stay_in_unit_interval(self):
        spec = make_m3(d=1)
        for tail in itertools.product(range(2), repeat=4):
            path = (0,) + tail
            state = filter_through(spec, path)
            val = stop_payoff(spec, state.window, state.change_prob, state.pair_prob)
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
            stop_payoff(spec, (0, 1), np.array([[0.0]]), np.array([[1.0]]))

    def test_window_length_enforced(self, m1):
        with pytest.raises(ValueError):
            stop_payoff(m1, (0, 1, 0), np.array([[0.0]]), np.array([[1.0]]))


class TestBoundaryPayoff:
    def test_certain_change_max_payoff(self, m3):
        delta = np.full((2, 2), 0.25)
        got = stop_payoff_boundary(m3, np.ones((2, 2)), delta)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_zero_delta(self, m3):
        assert stop_payoff_boundary(m3, np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_single_pair_example(self):
        spec = make_m1(d=1)
        got = stop_payoff_boundary(spec, np.array([[0.0]]), np.array([[1.0]]))
        assert got == pytest.approx(0.2, abs=1e-14)

    def test_range_on_simplex(self, m4):
        rng = np.random.default_rng(6)
        for _ in range(30):
            raw = rng.uniform(0, 1, (2, 1))
            delta = raw / raw.sum()
            gamma = rng.uniform(0, 1, (2, 1))
            val = stop_payoff_boundary(m4, gamma, delta)
            assert 0.0 <= val <= 1.0 + 1e-14


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

        # state_payoff picks the boundary form at d + 1, the window form
        # later, and rejects earlier states
        spec = make(d)
        table = build_joint(spec, 5)
        for tail in itertools.product(range(spec.alphabet_size), repeat=d):
            with pytest.raises(ValueError):
                state_payoff(spec, filter_through(spec, (spec.x0,) + tail))
        for n in range(d + 1, 6):
            for tail in itertools.product(range(spec.alphabet_size), repeat=n):
                path = (spec.x0,) + tail
                state = filter_through(spec, path)
                z = detection_mass(table, path, n) / path_prob(table, path)
                if n == d + 1:
                    val = stop_payoff_boundary(spec, state.change_prob, state.pair_prob)
                else:
                    val = stop_payoff(spec, state.window, state.change_prob, state.pair_prob)
                assert abs(val - z) <= 1e-10
                assert state_payoff(spec, state) == val


class TestCoeffMatrix:
    def test_matches_scalar_payoff(self, m3):
        window = (0, 1)
        coeff = detection_coeff_matrix(m3, window)
        gamma = np.array([[0.2, 0.4], [0.1, 0.9]])
        delta = np.array([[0.3, 0.2], [0.25, 0.25]])
        manual = float(np.sum(coeff * (1 - gamma) * delta))
        assert stop_payoff(m3, window, gamma, delta) == pytest.approx(manual, abs=1e-14)
