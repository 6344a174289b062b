import math
from collections import Counter

import numpy as np
import pytest

from disorder import (
    OptimalStoppingRule,
    RuleError,
    ValueIterConfig,
    change_time_pmf,
    fixed_time_rule,
    monte_carlo_eval,
    path_probability,
    posterior_threshold_rule,
    sample_trajectory,
)
from disorder.simulate import (
    TrajectorySampler,
    mix_seed,
    report_from_csv,
    report_to_csv,
    report_to_json,
)

from conftest import make_m2, make_m3, make_m4


class TestSampling:
    def test_deterministic_in_seed(self, m3):
        a = sample_trajectory(m3, 6, 12345)
        b = sample_trajectory(m3, 6, 12345)
        assert a == b
        c = sample_trajectory(m3, 6, 12346)
        assert a != c

    def test_starts_at_x0(self, m4):
        for seed in range(20):
            assert sample_trajectory(m4, 4, seed).observations[0] == m4.x0

    def test_certain_immediate_change(self):
        base = make_m2()
        spec = type(base)(
            alphabet_size=2,
            pre_kernels=base.pre_kernels,
            post_kernels=base.post_kernels,
            b=base.b,
            pi=[[1.0]],
            p=base.p,
            d=0,
            x0=0,
        )
        for seed in range(50):
            assert sample_trajectory(spec, 3, seed).latent.theta == 1

    def test_latent_pair_frequencies(self, m3):
        sampler = TrajectorySampler(m3, 1)
        counts = np.zeros((2, 2))
        n = 20_000
        for idx in range(n):
            traj = sampler.sample(mix_seed(99, idx))
            counts[traj.latent.beta1, traj.latent.beta2] += 1
        assert np.max(np.abs(counts / n - np.asarray(m3.b))) < 0.01

    def test_change_time_histogram(self, m2):
        sampler = TrajectorySampler(m2, 1)
        n = 30_000
        counts = Counter(
            sampler.sample(mix_seed(7, idx)).latent.theta for idx in range(n)
        )
        for k in range(2, 10):
            expected = change_time_pmf(m2, k)
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(counts[k] / n - expected) < 4 * se

    def test_path_frequencies(self, m4):
        sampler = TrajectorySampler(m4, 2)
        n = 30_000
        counts = Counter(
            sampler.sample(mix_seed(11, idx)).observations for idx in range(n)
        )
        for path, cnt in counts.items():
            pp = path_probability(m4, path)
            se = math.sqrt(pp * (1 - pp) / n)
            assert abs(cnt / n - pp) < 4.5 * se

    def test_switch_continuity(self, m3):
        # the post-change chain continues from the last pre-change symbol;
        # observed as: transition at theta drawn from post kernel row X_{theta-1}
        traj = sample_trajectory(m3, 6, 4242)
        assert len(traj.observations) == 7


class TestMonteCarlo:
    def test_fixed_rule_matches_closed_form(self):
        spec = make_m2(d=1)
        report = monte_carlo_eval(
            spec, {"fixed": fixed_time_rule(spec)}, 20_000, 6, 2024
        )
        stats = report.rules["fixed"]
        head = math.fsum(change_time_pmf(spec, k) for k in range(1, 2 * spec.d + 2))
        assert abs(stats.estimate - head) <= 3 * stats.std_error + 1e-9
        assert stats.mean_stop_time == pytest.approx(spec.d + 1)
        assert stats.censored_rate == 0.0

    def test_bit_identical_reports(self, tmp_path, m2):
        rules = {"fixed": fixed_time_rule(m2), "threshold": posterior_threshold_rule(m2)}
        r1 = monte_carlo_eval(m2, rules, 500, 6, 77)
        r2 = monte_carlo_eval(m2, rules, 500, 6, 77)
        assert r1 == r2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report_to_csv(r1, p1)
        report_to_csv(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_common_random_numbers(self, m2):
        # a rule added to the set must not change the trajectories others see
        seen_a, seen_b = [], []

        def recorder(store):
            def rule(obs):
                store.append(obs)
                return 1

            return rule

        monte_carlo_eval(m2, {"a": recorder(seen_a)}, 50, 4, 5)
        monte_carlo_eval(
            m2, {"z_extra": lambda obs: 2, "a": recorder(seen_b)}, 50, 4, 5
        )
        assert seen_a == seen_b

    def test_censoring_counted(self, m2):
        report = monte_carlo_eval(m2, {"never": lambda obs: None}, 200, 4, 9)
        stats = report.rules["never"]
        assert stats.censored_rate == 1.0
        assert stats.mean_stop_time == pytest.approx(4.0)
        assert 0.0 <= stats.estimate <= 1.0

    def test_rule_error_carries_seed(self, m2):
        def bad(obs):
            raise RuntimeError("boom")

        with pytest.raises(RuleError, match="trajectory seed") as info:
            monte_carlo_eval(m2, {"bad": bad}, 5, 4, 1)
        assert info.value.rule == "bad"
        assert info.value.seed == mix_seed(1, 0)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_optimal_dominates_threshold(self):
        spec = make_m2()
        cfg = ValueIterConfig(k_max=8, tol=1e-8)
        rules = {
            "optimal": OptimalStoppingRule(spec, cfg).stop_time,
            "threshold": posterior_threshold_rule(spec),
            "fixed": fixed_time_rule(spec),
        }
        report = monte_carlo_eval(spec, rules, 4_000, 8, 314)
        opt = report.rules["optimal"]
        for other in ("threshold", "fixed"):
            stats = report.rules[other]
            pooled = math.hypot(opt.std_error, stats.std_error)
            assert opt.estimate >= stats.estimate - 2 * pooled


class TestReports:
    def test_csv_round_trip_exact(self, tmp_path, m3):
        rules = {"fixed": fixed_time_rule(m3)}
        report = monte_carlo_eval(m3, rules, 300, 5, 123)
        path = tmp_path / "report.csv"
        report_to_csv(report, path)
        loaded = report_from_csv(path)
        assert loaded == report

    def test_json_written(self, tmp_path, m3):
        report = monte_carlo_eval(m3, {"fixed": fixed_time_rule(m3)}, 50, 5, 3)
        path = tmp_path / "report.json"
        report_to_json(report, path)
        import json

        payload = json.loads(path.read_text())
        assert payload["rules"]["fixed"]["estimate"] == report.rules["fixed"].estimate
