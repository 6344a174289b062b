import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disorder
from disorder import (
    ModelSpec,
    OptimalStoppingRule,
    RuleError,
    SupportError,
    ValueIterConfig,
    change_time_pmf,
    fixed_time_rule,
    load_spec,
    monte_carlo_eval,
    path_probability,
    posterior_threshold_rule,
    state_init,
    state_step,
    validate,
)
from disorder import posterior, simulate
from disorder.model import _cdf
from disorder.simulate import (
    TrajectorySampler,
    _philox,
    mix_seed,
    mix_seeds,
    report_from_csv,
    report_to_csv,
    report_to_json,
)

import scalar_sampler
from conftest import make_m1, make_m2, make_m3, make_m4, random_spec, with_shared_zero
from test_stopping import reference_stops, reference_trace, stop_of


class TestSampling:
    def test_deterministic_in_seed(self, m3):
        a = TrajectorySampler(m3, 6).sample(12345)
        b = TrajectorySampler(m3, 6).sample(12345)
        assert a == b
        c = TrajectorySampler(m3, 6).sample(12346)
        assert a != c

    def test_starts_at_x0(self, m4):
        paths = TrajectorySampler(m4, 4).sample_batch(range(20)).observations
        assert (paths[:, 0] == m4.x0).all()

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
        assert (TrajectorySampler(spec, 3).sample_batch(range(50)).theta == 1).all()

    def test_latent_pair_frequencies(self, m3):
        n = 20_000
        batch = TrajectorySampler(m3, 1).sample_batch(mix_seeds(99, np.arange(n)))
        counts = np.zeros((2, 2))
        np.add.at(counts, (batch.beta1, batch.beta2), 1)
        assert np.max(np.abs(counts / n - np.asarray(m3.b))) < 0.01

    def test_change_time_histogram(self, m2):
        n = 30_000
        thetas = TrajectorySampler(m2, 1).sample_batch(mix_seeds(7, np.arange(n))).theta
        counts = Counter(thetas.tolist())
        for k in range(2, 10):
            expected = change_time_pmf(m2, k)
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(counts[k] / n - expected) < 4 * se

    def test_path_frequencies(self, m4):
        n = 30_000
        paths = TrajectorySampler(m4, 2).sample_batch(mix_seeds(11, np.arange(n))).observations
        counts = Counter(map(tuple, paths.tolist()))
        for path, cnt in counts.items():
            pp = path_probability(m4, path)
            se = math.sqrt(pp * (1 - pp) / n)
            assert abs(cnt / n - pp) < 4.5 * se

    def test_switch_continuity(self, m3):
        # the post-change chain continues from the last pre-change symbol;
        # observed as: transition at theta drawn from post kernel row X_{theta-1}
        traj = TrajectorySampler(m3, 6).sample(4242)
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

    @pytest.mark.parametrize("tau", [2.7, True])
    def test_non_integer_stop_time_is_rule_error(self, m2, tau):
        # 2.7 is not read as 2, nor True as 1; every trajectory fails, so the first names the seed
        rules = {"fixed": fixed_time_rule(m2), "odd": lambda obs: tau}
        with pytest.raises(RuleError) as info:
            monte_carlo_eval(m2, rules, 5, 4, 1)
        assert (info.value.rule, info.value.seed) == ("odd", mix_seed(1, 0))
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == f"rule returned stop time {tau!r}, not an integer or None"

    def test_float_batch_form_is_rule_error(self, m2):
        def floats(obs):
            return 2

        floats.stop_times = lambda observations: np.full(len(observations), 2.0)
        with pytest.raises(RuleError) as info:
            monte_carlo_eval(m2, {"fixed": fixed_time_rule(m2), "floats": floats}, 5, 4, 1)
        assert (info.value.rule, info.value.seed) == ("floats", mix_seed(1, 0))
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "rule's batch form returned stop times of dtype float64, not integers"

    @pytest.mark.parametrize(
        "stop_times, shape",
        [
            (lambda obs: np.array([2]), "(1,), expected (5,)"),
            (lambda obs: np.full((len(obs), 1), 2), "(1, 1), expected (1,)"),
        ],
        ids=["one_row", "column"],
    )
    def test_misshapen_batch_form_is_rule_error(self, m2, stop_times, shape):
        # a batch result is not broadcast to the chunk: a (1,) one on 5 rows
        # fails on the chunk alone, an (N, 1) one on the first trajectory too
        def odd(obs):
            return 2

        odd.stop_times = stop_times
        with pytest.raises(RuleError) as info:
            monte_carlo_eval(m2, {"fixed": fixed_time_rule(m2), "odd": odd}, 5, 4, 1)
        assert (info.value.rule, info.value.seed) == ("odd", mix_seed(1, 0))
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == f"rule's batch form returned shape {shape}"

    def test_rule_error_carries_seed(self, m2):
        def bad(obs):
            raise RuntimeError("boom")

        with pytest.raises(RuleError, match="trajectory seed") as info:
            monte_carlo_eval(m2, {"bad": bad}, 5, 4, 1)
        assert info.value.rule == "bad"
        assert info.value.seed == mix_seed(1, 0)
        assert isinstance(info.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("batched", [False, True])
    def test_stop_time_past_horizon_names_its_seed(self, m2, batched):
        # a rule that returns horizon + 1 on one trajectory of the chunk
        horizon, base, target, n = 10, 3, 2, 6
        observations = TrajectorySampler(m2, horizon).sample_batch(mix_seeds(base, np.arange(n))).observations
        bad_path = tuple(observations[target].tolist())
        assert [tuple(row) for row in observations.tolist()].count(bad_path) == 1

        def per_path(obs):
            return horizon + 1 if tuple(obs) == bad_path else 1

        def stop_times(paths):
            return np.array([per_path(row) for row in paths.tolist()], dtype=np.int64)

        def batch_rule(obs):
            return per_path(obs)

        batch_rule.stop_times = stop_times
        rules = {"fixed": fixed_time_rule(m2), "late": batch_rule if batched else per_path}
        with pytest.raises(RuleError) as info:
            monte_carlo_eval(m2, rules, n, horizon, base)
        assert (info.value.rule, info.value.seed) == ("late", mix_seed(base, target))
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == f"rule returned stop time {horizon + 1} outside [0, {horizon}]"

    def test_batch_failure_not_reproduced_names_first_seed(self, m2):
        # a batch form that fails on a chunk but on no single row: the replay
        # finds no failing trajectory, so the chunk's first seed
        def flaky(obs):
            return 1

        def stop_times(observations):
            if len(observations) > 1:
                raise RuntimeError("batch form failed")
            return np.ones(1, dtype=np.int64)

        flaky.stop_times = stop_times
        rules = {"fixed": fixed_time_rule(m2), "flaky": flaky}
        with pytest.raises(RuleError) as info:
            monte_carlo_eval(m2, rules, 5, 4, 3)
        assert (info.value.rule, info.value.seed) == ("flaky", mix_seed(3, 0))
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_optimal_dominates_threshold(self):
        spec = make_m2()
        cfg = ValueIterConfig(k_max=8)
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


class TestBatchSampler:
    @pytest.mark.parametrize("key0", [0, 1, 0x243F6A8885A308D3, 2**64 - 1])
    @pytest.mark.parametrize("key1", [0, 1, 2**64 - 1])
    def test_philox_equals_numpy_philox(self, key0, key1):
        # Philox4x64-10 over key arrays against numpy's generator, whose
        # counter starts at 1 and which hands out each block's four words in order
        for count in range(1, 18):
            ref = np.random.Philox(key=np.array([key0, key1], dtype=np.uint64)).random_raw(count)
            counter = np.arange(1, -(-count // 4) + 1, dtype=np.uint64)
            got = _philox(np.uint64(key0), np.uint64(key1), counter).reshape(-1)[:count]
            assert got.tolist() == ref.tolist()

    @pytest.mark.parametrize(
        "n, blocks",
        [(1, 1), (7, 2), (simulate._PHILOX_BLOCKS // 5, 5), (simulate._PHILOX_BLOCKS // 5 + 1, 5), (300, 21)],
    )
    def test_philox_key_batch_equals_numpy_philox(self, n, blocks):
        # an (N, 1) key batch against (B,) counters, with the lane constants
        # at full shape (up to _PHILOX_BLOCKS blocks) and broadcast past it
        key0 = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64), mix_seeds(n, np.arange(n))])[:n, None]
        key1 = np.arange(n, dtype=np.uint64)[:, None] % 3
        got = _philox(key0, key1, np.arange(1, blocks + 1, dtype=np.uint64))
        assert got.shape == (n, blocks, 4)
        for row, (k0, k1) in enumerate(zip(key0.ravel().tolist(), key1.ravel().tolist())):
            ref = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64)).random_raw(4 * blocks)
            assert got[row].ravel().tolist() == ref.tolist()

    @pytest.mark.parametrize("horizon", [13, 16, 80])
    def test_two_chunk_batch_equals_scalar_sampler(self, horizon):
        # 1024 + 7 seeds: two sample_batch chunks, with the Philox lane
        # constants broadcast on the first and at full shape on the second
        spec = random_spec(np.random.default_rng(horizon), 3, 2, 2)
        seeds = mix_seeds(horizon, np.arange(simulate._CHUNK + 7))
        batch = TrajectorySampler(spec, horizon).sample_batch(seeds)
        for row, s in enumerate(seeds.tolist()):
            theta, beta1, beta2, path = scalar_sampler.sample(spec, horizon, s)
            assert (int(batch.theta[row]), int(batch.beta1[row]), int(batch.beta2[row])) == (theta, beta1, beta2)
            assert tuple(batch.observations[row].tolist()) == path

    def test_mix_seeds_equals_python_splitmix(self):
        for base in (0, 7, -3, 2**64 - 1, 2**70 + 5):
            indices = [0, 1, 2, 999, 2**32, 2**63 + 11, 2**64 - 1]
            expected = [scalar_sampler.mix_seed(base, i) for i in indices]
            assert mix_seeds(base, indices).tolist() == expected
            assert [mix_seed(base, i) for i in indices] == expected

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        alphabet=st.integers(2, 3),
        l0=st.integers(1, 3),
        l1=st.integers(1, 3),
        horizon=st.integers(1, 20),
    )
    def test_batch_equals_scalar_sampler(self, seed, alphabet, l0, l1, horizon):
        # the batch sampler is the np.random.Philox sampler, seed by seed
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, alphabet, l0, l1)
        seeds = [0, 2**64 - 1] + [mix_seed(seed, i) for i in range(6)]
        batch = TrajectorySampler(spec, horizon).sample_batch(seeds)
        for row, s in enumerate(seeds):
            theta, beta1, beta2, path = scalar_sampler.sample(spec, horizon, s)
            assert int(batch.theta[row]) == theta
            assert (int(batch.beta1[row]), int(batch.beta2[row])) == (beta1, beta2)
            assert tuple(batch.observations[row].tolist()) == path

    def test_cdf_skips_zero_weight_tail(self):
        # a row short of 1 within the stochastic tolerance, with a zero last
        # entry: a uniform above its sum must not pick the zero-weight symbol
        row = [0.3, 0.7 - 5e-13, 0.0]
        kernels = np.array([[row, row, row]])
        grid = np.ones((1, 1))
        spec = ModelSpec(3, kernels, kernels, grid, 0.2 * grid, 0.5 * grid, 0, 0)
        assert validate(spec) == []
        cum = _cdf(np.array(row))
        assert cum[0] == 0.3 and cum[1:].tolist() == [np.inf, np.inf]
        assert int((0.9999999999999 < cum).argmax()) == 1

    def test_sample_is_row_of_batch(self, m3):
        seeds = mix_seeds(5, np.arange(40))
        batch = TrajectorySampler(m3, 7).sample_batch(seeds)
        for row, s in enumerate(seeds.tolist()):
            traj = TrajectorySampler(m3, 7).sample(s)
            assert traj.seed == s
            assert traj.observations == tuple(batch.observations[row].tolist())
            assert traj.latent.theta == int(batch.theta[row])


def _threshold_reference(spec, path, level=0.5):
    # the per-path threshold rule, one filter state at a time
    state = state_init(spec)
    for n in range(1, len(path)):
        state = state_step(spec, state, path[n])
        if n >= spec.d + 1 and float(np.sum(state.changed)) >= level:
            return n
    return None


def _forbid(spec, x, y):
    """Binary spec with the transition x -> y impossible under every kernel."""
    pre, post = np.array(spec.pre_kernels), np.array(spec.post_kernels)
    for kernels in (pre, post):
        kernels[:, x, y], kernels[:, x, 1 - y] = 0.0, 1.0
    return ModelSpec(2, pre, post, spec.b, spec.pi, spec.p, spec.d, spec.x0)


CONFIG_MAKERS = {"m1": make_m1, "m2": make_m2, "m3": make_m3, "m4": make_m4}
SLOW_CONFIGS = ("m1_d1_slow", "m4_slow")
TREE_RULES = ("threshold", "expected", "literal")


def config_spec(config):
    """A reference spec by name: m1 .. m4 and their _d1 variants, or a slow-change config file."""
    if config in SLOW_CONFIGS:
        return load_spec(Path(__file__).parents[1] / "configs" / f"{config}.json")
    return CONFIG_MAKERS[config[:2]](int(config.endswith("_d1")))


def tree_rule(spec, kind):
    """A rule that walks a prefix tree, and the tree: the threshold rule or the optimal rule in one reading."""
    if kind == "threshold":
        rule = posterior_threshold_rule(spec)
        return rule, rule.stop_times.__self__
    rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=5), variant=kind)
    return rule, rule._tree


class TestBatchRules:
    @pytest.mark.parametrize(
        "config, kind",
        [(f"m{i}{d}", kind) for i in range(1, 5) for d in ("", "_d1") for kind in TREE_RULES]
        + [(config, kind) for config in SLOW_CONFIGS for kind in TREE_RULES],
        ids=lambda value: value,
    )
    def test_batch_equals_per_path_on_every_path(self, config, kind):
        # every path to horizon 8 (5 for alphabet 3) against the per-path
        # references, on a fresh rule and again after forced tree restarts
        spec = config_spec(config)
        horizon = 8 if spec.alphabet_size == 2 else 5
        paths = [(spec.x0,) + tail for tail in itertools.product(range(spec.alphabet_size), repeat=horizon)]
        if kind == "threshold":
            expected = [_threshold_reference(spec, path) for path in paths]
        else:
            traces = reference_stops(spec, ValueIterConfig(k_max=5), horizon, kind)
            expected = [stop_of(reference_trace(traces, path)) for path in paths]
        rule, tree = tree_rule(spec, kind)
        assert [None if tau < 0 else tau for tau in rule.stop_times(np.array(paths)).tolist()] == expected
        assert [rule(path) for path in paths] == expected
        with patch.object(posterior, "PREFIX_TREE_CAP", 0):  # every batch restarts the tree
            assert [None if tau < 0 else tau for tau in rule.stop_times(np.array(paths)).tolist()] == expected
            assert [rule(path) for path in paths[:: spec.alphabet_size + 1]] == expected[:: spec.alphabet_size + 1]
            assert tree.size <= 3 + horizon

    @pytest.mark.parametrize("kind", TREE_RULES)
    def test_symbol_outside_alphabet_is_read_only_before_the_stop(self, kind):
        # on a grown tree, where a -1 read as an index would wrap around to a
        # grown node: the per-path ValueError up to the last symbol the rule
        # reads, nothing after it
        spec, horizon = make_m3(d=1), 6
        paths = np.array([(spec.x0,) + tail for tail in itertools.product(range(2), repeat=horizon)])
        rule, _ = tree_rule(spec, kind)
        stops = rule.stop_times(paths)
        row = int(np.flatnonzero((stops >= 0) & (stops < horizon - 1))[0])
        tau = int(stops[row])
        last = tau + (kind == "literal" and tau == spec.d + 1)  # the literal boundary reads one symbol more
        for bad in (-1, spec.alphabet_size):
            before, after = paths[row].copy(), paths[row].copy()
            before[last], after[last + 1] = bad, bad
            assert rule(tuple(after.tolist())) == tau
            assert rule.stop_times(np.array([paths[0], after])).tolist() == [stops[0], tau]
            for call, arg in ((rule, tuple(before.tolist())), (rule.stop_times, np.array([paths[0], before]))):
                with pytest.raises(ValueError, match=f"^symbol {bad} outside alphabet$"):
                    call(arg)

    @pytest.mark.parametrize("kind", TREE_RULES)
    def test_alphabet_error_beats_support_error_at_one_step(self, kind):
        # alphabet 3 with 2 -> 0 impossible under every kernel: at step 2 one
        # row leaves the common support and the other the alphabet
        spec = with_shared_zero(make_m4(1), 2, 0)
        paths = np.array([(0, 2, 0, 0), (0, 1, 3, 0)])
        for batch in (paths, paths[::-1]):
            rule, _ = tree_rule(spec, kind)
            with pytest.raises(ValueError, match="^symbol 3 outside alphabet$"):
                rule.stop_times(batch)
        with pytest.raises(SupportError):
            rule.stop_times(paths[:1])

    def test_fixed_batch_form(self, m3):
        rule = fixed_time_rule(m3)
        assert rule.stop_times(np.zeros((3, 4), dtype=np.int64)).tolist() == [1, 1, 1]
        assert rule.stop_times(np.zeros((2, 1), dtype=np.int64)).tolist() == [-1, -1]
        assert rule((0, 1)) == 1 and rule((0,)) is None

    def test_fixed_rule_reads_no_filter(self):
        # 0 -> 1 is impossible: the filter and the threshold rule raise a
        # SupportError at step 1, the fixed rule stops at d + 1 all the same
        spec = _forbid(make_m2(1), 0, 1)
        path = (0, 1, 1)
        with pytest.raises(SupportError):
            state_step(spec, state_init(spec), 1)
        with pytest.raises(SupportError):
            posterior_threshold_rule(spec)(path)
        fixed = fixed_time_rule(spec)
        assert fixed(path) == 2
        assert fixed.stop_times(np.array([path, (0, 0, 1)])).tolist() == [2, 2]

    def test_support_error_after_stop_not_raised(self):
        spec = _forbid(make_m2(), 1, 1)
        rule = posterior_threshold_rule(spec)
        # fires at 2; the impossible 1 -> 1 comes at step 3, after the stop
        stopped = (0, 0, 1, 1)
        assert rule(stopped) == 2
        with pytest.raises(SupportError):
            rule((0, 1, 1, 0))
        assert rule.stop_times(np.array([stopped, (0, 0, 1, 0)])).tolist() == [2, 2]
        # only the row that reaches its impossible step raises
        with pytest.raises(SupportError):
            rule.stop_times(np.array([stopped, (0, 0, 1, 0), (0, 1, 1, 0)]))

    def test_path_not_starting_at_x0(self, m3):
        for rule in (posterior_threshold_rule(m3), fixed_time_rule(m3)):
            for path in ((1, 1, 1, 1, 1, 1), (5, 1, 1, 1, 1, 1), (5, 1, 1), (1, 7, 9)):
                with pytest.raises(ValueError, match="stream must start at x0=0"):
                    rule(path)
            with pytest.raises(ValueError, match="stream must start at x0=0"):
                rule.stop_times(np.array([(0, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)]))
        assert posterior_threshold_rule(m3)((0, 1, 1, 1, 1, 1)) == 3

    def test_out_of_alphabet_symbol(self, m2):
        rule = posterior_threshold_rule(m2)
        with pytest.raises(ValueError, match="outside alphabet"):
            rule((0, 0, 5))
        # the fixed rule reads up to its stop at d + 1 and no further
        fixed = fixed_time_rule(m2)
        for path in ((0, 7, 9), (0, -1)):
            with pytest.raises(ValueError, match=f"symbol {path[1]} outside alphabet"):
                fixed(path)
        with pytest.raises(ValueError, match="symbol 7 outside alphabet"):
            fixed.stop_times(np.array([(0, 1, 1), (0, 7, 9)]))
        assert fixed((0, 0, 5)) == 1

    @pytest.mark.parametrize("target", [0, 1, 4])
    @pytest.mark.parametrize("plain_first", [False, True])
    def test_rule_error_names_first_failure(self, target, plain_first):
        # a batched rule and a plain rule that fail on different trajectories
        # give the (rule, seed) of a trajectory-by-trajectory evaluation: the
        # lowest failing trajectory, on it the first failing rule in order
        spec, horizon, base = make_m2(), 6, 3
        batched = posterior_threshold_rule(_forbid(spec, 1, 1))
        sampler = TrajectorySampler(spec, horizon)
        bad_path = sampler.sample(mix_seed(base, target)).observations

        def plain(obs):
            if obs == bad_path:
                raise RuntimeError("plain rule failed")
            return 1

        rules = {"batched": batched, "plain": plain}
        if plain_first:
            rules = {"plain": plain, "batched": batched}
        expected = None
        with patch.object(simulate, "THRESHOLD_LEVEL", 0.99):
            for idx in range(12):
                traj = sampler.sample(mix_seed(base, idx))
                for name, rule in rules.items():
                    try:
                        rule(traj.observations)
                    except Exception:
                        expected = (name, traj.seed)
                        break
                if expected:
                    break
            with pytest.raises(RuleError) as info:
                monte_carlo_eval(spec, rules, 12, horizon, base)
        assert (info.value.rule, info.value.seed) == expected


def _run_fresh(code: str, *args: str) -> None:
    """Run `code` in a fresh interpreter at the repository root; it must exit 0."""
    src = str(Path(disorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    root = Path(src).parent
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=root, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_monte_carlo_path_never_imports_numpy_random(tmp_path):
    # the sampler is numpy Philox arithmetic; numpy.random (2.6 MB of RSS)
    # must stay unimported through an evaluate run with all three rules and
    # through a crosscheck run, whose back-shift check draws from the same
    # Philox
    code = (
        "import sys\n"
        "from disorder.cli import main\n"
        "argv = ['evaluate', '--config', 'configs/m4.json', '--rules', 'optimal,fixed,threshold',\n"
        "        '--n', '40', '--horizon', '5', '--kmax', '3', '--seed', '1', '--out', sys.argv[1]]\n"
        "assert main(argv) == 0\n"
        "assert main(['crosscheck', '--config', 'configs/m3_d1.json', '--horizon', '4']) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    _run_fresh(code, str(tmp_path / "r.csv"))


def test_commands_never_import_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = (
        "import sys\n"
        "from disorder.cli import main\n"
        "argv = ['evaluate', '--config', 'configs/m4.json', '--rules', 'optimal,fixed,threshold',\n"
        "        '--n', '40', '--horizon', '5', '--kmax', '3', '--seed', '1', '--out', sys.argv[1]]\n"
        "assert main(argv) == 0\n"
        "assert main(['oracle', '--config', 'configs/m3_d1.json', '--horizon', '4']) == 0\n"
        "assert main(['crosscheck', '--config', 'configs/m3_d1.json', '--horizon', '4']) == 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy was imported'\n"
    )
    _run_fresh(code, str(tmp_path / "r.csv"))
