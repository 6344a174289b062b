from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disorder import SupportError, criterion_probability, load_spec, oracle, payoff, posterior, validate
from disorder import stopping
from disorder.crosscheck import (
    check_continuation_normalization,
    check_payoff_criterion,
    run_crosscheck,
)
from disorder.simulate import TrajectorySampler
from disorder.stopping import ValueTable

import path_normalization
from conftest import make_zero_support, random_spec, with_shared_zero

CONFIGS_DIR = Path(__file__).parents[1] / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))


def assert_matches_per_path(spec, seed):
    # the batched check's max_err is the per-path loop's, bit for bit
    got = check_continuation_normalization(ValueTable(spec), seed=seed).max_err
    assert repr(got) == repr(path_normalization.normalization_max_err(spec, seed))
    # a batch read of ValueTable.weight and .value is its one-row reads, bit for bit
    values = ValueTable(spec)
    for level in posterior.filter_levels(spec, spec.d + 3):
        if level.n <= spec.d:
            continue
        u = values.weight(level.change, level.pair)
        assert u.tolist() == [values.weight(c, g).tolist() for c, g in zip(level.change, level.pair)]
        windows = level.paths[:, -(spec.d + 2) :]
        for k in (0, 1, 2):
            rows = values.value(k, windows, u)
            assert rows.tolist() == [values.value(k, tuple(w), row) for w, row in zip(windows.tolist(), u)]


class TestNormalizationAgainstPerPath:
    """The lockstep normalization check equals the per-trajectory loop bit for bit."""

    @pytest.mark.parametrize("seed", [1, 7, 31337])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_reference_configs(self, config, seed):
        assert_matches_per_path(load_spec(config), seed)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        alphabet=st.integers(2, 3),
        l0=st.integers(1, 2),
        l1=st.integers(1, 2),
        d=st.integers(0, 2),
        zero=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_random_specs(self, seed, alphabet, l0, l1, d, zero):
        spec = random_spec(np.random.default_rng(seed), alphabet, l0, l1, d)
        if zero is not None:
            spec = with_shared_zero(spec, zero[0] % alphabet, zero[1] % alphabet)
            assert validate(spec) == []
        assert_matches_per_path(spec, seed)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_perturbed_normaliser_fails(self, config, monkeypatch):
        # a normaliser off by one part in a million must show
        spec = load_spec(config)
        assert check_continuation_normalization(ValueTable(spec)).passed
        exact = posterior._predictive
        monkeypatch.setattr(posterior, "_predictive", lambda *args: exact(*args) * (1.0 + 1e-6))
        assert not check_continuation_normalization(ValueTable(spec)).passed

    def test_dead_row_raises_like_state_step(self, monkeypatch):
        # one trajectory forced through 1 -> 1, outside the common support
        spec = make_zero_support(d=1)
        sample = TrajectorySampler.sample_batch

        def broken(self, seeds):
            batch = sample(self, seeds)
            observations = batch.observations.copy()
            observations[17, 3:5] = 1
            return batch._replace(observations=observations)

        monkeypatch.setattr(TrajectorySampler, "sample_batch", broken)
        with pytest.raises(SupportError) as per_path:
            path_normalization.normalization_max_err(spec, 5)
        with pytest.raises(SupportError) as batched:
            check_continuation_normalization(ValueTable(spec), seed=5)
        assert str(batched.value) == str(per_path.value)
        assert str(batched.value) == "observation 1 outside common support after 1"


class TestOneFilterPass:
    """The battery walks the filter tree once and reads every check's levels off that pass."""

    @pytest.mark.parametrize("horizon", [4, 7])
    def test_filter_levels_called_once(self, horizon, monkeypatch):
        spec = load_spec(CONFIGS_DIR / "m3_d1.json")
        calls = []
        walk = posterior.filter_levels

        def counted(*args):
            calls.append(args[1:])
            return walk(*args)

        # every module that binds the walk by name
        for module in (posterior, payoff, oracle):
            monkeypatch.setattr(module, "filter_levels", counted)
        run_crosscheck(spec, horizon)
        assert calls == [(horizon,)]

    def test_one_value_table(self, monkeypatch):
        # both continuation checks read s_k off the one table the battery builds
        built = []

        class Counted(stopping.ValueTable):
            def __init__(self, spec):
                built.append(spec)
                super().__init__(spec)

        monkeypatch.setattr(stopping, "ValueTable", Counted)
        spec = load_spec(CONFIGS_DIR / "m3_d1.json")
        run_crosscheck(spec, 5)
        assert built == [spec]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_payoff_route_is_criterion_probability(self, config):
        spec = load_spec(config)
        levels = list(posterior.filter_levels(spec, 6))
        worst = 0.0
        for n in range(spec.d + 1, 7):
            chk = criterion_probability(spec, n)
            assert repr(payoff._criterion(spec, levels[n])) == repr(chk)
            worst = max(worst, abs(chk.prior_value - chk.payoff_value))
        # the check's error is the one its per-n criterion_probability calls gave
        assert repr(check_payoff_criterion(spec, levels).max_err) == repr(worst)
