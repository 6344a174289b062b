import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disorder import criterion_probability, crosscheck, load_spec, oracle, payoff, posterior, validate
from disorder import spec_from_dict, spec_to_dict
from disorder import stopping
from disorder.crosscheck import (
    check_backshift_inversion,
    check_continuation_normalization,
    check_payoff_criterion,
    check_payoff_window,
    run_crosscheck,
)
from disorder.stopping import ValueTable

import path_normalization
from conftest import random_spec, with_shared_zero

CONFIGS_DIR = Path(__file__).parents[1] / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))


def assert_matches_per_path(spec, horizon):
    # the level-wise check's max_err is the per-path loop's along the deepest
    # checked level, bit for bit; returns it
    levels = list(posterior.filter_levels(spec, horizon))
    got = check_continuation_normalization(ValueTable(spec), levels).max_err
    deepest = levels[min(horizon, spec.d + 4)].paths
    assert repr(got) == repr(path_normalization.normalization_max_err(spec, deepest))
    # a batch read of ValueTable.weight and .value is its one-row reads, bit for bit
    values = ValueTable(spec)
    for level in posterior.filter_levels(spec, spec.d + 3):
        if level.n <= spec.d:
            continue
        u = values.weight(level.unchanged)
        assert u.tolist() == [values.weight(row).tolist() for row in level.unchanged]
        windows = level.paths[:, -(spec.d + 2) :]
        for k in (0, 1, 2):
            rows = values.value(k, windows, u)
            assert rows.tolist() == [values.value(k, tuple(w), row) for w, row in zip(windows.tolist(), u)]
    return got


class TestNormalizationAgainstPerPath:
    """The level-wise normalization check equals the per-path loop bit for bit."""

    @pytest.mark.parametrize("seed", [1, 7, 31337])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_reference_configs(self, config, seed):
        # below d + 4 the check stops at the horizon; whatever the battery's
        # seed, its normalization entry is the per-path loop's
        spec = load_spec(config)
        for horizon in range(spec.d + 2, spec.d + 4):
            assert_matches_per_path(spec, horizon)
        expected = assert_matches_per_path(spec, spec.d + 4)
        results = {r.name: r for r in run_crosscheck(spec, spec.d + 4, seed=seed)}
        assert repr(results["continuation_normalization"].max_err) == repr(expected)

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
        assert_matches_per_path(spec, spec.d + 4)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_perturbed_normaliser_fails(self, config, monkeypatch):
        # a normaliser off by one part in a million must show
        spec = load_spec(config)

        def check():
            levels = list(posterior.filter_levels(spec, spec.d + 4))
            return check_continuation_normalization(ValueTable(spec), levels)

        assert check().passed
        exact = posterior._predictive
        monkeypatch.setattr(posterior, "_predictive", lambda *args: exact(*args) * (1.0 + 1e-6))
        assert not check().passed


class TestPayoffWindow:
    """The battery pins each path's stop payoff to the path's own last d + 2 symbols."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_payoff_is_detection_posterior(self, config):
        spec = load_spec(config)
        table = oracle.build_joint(spec, 6)
        result = check_payoff_window(spec, table, list(posterior.filter_levels(spec, 6)))
        assert result.passed and result.max_err <= 1e-12

    def test_first_symbols_fail_the_battery(self, monkeypatch):
        spec = load_spec(CONFIGS_DIR / "m3.json")
        assert all(result.passed for result in run_crosscheck(spec, 5))

        def first_symbols(spec, level):
            return payoff.stop_payoff(spec, level.n, level.paths[:, : spec.d + 2], level.unchanged, level.changed)

        monkeypatch.setattr(payoff, "level_payoff", first_symbols)
        assert "payoff_window" in [result.name for result in run_crosscheck(spec, 5) if not result.passed]

    def test_nan_in_the_last_level_fails(self, monkeypatch):
        # a check's running maximum keeps a NaN error: max(worst, nan) would drop it
        spec = load_spec(CONFIGS_DIR / "m3.json")
        level_payoff = payoff.level_payoff

        def nan_at_the_end(spec, level):
            values = level_payoff(spec, level)
            return np.where(level.n == 5, np.nan, values)

        monkeypatch.setattr(payoff, "level_payoff", nan_at_the_end)
        result = check_payoff_window(spec, oracle.build_joint(spec, 5), list(posterior.filter_levels(spec, 5)))
        assert not result.passed and math.isnan(result.max_err)


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


class TestBackshiftInversion:
    """The back-shift check is a backward error: the forward map of the recovered anchor reproduces the posterior."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_perturbed_backshift_fails(self, config, monkeypatch):
        # a recovered anchor off by one part in a million must show
        spec = load_spec(config)
        assert check_backshift_inversion(spec).passed
        exact = posterior.change_backshift
        monkeypatch.setattr(posterior, "change_backshift", lambda *args: exact(*args) * (1.0 + 1e-6))
        assert not check_backshift_inversion(spec).passed

    @pytest.mark.parametrize("seed", [6, 20, 24, 25, 29, 42, 46])
    def test_small_p_specs_pass(self, seed):
        # valid specs with p in [1e-3, 0.05], where the inverse map's
        # condition reaches 1e7 and the anchor's own error exceeded 1e-9
        rng = np.random.default_rng(seed)
        payload = spec_to_dict(random_spec(rng, 3, 2, 2, 1))
        payload["p"] = np.exp(rng.uniform(math.log(1e-3), math.log(0.05), (2, 2))).tolist()
        assert [(r.name, r.max_err) for r in run_crosscheck(spec_from_dict(payload), 4) if not r.passed] == []

    def test_anchor_rounded_off_the_unit_interval_is_clipped(self, monkeypatch):
        # every trial at anchor 0 on the all-zero window, and the recovered
        # anchors rounded just below 0: clipped back, not rejected
        spec = load_spec(CONFIGS_DIR / "m3_d1.json")
        monkeypatch.setattr(crosscheck, "_philox", lambda key0, key1, counter: np.zeros((len(counter), 4), np.uint64))
        exact = posterior.change_backshift
        monkeypatch.setattr(posterior, "change_backshift", lambda *args: exact(*args) - 2.0**-60)
        result = check_backshift_inversion(spec)
        assert result.passed and result.max_err == 0.0


# the checks the fuzz asserts: those that read the filter state, and the
# back-shift's backward error; path_unity and joint_consistency are not asserted
FUZZ_CHECKS = {
    "backshift_inversion",
    "filter_vs_oracle",
    "survival_projection",
    "lagged_change",
    "payoff_criterion",
    "multistep_composition",
    "continuation_normalization",
    "predictive_chain",
    "continuation_vs_oracle",
}


@st.composite
def extreme_specs(draw):
    """Valid specs at the edges: p from 1e-3 to 0.999 on a log scale, pi at 0
    and 1, a zero prior cell, a transition outside the common support."""
    alphabet, l0, l1 = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    payload = spec_to_dict(random_spec(rng, alphabet, l0, l1, draw(st.integers(0, 1))))

    def grid(elements):
        return np.reshape(draw(st.lists(elements, min_size=l0 * l1, max_size=l0 * l1)), (l0, l1))

    payload["p"] = (10.0 ** grid(st.floats(-3.0, math.log10(0.999)))).tolist()
    payload["pi"] = grid(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)).tolist()
    b = np.array(payload["b"])
    cell = draw(st.none() | st.integers(0, l0 * l1 - 1))
    if cell is not None and l0 * l1 > 1:
        b.flat[cell] = 0.0
        payload["b"] = (b / b.sum()).tolist()
    spec = spec_from_dict(payload)
    zero = draw(st.none() | st.tuples(st.integers(0, alphabet - 1), st.integers(0, alphabet - 1)))
    if zero is not None:
        spec = with_shared_zero(spec, *zero)
    assert validate(spec) == []
    return spec


@settings(max_examples=60, deadline=None)
@given(spec=extreme_specs(), horizon=st.integers(3, 4))
def test_filter_checks_hold_on_extreme_specs(spec, horizon):
    # the battery's checks of the filter state pass at the edges of the
    # parameter space, where the conditional grids of a change posterior
    # rounded to 1 lose the survival 1 - gamma, and so does the back-shift,
    # whose inverse map is ill-conditioned at small p
    results = run_crosscheck(spec, horizon)
    assert [(r.name, r.max_err) for r in results if r.name in FUZZ_CHECKS and not r.passed] == []
