import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disorder import (
    BudgetError,
    build_joint,
    change_time_pmf,
    exact_optimal_rule,
    exact_posterior,
    exact_rule_value,
    optimal_value_state_indexed,
    path_probability,
)
from disorder import oracle
from disorder.errors import SupportError
from disorder.oracle import (
    change_cdf_given_pair,
    dump_joint,
    dump_tree,
    path_rank,
)

from disorder import (
    OptimalStoppingRule,
    ValueIterConfig,
    fixed_time_rule,
    monte_carlo_eval,
    posterior_threshold_rule,
    load_spec,
    validate,
)

import dict_oracle
import recursive_oracle
from conftest import make_m1, make_m2, make_m3, make_m4, make_zero_support, random_spec, with_shared_zero

CONFIGS_DIR = Path(__file__).parents[1] / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))


def all_paths(spec, n):
    for tail in itertools.product(range(spec.alphabet_size), repeat=n):
        yield (spec.x0,) + tail


class TestBuildJoint:
    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_change_time_marginal(self, make):
        spec = make(d=1)
        table = build_joint(spec, 5)
        deep = table.levels[5]
        for t in range(1, table.max_theta + 1):
            mass = math.fsum(float(j[t - 1].sum()) for j in deep.values())
            assert abs(mass - change_time_pmf(spec, t)) <= 1e-12
        tail = math.fsum(float(j[table.max_theta].sum()) for j in deep.values())
        tail_expected = 1.0 - math.fsum(
            change_time_pmf(spec, t) for t in range(1, table.max_theta + 1)
        )
        assert abs(tail - tail_expected) <= 1e-12

    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_root_buckets_follow_pair_hazards(self, make):
        # per pair: P(theta = n + k | theta > n) is pi, then (1 - pi) p^(k-2) q
        # from the origin and p^(k-1) q from n >= 1 on; each pair's buckets,
        # the tail included, hold its prior mass b
        spec = make(d=1)
        table = build_joint(spec, 5)
        root = table.levels[0][(spec.x0,)]
        q = 1.0 - spec.p
        assert np.max(np.abs(root.sum(axis=0) - spec.b)) <= 1e-15
        for n in range(table.max_theta):
            survive = root[n:].sum(axis=0)
            for k in range(1, table.max_theta - n + 1):
                if n:
                    hazard = spec.p ** (k - 1) * q
                else:
                    hazard = spec.pi if k == 1 else (1.0 - spec.pi) * spec.p ** (k - 2) * q
                assert np.max(np.abs(root[n + k - 1] - hazard * survive)) <= 1e-15

    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_path_marginal_matches_likelihood(self, make):
        spec = make(d=1)
        table = build_joint(spec, 5)
        for n in range(1, 6):
            for path, mass in zip(all_paths(spec, n), table.mass[n].tolist(), strict=True):
                assert abs(mass - path_probability(spec, path)) <= 1e-12

    def test_m1_first_step_law(self, m1):
        table = build_joint(m1, 1)
        assert table.mass[1][path_rank(m1, (0, 1))] == pytest.approx(0.2, abs=1e-15)

    def test_total_mass_per_depth(self, m4):
        table = build_joint(m4, 4)
        for mass in table.mass:
            total = math.fsum(mass.tolist())
            assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("make", [make_m3, make_m4])
    def test_levels_derived_on_first_read(self, make, tmp_path):
        # the table stores its row arrays; the path-keyed views are built
        # from them on the first read of `levels`, and not by the readers
        # that iterate paths (the dumps, exact evaluation)
        spec, horizon = make(1), 4
        table = build_joint(spec, horizon)
        assert "levels" not in vars(table)
        dump_joint(table, tmp_path)
        exact_rule_value(table, fixed_time_rule(spec))
        assert "levels" not in vars(table)
        levels = table.levels
        assert vars(table)["levels"] is levels and table.levels is levels
        for n, (level, joint) in enumerate(zip(levels, table.arrays)):
            assert list(level) == [(spec.x0,) + tail for tail in itertools.product(range(spec.alphabet_size), repeat=n)]
            for row, view in enumerate(level.values()):
                assert np.shares_memory(view, joint) and np.array_equal(view, joint[row])

    def test_budget_guard(self, m1, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_CELL_BUDGET", 100)
        with pytest.raises(BudgetError):
            build_joint(m1, 8)

    def test_budget_counts_every_depth(self, monkeypatch):
        # m3_d1 to horizon 7: 2 x 2 pairs, 9 buckets, 1 + 2 + ... + 2^7 paths
        spec = load_spec(CONFIGS_DIR / "m3_d1.json")
        monkeypatch.setattr(oracle, "DEFAULT_CELL_BUDGET", 9179)
        with pytest.raises(BudgetError, match="needs 9180 cells"):
            build_joint(spec, 7)
        monkeypatch.setattr(oracle, "DEFAULT_CELL_BUDGET", 9180)
        table = build_joint(spec, 7)
        assert sum(joint.size for joint in table.arrays) == 9180

    def test_max_theta_must_cover_horizon(self, m1):
        with pytest.raises(ValueError):
            build_joint(m1, 5, max_theta=3)


class TestExactPosterior:
    def test_root_state(self, m3):
        table = build_joint(m3, 2)
        change, pair = exact_posterior(table, (0,))
        assert np.max(np.abs(change)) == 0.0
        assert pair == pytest.approx(np.asarray(m3.b))

    def test_single_pair_identical_kernels_path_free(self):
        base = make_m1()
        spec = type(base)(
            alphabet_size=2,
            pre_kernels=base.pre_kernels,
            post_kernels=base.pre_kernels,
            b=base.b,
            pi=[[0.2]],
            p=base.p,
            d=0,
            x0=0,
        )
        table = build_joint(spec, 4)
        for n in range(1, 5):
            cdf_prior = math.fsum(change_time_pmf(spec, k) for k in range(1, n + 1))
            for path in all_paths(spec, n):
                change, _ = exact_posterior(table, path)
                assert float(change[0, 0]) == pytest.approx(cdf_prior, abs=1e-12)

    def test_zero_probability_path_rejected(self):
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
        table = build_joint(spec, 2)
        with pytest.raises(SupportError, match="^path has zero probability$"):
            exact_posterior(table, (0, 1, 0))

    def test_path_outside_table_rejected(self, m3):
        table = build_joint(m3, 3)
        for path in ((1, 0), (0, 0, 2)):
            with pytest.raises(ValueError):
                exact_posterior(table, path)

    def test_cdf_given_pair_monotone(self, m4):
        table = build_joint(m4, 3)
        for path in all_paths(m4, 3):
            prev = np.zeros((2, 1))
            for m in range(0, table.max_theta + 1):
                cur = change_cdf_given_pair(table, path, m)
                assert np.all(cur >= prev - 1e-15)
                prev = cur


class TestExactRuleValue:
    @pytest.mark.parametrize("make", [make_m2, make_m3])
    @pytest.mark.parametrize("d", [0, 1])
    def test_fixed_boundary_rule(self, make, d):
        spec = make(d)
        table = build_joint(spec, 6)
        value = exact_rule_value(table, lambda path: spec.d + 1)
        head = math.fsum(change_time_pmf(spec, k) for k in range(1, 2 * d + 2))
        assert value == pytest.approx(head, abs=1e-12)

    def test_fixed_k_rule_windows(self, m3):
        table = build_joint(m3, 6)
        for k in range(1, 7):
            value = exact_rule_value(table, lambda path: k)
            lo = max(1, k - m3.d)
            expected = math.fsum(
                change_time_pmf(m3, t) for t in range(lo, k + m3.d + 1)
            )
            assert value == pytest.approx(expected, abs=1e-12)

    def test_value_in_unit_interval(self, m4):
        table = build_joint(m4, 4)
        rng = np.random.default_rng(3)
        for trial in range(10):
            stops = {
                path: int(rng.integers(0, 5)) for path in table.levels[4]
            }
            value = exact_rule_value(table, lambda path: stops[path])
            assert 0.0 <= value <= 1.0

    def test_invalid_stop_time_rejected(self, m1):
        table = build_joint(m1, 3)
        with pytest.raises(ValueError, match=r"^rule returned stop time 99 outside \[0, 3\]$"):
            exact_rule_value(table, lambda path: 99)

    def test_non_integer_stop_time_rejected(self, m2):
        # 2.7 is not read as 2, nor True as 1; a numpy integer is an integer
        table = build_joint(m2, 4)
        for tau in (2.7, True, np.float64(2.0)):
            message = f"rule returned stop time {tau!r}, not an integer or None"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                exact_rule_value(table, lambda path: tau)
        assert exact_rule_value(table, lambda path: np.int64(2)) == exact_rule_value(table, lambda path: 2)
        rule = fixed_time_rule(m2)
        floats = lambda path: rule(path)  # noqa: E731
        floats.stop_times = lambda observations: rule.stop_times(observations).astype(float)
        with pytest.raises(ValueError, match="^rule's batch form returned stop times of dtype float64"):
            exact_rule_value(table, floats)

    def test_misshapen_batch_form_rejected(self, m2):
        # a batch result of any shape but (N,) over the 16 live paths is not broadcast
        table = build_joint(m2, 4)
        rule = fixed_time_rule(m2)
        for stop_times, shape in (
            (lambda observations: np.array([2]), (1,)),
            (lambda observations: rule.stop_times(observations)[:, None], (16, 1)),
        ):
            odd = lambda path: rule(path)  # noqa: E731
            odd.stop_times = stop_times
            message = f"rule's batch form returned shape {shape}, expected (16,)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                exact_rule_value(table, odd)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_batch_form_read_once(self, config):
        # one batch-form call over the live paths, and the per-path value bit for bit
        spec = load_spec(config)
        table = build_joint(spec, 6)
        alive = table.mass[6] > 0.0
        live = [path for path, keep in zip(table.levels[6], alive.tolist()) if keep]
        for rule in (fixed_time_rule(spec), posterior_threshold_rule(spec)):
            calls = []

            def counted(observations, rule=rule):
                calls.append(len(observations))
                return rule.stop_times(observations)

            batched = lambda path, rule=rule: rule(path)  # noqa: E731
            batched.stop_times = counted
            per_path = [rule(path) for path in live]
            taus = [6 if tau is None else tau for tau in per_path]
            expected = math.fsum(oracle._detection_masses(spec, table.arrays[6][alive], taus).tolist())
            assert repr(exact_rule_value(table, batched)) == repr(expected)
            assert calls == [len(live)]


class TestExactOptimalRule:
    @pytest.mark.parametrize("make", [make_m2, make_m3, make_m4])
    @pytest.mark.parametrize("d", [0, 1])
    def test_restriction_loses_nothing(self, make, d):
        spec = make(d)
        table = build_joint(spec, 6)
        v_r, _ = exact_optimal_rule(table, restrict_after_d=True)
        v_u, _ = exact_optimal_rule(table, restrict_after_d=False)
        assert abs(v_r - v_u) <= 1e-12

    def test_dominates_heuristics(self, m3):
        table = build_joint(m3, 6)
        v_opt, _ = exact_optimal_rule(table)
        for rule in (lambda p: 1, lambda p: 3, lambda p: 6, lambda p: None):
            assert v_opt >= exact_rule_value(table, rule) - 1e-12

    @pytest.mark.parametrize("make", [make_m2, make_m3, make_m1, make_m4])
    @pytest.mark.parametrize("d", [0, 1])
    def test_state_indexed_induction_agrees(self, make, d):
        spec = make(d)
        horizon = 8 if make in (make_m1, make_m4) else 6
        table = build_joint(spec, horizon)
        v_path, _ = exact_optimal_rule(table, restrict_after_d=True)
        v_state = optimal_value_state_indexed(spec, horizon)
        assert abs(v_path - v_state) <= 1e-12

    def test_state_indexed_budget_guard(self, m4):
        # the tree to horizon 14 holds (3^15 - 1) / 2 * 2 > 10^7 grid cells
        with pytest.raises(BudgetError, match="filter tree needs 14348906 cells"):
            optimal_value_state_indexed(m4, 14)

    def test_tree_invariants(self, m2):
        table = build_joint(m2, 5)
        value, tree = exact_optimal_rule(table)
        assert [len(level) for level in tree.levels] == [m2.alphabet_size**n for n in range(6)]
        for n, level in enumerate(tree.levels):
            if n == 5:
                assert np.isnan(level.continuation).all()
                assert np.array_equal(level.value, level.z)
            else:
                expected = np.maximum(level.z, level.continuation) if n >= m2.d + 1 else level.continuation
                assert np.abs(level.value - expected).max() <= 1e-15
        assert value == pytest.approx(tree.levels[0].value[0], abs=1e-15)

    def test_monotone_in_horizon_with_tail_bound(self, m2):
        values = []
        for h in range(3, 8):
            table = build_joint(m2, h)
            v, _ = exact_optimal_rule(table)
            values.append(v)
        for h, (a, b) in zip(range(3, 7), zip(values, values[1:])):
            tail = 1.0 - math.fsum(
                change_time_pmf(m2, t) for t in range(1, max(1, h - m2.d) + 1)
            )
            assert b >= a - 1e-12
            assert b - a <= tail + 1e-12

    def test_greedy_readout_reproduces_value(self, m3):
        # following the tree's stop flags as a rule recovers the same value
        table = build_joint(m3, 5)
        value, tree = exact_optimal_rule(table)

        def rule(path):
            for n in range(m3.d + 1, 6):
                if tree.levels[n].stop[path_rank(m3, path[: n + 1])]:
                    return n
            return None

        assert exact_rule_value(table, rule) == pytest.approx(value, abs=1e-12)


class TestDumps:
    def test_files_written_and_parse(self, tmp_path, m1):
        table = build_joint(m1, 2)
        _, tree = exact_optimal_rule(table)
        files = dump_joint(table, tmp_path)
        assert len(files) == 3
        text = files[-1].read_text().splitlines()
        assert text[0] == "path,bucket,probability"
        mass = math.fsum(
            float(line.rsplit(",", 1)[1]) for line in text[1:]
        )
        assert mass == pytest.approx(1.0, abs=1e-12)
        tree_file = dump_tree(tree, tmp_path)
        lines = tree_file.read_text().splitlines()
        assert lines[0] == "path,z,continuation,value,action"
        assert len(lines) > 1

    @pytest.mark.parametrize("name", ["m3_d1", "m4"])
    def test_joint_dump_is_per_path_rendering(self, name, tmp_path):
        # each depth's file as rendered path by path through the derived levels
        spec = load_spec(CONFIGS_DIR / f"{name}.json")
        table = build_joint(spec, 5)
        labels = [str(t) for t in range(1, table.max_theta + 1)] + ["tail"]
        files = dump_joint(table, tmp_path)
        assert [out.name for out in files] == [f"joint_level_{n}.csv" for n in range(6)]
        for n, out in enumerate(files):
            lines = ["path,bucket,probability\n"]
            for tail in itertools.product(range(spec.alphabet_size), repeat=n):
                path = (spec.x0,) + tail
                pstr = "-".join(str(s) for s in path)
                for label, cell in zip(labels, table.levels[n][path]):
                    lines.append(f"{pstr},{label},{math.fsum(cell.ravel().tolist()):.17g}\n")
            assert out.read_bytes() == "".join(lines).encode()

    @pytest.mark.parametrize("name", ["m3_d1", "m4"])
    def test_tree_dump_is_per_node_rendering(self, name, tmp_path):
        # the file as rendered node by node, each read at its path's rank
        spec = load_spec(CONFIGS_DIR / f"{name}.json")
        _, tree = exact_optimal_rule(build_joint(spec, 6))
        lines = ["path,z,continuation,value,action\n"]
        for n in range(len(tree.levels)):
            for tail in itertools.product(range(spec.alphabet_size), repeat=n):
                path = (spec.x0,) + tail
                z, cont, value, stop = tree.levels[n][path_rank(spec, path)].tolist()
                pstr = "-".join(str(s) for s in path)
                cstr = "" if math.isnan(cont) else f"{cont:.17g}"
                action = "stop" if stop else "continue"
                lines.append(f"{pstr},{z:.17g},{cstr},{value:.17g},{action}\n")
        assert dump_tree(tree, tmp_path).read_bytes() == "".join(lines).encode()


class TestDetectionMass:
    def test_matches_direct_window_sum(self, m3):
        spec = make_m3(d=1)
        table = build_joint(spec, 4)
        for n in range(0, 5):
            masses = oracle._detection_masses(spec, table.arrays[4], n)
            lo = max(1, n - spec.d)
            for path, mass in zip(all_paths(spec, 4), masses.tolist(), strict=True):
                expected = math.fsum(table.levels[4][path][lo - 1 : n + spec.d].ravel().tolist())
                assert mass == pytest.approx(expected, abs=1e-15)


class TestZeroSupport:
    """m3 with transition 1 -> 1 impossible under every kernel."""

    @pytest.fixture
    def spec(self):
        spec = make_zero_support()
        assert validate(spec) == []
        return spec

    def test_rules_valued_exactly(self, spec):
        table = build_joint(spec, 6)
        v_opt, _ = exact_optimal_rule(table)
        assert optimal_value_state_indexed(spec, 6) == pytest.approx(v_opt, abs=1e-12)
        cfg = ValueIterConfig(k_max=5)
        for variant in ("expected", "literal"):
            rule = OptimalStoppingRule(spec, cfg, variant)
            assert exact_rule_value(table, rule.stop_time) <= v_opt + 1e-12
        assert exact_rule_value(table, posterior_threshold_rule(spec)) <= v_opt + 1e-12

    def test_zero_probability_paths_not_asked(self, spec):
        table = build_joint(spec, 4)
        asked = []
        exact_rule_value(table, lambda path: asked.append(path) or spec.d + 1)
        assert asked and (table.mass[4][path_rank(spec, asked)] > 0.0).all()
        assert len(asked) < len(table.levels[4])

    def test_monte_carlo_with_optimal_rule(self, spec):
        rules = {"optimal": OptimalStoppingRule(spec, ValueIterConfig(k_max=5))}
        report = monte_carlo_eval(spec, rules, 300, 6, 5)
        assert 0.0 < report.rules["optimal"].estimate <= 1.0


class TestStateIndexedAgainstRecursion:
    """The level-by-level induction equals the per-state recursion bit for bit."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_reference_configs(self, config):
        spec = load_spec(config)
        for horizon in range(spec.d + 2, 9):
            assert optimal_value_state_indexed(spec, horizon) == recursive_oracle.optimal_value_state_indexed(
                spec, horizon
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        alphabet=st.integers(2, 3),
        l0=st.integers(1, 2),
        l1=st.integers(1, 2),
        d=st.integers(0, 2),
        extra=st.integers(0, 4),
        zero=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_random_specs(self, seed, alphabet, l0, l1, d, extra, zero):
        spec = random_spec(np.random.default_rng(seed), alphabet, l0, l1, d)
        if zero is not None:
            spec = with_shared_zero(spec, zero[0] % alphabet, zero[1] % alphabet)
            assert validate(spec) == []
        horizon = min(d + 2 + extra, 6)
        assert optimal_value_state_indexed(spec, horizon) == recursive_oracle.optimal_value_state_indexed(
            spec, horizon
        )


def assert_matches_dict_oracle(spec, horizon):
    table = build_joint(spec, horizon)
    ref_levels = dict_oracle.build_joint(spec, horizon, table.max_theta)
    for joint, ref in zip(table.arrays, ref_levels, strict=True):
        assert joint.tobytes() == np.array(list(ref.values())).tobytes()
    # per-depth masses: the per-path fsums of each row
    for n, ref in enumerate(ref_levels):
        lo, hi = max(1, n - spec.d), min(n + spec.d, table.max_theta)
        assert table.mass[n].tolist() == [math.fsum(joint.ravel()) for joint in ref.values()]
        assert table.detection[n].tolist() == [math.fsum(joint[lo - 1 : hi].ravel()) for joint in ref.values()]
    for restrict in (True, False):
        value, tree = exact_optimal_rule(table, restrict_after_d=restrict)
        ref_value, ref_tree = dict_oracle.exact_optimal_rule(spec, ref_levels, restrict)
        assert value == ref_value
        for level, ref in zip(tree.levels, ref_tree, strict=True):
            for path, node in ref.items():
                # field by field, the horizon's NaN continuation read as None
                z, cont, val, stop = level[path_rank(spec, path)].tolist()
                assert dict_oracle.Node(z, None if math.isnan(cont) else cont, val, stop) == node


class TestArraysAgainstDictOracle:
    """The level-array table and induction equal the per-path dict versions bit for bit."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_reference_configs(self, config):
        spec = load_spec(config)
        assert_matches_dict_oracle(spec, 9 if spec.alphabet_size == 2 else 6)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        alphabet=st.integers(2, 3),
        l0=st.integers(1, 2),
        l1=st.integers(1, 2),
        d=st.integers(0, 2),
        horizon=st.integers(1, 5),
        zero=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_random_specs(self, seed, alphabet, l0, l1, d, horizon, zero):
        spec = random_spec(np.random.default_rng(seed), alphabet, l0, l1, d)
        if zero is not None:
            spec = with_shared_zero(spec, zero[0] % alphabet, zero[1] % alphabet)
            assert validate(spec) == []
        assert_matches_dict_oracle(spec, horizon)
