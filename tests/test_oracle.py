import itertools
import math

import numpy as np
import pytest

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
from disorder.oracle import (
    change_cdf_given_pair,
    detection_mass,
    dump_joint,
    dump_tree,
    path_prob,
)

from disorder import (
    OptimalStoppingRule,
    ValueIterConfig,
    monte_carlo_eval,
    posterior_threshold_rule,
    validate,
)

from conftest import make_m1, make_m2, make_m3, make_m4, make_zero_support


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
    def test_path_marginal_matches_likelihood(self, make):
        spec = make(d=1)
        table = build_joint(spec, 5)
        for n in range(1, 6):
            for path in all_paths(spec, n):
                assert abs(
                    path_prob(table, path) - path_probability(spec, path)
                ) <= 1e-12

    def test_m1_first_step_law(self, m1):
        table = build_joint(m1, 1)
        assert path_prob(table, (0, 1)) == pytest.approx(0.2, abs=1e-15)

    def test_total_mass_per_depth(self, m4):
        table = build_joint(m4, 4)
        for level in table.levels:
            total = math.fsum(path_prob(table, path) for path in level)
            assert abs(total - 1.0) <= 1e-12

    def test_budget_guard(self, m1):
        with pytest.raises(BudgetError):
            build_joint(m1, 8, budget=100)

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
        with pytest.raises(ValueError):
            exact_posterior(table, (0, 1, 0))

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
        with pytest.raises(ValueError):
            exact_rule_value(table, lambda path: 99)


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

    @pytest.mark.parametrize("make", [make_m2, make_m3])
    @pytest.mark.parametrize("d", [0, 1])
    def test_state_indexed_induction_agrees(self, make, d):
        spec = make(d)
        table = build_joint(spec, 6)
        v_path, _ = exact_optimal_rule(table, restrict_after_d=True)
        v_state = optimal_value_state_indexed(spec, 6)
        assert abs(v_path - v_state) <= 1e-12

    def test_tree_invariants(self, m2):
        table = build_joint(m2, 5)
        value, tree = exact_optimal_rule(table)
        for n, level in enumerate(tree.levels):
            for path, node in level.items():
                if n == 5:
                    assert node.continuation is None
                    assert node.value == node.z
                else:
                    assert node.value == pytest.approx(
                        max(node.z, node.continuation)
                        if n >= m2.d + 1
                        else node.continuation,
                        abs=1e-15,
                    )
        assert value == pytest.approx(tree.node((0,)).value, abs=1e-15)

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
                if tree.node(path[: n + 1]).stop:
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


class TestDetectionMass:
    def test_matches_direct_window_sum(self, m3):
        spec = make_m3(d=1)
        table = build_joint(spec, 4)
        for path in all_paths(spec, 4):
            joint = table.levels[4][path]
            for n in range(0, 5):
                lo = max(1, n - spec.d)
                expected = math.fsum(joint[lo - 1 : n + spec.d].ravel().tolist())
                assert detection_mass(table, path, n) == pytest.approx(
                    expected, abs=1e-15
                )


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
        assert asked and all(path_prob(table, path) > 0.0 for path in asked)
        assert len(asked) < len(table.levels[4])

    def test_monte_carlo_with_optimal_rule(self, spec):
        rules = {"optimal": OptimalStoppingRule(spec, ValueIterConfig(k_max=5))}
        report = monte_carlo_eval(spec, rules, 300, 6, 5)
        assert 0.0 < report.rules["optimal"].estimate <= 1.0
