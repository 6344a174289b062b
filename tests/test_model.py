import dataclasses
import hashlib
import itertools
import json
import math
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disorder import (
    BudgetError,
    ConfigError,
    ModelSpec,
    OptimalStoppingRule,
    ValueIterConfig,
    change_time_pmf,
    config_digest,
    load_spec,
    save_spec,
    spec_from_dict,
    spec_to_dict,
    validate,
)

from disorder import stopping
from disorder.payoff import level_payoff
from disorder.posterior import filter_levels

from conftest import make_m1, make_m3, make_m4, random_spec

CONFIGS = Path(__file__).parents[1] / "configs"


def reference_digest(spec):
    # the sha256 of the canonical JSON, computed afresh
    canonical = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def tiny_spec(pi=0.3, p=0.5):
    """Single-pair uniform-kernel instance used by the pmf examples."""
    return spec_from_dict(
        {
            "alphabet_size": 2,
            "pre_kernels": [[[0.5, 0.5], [0.5, 0.5]]],
            "post_kernels": [[[0.5, 0.5], [0.5, 0.5]]],
            "b": [[1.0]],
            "pi": [[pi]],
            "p": [[p]],
            "d": 0,
            "x0": 0,
        }
    )


class TestValidate:
    def test_valid_uniform_spec(self):
        assert validate(tiny_spec(pi=0.0, p=0.8)) == []

    def test_non_stochastic_row(self):
        spec = spec_from_dict(
            {
                "alphabet_size": 2,
                "pre_kernels": [[[0.5, 0.4], [0.5, 0.5]]],
                "post_kernels": [[[0.5, 0.5], [0.5, 0.5]]],
                "b": [[1.0]],
                "pi": [[0.0]],
                "p": [[0.8]],
                "d": 0,
                "x0": 0,
            }
        )
        assert any("not stochastic" in item for item in validate(spec))

    def test_p_boundary_rejected(self):
        spec = spec_from_dict(
            {
                "alphabet_size": 2,
                "pre_kernels": [[[0.5, 0.5], [0.5, 0.5]]],
                "post_kernels": [[[0.5, 0.5], [0.5, 0.5]]],
                "b": [[1.0]],
                "pi": [[0.0]],
                "p": [[1.0]],
                "d": 0,
                "x0": 0,
            }
        )
        assert any("open interval" in item for item in validate(spec))

    def test_support_mismatch_detected(self):
        spec = spec_from_dict(
            {
                "alphabet_size": 2,
                "pre_kernels": [[[1.0, 0.0], [0.5, 0.5]]],
                "post_kernels": [[[0.5, 0.5], [0.5, 0.5]]],
                "b": [[1.0]],
                "pi": [[0.0]],
                "p": [[0.8]],
                "d": 0,
                "x0": 0,
            }
        )
        assert any("support" in item for item in validate(spec))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("families", [("pre_kernels",), ("pre_kernels", "post_kernels")])
    def test_non_finite_kernel_rejected(self, m3, families, entry):
        # in every candidate of both families the support patterns stay equal
        payload = spec_to_dict(m3)
        for family in families:
            for kernel in payload[family]:
                kernel[1][0] = entry
        report = validate(spec_from_dict(payload))
        assert any("non-finite" in item for item in report)

    def test_pure_function(self, m3):
        assert validate(m3) == validate(m3) == []

    def test_reference_specs_valid(self):
        for make in (make_m1, make_m3, make_m4):
            assert validate(make(d=1)) == []

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
    def test_committed_configs_valid(self, path):
        assert validate(load_spec(path)) == []

    def test_overflowing_payoff_coefficients_rejected(self):
        # pre 0 -> 0 at 1e-160: two post/pre ratios of 5e159 over p^2 overflow
        spec = ModelSpec(2, [[[1e-160, 1 - 1e-160], [0.5, 0.5]]], [[[0.5, 0.5], [0.5, 0.5]]], [[1.0]], [[0.0]], [[0.5]], 1, 0)
        assert validate(spec) == ["payoff coefficients overflow on window (0, 0, 0)"]

    def test_entries_under_the_density_floor_rejected(self):
        # the filter reads a density in (0, 1e-300) as outside the support,
        # so filter_levels and crosscheck raised SupportError on these specs
        tiny = [[[1.0, 1e-301], [0.5, 0.5]]]
        spec = ModelSpec(2, tiny, tiny, [[1.0]], [[0.0]], [[0.8]], 0, 0)
        assert validate(spec) == ["pre kernel has entries in (0, 1e-300)", "post kernel has entries in (0, 1e-300)"]
        spec = ModelSpec(2, [[[0.5, 0.5], [0.5, 0.5]]], tiny, [[1.0]], [[1.0]], [[0.8]], 0, 0)
        assert validate(spec) == ["post kernel has entries in (0, 1e-300)"]
        floor = [[[1.0, 1e-300], [0.5, 0.5]]]
        assert validate(ModelSpec(2, floor, floor, [[1.0]], [[0.0]], [[0.8]], 0, 0)) == []

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        alphabet=st.integers(2, 3),
        l0=st.integers(1, 2),
        l1=st.integers(1, 2),
        d=st.integers(0, 2),
        e=st.integers(1, 300),
        at=st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)),
    )
    def test_tiny_kernel_entry_rejected_or_finite(self, seed, alphabet, l0, l1, d, e, at):
        # one pre-kernel entry scaled to 10^-e, its row renormalised: either
        # validate rejects the spec, or payoffs and the optimal rule on every
        # level to horizon 4 stay finite and warn of nothing
        payload = spec_to_dict(random_spec(np.random.default_rng(seed), alphabet, l0, l1, d))
        kernel = payload["pre_kernels"][at[0] % l0]
        row = kernel[at[1] % alphabet]
        row[at[2] % alphabet] = 10.0**-e
        kernel[at[1] % alphabet] = [v / sum(row) for v in row]
        spec = spec_from_dict(payload)
        if validate(spec):
            return
        for level in filter_levels(spec, 4):
            if level.n > d:
                assert np.isfinite(level_payoff(spec, level)).all()
        rule = OptimalStoppingRule(spec, ValueIterConfig(k_max=4))
        # a small candidate budget bounds the time (2 x 2 grids at alphabet 3
        # can take minutes); running out of it is the rule's own error, not an
        # overflow, and a warning before it still fails the test
        with patch.object(stopping, "CANDIDATE_BUDGET", 20_000):
            try:
                assert (rule.stop_times(level.paths) >= -1).all()
            except BudgetError:
                pass


class TestChangeTimePmf:
    def test_first_step_mass(self):
        assert change_time_pmf(tiny_spec(), 1) == pytest.approx(0.3, abs=1e-15)

    def test_second_step_mass(self):
        # (1 - 0.3) * 0.5**0 * 0.5
        assert change_time_pmf(tiny_spec(), 2) == pytest.approx(0.35, abs=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            change_time_pmf(tiny_spec(), 0)

    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_partial_sums_and_tail_bound(self, make):
        spec = make()
        partial = 0.0
        for up_to in range(2, 40):
            partial = math.fsum(change_time_pmf(spec, k) for k in range(1, up_to + 1))
            assert partial <= 1.0 + 1e-12
            tail = float(np.sum(spec.b * (1.0 - spec.pi) * spec.p ** (up_to - 1)))
            assert abs(partial + tail - 1.0) <= 1e-12

    def test_matches_joint_enumeration(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng)
        # brute force: P(theta = k) = sum_ij b_ij P(theta = k | ij)
        for k in range(1, 9):
            total = 0.0
            for i, j in np.ndindex(spec.l0, spec.l1):
                pi, p = float(spec.pi[i, j]), float(spec.p[i, j])
                cond = pi if k == 1 else (1 - pi) * p ** (k - 2) * (1 - p)
                total += float(spec.b[i, j]) * cond
            assert change_time_pmf(spec, k) == pytest.approx(total, abs=1e-15)


class TestConfigIO:
    def test_round_trip(self, tmp_path, m3):
        path = tmp_path / "m3.json"
        save_spec(m3, path)
        loaded = load_spec(path)
        assert spec_to_dict(loaded) == spec_to_dict(m3)
        assert config_digest(loaded) == config_digest(m3)

    def test_unknown_keys_rejected(self, m1):
        payload = spec_to_dict(m1)
        payload["extra"] = 1
        with pytest.raises(ConfigError, match="unknown config keys: extra"):
            spec_from_dict(payload)

    def test_missing_keys_rejected(self, m1):
        payload = spec_to_dict(m1)
        del payload["pi"]
        with pytest.raises(ConfigError, match="missing config keys: pi"):
            spec_from_dict(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("d", 1.7),
            ("d", 1.0),
            ("d", "1"),
            ("d", None),
            ("x0", True),
            ("x0", 0.0),
            ("alphabet_size", 2.5),
            ("alphabet_size", False),
            ("alphabet_size", [2]),
        ],
    )
    def test_non_integer_scalar_rejected(self, m1, key, value):
        payload = spec_to_dict(m1)
        payload[key] = value
        with pytest.raises(ConfigError, match=key):
            spec_from_dict(payload)

    def test_numpy_integer_scalars_accepted(self, m1):
        payload = spec_to_dict(m1)
        payload.update(alphabet_size=np.int64(2), d=np.int32(1), x0=np.int64(0))
        assert spec_to_dict(spec_from_dict(payload)) == spec_to_dict(make_m1(d=1))

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ConfigError):
            load_spec(path)

    def test_digest_differs_across_specs(self, m1, m2):
        assert config_digest(m1) != config_digest(m2)

    def test_spec_arrays_immutable(self, m1):
        # so the digest config_digest keeps per instance cannot go stale
        for name in ("pre_kernels", "post_kernels", "b", "pi", "p"):
            with pytest.raises(ValueError):
                getattr(m1, name)[(0,) * getattr(m1, name).ndim] = 0.5

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
    def test_digest_is_sha256_of_canonical_json(self, path):
        spec = load_spec(path)
        assert config_digest(spec) == reference_digest(spec)
        assert config_digest(spec) is config_digest(spec)  # computed once

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), alphabet=st.integers(2, 3), l0=st.integers(1, 3), l1=st.integers(1, 3))
    def test_digest_of_random_spec(self, seed, alphabet, l0, l1):
        spec = random_spec(np.random.default_rng(seed), alphabet, l0, l1)
        assert config_digest(spec) == reference_digest(spec)

    def test_replaced_spec_gets_its_own_digest(self, m3):
        before = config_digest(m3)
        other = dataclasses.replace(m3, p=np.full_like(m3.p, 0.5))
        assert config_digest(other) == reference_digest(other) != before
        assert config_digest(m3) == before


_FUZZ_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.text(max_size=4),
    st.none(),
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=8,
)


def _replace_leaf(value, path, new):
    # swap the leaf of a nested list reached by following `path`
    if not isinstance(value, list) or not value:
        return new
    idx = path[0] % len(value)
    return value[:idx] + [_replace_leaf(value[idx], path[1:] or [0], new)] + value[idx + 1 :]


@settings(max_examples=300, deadline=None)
@given(
    key=st.sampled_from(sorted(spec_to_dict(make_m3()))),
    whole=st.booleans(),
    path=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    value=_FUZZ_VALUES,
)
def test_spec_from_dict_fuzz_gives_spec_or_config_error(key, whole, path, value):
    # every field, replaced whole or in one nested entry, by non-finite,
    # bool, float, string and other values: a spec or a ConfigError, never
    # another exception
    payload = spec_to_dict(make_m3())
    payload[key] = value if whole else _replace_leaf(payload[key], path, value)
    try:
        spec = spec_from_dict(payload)
    except ConfigError:
        return
    assert isinstance(validate(spec), list)
