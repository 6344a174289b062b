import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disorder import (
    path_probability,
    predictive,
    split_likelihoods,
    window_mixture,
)
from disorder.likelihood import likelihood_ratio_chain

from conftest import make_m1, make_m3, make_m4, random_spec, state_from


def all_paths(spec, n):
    for tail in itertools.product(range(spec.alphabet_size), repeat=n):
        yield (spec.x0,) + tail


class TestLikelihoodProduct:
    def test_single_point_window(self, m1):
        assert split_likelihoods(m1, (0,))[0, 0, 0] == 1.0

    def test_pre_factor(self, m1):
        assert split_likelihoods(m1, (0, 1))[0, 0, 0] == pytest.approx(0.2)

    def test_post_factor(self, m1):
        assert split_likelihoods(m1, (0, 1))[0, 0, 1] == pytest.approx(0.8)

    def test_full_split_uses_only_one_kernel(self, m3):
        window = (0, 1, 1, 0)
        pre_only = math.prod(
            float(m3.pre_kernels[1, window[r - 1], window[r]]) for r in range(1, 4)
        )
        post_only = math.prod(
            float(m3.post_kernels[0, window[r - 1], window[r]]) for r in range(1, 4)
        )
        splits = split_likelihoods(m3, window)
        assert splits[1, 0, 0] == pytest.approx(pre_only, abs=1e-15)
        assert splits[1, 0, 3] == pytest.approx(post_only, abs=1e-15)

    def test_interior_split_direct_product(self, m4):
        window = (0, 2, 1, 2)
        i, j, m = 1, 0, 2
        expected = float(m4.pre_kernels[i, 0, 2]) * float(m4.post_kernels[j, 2, 1]) * float(
            m4.post_kernels[j, 1, 2]
        )
        assert split_likelihoods(m4, window)[i, j, m] == pytest.approx(expected, abs=1e-15)


class TestWindowMarginals:
    def test_marginal_example(self, m1):
        assert window_mixture(m1, (0, 1), 0.0)[1][0, 0] == pytest.approx(0.32, abs=1e-15)

    def test_alpha_one_collapses_to_full_split(self, m3):
        window = (0, 1, 0)
        full = split_likelihoods(m3, window)[..., 2]
        changed, total = window_mixture(m3, window, 1.0)
        assert total == pytest.approx(full)
        assert window_mixture(m3, window, 1.0, origin=True)[1] == pytest.approx(full)
        assert changed == pytest.approx(full)

    def test_origin_trivial_level(self, m1):
        # empty inner sum leaves only the all-pre term
        assert window_mixture(m1, (0, 1), 0.0, origin=True)[1][0, 0] == pytest.approx(0.2)

    def test_identical_kernels_telescope(self):
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
        rng = np.random.default_rng(3)
        for _ in range(20):
            l = int(rng.integers(0, 4))
            window = tuple(rng.integers(0, 2, size=l + 2).tolist())
            alpha = float(rng.uniform())
            base = split_likelihoods(same, window)[0, 0, 0]
            assert window_mixture(same, window, alpha)[1][0, 0] == pytest.approx(
                base, abs=1e-14
            )

    def test_changed_is_marginal_minus_tail(self, m3):
        rng = np.random.default_rng(9)
        for _ in range(30):
            l = int(rng.integers(0, 3))
            window = tuple(rng.integers(0, 2, size=l + 2).tolist())
            alpha = float(rng.uniform())
            p = m3.p
            l0 = split_likelihoods(m3, window)[..., 0]
            lam, psi = window_mixture(m3, window, alpha)
            assert lam == pytest.approx(psi - (1 - alpha) * p ** (l + 1) * l0, abs=1e-14)
            assert np.all((0.0 <= lam) & (lam <= psi + 1e-15))
            lam_t, psi_t = window_mixture(m3, window, alpha, origin=True)
            assert lam_t == pytest.approx(psi_t - (1 - alpha) * p**l * l0, abs=1e-14)

    def test_example_changed_value(self, m1):
        assert window_mixture(m1, (0, 1), 0.0)[0][0, 0] == pytest.approx(0.16, abs=1e-15)

    def test_length_mismatch_rejected(self, m1):
        # a window needs at least one transition
        with pytest.raises(ValueError):
            window_mixture(m1, (0,), 0.0)

    def test_naive_sum_agrees(self, m4):
        # term-by-term geometric sums, the slow road
        rng = np.random.default_rng(17)
        for _ in range(20):
            l = int(rng.integers(0, 4))
            window = tuple(rng.integers(0, 3, size=l + 2).tolist())
            alpha = float(rng.uniform())
            grid = split_likelihoods(m4, window)
            total = window_mixture(m4, window, alpha)[1]
            total_t = window_mixture(m4, window, alpha, origin=True)[1]
            for i, j in m4.pairs():
                p = float(m4.p[i, j])
                q = 1 - p
                splits = grid[i, j]
                psi = (1 - alpha) * (
                    q * sum(p ** (l - k) * splits[k + 1] for k in range(l + 1))
                    + p ** (l + 1) * splits[0]
                ) + alpha * splits[l + 1]
                assert total[i, j] == pytest.approx(psi, abs=1e-14)
                psi_t = (1 - alpha) * (
                    q * sum(p ** (l - k) * splits[k] for k in range(1, l + 1))
                    + p**l * splits[0]
                ) + alpha * splits[l + 1]
                assert total_t[i, j] == pytest.approx(psi_t, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    l=st.integers(0, 3),
    a0=st.floats(0, 1),
    a1=st.floats(0, 1),
)
def test_marginals_affine_in_alpha(seed, l, a0, a1):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    window = tuple(rng.integers(0, spec.alphabet_size, size=l + 2).tolist())
    mid = 0.5 * (a0 + a1)
    for origin in (False, True):
        f0 = window_mixture(spec, window, a0, origin)
        f1 = window_mixture(spec, window, a1, origin)
        fm = window_mixture(spec, window, mid, origin)
        for lo, hi, m in zip(f0, f1, fm):  # changed, then total
            assert np.max(np.abs(m - 0.5 * (lo + hi))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), entry=st.floats(0, 1))
def test_mixture_affine_in_each_delta_entry(seed, entry):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    k = int(rng.integers(0, 3))
    window = tuple(rng.integers(0, spec.alphabet_size, size=k + 2).tolist())
    gamma = rng.uniform(0, 1, size=(spec.l0, spec.l1))
    delta = rng.uniform(0, 1, size=(spec.l0, spec.l1))
    i, j = int(rng.integers(spec.l0)), int(rng.integers(spec.l1))
    lo, hi, mid = delta.copy(), delta.copy(), delta.copy()
    lo[i, j], hi[i, j], mid[i, j] = 0.0, entry, 0.5 * entry
    def pair_mixture(delta):
        return math.fsum((gamma * window_mixture(spec, window, delta)[1]).ravel())

    f_lo, f_hi, f_mid = pair_mixture(lo), pair_mixture(hi), pair_mixture(mid)
    assert abs(f_mid - 0.5 * (f_lo + f_hi)) <= 1e-12


class TestMixtures:
    def test_singleton_mixture_equals_marginal(self, m1):
        state = state_from(1, (0,), np.array([[0.0]]), np.array([[1.0]]))
        got = predictive(m1, state)[1]
        assert got == pytest.approx(0.32, abs=1e-15)

    def test_prior_mixture_is_pair_sum(self, m3):
        # mixing with (b, pi) must equal the sum of per-pair origin marginals
        for n in (1, 2, 3):
            for path in all_paths(m3, n):
                total = window_mixture(m3, path, m3.pi, origin=True)[1]
                direct = sum(float(m3.b[i, j]) * float(total[i, j]) for i, j in m3.pairs())
                got = path_probability(m3, path)
                assert got == pytest.approx(direct, abs=1e-14)


class TestPathProbability:
    def test_example_value(self, m1):
        assert path_probability(m1, (0, 1)) == pytest.approx(0.2, abs=1e-15)

    def test_wrong_start_rejected(self, m1):
        with pytest.raises(ValueError):
            path_probability(m1, (1, 0))

    def test_too_short_rejected(self, m1):
        with pytest.raises(ValueError):
            path_probability(m1, (0,))

    @pytest.mark.parametrize("make", [make_m1, make_m3, make_m4])
    def test_total_probability_per_depth(self, make):
        spec = make(d=1)
        for n in range(1, 7):
            total = math.fsum(path_probability(spec, path) for path in all_paths(spec, n))
            assert abs(total - 1.0) <= 1e-12

    def test_matches_enumeration_of_latents(self, m3):
        # independent oracle: sum kernel products over (theta, i, j) explicitly
        for path in all_paths(m3, 3):
            n = len(path) - 1
            total = 0.0
            for i, j in m3.pairs():
                pi, p = float(m3.pi[i, j]), float(m3.p[i, j])
                for theta in range(1, n + 2):  # change inside path or anywhere later
                    if theta == 1:
                        w_prior = pi
                    elif theta <= n:
                        w_prior = (1 - pi) * p ** (theta - 2) * (1 - p)
                    else:  # theta > n: all transitions pre-change
                        w_prior = (1 - pi) * p ** (n - 1)
                    dens = 1.0
                    for r in range(1, n + 1):
                        if r >= theta:
                            dens *= float(m3.post_kernels[j, path[r - 1], path[r]])
                        else:
                            dens *= float(m3.pre_kernels[i, path[r - 1], path[r]])
                    total += float(m3.b[i, j]) * w_prior * dens
            assert path_probability(m3, path) == pytest.approx(total, abs=1e-14)

    def test_identical_kernels_reduce_to_chain(self):
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
        for path in all_paths(same, 4):
            chain = math.prod(
                float(same.pre_kernels[0, path[r - 1], path[r]]) for r in range(1, 5)
            )
            assert path_probability(same, path) == pytest.approx(chain, abs=1e-14)


class TestUnderflowGuard:
    def test_vanishing_factor_uses_log_space(self):
        # a 1e-301 kernel entry: the prefix and suffix products keep it
        # without a log-space detour; the row still sums to 1.0 exactly
        spec = make_m1()
        tiny = type(spec)(
            alphabet_size=2,
            pre_kernels=[[[1.0, 1e-301], [0.5, 0.5]]],
            post_kernels=[[[1.0, 1e-301], [0.5, 0.5]]],
            b=[[1.0]],
            pi=[[0.0]],
            p=[[0.8]],
            d=0,
            x0=0,
        )
        from disorder import validate

        assert validate(tiny) == []
        got = split_likelihoods(tiny, (0, 1, 1))[0, 0]
        assert got[0] == pytest.approx(1e-301 * 0.5, rel=1e-12)
        assert got[2] == pytest.approx(1e-301 * 0.5, rel=1e-12)


class TestRatioChain:
    def test_matches_split_ratios(self, m4):
        window = (0, 1, 2, 0)
        chain = likelihood_ratio_chain(m4, window, 3)
        grid = split_likelihoods(m4, window)
        for i, j in m4.pairs():
            splits = grid[i, j]
            p = float(m4.p[i, j])
            expected = sum(splits[t] / (p**t * splits[0]) for t in range(1, 4))
            assert chain[i, j] == pytest.approx(expected, abs=1e-12)

    def test_too_deep_rejected(self, m1):
        with pytest.raises(ValueError):
            likelihood_ratio_chain(m1, (0, 1), 2)
