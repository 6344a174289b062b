"""Plain reference sampler: numpy's own Philox, one trajectory at a time.

This is the sampler `disorder.simulate` replaced with its numpy Philox4x64-10
over arrays of keys, kept here as the reference the batch sampler must equal
seed by seed: one `np.random.Philox` generator per stream, key (seed, 0) for
the latent draw and key (seed, 1) for the observations, and a linear
inverse-cdf scan over each cumulative row.  The trajectory seeds come from
the SplitMix64 mix in Python integers.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def mix_seed(base_seed, index):
    """SplitMix64 finalizer over base_seed + golden-ratio increments."""
    z = (base_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def uniforms(seed, stream, count):
    """Uniform [0, 1) draws from the Philox stream keyed (seed, stream)."""
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    return (bits.random_raw(count) >> np.uint64(11)) * 2.0**-53


def scan(cum, u):
    """Inverse-cdf lookup on a short cumulative row."""
    last = len(cum) - 1
    for idx in range(last):
        if u < cum[idx]:
            return idx
    return last


def sample(spec, horizon, seed):
    """(theta, beta1, beta2, observations) of the trajectory with this seed."""
    b_cum = np.cumsum(spec.b.ravel()).tolist()
    pre_cum = np.cumsum(spec.pre_kernels, axis=2).tolist()
    post_cum = np.cumsum(spec.post_kernels, axis=2).tolist()
    u_pair, u_first, u_geom = uniforms(seed, 0, 3).tolist()
    i, j = divmod(scan(b_cum, u_pair), spec.l1)
    if u_first < float(spec.pi[i, j]):
        theta = 1
    else:
        theta = 2 + int(math.log1p(-u_geom) // math.log(float(spec.p[i, j])))
    us = uniforms(seed, 1, horizon).tolist()
    obs = [spec.x0]
    x = spec.x0
    for n in range(1, horizon + 1):
        cum = post_cum[j][x] if n >= theta else pre_cum[i][x]
        x = scan(cum, us[n - 1])
        obs.append(x)
    return theta, i, j, tuple(obs)
