"""Windowed likelihood machinery on the kernel-pair grid.

A window is an ordered tuple of symbols (x_k, ..., x_n).  The building block
is the split likelihood L_m: the product of transition densities along the
window where the last m transitions use the post-change kernel and all
earlier ones use the pre-change kernel (empty products are 1).  Every
function here returns one value per kernel pair, as an (l0, l1) grid, and
also takes a batch of windows, an (N, T + 1) int array, in one numpy pass;
a tuple is the one-row case, equal to it bit for bit.

Mixing split likelihoods over the position of the change under the geometric
hazard gives the marginal window density.  The hazard looks different seen
from inside the sequence and seen from time 0, so window_mixture has two
forms, for a window of l + 2 symbols:

    in sequence:  (1-alpha) * [q * sum_{k=0..l} p^(l-k) L_{k+1} + p^(l+1) L_0]
                  + alpha * L_{l+1}
    from time 0:  (1-alpha) * [q * sum_{k=1..l} p^(l-k) L_k + p^l L_0]
                  + alpha * L_{l+1}

where `alpha` is the probability that the change happened at or before the
window anchor.  Dropping the no-change-by-the-end term (p^(l+1) L_0, or
p^l L_0 from time 0) gives the joint weight of {window and change by the
end}.  Windows are positional: any
tuple of length l + 2 is acceptable regardless of where it sits in absolute
time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SupportError
from .model import ModelSpec

Window = tuple[int, ...]

_DENOM_FLOOR = 1e-300


def _check_window(spec: ModelSpec, window) -> np.ndarray:
    window = np.asarray(window)
    if window.shape[-1] < 1:
        raise ValueError("window must contain at least one symbol")
    bad = (window < 0) | (window >= spec.alphabet_size)
    if bad.any():
        raise ValueError(f"symbol {window[bad][0]} outside alphabet")
    return window


def _fsum_grids(terms: np.ndarray, axes: int = 2) -> np.ndarray:
    """math.fsum over the last `axes` axes (the pair grid), one sum per leading index."""
    lead = terms.shape[: terms.ndim - axes]
    # one row at a time: a whole tree level as Python floats would hold megabytes
    rows = terms.reshape(math.prod(lead), -1)
    return np.array([math.fsum(row.tolist()) for row in rows]).reshape(lead)


def _powers(p: np.ndarray, e: int) -> np.ndarray:
    # Python's float pow entry by entry; numpy's array power can differ from
    # it in the last bit.
    return np.array([x**e for x in p.ravel().tolist()]).reshape(p.shape)


def split_likelihoods(spec: ModelSpec, window) -> np.ndarray:
    """All split likelihoods L_0 .. L_T over `window`, shape (l0, l1, T + 1).

    Entry [i, j, m] uses post-change kernel j for the last m transitions and
    pre-change kernel i for the rest, T = len(window) - 1; a batch adds axis N.
    """
    window = _check_window(spec, window)
    src, dst = window[..., :-1], window[..., 1:]
    f0 = np.moveaxis(spec.pre_kernels[:, src, dst], 0, -2)
    f1 = np.moveaxis(spec.post_kernels[:, src, dst], 0, -2)
    # prefix[..., r]: pre factors of the first r transitions; tail[..., m]:
    # post factors of the last m.  L_m = prefix at T - m times tail at m.
    prefix = np.concatenate((np.ones(f0.shape[:-1] + (1,)), np.cumprod(f0, -1)), axis=-1)
    tail = np.concatenate((np.ones(f1.shape[:-1] + (1,)), np.cumprod(f1[..., ::-1], -1)), axis=-1)
    return prefix[..., :, None, ::-1] * tail[..., None, :, :]


def window_mixture(
    spec: ModelSpec, window, alpha, origin: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (changed, total) window densities, each an (l0, l1) grid.

    `total` mixes the split likelihoods over the change position; `changed`
    keeps only the terms where the change has happened by the window's end.
    `alpha` (scalar or grid) is the change mass at the window anchor, and
    `origin` selects the hazard form of a window anchored at time 0.  A
    batch gives (N, l0, l1) grids, `alpha` broadcast against them.
    """
    splits = split_likelihoods(spec, window)
    t = splits.shape[-1] - 1
    if t < 1:
        raise ValueError("window must contain at least two symbols")
    h = t - 1 if origin else t
    p = spec.p
    q = 1.0 - p
    geo = np.zeros_like(p)
    for k in range(1, h + 1):
        geo = geo * p + splits[..., k]
    rest = 1.0 - alpha
    top = alpha * splits[..., t]
    changed = rest * q * geo + top
    total = rest * (q * geo + _powers(p, h) * splits[..., 0]) + top
    return changed, total


def path_probability(spec: ModelSpec, observations):
    """Exact probability of an observation path starting at the fixed x0, per row of a batch."""
    observations = np.asarray(observations)
    if observations.shape[-1] < 2:
        raise ValueError("need at least one transition after the initial symbol")
    if np.any(observations[..., 0] != spec.x0):
        raise ValueError(f"path must start at x0={spec.x0}")
    _, total = window_mixture(spec, observations, spec.pi, origin=True)
    probs = _fsum_grids(spec.b * total)
    return probs if probs.ndim else float(probs)


def likelihood_ratio_chain(spec: ModelSpec, window, m_max: int) -> np.ndarray:
    """Matrix of sum_{t=1..m_max} (L_t / L_0) / p^t over the window suffixes.

    L_t / L_0 telescopes to the product of post/pre density ratios along the
    last t transitions, so the whole family is one backward sweep.  Raises
    SupportError when a pre-change density of those transitions vanishes.
    """
    window = _check_window(spec, window)
    t = window.shape[-1] - 1
    if m_max > t:
        raise ValueError(f"m_max={m_max} exceeds the {t} transitions available")
    src, dst = window[..., t - m_max : -1], window[..., t - m_max + 1 :]
    f0 = spec.pre_kernels.T[dst, src]
    dead = (f0 < _DENOM_FLOOR).any(axis=-1)
    if dead.any():
        raise SupportError(f"transition {src[dead][0]}->{dst[dead][0]} outside common support")
    f1 = spec.post_kernels.T[dst, src]
    ratio = f1[..., None, :] / f0[..., :, None]
    total = np.zeros(window.shape[:-1] + (spec.l0, spec.l1))
    acc = np.ones_like(total)
    for m in range(1, m_max + 1):
        acc = acc * ratio[..., m_max - m, :, :] / spec.p
        total = total + acc
    return total
