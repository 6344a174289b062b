"""Plain per-pair reference filter, one kernel pair and one float at a time.

These are the scalar formulas the grid-wide core in `disorder.likelihood` and
`disorder.posterior` replaces, kept here in plain Python as the reference the
grid code must equal bit for bit: split likelihoods by prefix and suffix
products, the four window densities (in-sequence and from time 0, total and
changed), the one-step update of the joint masses, the predictive law and the
path probability.  The one-step updates of the conditional change and pair
grids stay as a second referee, equal to the views of the joint masses to
rounding.
"""

import math

import numpy as np

from disorder import PosteriorState


def splits(spec, i, j, window):
    """L_0 .. L_T over `window` for pair (i, j)."""
    t = len(window) - 1
    f0 = [float(spec.pre_kernels[i, window[r - 1], window[r]]) for r in range(1, t + 1)]
    f1 = [float(spec.post_kernels[j, window[r - 1], window[r]]) for r in range(1, t + 1)]
    prefix = [1.0] * (t + 1)
    suffix = [1.0] * (t + 1)
    for r in range(1, t + 1):
        prefix[r] = prefix[r - 1] * f0[r - 1]
    for r in range(t - 1, -1, -1):
        suffix[r] = suffix[r + 1] * f1[r]
    return [prefix[t - m] * suffix[t - m] for m in range(t + 1)]


def _geo(spec, i, j, window, origin):
    s = splits(spec, i, j, window)
    l = len(window) - 2
    p = float(spec.p[i, j])
    geo = 0.0
    for k in range(1, l + 1) if origin else range(l + 1):
        geo = geo * p + (s[k] if origin else s[k + 1])
    return s, l, p, geo


def window_marginal(spec, i, j, window, alpha, origin=False):
    """Marginal window density of pair (i, j), anchor change mass alpha."""
    s, l, p, geo = _geo(spec, i, j, window, origin)
    tail = p**l if origin else p ** (l + 1)
    return (1.0 - alpha) * ((1.0 - p) * geo + tail * s[0]) + alpha * s[l + 1]


def window_changed(spec, i, j, window, alpha, origin=False):
    """Joint weight of the window and the change by its end, pair (i, j)."""
    s, l, p, geo = _geo(spec, i, j, window, origin)
    return (1.0 - alpha) * (1.0 - p) * geo + alpha * s[l + 1]


def change_step(spec, i, j, prev, x_prev, x_next, n):
    """One-step update of P(change by n | pair (i, j), data)."""
    f0 = float(spec.pre_kernels[i, x_prev, x_next])
    f1 = float(spec.post_kernels[j, x_prev, x_next])
    p = float(spec.p[i, j])
    if n == 1:
        pi = float(spec.pi[i, j])
        num = f1 * pi
        den = num + f0 * (1.0 - pi)
    else:
        num = f1 * ((1.0 - p) + p * prev)
        den = num + f0 * p * (1.0 - prev)
    return num / den


def pair_step(spec, x_prev, x_next, prev_pair, prev_change, n):
    """One-step update of the pair posterior grid, one pair at a time."""
    num = np.empty((spec.l0, spec.l1))
    for i, j in np.ndindex(spec.l0, spec.l1):
        if n == 1:
            alpha, weight = float(spec.pi[i, j]), float(spec.b[i, j])
        else:
            alpha, weight = float(prev_change[i, j]), float(prev_pair[i, j])
        num[i, j] = weight * window_marginal(spec, i, j, (x_prev, x_next), alpha, origin=n == 1)
    return num / float(num.sum())


def conditional_step(spec, x_prev, x_next, prev_change, prev_pair, n):
    """The (change, pair) grids at time n from those at n - 1, through the updates above."""
    change = np.empty((spec.l0, spec.l1))
    for i, j in np.ndindex(spec.l0, spec.l1):
        change[i, j] = change_step(spec, i, j, float(prev_change[i, j]), x_prev, x_next, n)
    return change, pair_step(spec, x_prev, x_next, prev_pair, prev_change, n)


def mass_step(spec, i, j, unchanged, changed, x_prev, x_next, n):
    """Unnormalised one-step update of pair (i, j)'s joint masses (unchanged, changed)."""
    f0 = float(spec.pre_kernels[i, x_prev, x_next])
    f1 = float(spec.post_kernels[j, x_prev, x_next])
    if n == 1:
        keep, jump = 1.0 - float(spec.pi[i, j]), float(spec.pi[i, j])
    else:
        keep, jump = float(spec.p[i, j]), 1.0 - float(spec.p[i, j])
    return unchanged * keep * f0, (changed + unchanged * jump) * f1


def state_step(spec, state, x_next):
    """The filter step, every pair through mass_step, then divided by the grid total."""
    n = state.n + 1
    x_prev = state.window[-1]
    unchanged = np.empty((spec.l0, spec.l1))
    changed = np.empty((spec.l0, spec.l1))
    for i, j in np.ndindex(spec.l0, spec.l1):
        u, c = float(state.unchanged[i, j]), float(state.changed[i, j])
        unchanged[i, j], changed[i, j] = mass_step(spec, i, j, u, c, x_prev, x_next, n)
    total = float((unchanged + changed).sum())
    window = (state.window + (x_next,))[-(spec.d + 2) :]
    return PosteriorState(n=n, window=window, unchanged=unchanged / total, changed=changed / total)


def mixture(spec, window, gamma, delta, origin=False):
    """fsum over pairs of gamma[i, j] * window_marginal(window, delta[i, j])."""
    return math.fsum(
        float(gamma[i, j]) * window_marginal(spec, i, j, window, float(delta[i, j]), origin)
        for i, j in np.ndindex(spec.l0, spec.l1)
    )


def predictive(spec, state):
    """Next-symbol law: per next symbol, an fsum over pairs of the masses mass_step gives."""
    x = state.window[-1]
    law = []
    for y in range(spec.alphabet_size):
        terms = []
        for i, j in np.ndindex(spec.l0, spec.l1):
            u, c = float(state.unchanged[i, j]), float(state.changed[i, j])
            terms.append(sum(mass_step(spec, i, j, u, c, x, y, state.n + 1)))
        law.append(math.fsum(terms))
    return np.array(law)


def path_probability(spec, path):
    """Origin-anchored pair mixture over the whole path."""
    return mixture(spec, tuple(path), spec.b, spec.pi, origin=True)
