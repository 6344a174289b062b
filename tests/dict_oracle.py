"""Joint table and backward induction as one dict entry per path.

This is the per-path enumeration that `disorder.oracle.build_joint` and
`disorder.oracle.exact_optimal_rule` replace with one array per tree level,
kept here as the reference those must equal bit for bit: each child's
buckets are the parent's times the post-change kernel factor for theta <= n
and the pre-change factor otherwise, and the induction backs each node up
from its children's unnormalised values in symbol order.
"""

import math
from typing import NamedTuple

import numpy as np


class Node(NamedTuple):
    """Backward-induction record for one path node; continuation is None at the horizon."""

    z: float
    continuation: float | None
    value: float
    stop: bool


def build_joint(spec, horizon, max_theta):
    """levels[n]: path of n steps -> (max_theta + 1, l0, l1) joint buckets."""
    root = np.empty((max_theta + 1, spec.l0, spec.l1))
    q = 1.0 - spec.p
    for t in range(1, max_theta + 1):
        if t == 1:
            root[t - 1] = spec.pi * spec.b
        else:
            root[t - 1] = (1.0 - spec.pi) * spec.p ** (t - 2) * q * spec.b
    root[max_theta] = (1.0 - spec.pi) * spec.p ** (max_theta - 1) * spec.b

    levels = [{(spec.x0,): root}]
    for n in range(1, horizon + 1):
        level = {}
        for path, joint in levels[n - 1].items():
            x_prev = path[-1]
            for y in range(spec.alphabet_size):
                child = np.empty_like(joint)
                child[:n] = joint[:n] * spec.post_kernels[:, x_prev, y][None, None, :]
                child[n:] = joint[n:] * spec.pre_kernels[:, x_prev, y][None, :, None]
                level[path + (y,)] = child
        levels.append(level)
    return levels


def exact_optimal_rule(spec, levels, restrict_after_d=True):
    """(optimal value, levels of path -> Node) by induction over the dict tree."""
    h = len(levels) - 1
    max_theta = next(iter(levels[0].values())).shape[0] - 1
    w_levels = [dict() for _ in range(h + 1)]
    out_levels = [dict() for _ in range(h + 1)]
    for n in range(h, -1, -1):
        lo, hi = max(1, n - spec.d), min(n + spec.d, max_theta)
        for path, joint in levels[n].items():
            pp = math.fsum(joint.ravel())
            uz = math.fsum(joint[lo - 1 : hi].ravel())
            if n == h:
                w_levels[n][path] = uz
                out_levels[n][path] = Node(
                    z=uz / pp if pp > 0 else 0.0, continuation=None, value=uz / pp if pp > 0 else 0.0, stop=True
                )
                continue
            uc = math.fsum(w_levels[n + 1][path + (y,)] for y in range(spec.alphabet_size))
            allowed = n >= spec.d + 1 if restrict_after_d else True
            w = max(uz, uc) if allowed else uc
            w_levels[n][path] = w
            if pp > 0:
                out_levels[n][path] = Node(
                    z=uz / pp, continuation=uc / pp, value=w / pp, stop=bool(allowed and uz >= uc)
                )
            else:
                out_levels[n][path] = Node(z=0.0, continuation=0.0, value=0.0, stop=False)
    return w_levels[0][(spec.x0,)], out_levels
