"""The normalization check, one path and one filter state at a time.

This is the per-path loop that `disorder.crosscheck.check_continuation_normalization`
replaces with whole filter-tree levels, kept here as the reference whose
max_err the level-wise check must equal bit for bit on the paths of the
deepest level it checks: each path is filtered with state_step, the
normaliser is the predictive of the previous state, and s_k is read with
ValueTable.value at every level k.
"""

from disorder import posterior, stopping
from disorder.crosscheck import _NORM_LEVELS


def normalization_max_err(spec, paths):
    """Worst |s_k(u_state) * norm - s_k(u_prev)| along the (N, n + 1) `paths`, from step d + 2 on."""
    table = stopping.ValueTable(spec)
    worst = 0.0
    for path in paths.tolist():
        state = posterior.state_init(spec)
        for n in range(1, len(path)):
            prev = state
            state = posterior.state_step(spec, state, path[n])
            if state.n <= spec.d + 1:
                continue
            x_prev, x_next = path[n - 1], path[n]
            norm = float(posterior.predictive(spec, prev)[x_next])
            composed = spec.p * spec.pre_kernels[:, x_prev, x_next][:, None] * prev.unchanged
            u_state = table.weight(state.unchanged)
            u_prev = table.weight(composed)
            for k in _NORM_LEVELS:
                lhs = table.value(k, state.window, u_state) * norm
                rhs = table.value(k, state.window, u_prev)
                worst = max(worst, abs(lhs - rhs))
    return worst
