"""Recursive state-indexed induction, one filter state per call.

This is the per-state recursion that `disorder.oracle.optimal_value_state_indexed`
replaces with one batched pass per tree level, kept here as the reference
the batched induction must equal bit for bit: values from the horizon back,
the continuation adding w_y * value(child) over y in order with w_y = 0
skipped, stops allowed from d + 1 on, and equal states valued once.
"""

from disorder import predictive, state_init, state_step, stop_payoff


def optimal_value_state_indexed(spec, horizon):
    """Optimal value of stopping by `horizon`, by recursion on filter states."""
    if horizon < spec.d + 2:
        raise ValueError("state-indexed induction needs horizon >= d + 2")

    memo: dict = {}

    def state_key(state):
        return (
            state.n,
            state.window,
            state.unchanged.tobytes(),
            state.changed.tobytes(),
        )

    def payoff(state) -> float:
        return stop_payoff(spec, state.n, state.window, state.unchanged, state.changed)

    def value(state) -> float:
        key = state_key(state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if state.n == horizon:
            v = payoff(state)
        else:
            pred = predictive(spec, state)
            cont = 0.0
            for y in range(spec.alphabet_size):
                w = float(pred[y])
                if w > 0.0:
                    cont += w * value(state_step(spec, state, y))
            v = max(payoff(state), cont) if state.n > spec.d else cont
        memo[key] = v
        return v

    return value(state_init(spec))
