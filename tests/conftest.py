"""Shared test instances.

Four desk-scale specs cover the structural corners: M1/M2 are binary with a
single kernel pair (M2 detects slower, p = 0.7), M3 carries a full 2 x 2 pair
grid with state-dependent well-separated kernels, M4 mixes a ternary alphabet
with an asymmetric 2 x 1 grid and nonzero initial hazards.
"""

import numpy as np
import pytest

from disorder import ModelSpec, PosteriorState, spec_from_dict, spec_to_dict, state_step


def make_m1(d: int = 0) -> ModelSpec:
    return spec_from_dict(
        {
            "alphabet_size": 2,
            "pre_kernels": [[[0.8, 0.2], [0.8, 0.2]]],
            "post_kernels": [[[0.2, 0.8], [0.2, 0.8]]],
            "b": [[1.0]],
            "pi": [[0.0]],
            "p": [[0.8]],
            "d": d,
            "x0": 0,
        }
    )


def make_m2(d: int = 0) -> ModelSpec:
    return spec_from_dict(
        {
            "alphabet_size": 2,
            "pre_kernels": [[[0.8, 0.2], [0.8, 0.2]]],
            "post_kernels": [[[0.2, 0.8], [0.2, 0.8]]],
            "b": [[1.0]],
            "pi": [[0.0]],
            "p": [[0.7]],
            "d": d,
            "x0": 0,
        }
    )


def make_m3(d: int = 0) -> ModelSpec:
    return spec_from_dict(
        {
            "alphabet_size": 2,
            "pre_kernels": [
                [[0.8, 0.2], [0.7, 0.3]],
                [[0.6, 0.4], [0.5, 0.5]],
            ],
            "post_kernels": [
                [[0.2, 0.8], [0.1, 0.9]],
                [[0.3, 0.7], [0.25, 0.75]],
            ],
            "b": [[0.3, 0.2], [0.25, 0.25]],
            "pi": [[0.0, 0.1], [0.05, 0.0]],
            "p": [[0.7, 0.8], [0.75, 0.7]],
            "d": d,
            "x0": 0,
        }
    )


def make_m4(d: int = 0) -> ModelSpec:
    return spec_from_dict(
        {
            "alphabet_size": 3,
            "pre_kernels": [
                [[0.6, 0.3, 0.1], [0.5, 0.3, 0.2], [0.4, 0.4, 0.2]],
                [[0.3, 0.5, 0.2], [0.2, 0.6, 0.2], [0.3, 0.4, 0.3]],
            ],
            "post_kernels": [
                [[0.1, 0.2, 0.7], [0.15, 0.15, 0.7], [0.2, 0.2, 0.6]],
            ],
            "b": [[0.5], [0.5]],
            "pi": [[0.1], [0.2]],
            "p": [[0.75], [0.6]],
            "d": d,
            "x0": 0,
        }
    )


def make_zero_support(d: int = 1) -> ModelSpec:
    """M3 with the transition 1 -> 1 impossible under every kernel."""
    payload = spec_to_dict(make_m3(d))
    for kernels in (payload["pre_kernels"], payload["post_kernels"]):
        for kernel in kernels:
            kernel[1] = [1.0, 0.0]
    return spec_from_dict(payload)


@pytest.fixture
def m1() -> ModelSpec:
    return make_m1()


@pytest.fixture
def m2() -> ModelSpec:
    return make_m2()


@pytest.fixture
def m3() -> ModelSpec:
    return make_m3()


@pytest.fixture
def m4() -> ModelSpec:
    return make_m4()


def random_spec(rng: np.random.Generator, alphabet: int = 2, l0: int = 2, l1: int = 2, d: int = 0) -> ModelSpec:
    """A random full-support instance, for property tests."""

    def kernels(count):
        raw = rng.uniform(0.1, 1.0, size=(count, alphabet, alphabet))
        return raw / raw.sum(axis=2, keepdims=True)

    b = rng.uniform(0.1, 1.0, size=(l0, l1))
    return ModelSpec(
        alphabet_size=alphabet,
        pre_kernels=kernels(l0),
        post_kernels=kernels(l1),
        b=b / b.sum(),
        pi=rng.uniform(0.0, 0.5, size=(l0, l1)),
        p=rng.uniform(0.3, 0.9, size=(l0, l1)),
        d=d,
        x0=int(rng.integers(alphabet)),
    )


def with_shared_zero(spec: ModelSpec, x: int, y: int) -> ModelSpec:
    """The spec with the transition x -> y impossible under every kernel, rows renormalised."""
    payload = spec_to_dict(spec)
    for kernels in (payload["pre_kernels"], payload["post_kernels"]):
        for kernel in kernels:
            kernel[x][y] = 0.0
            total = sum(kernel[x])
            kernel[x] = [v / total for v in kernel[x]]
    return spec_from_dict(payload)


def masses(change, pair):
    """The joint masses (unchanged, changed) of a change grid and a pair grid."""
    change = np.asarray(change, dtype=np.float64)
    return (1.0 - change) * pair, change * pair


def state_from(n: int, window, change, pair) -> PosteriorState:
    """The filter state at time n whose views are the (change, pair) grids."""
    return PosteriorState(n, window, *masses(change, pair))


def step_from(spec: ModelSpec, prev, x_prev: int, x_next: int) -> np.ndarray:
    """Change posterior grid after one in-sequence filter step from `prev`.

    `prev` (scalar or grid) is the change posterior at some time n >= 1 with
    last symbol x_prev; the pair posterior does not enter the change update.
    """
    change = np.broadcast_to(np.asarray(prev, dtype=np.float64), (spec.l0, spec.l1))
    return state_step(spec, state_from(1, (x_prev,), change, spec.b), x_next).change_prob
