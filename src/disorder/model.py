"""Problem instances for single change-point detection with kernel uncertainty.

An instance fixes a finite observation alphabet, two candidate families of
Markov transition kernels (pre-change and post-change) and a prior over the
latent triple (change time, pre index, post index).  Conditionally on the
kernel pair (i, j), the change time theta is 1 with probability pi[i, j] and
otherwise 1 plus a geometric holding time with continuation probability
p[i, j]:

    P(theta = 1 | i, j) = pi[i, j]
    P(theta = n | i, j) = (1 - pi[i, j]) * p[i, j]**(n - 2) * q[i, j],  n > 1

with q = 1 - p (always derived, never stored).  Observations follow
pre_kernels[i] strictly before theta and post_kernels[j] from theta on,
continuing from the last pre-change symbol.  X_0 = x0 is fixed.

Per-pair quantities (priors, posteriors) live on an l0 x l1 grid indexed by
(i, j); throughout the package these are plain float64 arrays of that shape.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError

ROW_SUM_TOL = 1e-12
# The most grid cells validate's payoff-coefficient check builds; past them it is skipped.
_COEFF_CELLS = 1_000_000
# The largest payoff coefficient validate accepts, in units of p_min (1 - p_max):
# the stopping layer divides coefficients by p and by 1 - p, and multiplies two
# differences of them, so they stay 2^12 below the square root of the float range.
_COEFF_MAX = 2.0**500

CONFIG_KEYS = ("alphabet_size", "pre_kernels", "post_kernels", "b", "pi", "p", "d", "x0")


def _cdf(weights: np.ndarray) -> np.ndarray:
    # Cumulative sums along the last axis, raised to inf from the first entry
    # that reaches the row total on: the first column whose entry exceeds u
    # is then the inverse-cdf index, and never one of a zero-weight tail.
    cum = np.cumsum(weights, axis=-1)
    cum[cum >= cum[..., -1:]] = np.inf
    return cum


def pair_matrix(values, l0: int, l1: int) -> np.ndarray:
    """Coerce `values` to a read-only float64 array of shape (l0, l1)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (l0, l1):
        raise ValueError(f"pair matrix must have shape {(l0, l1)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("pair matrix entries must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelSpec:
    """Immutable problem instance.

    Attributes
    ----------
    alphabet_size : int
        Number of symbols; symbols are the indices 0 .. alphabet_size - 1.
    pre_kernels : ndarray, shape (l0, E, E)
        pre_kernels[i, x, y] is the pre-change transition probability x -> y.
    post_kernels : ndarray, shape (l1, E, E)
        post_kernels[j, x, y] is the post-change transition probability.
    b : ndarray, shape (l0, l1)
        Prior over the kernel pair.
    pi : ndarray, shape (l0, l1)
        Probability that the change is already active at time 1.
    p : ndarray, shape (l0, l1)
        Geometric continuation probability of the pre-change phase.
    d : int
        Detection precision; a stop at n scores when |theta - n| <= d.
    x0 : int
        The fixed initial symbol.
    """

    alphabet_size: int
    pre_kernels: np.ndarray
    post_kernels: np.ndarray
    b: np.ndarray
    pi: np.ndarray
    p: np.ndarray
    d: int
    x0: int

    def __post_init__(self):
        pre = np.asarray(self.pre_kernels, dtype=np.float64).copy()
        post = np.asarray(self.post_kernels, dtype=np.float64).copy()
        if pre.ndim != 3 or post.ndim != 3:
            raise ValueError("kernels must be 3-d arrays: (kernel, row, col)")
        l0, l1 = pre.shape[0], post.shape[0]
        b = pair_matrix(self.b, l0, l1)
        pi = pair_matrix(self.pi, l0, l1)
        p = pair_matrix(self.p, l0, l1)
        pre.setflags(write=False)
        post.setflags(write=False)
        object.__setattr__(self, "pre_kernels", pre)
        object.__setattr__(self, "post_kernels", post)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "p", p)

    @property
    def l0(self) -> int:
        return self.pre_kernels.shape[0]

    @property
    def l1(self) -> int:
        return self.post_kernels.shape[0]

    @cached_property
    def _digest(self) -> str:
        # config_digest's value, computed once: the fields are frozen and the arrays read-only
        canonical = json.dumps(spec_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @cached_property
    def _cdfs(self) -> tuple[np.ndarray, np.ndarray]:
        # the sampler's inverse-cdf tables, computed once and read-only: the
        # flattened pair prior's, and each kernel row's, pre kernels 0 .. l0 - 1
        # then post kernels l0 .. l0 + l1 - 1
        tables = _cdf(self.b.ravel()), _cdf(np.concatenate([self.pre_kernels, self.post_kernels]))
        for table in tables:
            table.setflags(write=False)
        return tables


def validate(spec: ModelSpec) -> list[str]:
    """Check every model invariant and return the list of violations.

    An empty list means the instance is valid.  All other operations in the
    package assume a valid instance; this is the only gatekeeper.
    """
    from .likelihood import _DENOM_FLOOR  # these modules import this one
    from .stopping import ValueTable

    report: list[str] = []
    e = spec.alphabet_size
    if not isinstance(e, (int, np.integer)) or e < 1:
        report.append("alphabet_size must be a positive integer")
        return report
    if not isinstance(spec.d, (int, np.integer)) or spec.d < 0:
        report.append("d must be a non-negative integer")
    if not isinstance(spec.x0, (int, np.integer)) or not (0 <= spec.x0 < e):
        report.append("x0 outside alphabet")

    for name, kernels in (("pre", spec.pre_kernels), ("post", spec.post_kernels)):
        if kernels.shape[1:] != (e, e):
            report.append(f"{name} kernels must have shape (*, {e}, {e})")
            continue
        if not np.all(np.isfinite(kernels)):
            report.append(f"{name} kernel has non-finite entries")
            continue
        if np.any(kernels < 0):
            report.append(f"{name} kernel has negative entries")
        # the filter reads a density under the floor as outside the support
        if np.any((kernels > 0) & (kernels < _DENOM_FLOOR)):
            report.append(f"{name} kernel has entries in (0, {_DENOM_FLOOR:g})")
        sums = kernels.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            report.append(f"{name} kernel row not stochastic")

    if np.any(spec.b < 0):
        report.append("b has negative entries")
    if abs(float(spec.b.sum()) - 1.0) > ROW_SUM_TOL:
        report.append("b does not sum to 1")
    if np.any((spec.pi < 0) | (spec.pi > 1)):
        report.append("pi outside [0, 1]")
    if np.any((spec.p <= 0) | (spec.p >= 1)):
        report.append("p outside open interval")

    # All kernel rows for a given source symbol must share a zero pattern,
    # otherwise likelihood ratios used by the payoff are unbounded.
    if spec.pre_kernels.shape[1:] == (e, e) and spec.post_kernels.shape[1:] == (e, e):
        rows = np.concatenate([spec.pre_kernels, spec.post_kernels], axis=0)
        support = rows > 0
        if np.any(support != support[0]):
            report.append("kernel supports differ across candidates")

    # The stop payoff's per-pair coefficients must stay in range (_COEFF_MAX) on
    # every window of d + 2 symbols the chain can show, or payoffs and values
    # overflow; checked while the windows' ratio grids fit in _COEFF_CELLS cells.
    small = not report and spec.d + 2 <= math.log2(_COEFF_CELLS)  # a guard on the power below
    if small and e ** (spec.d + 2) * (spec.d + 1) * spec.l0 * spec.l1 <= _COEFF_CELLS:
        table = ValueTable(spec)
        top = _COEFF_MAX * spec.p.min() * (1.0 - spec.p.max())
        with np.errstate(over="ignore", invalid="ignore"):
            fits = (table.coeff <= top).all(axis=(1, 2))
        if not fits.all():
            report.append(f"payoff coefficients overflow on window {tuple(table.windows[~fits][0].tolist())}")
    return report


def change_time_pmf(spec: ModelSpec, k: int) -> float:
    """Marginal prior probability that the change happens exactly at time k."""
    if k < 1:
        raise ValueError("change time is at least 1")
    if k == 1:
        return float(np.sum(spec.pi * spec.b))
    q = 1.0 - spec.p
    return float(np.sum((1.0 - spec.pi) * spec.p ** (k - 2) * q * spec.b))


def spec_from_dict(payload: dict) -> ModelSpec:
    """Build a ModelSpec from a plain config mapping; unknown keys rejected."""
    if not isinstance(payload, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(payload) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(set(CONFIG_KEYS) - set(payload))
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    for key in ("alphabet_size", "d", "x0"):
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return ModelSpec(
            alphabet_size=int(payload["alphabet_size"]),
            pre_kernels=np.asarray(payload["pre_kernels"], dtype=np.float64),
            post_kernels=np.asarray(payload["post_kernels"], dtype=np.float64),
            b=np.asarray(payload["b"], dtype=np.float64),
            pi=np.asarray(payload["pi"], dtype=np.float64),
            p=np.asarray(payload["p"], dtype=np.float64),
            d=int(payload["d"]),
            x0=int(payload["x0"]),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "alphabet_size": int(spec.alphabet_size),
        "pre_kernels": spec.pre_kernels.tolist(),
        "post_kernels": spec.post_kernels.tolist(),
        "b": spec.b.tolist(),
        "pi": spec.pi.tolist(),
        "p": spec.p.tolist(),
        "d": int(spec.d),
        "x0": int(spec.x0),
    }


def load_spec(path: str | Path) -> ModelSpec:
    """Read a JSON config file and build the instance."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return spec_from_dict(payload)


def save_spec(spec: ModelSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True))


def config_digest(spec: ModelSpec) -> str:
    """Stable hex digest of the instance, used to stamp experiment reports; computed once per instance."""
    return spec._digest
