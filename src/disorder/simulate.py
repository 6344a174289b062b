"""Trajectory sampling and Monte Carlo rule evaluation.

Randomness comes from the Philox4x64-10 counter-based generator (Salmon,
Moraes, Dror & Shaw, SC 2011), computed here in numpy over arrays of keys.  A
trajectory with seed s reads two streams: key (s, 0) for the latent draw and
key (s, 1) for the observations.  A stream's counter starts at 1 and each
counter value gives four 64-bit words; the top 53 bits of a word make one
uniform in [0, 1).  The words equal numpy's
`np.random.Philox(key=np.array([s, stream], dtype=np.uint64)).random_raw`
(a list key would pass a seed of 2**63 or more through float64), so every
draw is reproducible across platforms and runs.  Per-trajectory seeds in an
experiment derive from (base_seed, index) through a SplitMix64 mix.  Rules
never touch the generators, so adding rules cannot perturb trajectories.

`TrajectorySampler.sample_batch` draws many seeds in one pass and returns
arrays, one row per seed; the trajectory of one seed is row 0 of
`sample_batch([seed])`, which `sample(seed)` returns.

Rules are callables mapping a full observation path to an int stop time (or
None when it never fires); they must only read the prefix up to their stop.
A rule may also carry a batch form, `rule.stop_times(observations)`, mapping
an (N, h + 1) array of paths to an integer array of stop times, -1 where the
rule never fires.  The fixed-time and posterior-threshold rules below and
stopping.OptimalStoppingRule have one, and their per-path call is the batch
form on one row.  `monte_carlo_eval` and `oracle.exact_rule_value` read every
rule through `_stop_times`.
`monte_carlo_eval` evaluates trajectories in chunks of fixed size and replays
a chunk on which a rule fails one trajectory at a time, so a failure needs no
record of its row.  Censored runs are forced to stop at the horizon and
flagged, the success indicator |theta - tau| <= d stays well defined there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import RuleError
from .model import ModelSpec, config_digest
from .posterior import PrefixTree, _check_read

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Philox4x64-10: round multipliers of counter words 0 and 2, and the Weyl
# increments of the two key words.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# the low-half mask and the half width of a 64-bit word, as uint64 scalars
_LO32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)

# Seeds per sample_batch pass and trajectories per monte_carlo_eval chunk;
# fixed, so the working set does not grow with the number of trajectories.
_CHUNK = 1024
# The most Philox blocks per _philox call whose lane constants it lays out at full shape.
_PHILOX_BLOCKS = 4096

# The posterior change mass at which posterior_threshold_rule stops.
THRESHOLD_LEVEL = 0.5

Rule = Callable[[tuple[int, ...]], Optional[int]]


def mix_seeds(base_seed: int, indices) -> np.ndarray:
    """Trajectory seeds for an array of indices in [0, 2**64), as uint64.

    The SplitMix64 finalizer over base_seed + (index + 1) golden-ratio
    increments, in uint64 arithmetic, which wraps mod 2**64.
    """
    z = np.uint64(base_seed & _MASK64) + (np.asarray(indices, dtype=np.uint64) + 1) * _GOLDEN
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def mix_seed(base_seed: int, index: int) -> int:
    """The seed of trajectory `index`: mix_seeds on one index."""
    return int(mix_seeds(base_seed, [index])[0])


def _philox(key0, key1, counter) -> np.ndarray:
    """Philox4x64-10 blocks for counter words (counter, 0, 0, 0), shape (..., 4).

    key0, key1 and counter are uint64 arrays broadcast against each other.
    The two counter words a round multiplies run as two lanes of one array,
    the words and key words they are xored with as two lanes in swapped
    order, so a round reverses only its write.  Each 64 x 64 -> 128-bit
    product is formed from 32-bit halves in buffers reused across rounds.
    Full-shape lane constants dispatch fastest; broadcast ones move less memory.
    """
    shape = (2,) + np.broadcast_shapes(np.shape(key0), np.shape(key1), np.shape(counter))
    lanes = (2,) + (1,) * (len(shape) - 1)
    mul = np.array(_PHILOX_M, dtype=np.uint64).reshape(lanes)
    bump = np.array(_PHILOX_W[::-1], dtype=np.uint64).reshape(lanes)
    if math.prod(shape[1:]) <= _PHILOX_BLOCKS:
        mul, bump = np.broadcast_to(mul, shape).copy(), np.broadcast_to(bump, shape).copy()
    mul_lo, mul_hi = mul & _LO32, mul >> _HALF
    key = np.empty(shape, dtype=np.uint64)  # key words 1 and 0
    key[0], key[1] = key1, key0
    mult = np.zeros(shape, dtype=np.uint64)  # counter words 0 and 2
    mult[0] = counter
    other = np.zeros(shape, dtype=np.uint64)  # counter words 3 and 1
    lo, hi, low, mid, cross, high = np.empty((6,) + shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += bump
        np.bitwise_and(mult, _LO32, out=lo)
        np.right_shift(mult, _HALF, out=hi)
        np.multiply(lo, mul_lo, out=low)
        low >>= _HALF
        np.multiply(hi, mul_lo, out=mid)
        mid += low  # hi * mul_lo + (lo * mul_lo >> 32)
        np.multiply(lo, mul_hi, out=cross)
        np.bitwise_and(mid, _LO32, out=low)
        cross += low
        np.multiply(hi, mul_hi, out=high)
        mid >>= _HALF
        high += mid
        cross >>= _HALF
        high += cross  # the high word of mult * mul
        # words (0, 1, 2, 3) <- (high_2 ^ w1 ^ k0, low_2, high_0 ^ w3 ^ k1, low_0)
        high ^= other
        high ^= key
        np.multiply(mult, mul, out=other)
        mult[::-1] = high
    return np.stack([mult[0], other[1], mult[1], other[0]], axis=-1)


class TrajectoryBatch(NamedTuple):
    """Trajectories drawn by one sample_batch call, one row per seed."""

    observations: np.ndarray  # (N, horizon + 1) symbols X_0 .. X_horizon
    theta: np.ndarray  # (N,) change times
    beta1: np.ndarray  # (N,) pre-change kernel indices
    beta2: np.ndarray  # (N,) post-change kernel indices


class TrajectorySampler:
    """Samples trajectories from one instance with its row cumulatives, computed once per spec."""

    def __init__(self, spec: ModelSpec, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.spec = spec
        self.horizon = horizon
        # pre kernels 0 .. l0 - 1, then post kernels l0 .. l0 + l1 - 1
        self._b_cum, self._kernel_cum = spec._cdfs
        # the blocks of one seed: (stream 0, counter 1) for the latent draw,
        # then (stream 1, counters 1 .. ceil(horizon / 4)) for the path
        blocks = -(-horizon // 4)
        self._stream = np.array([0] + [1] * blocks, dtype=np.uint64)
        self._counter = np.array([1] + list(range(1, blocks + 1)), dtype=np.uint64)

    def sample_batch(self, seeds) -> TrajectoryBatch:
        """One trajectory per seed, each row the same whatever batch its seed is drawn in.

        Seeds are drawn in chunks of fixed size, so the working memory beyond
        the returned arrays does not grow with their number.
        """
        seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
        parts = [self._sample_chunk(seeds[i : i + _CHUNK]) for i in range(0, max(len(seeds), 1), _CHUNK)]
        if len(parts) == 1:
            return parts[0]
        return TrajectoryBatch(*(np.concatenate(field) for field in zip(*parts)))

    def _sample_chunk(self, seeds: np.ndarray) -> TrajectoryBatch:
        spec, h = self.spec, self.horizon
        raw = _philox(seeds[:, None], self._stream, self._counter)
        u = (raw >> 11) * 2.0**-53
        flat = (u[:, 0, :1] < self._b_cum).argmax(axis=1)
        beta1, beta2 = np.divmod(flat, spec.l1)
        # inverse-cdf geometric: P(theta >= 2 + m | theta >= 2) = p^m; libm
        # logarithms row by row, as numpy's need not match them to the bit
        theta = np.array(
            [
                1 if u_first < pi else 2 + int(math.log1p(-u_geom) // math.log(p))
                for u_first, u_geom, pi, p in zip(
                    u[:, 0, 1].tolist(),
                    u[:, 0, 2].tolist(),
                    spec.pi[beta1, beta2].tolist(),
                    spec.p[beta1, beta2].tolist(),
                )
            ],
            dtype=np.int64,
        )
        # the uniform of step n is word (n - 1) % 4 of path block (n - 1) // 4
        step = np.arange(h)
        steps = u[:, 1 + step // 4, step % 4, None]
        # the kernel of step n: pre kernel beta1 before theta, post beta2 from theta on
        kernel = np.where(
            np.arange(1, h + 1) >= theta[:, None], spec.l0 + beta2[:, None], beta1[:, None]
        )
        obs = np.empty((len(seeds), h + 1), dtype=np.int64)
        obs[:, 0] = spec.x0
        for n in range(1, h + 1):
            rows = self._kernel_cum[kernel[:, n - 1], obs[:, n - 1]]
            obs[:, n] = (steps[:, n - 1] < rows).argmax(axis=1)
        return TrajectoryBatch(obs, theta, beta1, beta2)

    def sample(self, seed: int) -> TrajectoryBatch:
        """sample_batch([seed]), under the name perfbench's tracer wraps."""
        return self.sample_batch([seed])


@dataclass(frozen=True)
class RuleStats:
    """Monte Carlo summary for one rule on the common trajectory set."""

    estimate: float
    std_error: float
    mean_stop_time: float
    censored_rate: float


@dataclass(frozen=True)
class ExperimentReport:
    config_digest: str
    base_seed: int
    n_trajectories: int
    horizon: int
    rules: dict[str, RuleStats]


def _stop_times(rule, observations: np.ndarray) -> np.ndarray:
    """Stop times of `rule` on an (N, h + 1) batch: its batch form, else one call per row.

    -1 where the rule never fires.  A ValueError for a stop time outside [0, h]
    or not an integer: a per-path bool or float, or a batch form's result not an (N,) integer array.
    """
    h = observations.shape[1] - 1
    if hasattr(rule, "stop_times"):
        taus = np.asarray(rule.stop_times(observations))
        if taus.shape != observations.shape[:1]:
            raise ValueError(f"rule's batch form returned shape {taus.shape}, expected ({len(observations)},)")
        if taus.dtype.kind not in "iu":
            raise ValueError(f"rule's batch form returned stop times of dtype {taus.dtype}, not integers")
        never = taus == -1
    else:
        taus = [rule(path) for path in map(tuple, observations.tolist())]
        odd = [t for t in taus if isinstance(t, bool) or not isinstance(t, (int, np.integer, type(None)))]
        if odd:
            raise ValueError(f"rule returned stop time {odd[0]!r}, not an integer or None")
        never = np.array([tau is None for tau in taus], dtype=bool)
        taus = np.array([-1 if tau is None else tau for tau in taus], dtype=np.int64)
    bad = ~never & ((taus < 0) | (taus > h))
    if bad.any():
        raise ValueError(f"rule returned stop time {taus[bad][0]} outside [0, {h}]")
    return taus


def _replay(rules: Mapping[str, Rule], observations: np.ndarray, seeds: np.ndarray) -> None:
    # Raise RuleError for the first failure on the chunk, trajectory by
    # trajectory and on each one rule by rule in `rules` order.
    for row, seed in zip(observations, seeds.tolist()):
        for name, rule in rules.items():
            try:
                _stop_times(rule, row[None])
            except Exception as exc:
                raise RuleError(name, seed, exc) from exc


def monte_carlo_eval(
    spec: ModelSpec,
    rules: Mapping[str, Rule],
    n: int,
    horizon: int,
    base_seed: int,
) -> ExperimentReport:
    """Estimate each rule's success probability on shared random trajectories.

    A rule that raises stops the evaluation with a RuleError naming the rule
    and the trajectory seed, chained to the rule's exception: the lowest
    failing trajectory index, and on it the first failing rule in `rules`
    order, found by replaying the failing chunk one trajectory at a time.
    A stop time outside [0, horizon] counts as a failure.  When no
    trajectory fails on its own, it names the chunk's first seed.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    sampler = TrajectorySampler(spec, horizon)
    hits = dict.fromkeys(rules, 0)
    stop_sum = dict.fromkeys(rules, 0)
    censored = dict.fromkeys(rules, 0)
    for start in range(0, n, _CHUNK):
        seeds = mix_seeds(base_seed, np.arange(start, min(n, start + _CHUNK)))
        batch = sampler.sample_batch(seeds)
        for name, rule in rules.items():
            try:
                taus = _stop_times(rule, batch.observations)
            except Exception as exc:
                _replay(rules, batch.observations, seeds)
                # no trajectory reproduces the failure on its own
                raise RuleError(name, int(seeds[0]), exc) from exc
            never = taus < 0
            taus = np.where(never, horizon, taus)
            censored[name] += int(never.sum())
            hits[name] += int((np.abs(batch.theta - taus) <= spec.d).sum())
            stop_sum[name] += int(taus.sum())
    stats = {}
    for name in rules:
        est = hits[name] / n
        stats[name] = RuleStats(
            estimate=est,
            std_error=math.sqrt(est * (1.0 - est) / n),
            mean_stop_time=stop_sum[name] / n,
            censored_rate=censored[name] / n,
        )
    return ExperimentReport(
        config_digest=config_digest(spec),
        base_seed=base_seed,
        n_trajectories=n,
        horizon=horizon,
        rules=stats,
    )


def _with_batch_form(stop_times) -> Rule:
    # The per-path rule of a batch form: the batch form on one row.
    def rule(observations: tuple[int, ...]) -> Optional[int]:
        tau = int(stop_times(np.array([tuple(observations)], dtype=np.int64))[0])
        return None if tau < 0 else tau

    rule.stop_times = stop_times
    return rule


def fixed_time_rule(spec: ModelSpec) -> Rule:
    """Always stop at the earliest admissible time d + 1, reading no filter: up to it the rule
    raises the threshold rule's ValueErrors (start at x0, alphabet), but never a SupportError."""

    def stop_times(observations: np.ndarray) -> np.ndarray:
        obs = np.asarray(observations)
        _check_read(spec, obs, obs[:, 1 : spec.d + 2].T)  # steps 1 .. d + 1, rows in order
        tau = spec.d + 1 if obs.shape[1] - 1 >= spec.d + 1 else -1
        return np.full(len(obs), tau, dtype=np.int64)

    return _with_batch_form(stop_times)


def posterior_threshold_rule(spec: ModelSpec) -> Rule:
    """Stop once the posterior change mass P(theta <= n | data) reaches THRESHOLD_LEVEL (not before d + 1).

    The batch form walks a posterior.PrefixTree, which filters and decides
    each observed prefix once.  It fails where a per-path filter would, on a
    path that does not start at x0, an out-of-alphabet symbol or a
    transition outside the common support before the stop, and raises the
    first such error it meets with the per-path message; `monte_carlo_eval`
    locates the failing row by replay.
    """

    def decide(n: int, nodes: slice) -> np.ndarray:
        fired = tree.changed[nodes].sum(axis=(1, 2)) >= THRESHOLD_LEVEL
        return np.where(fired & (n >= spec.d + 1), n, -1)

    tree = PrefixTree(spec, decide)
    return _with_batch_form(tree.stop_times)


_METRICS = ("estimate", "std_error", "mean_stop_time", "censored_rate")


def report_to_csv(report: ExperimentReport, path) -> None:
    """One row per (rule, metric); floats carry 17 significant digits."""
    lines = ["rule,metric,value"]
    lines.append(f"_meta,config_digest,{report.config_digest}")
    lines.append(f"_meta,base_seed,{report.base_seed}")
    lines.append(f"_meta,n_trajectories,{report.n_trajectories}")
    lines.append(f"_meta,horizon,{report.horizon}")
    for name in sorted(report.rules):
        stats = report.rules[name]
        for metric in _METRICS:
            lines.append(f"{name},{metric},{getattr(stats, metric):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def report_to_json(report: ExperimentReport, path) -> None:
    payload = {
        "config_digest": report.config_digest,
        "base_seed": report.base_seed,
        "n_trajectories": report.n_trajectories,
        "horizon": report.horizon,
        "rules": {
            name: {metric: getattr(stats, metric) for metric in _METRICS}
            for name, stats in sorted(report.rules.items())
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
