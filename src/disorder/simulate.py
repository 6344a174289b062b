"""Trajectory sampling and Monte Carlo rule evaluation.

Randomness comes from the Philox4x64-10 counter-based generator (Salmon,
Moraes, Dror & Shaw, SC 2011), computed here in numpy over arrays of keys.  A
trajectory with seed s reads two streams: key (s, 0) for the latent draw and
key (s, 1) for the observations.  A stream's counter starts at 1 and each
counter value gives four 64-bit words; the top 53 bits of a word make one
uniform in [0, 1).  The words equal numpy's
`np.random.Philox(key=[s, stream]).random_raw`, so every draw is reproducible
across platforms and runs.  Per-trajectory seeds in an experiment derive from
(base_seed, index) through a SplitMix64 mix.  Rules never touch the
generators, so adding rules cannot perturb trajectories.

`TrajectorySampler.sample_batch` draws many seeds in one pass and returns
arrays, one row per seed; `sample` is its one-row case.

Rules are callables mapping a full observation path to a stop time (or None
when the rule never fires); they must only read the prefix up to their stop.
A rule may also carry a batch form, `rule.stop_times(observations)`, mapping
an (N, h + 1) array of paths to their stop times, -1 where the rule never
fires.  The fixed-time and posterior-threshold rules below have one, and
their per-path call is the batch form on one row.  `monte_carlo_eval`
samples and evaluates trajectories in chunks of fixed size, through the
batch form where a rule has one and the per-path call on each row otherwise.
A chunk on which a rule fails is replayed one trajectory at a time through
the per-path calls, so a failure needs no record of its row.
Censored runs are forced to stop at the horizon and flagged, the success
indicator |theta - tau| <= d stays well defined there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import RuleError, SupportError
from .model import LatentState, ModelSpec, config_digest
from .posterior import _filter_step

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Philox4x64-10: round multipliers of counter words 0 and 2, and the Weyl
# increments of the two key words.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = 0xFFFFFFFF

# Seeds per sample_batch pass and trajectories per monte_carlo_eval chunk;
# fixed, so the working set does not grow with the number of trajectories.
_CHUNK = 1024

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
    The two counter words a round multiplies, and so the two key words, run
    as two lanes of one array; each 64 x 64 -> 128-bit product is formed
    from 32-bit halves.
    """
    shape = np.broadcast_shapes(np.shape(key0), np.shape(key1), np.shape(counter))
    lanes = (2,) + (1,) * len(shape)
    mul = np.array(_PHILOX_M, dtype=np.uint64).reshape(lanes)
    mul_lo, mul_hi = mul & _LO32, mul >> 32
    bump = np.array(_PHILOX_W, dtype=np.uint64).reshape(lanes)
    key = np.empty((2,) + shape, dtype=np.uint64)
    key[0], key[1] = key0, key1
    mult = np.zeros((2,) + shape, dtype=np.uint64)  # counter words 0 and 2
    mult[0] = counter
    other = np.zeros((2,) + shape, dtype=np.uint64)  # counter words 1 and 3
    for r in range(_PHILOX_ROUNDS):
        if r:
            key = key + bump
        lo, hi = mult & _LO32, mult >> 32
        low = lo * mul_lo
        mid = hi * mul_lo + (low >> 32)
        cross = lo * mul_hi + (mid & _LO32)
        high = hi * mul_hi + (mid >> 32) + (cross >> 32)
        # words (0, 1, 2, 3) <- (high_2 ^ w1 ^ k0, low_2, high_0 ^ w3 ^ k1, low_0)
        mult, other = high[::-1] ^ other ^ key, (mult * mul)[::-1]
    return np.stack([mult[0], other[0], mult[1], other[1]], axis=-1)


def _cdf(weights: np.ndarray) -> np.ndarray:
    # Cumulative sums along the last axis, raised to inf from the first entry
    # that reaches the row total on: the first column whose entry exceeds u
    # is then the inverse-cdf index, and never one of a zero-weight tail.
    cum = np.cumsum(weights, axis=-1)
    cum[cum >= cum[..., -1:]] = np.inf
    return cum


@dataclass(frozen=True)
class Trajectory:
    latent: LatentState
    observations: tuple[int, ...]
    seed: int


class TrajectoryBatch(NamedTuple):
    """Trajectories drawn by one sample_batch call, one row per seed."""

    observations: np.ndarray  # (N, horizon + 1) symbols X_0 .. X_horizon
    theta: np.ndarray  # (N,) change times
    beta1: np.ndarray  # (N,) pre-change kernel indices
    beta2: np.ndarray  # (N,) post-change kernel indices


class TrajectorySampler:
    """Samples trajectories from one instance with cached row cumulatives."""

    def __init__(self, spec: ModelSpec, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.spec = spec
        self.horizon = horizon
        self._b_cum = _cdf(spec.b.ravel())
        # pre kernels 0 .. l0 - 1, then post kernels l0 .. l0 + l1 - 1
        self._kernel_cum = _cdf(np.concatenate([spec.pre_kernels, spec.post_kernels]))
        # the blocks of one seed: (stream 0, counter 1) for the latent draw,
        # then (stream 1, counters 1 .. ceil(horizon / 4)) for the path
        blocks = -(-horizon // 4)
        self._stream = np.array([0] + [1] * blocks, dtype=np.uint64)
        self._counter = np.array([1] + list(range(1, blocks + 1)), dtype=np.uint64)

    def sample_batch(self, seeds) -> TrajectoryBatch:
        """One trajectory per seed, row by row the trajectory `sample` gives.

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

    def sample(self, seed: int) -> Trajectory:
        batch = self.sample_batch([seed])
        return Trajectory(
            latent=LatentState(
                theta=int(batch.theta[0]), beta1=int(batch.beta1[0]), beta2=int(batch.beta2[0])
            ),
            observations=tuple(batch.observations[0].tolist()),
            seed=seed,
        )


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
    """Stop times of `rule` on the rows of one chunk, -1 where it never fires."""
    if hasattr(rule, "stop_times"):
        return rule.stop_times(observations)
    taus = [rule(path) for path in map(tuple, observations.tolist())]
    return np.array([-1 if tau is None else tau for tau in taus], dtype=np.int64)


def _replay(rules: Mapping[str, Rule], observations: np.ndarray, seeds: np.ndarray) -> None:
    # Raise RuleError for the first per-path failure on the chunk, trajectory
    # by trajectory and on each one rule by rule in `rules` order.
    for path, seed in zip(map(tuple, observations.tolist()), seeds.tolist()):
        for name, rule in rules.items():
            try:
                rule(path)
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
    order, found by replaying the failing chunk through the per-path calls.
    When no trajectory fails on its own, it names the chunk's first seed.
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
        tau = int(stop_times(np.array([observations], dtype=np.int64))[0])
        return None if tau < 0 else tau

    rule.stop_times = stop_times
    return rule


def fixed_time_rule(spec: ModelSpec) -> Rule:
    """Always stop at the earliest admissible time d + 1."""

    def stop_times(observations: np.ndarray) -> np.ndarray:
        obs = np.asarray(observations)
        tau = spec.d + 1 if obs.shape[1] - 1 >= spec.d + 1 else -1
        return np.full(len(obs), tau, dtype=np.int64)

    return _with_batch_form(stop_times)


def posterior_threshold_rule(spec: ModelSpec, level: float = 0.5) -> Rule:
    """Stop once the posterior total change mass reaches `level` (not before d + 1).

    The batch form filters every path in lockstep and advances only the rows
    that have not stopped.  It fails where a per-path filter would, on a
    path that does not start at x0, an out-of-alphabet symbol or a
    transition outside the common support before the stop, and raises the
    first such error it meets with the per-path message; `monte_carlo_eval`
    locates the failing row by replay.
    """

    def stop_times(observations: np.ndarray) -> np.ndarray:
        obs = np.asarray(observations)
        stops = np.full(len(obs), -1, dtype=np.int64)
        rows = np.arange(len(obs))  # the rows still running
        x_prev = np.full(len(obs), spec.x0)
        change, pair = None, np.broadcast_to(spec.b, (len(obs), spec.l0, spec.l1))
        if not obs.shape[1] or (obs[:, 0] != spec.x0).any():
            raise ValueError(f"stream must start at x0={spec.x0}")
        in_alphabet = bool(((obs[:, 1:] >= 0) & (obs[:, 1:] < spec.alphabet_size)).all())
        for n in range(1, obs.shape[1]):
            if not len(rows):
                break
            x_next = obs[rows, n]
            if not in_alphabet:
                bad = np.flatnonzero((x_next < 0) | (x_next >= spec.alphabet_size))
                if len(bad):
                    raise ValueError(f"symbol {x_next[bad[0]]} outside alphabet")
            change, pair, dead = _filter_step(spec, change, pair, x_prev, x_next)
            if dead is not None:
                k = np.flatnonzero(dead)[0]
                raise SupportError(f"observation {x_next[k]} outside common support after {x_prev[k]}")
            x_prev = x_next
            if n >= spec.d + 1:
                fired = (change * pair).sum(axis=(1, 2)) >= level
                if fired.any():
                    stops[rows[fired]] = n
                    keep = ~fired
                    rows, x_prev, change, pair = rows[keep], x_prev[keep], change[keep], pair[keep]
        return stops

    return _with_batch_form(stop_times)


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


def report_from_csv(path) -> ExperimentReport:
    """Round-trip parser for report_to_csv output."""
    meta: dict[str, str] = {}
    per_rule: dict[str, dict[str, float]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "rule,metric,value":
            raise ValueError(f"unexpected report header: {header!r}")
        for line in fh:
            rule, metric, value = line.rstrip("\n").split(",", 2)
            if rule == "_meta":
                meta[metric] = value
            else:
                per_rule.setdefault(rule, {})[metric] = float(value)
    rules = {
        name: RuleStats(**{metric: vals[metric] for metric in _METRICS})
        for name, vals in per_rule.items()
    }
    return ExperimentReport(
        config_digest=meta["config_digest"],
        base_seed=int(meta["base_seed"]),
        n_trajectories=int(meta["n_trajectories"]),
        horizon=int(meta["horizon"]),
        rules=rules,
    )


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
