"""Trajectory sampling and Monte Carlo rule evaluation.

Randomness comes from numpy's Philox counter-based generator with explicit
keys, so every draw is reproducible across platforms and runs.  A trajectory
with seed s consumes two substreams, Philox key (s, 0) for the latent draw
and Philox key (s, 1) for the observations; per-trajectory seeds in an
experiment derive from (base_seed, index) through a SplitMix64 mix.  Rules
never touch the generators, so adding rules cannot perturb trajectories.

Rules are callables mapping a full observation path to a stop time (or None
when the rule never fires); they must only read the prefix up to their stop.
Censored runs are forced to stop at the horizon and flagged, the success
indicator |theta - tau| <= d stays well defined there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import RuleError
from .model import LatentState, ModelSpec, config_digest
from .posterior import state_init, state_step

_MASK64 = (1 << 64) - 1

Rule = Callable[[tuple[int, ...]], Optional[int]]


def mix_seed(base_seed: int, index: int) -> int:
    """SplitMix64 finalizer over base_seed + golden-ratio increments."""
    z = (base_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """Uniform [0, 1) draws from the Philox stream keyed (seed, stream)."""
    bits = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    raw = bits.random_raw(count)
    return (raw >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class Trajectory:
    latent: LatentState
    observations: tuple[int, ...]
    seed: int


def _scan(cum: list[float], u: float) -> int:
    """Inverse-cdf lookup on a short cumulative row."""
    last = len(cum) - 1
    for idx in range(last):
        if u < cum[idx]:
            return idx
    return last


class TrajectorySampler:
    """Samples trajectories from one instance with cached row cumulatives."""

    def __init__(self, spec: ModelSpec, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.spec = spec
        self.horizon = horizon
        self._b_cum = np.cumsum(spec.b.ravel()).tolist()
        self._pre_cum = np.cumsum(spec.pre_kernels, axis=2).tolist()
        self._post_cum = np.cumsum(spec.post_kernels, axis=2).tolist()

    def sample(self, seed: int) -> Trajectory:
        spec = self.spec
        u_pair, u_first, u_geom = _uniforms(seed, 0, 3).tolist()
        flat = _scan(self._b_cum, u_pair)
        i, j = divmod(flat, spec.l1)
        if u_first < float(spec.pi[i, j]):
            theta = 1
        else:
            # inverse-cdf geometric: P(theta >= 2 + m | theta >= 2) = p^m
            theta = 2 + int(math.log1p(-u_geom) // math.log(float(spec.p[i, j])))
        us = _uniforms(seed, 1, self.horizon).tolist()
        pre_rows = self._pre_cum[i]
        post_rows = self._post_cum[j]
        obs = [spec.x0]
        x = spec.x0
        for n in range(1, self.horizon + 1):
            cum = post_rows[x] if n >= theta else pre_rows[x]
            x = _scan(cum, us[n - 1])
            obs.append(x)
        return Trajectory(
            latent=LatentState(theta=theta, beta1=i, beta2=j),
            observations=tuple(obs),
            seed=seed,
        )


def sample_trajectory(spec: ModelSpec, horizon: int, seed: int) -> Trajectory:
    """One trajectory of X_0 .. X_horizon, deterministic in the seed."""
    return TrajectorySampler(spec, horizon).sample(seed)


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


def monte_carlo_eval(
    spec: ModelSpec,
    rules: Mapping[str, Rule],
    n: int,
    horizon: int,
    base_seed: int,
) -> ExperimentReport:
    """Estimate each rule's success probability on shared random trajectories.

    A rule that raises stops the evaluation with a RuleError naming the rule
    and the trajectory seed, chained to the rule's exception.
    """
    if n < 1:
        raise ValueError("need at least one trajectory")
    sampler = TrajectorySampler(spec, horizon)
    hits = {name: 0 for name in rules}
    stop_sum = {name: 0 for name in rules}
    censored = {name: 0 for name in rules}
    for idx in range(n):
        traj = sampler.sample(mix_seed(base_seed, idx))
        for name, rule in rules.items():
            try:
                tau = rule(traj.observations)
            except Exception as exc:
                raise RuleError(name, traj.seed, exc) from exc
            if tau is None:
                tau = horizon
                censored[name] += 1
            if abs(traj.latent.theta - tau) <= spec.d:
                hits[name] += 1
            stop_sum[name] += tau
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


def fixed_time_rule(spec: ModelSpec) -> Rule:
    """Always stop at the earliest admissible time d + 1."""

    def rule(observations: tuple[int, ...]) -> Optional[int]:
        return spec.d + 1 if len(observations) - 1 >= spec.d + 1 else None

    return rule


def posterior_threshold_rule(spec: ModelSpec, level: float = 0.5) -> Rule:
    """Stop once the posterior total change mass reaches `level` (not before d + 1)."""

    def rule(observations: tuple[int, ...]) -> Optional[int]:
        state = state_init(spec)
        for n in range(1, len(observations)):
            state = state_step(spec, state, observations[n])
            if n >= spec.d + 1:
                mass = float(np.sum(state.change_prob * state.pair_prob))
                if mass >= level:
                    return n
        return None

    return rule


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
    import json

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
