"""Workload models: valuation distributions, arrivals, populations.

Section 6.1 lists "modeling workloads to simulate different strategy
distributions of players" as one of the database challenges of large-scale
market simulation.  This module is that workload generator: named valuation
distributions, Poisson arrival processes, and deterministic population
builders that mix strategies in given proportions.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import SimulationError
from .agents import BuyerAgent, make_strategy

ValueSampler = Callable[[np.random.Generator], float]


def uniform_values(low: float = 0.0, high: float = 100.0) -> ValueSampler:
    if high <= low:
        raise SimulationError("need high > low")
    return lambda rng: float(rng.uniform(low, high))


def lognormal_values(mean: float = 3.0, sigma: float = 0.6) -> ValueSampler:
    if sigma <= 0:
        raise SimulationError("sigma must be positive")
    return lambda rng: float(rng.lognormal(mean, sigma))


def exponential_values(scale: float = 50.0) -> ValueSampler:
    if scale <= 0:
        raise SimulationError("scale must be positive")
    return lambda rng: float(rng.exponential(scale))


def bimodal_values(
    low_mean: float = 20.0, high_mean: float = 80.0, high_fraction: float = 0.3
) -> ValueSampler:
    """Casual buyers + whales: the distribution reserve prices exploit."""
    if not 0 < high_fraction < 1:
        raise SimulationError("high_fraction must be in (0, 1)")

    def sample(rng: np.random.Generator) -> float:
        if rng.random() < high_fraction:
            return abs(float(rng.normal(high_mean, high_mean / 10)))
        return abs(float(rng.normal(low_mean, low_mean / 10)))

    return sample


DISTRIBUTIONS: dict[str, Callable[..., ValueSampler]] = {
    "uniform": uniform_values,
    "lognormal": lognormal_values,
    "exponential": exponential_values,
    "bimodal": bimodal_values,
}


def poisson_arrivals(
    rate: float, n_rounds: int, rng: np.random.Generator
) -> list[int]:
    """Number of newly arriving buyers per round (streaming markets)."""
    if rate <= 0:
        raise SimulationError("arrival rate must be positive")
    return [int(k) for k in rng.poisson(rate, size=n_rounds)]


def build_population(
    n_buyers: int,
    strategy_mix: Mapping[str, float],
    strategy_kwargs: Mapping[str, dict] | None = None,
) -> list[BuyerAgent]:
    """Create agents with strategies in the given proportions.

    Counts are assigned by largest remainder so the population is exactly
    ``n_buyers`` and deterministic for a given mix.
    """
    if n_buyers < 1:
        raise SimulationError("need at least one buyer")
    if not strategy_mix:
        raise SimulationError("strategy mix is empty")
    total = sum(strategy_mix.values())
    if total <= 0:
        raise SimulationError("strategy mix weights must sum to > 0")
    kwargs = strategy_kwargs or {}
    quotas = {
        label: n_buyers * weight / total
        for label, weight in strategy_mix.items()
    }
    counts = {label: int(q) for label, q in quotas.items()}
    remainder = n_buyers - sum(counts.values())
    by_fraction = sorted(
        quotas, key=lambda label: -(quotas[label] - counts[label])
    )
    for label in by_fraction[:remainder]:
        counts[label] += 1
    agents: list[BuyerAgent] = []
    for label in sorted(counts):
        for i in range(counts[label]):
            agents.append(
                BuyerAgent(
                    name=f"{label}_{i}",
                    strategy=make_strategy(label, **kwargs.get(label, {})),
                )
            )
    return agents
