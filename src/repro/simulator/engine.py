"""The market simulator (Fig. 1, box 3).

"A market design that is sound on paper may suffer unexpected setbacks in
practice...  We plan to design a simulation platform where it is possible
to implement different rules and change the behavior of players, and where
it is possible to model adversarial, coalition-building, as well as risky
and ignorant players.  The simulation platform will test a market design's
robustness before deployment" (Section 6.1).

:func:`simulate_mechanism` stresses one mechanism (one good per round,
repeated) against a strategy population; :func:`empirical_ic_regret`
measures how much a single deviating buyer can gain over truthful play —
zero (up to noise) for incentive-compatible designs, positive otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..errors import SimulationError
from ..mechanisms import Bid, Mechanism
from .agents import BuyerStrategy, Truthful
from .metrics import SimulationMetrics, StrategyStats
from .workload import ValueSampler, build_population


@dataclass
class SimulationConfig:
    mechanism: Mechanism
    n_rounds: int = 50
    n_buyers: int = 20
    strategy_mix: Mapping[str, float] = field(
        default_factory=lambda: {"truthful": 1.0}
    )
    strategy_kwargs: Mapping[str, dict] | None = None
    value_sampler: ValueSampler | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.n_rounds < 1:
            raise SimulationError("need at least one round")
        if self.n_buyers < 1:
            raise SimulationError("need at least one buyer")


def simulate_mechanism(config: SimulationConfig) -> SimulationMetrics:
    """Repeatedly clear one good with the configured population."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    sampler = config.value_sampler or (lambda r: float(r.uniform(0, 100)))
    agents = build_population(
        config.n_buyers, config.strategy_mix, config.strategy_kwargs
    )
    revenue = 0.0
    welfare = 0.0
    transactions = 0
    for _round in range(config.n_rounds):
        true_values = {a.name: sampler(rng) for a in agents}
        bids = [
            Bid(a.name, a.submit(true_values[a.name], rng)) for a in agents
        ]
        outcome = config.mechanism.run(bids)
        revenue += outcome.revenue
        transactions += len(outcome.winners)
        for agent in agents:
            won = outcome.won(agent.name)
            payment = outcome.payment_of(agent.name)
            if won:
                welfare += true_values[agent.name]
            agent.settle(won, true_values[agent.name], payment)
    by_strategy: dict[str, StrategyStats] = {}
    for agent in agents:
        stats = by_strategy.setdefault(agent.strategy.label, StrategyStats())
        stats.agents += 1
        stats.utility += agent.utility
        stats.wins += agent.wins
        stats.spent += agent.spent
    return SimulationMetrics(
        rounds=config.n_rounds,
        revenue=revenue,
        welfare=welfare,
        transactions=transactions,
        by_strategy=by_strategy,
    )


def empirical_ic_regret(
    mechanism: Mechanism,
    deviation: BuyerStrategy,
    value_sampler: ValueSampler,
    n_rivals: int = 9,
    n_trials: int = 300,
    seed: int = 0,
) -> float:
    """Mean utility gain of ``deviation`` over truthful play, against
    truthful rivals drawn from the same value distribution.

    Positive regret means the design rewards manipulation (IC violated);
    <= 0 (within noise) is the signature of incentive compatibility.
    """
    if n_trials < 1 or n_rivals < 1:
        raise SimulationError("need at least one trial and one rival")
    rng = np.random.default_rng(seed)
    truthful = Truthful()
    gain = 0.0
    for _ in range(n_trials):
        my_value = value_sampler(rng)
        rival_values = [value_sampler(rng) for _ in range(n_rivals)]
        rival_bids = [
            Bid(f"r{i}", v) for i, v in enumerate(rival_values)
        ]
        state = rng.bit_generator.state
        for strategy, bucket in ((truthful, 0), (deviation, 1)):
            rng.bit_generator.state = state  # same randomness for both arms
            my_bid = max(0.0, strategy.bid(my_value, rng))
            outcome = mechanism.run(rival_bids + [Bid("me", my_bid)])
            utility = (
                my_value - outcome.payment_of("me")
                if outcome.won("me")
                else 0.0
            )
            if bucket == 0:
                truthful_utility = utility
            else:
                gain += utility - truthful_utility
    return gain / n_trials


def compare_designs(
    mechanisms: Sequence[Mechanism],
    strategy_mixes: Mapping[str, Mapping[str, float]],
    value_sampler: ValueSampler,
    n_rounds: int = 50,
    n_buyers: int = 20,
    seed: int = 0,
) -> dict[tuple[str, str], SimulationMetrics]:
    """(mechanism, population) grid of simulations — benchmark E1's core."""
    out: dict[tuple[str, str], SimulationMetrics] = {}
    for mechanism in mechanisms:
        for mix_name, mix in strategy_mixes.items():
            config = SimulationConfig(
                mechanism=mechanism,
                n_rounds=n_rounds,
                n_buyers=n_buyers,
                strategy_mix=mix,
                seed=seed,
            )
            out[(mechanism.name, mix_name)] = simulate_mechanism(config)
    return out
