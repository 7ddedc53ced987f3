"""Full-stack market simulation: agent populations on the real DMMS.

Section 6.1 asks for "a simulation platform where it is possible to
implement different rules and change the behavior of players".  The
mechanism-level simulator (:mod:`repro.simulator.engine`) isolates the
allocation/payment rules; this module closes the loop by running strategy
populations against a complete :class:`~repro.platform.DataMarket` façade —
mashup building, WTP evaluation, licensing, ledger and all — so a market
design is tested exactly as it would be deployed (Fig. 1: the same design
object flows from simulation into production through the same typed API).

Buyers draw a private per-round value for a data product and submit a
completeness WTP whose price step is their *strategy-distorted* bid; the
arbiter does the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from ..market.design import MarketDesign
from ..platform import DataMarket
from ..relation import Relation
from ..wtp import PriceCurve, QueryCompletenessTask, WTPFunction
from .metrics import StrategyStats, gini
from .workload import ValueSampler, build_population


@dataclass
class FullStackResult:
    rounds: int
    revenue: float
    transactions: int
    rejections: int
    welfare: float  # winners' true values
    by_strategy: dict[str, StrategyStats] = field(default_factory=dict)
    seller_balances: dict[str, float] = field(default_factory=dict)

    @property
    def seller_gini(self) -> float:
        values = [max(v, 0.0) for v in self.seller_balances.values()]
        return gini(values) if values else 0.0


def simulate_market_deployment(
    design: MarketDesign,
    datasets: list[Relation],
    wanted_attributes: list[str],
    value_sampler: ValueSampler,
    strategy_mix: dict[str, float],
    strategy_kwargs: dict[str, dict] | None = None,
    n_buyers: int = 8,
    n_rounds: int = 10,
    satisfaction_threshold: float = 0.5,
    key: str = "entity_id",
    seed: int = 0,
    arrivals: dict[int, list[Relation]] | None = None,
    departures: dict[int, list[str]] | None = None,
) -> FullStackResult:
    """Deploy ``design`` on a real arbiter and run agent populations.

    Each round, every agent draws a true value v, submits a completeness
    WTP bidding ``strategy.bid(v)``, and the arbiter clears the market.
    Utilities use the *true* values, so strategic distortion shows up as
    welfare/utility loss exactly as in the mechanism-level simulator.

    ``arrivals`` (round -> new seller datasets) and ``departures``
    (round -> dataset names to retire) exercise the long-running
    deployment story: the discovery indexes are patched incrementally
    before the round clears, with no full rebuild stalling the market.
    """
    if n_rounds < 1 or n_buyers < 1:
        raise SimulationError("need at least one round and one buyer")
    if not datasets:
        raise SimulationError("need at least one seller dataset")
    arrivals = arrivals or {}
    departures = departures or {}
    # replay the churn timeline upfront: every departure must name a dataset
    # live at that round (departures are processed before arrivals), and no
    # arrival may reuse a still-live name
    active = {ds.name for ds in datasets}
    if len(active) != len(datasets):
        raise SimulationError("initial datasets have duplicate names")
    for r in sorted(set(departures) | set(arrivals)):
        for name in departures.get(r, ()):
            if name not in active:
                raise SimulationError(
                    f"departure of {name!r} at round {r} names a dataset "
                    f"that is not live then"
                )
            active.discard(name)
        for ds in arrivals.get(r, ()):
            if ds.name in active:
                raise SimulationError(
                    f"arrival of {ds.name!r} at round {r} clashes with a "
                    f"still-live dataset of that name"
                )
            active.add(ds.name)
    rng = np.random.default_rng(seed)
    # the deployed platform is the same façade production callers use:
    # every mutation below flows through DataMarket's typed operations
    market = DataMarket(design)
    sellers: list[str] = []

    def _accept(dataset: Relation) -> None:
        seller = f"seller_{len(sellers)}"
        sellers.append(seller)
        market.register_dataset(dataset, seller=seller)

    for dataset in datasets:
        _accept(dataset)

    agents = build_population(n_buyers, strategy_mix, strategy_kwargs)
    funding = 0.0 if design.incentive != "money" else 1e7
    for agent in agents:
        market.register_participant(agent.name, funding=funding)

    all_datasets = list(datasets) + [
        ds for round_datasets in arrivals.values() for ds in round_datasets
    ]
    wanted_keys = sorted(
        {row[0] for ds in all_datasets for row in ds.rows}
    )
    revenue = welfare = 0.0
    transactions = rejections = 0
    for _round in range(n_rounds):
        for name in departures.get(_round, ()):
            market.retire_dataset(name)
        for dataset in arrivals.get(_round, ()):
            _accept(dataset)
        true_values = {a.name: value_sampler(rng) for a in agents}
        for agent in agents:
            bid = agent.submit(true_values[agent.name], rng)
            if bid <= 0:
                continue
            market.submit_wtp(
                WTPFunction(
                    buyer=agent.name,
                    task=QueryCompletenessTask(
                        wanted_keys=wanted_keys,
                        attributes=wanted_attributes,
                        key=key,
                    ),
                    curve=PriceCurve.single(satisfaction_threshold, bid),
                    key=key,
                )
            )
        report = market.run_round()
        revenue += report.revenue
        transactions += report.transactions
        rejections += len(report.rejections)
        winners = {d.buyer: d.price_paid for d in report.deliveries}
        for agent in agents:
            won = agent.name in winners
            payment = winners.get(agent.name, 0.0)
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
    seller_balances = {
        seller: market.ledger.balance(seller) for seller in sellers
    }
    return FullStackResult(
        rounds=n_rounds,
        revenue=revenue,
        transactions=transactions,
        rejections=rejections,
        welfare=welfare,
        by_strategy=by_strategy,
        seller_balances=seller_balances,
    )
