"""Valuation oracles: the scalar loops behind every batched estimator.

Each evaluates one coalition (or one test point) at a time.  The batched
estimators in :mod:`repro.valuation` draw the same permutations from the
same seed, so allocations agree to floating-point accumulation order
(≪ 1e-6); the KNN recurrence agrees to ~1e-12.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.errors import ValuationError
from repro.valuation import CoalitionGame
from repro.valuation.knn_shapley import _validate


def scalar_exact_shapley(
    game: CoalitionGame, max_players: int = 16
) -> dict[str, float]:
    """Exact Shapley value by per-subset scalar evaluation."""
    n = game.n
    if n > max_players:
        raise ValuationError(
            f"exact Shapley over {n} players needs 2^{n} evaluations; "
            f"use monte_carlo_shapley instead"
        )
    players = game.players
    shapley = {p: 0.0 for p in players}
    others = {p: [q for q in players if q != p] for p in players}
    weights = [
        math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
        for s in range(n)
    ]
    for p in players:
        for size in range(n):
            for subset in itertools.combinations(others[p], size):
                s = frozenset(subset)
                marginal = game.value(s | {p}) - game.value(s)
                shapley[p] += weights[size] * marginal
    return shapley


def scalar_monte_carlo_shapley(
    game: CoalitionGame, n_permutations: int = 200, seed: int = 0,
) -> dict[str, float]:
    """Permutation sampling, one coalition evaluation at a time."""
    if n_permutations < 1:
        raise ValuationError("need at least one permutation")
    rng = np.random.default_rng(seed)
    players = list(game.players)
    totals = {p: 0.0 for p in players}
    for _ in range(n_permutations):
        order = list(rng.permutation(players))
        prefix: set[str] = set()
        prev = game.value(frozenset())
        for p in order:
            prefix.add(p)
            current = game.value(frozenset(prefix))
            totals[p] += current - prev
            prev = current
    return {p: t / n_permutations for p, t in totals.items()}


def scalar_truncated_monte_carlo_shapley(
    game: CoalitionGame,
    n_permutations: int = 200,
    truncation_tolerance: float = 0.01,
    seed: int = 0,
) -> dict[str, float]:
    """TMC-Shapley as a scalar permutation scan with truncation."""
    if n_permutations < 1:
        raise ValuationError("need at least one permutation")
    rng = np.random.default_rng(seed)
    players = list(game.players)
    full_value = game.value(game.grand_coalition)
    threshold = truncation_tolerance * max(abs(full_value), 1e-12)
    totals = {p: 0.0 for p in players}
    for _ in range(n_permutations):
        order = list(rng.permutation(players))
        prefix: set[str] = set()
        prev = game.value(frozenset())
        for p in order:
            if abs(full_value - prev) <= threshold:
                break  # truncate: remaining marginals ≈ 0
            prefix.add(p)
            current = game.value(frozenset(prefix))
            totals[p] += current - prev
            prev = current
    return {p: t / n_permutations for p, t in totals.items()}


def scalar_knn_shapley(
    x_train, y_train, x_test, y_test, k: int = 5,
) -> np.ndarray:
    """Jia et al.'s KNN-Shapley recurrence, one test point at a time."""
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    x_test = np.asarray(x_test, dtype=float)
    y_test = np.asarray(y_test)
    _validate(x_train, y_train, x_test, y_test, k)
    n = x_train.shape[0]
    values = np.zeros(n)
    for x, y in zip(x_test, y_test):
        dist = np.linalg.norm(x_train - x, axis=1)
        order = np.argsort(dist, kind="stable")  # ascending distance
        match = (y_train[order] == y).astype(float)
        s = np.zeros(n)
        s[n - 1] = match[n - 1] / n
        for i in range(n - 2, -1, -1):  # i is 0-based rank
            rank = i + 1  # 1-based
            s[i] = s[i + 1] + (match[i] - match[i + 1]) / k * min(k, rank) / rank
        values[order] += s
    return values / x_test.shape[0]
