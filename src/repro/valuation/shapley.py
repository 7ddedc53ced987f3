"""Shapley-value estimators for revenue allocation.

"Within this framework, the Shapley value has been used to allocate revenue
to each row individually...  We are investigating alternative approaches
that are more computationally efficient and maintain the good properties
conferred by the Shapley value" (Section 3.2.3).  This module provides the
exact value and the standard efficient approximations the paper's citations
use (permutation Monte Carlo, and Ghorbani & Zou's truncated Monte Carlo);
benchmark E3 compares their cost/error trade-offs.

Every estimator generates its sampled permutations as NumPy index
matrices and evaluates prefix coalitions through
:meth:`~repro.valuation.game.CoalitionGame.value_batch` — for games with a
vectorized ``batch_fn`` the whole estimator collapses into a handful of
array operations (benchmark E19 measures the speedup over the scalar
permutation loops the test suite keeps as the reference).  Both draw the
same permutations from the same seed, so allocations agree to
floating-point accumulation order (≪ 1e-6).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValuationError
from .game import CoalitionGame, mask_membership


# ---------------------------------------------------------------------------
# exact Shapley
# ---------------------------------------------------------------------------
def exact_shapley(
    game: CoalitionGame, max_players: int = 16
) -> dict[str, float]:
    """Exact Shapley value by subset enumeration — O(2^n · n).

    Refuses games beyond ``max_players`` (the "practical" requirement of
    Section 3.1: market designs must be computationally efficient).  All
    2^n coalitions are enumerated as one membership matrix, evaluated in a
    single :meth:`CoalitionGame.value_batch` call, and marginals combined
    by vectorized bitmask arithmetic.
    """
    n = game.n
    if n > max_players:
        raise ValuationError(
            f"exact Shapley over {n} players needs 2^{n} evaluations; "
            f"use monte_carlo_shapley instead"
        )
    masks = np.arange(1 << n, dtype=np.uint64)
    membership = mask_membership(masks, n)
    values = game.value_batch(membership)
    sizes = membership.sum(axis=1)
    # w[s] = s! (n-s-1)! / n! for coalitions S (excluding the new player)
    weights = np.array(
        [
            math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
            for s in range(n)
        ]
    )
    shapley = np.zeros(n)
    for i in range(n):
        without = ~membership[:, i]
        base = masks[without]
        with_i = base | np.uint64(1 << i)
        marginals = values[with_i] - values[base]
        shapley[i] = float(np.sum(weights[sizes[base]] * marginals))
    return {p: float(shapley[i]) for i, p in enumerate(game.players)}


# ---------------------------------------------------------------------------
# permutation sampling
# ---------------------------------------------------------------------------
def _sample_permutations(
    n: int, n_permutations: int, seed: int
) -> np.ndarray:
    """(m, n) index matrix drawn exactly as a scalar loop draws orders.

    One :meth:`numpy.random.Generator.permutation` call per row keeps the
    random stream identical to the scalar reference loop, so both visit
    the same prefix coalitions for the same seed.
    """
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.permutation(n) for _ in range(n_permutations)]
    ).astype(np.intp)


def _prefix_membership(perms: np.ndarray, n: int) -> np.ndarray:
    """(m, n, n) bool: entry [j, i, p] — is player p in perm j's prefix i?"""
    m = perms.shape[0]
    ranks = np.empty((m, n), dtype=np.intp)
    ranks[np.arange(m)[:, None], perms] = np.arange(n)[None, :]
    return ranks[:, None, :] <= np.arange(n)[None, :, None]


#: cap on the boolean prefix tensor one Monte Carlo chunk materializes
#: (chunk · n · n entries); 2^24 bools ≈ 16 MB keeps memory flat even for
#: thousand-player games while still batching hundreds of coalitions per
#: ``value_batch`` call
_MC_CHUNK_CELLS = 1 << 24


def monte_carlo_shapley(
    game: CoalitionGame,
    n_permutations: int = 200,
    seed: int = 0,
) -> dict[str, float]:
    """Permutation-sampling estimator: unbiased, O(n) evals per permutation.

    The prefix coalitions of the sampled
    permutations as ``(chunk·n, n)`` membership matrices — chunked so
    memory stays ~constant at large player counts (exactly the regime
    ``exact_shapley`` hands off to this estimator) — evaluates each chunk
    in one ``value_batch`` call, and telescopes marginals with a weighted
    bincount.
    """
    if n_permutations < 1:
        raise ValuationError("need at least one permutation")
    n = game.n
    perms = _sample_permutations(n, n_permutations, seed)
    empty = game.value_batch(np.zeros((1, n), dtype=bool))[0]
    chunk = max(1, _MC_CHUNK_CELLS // (n * n))
    totals = np.zeros(n)
    for start in range(0, n_permutations, chunk):
        block = perms[start:start + chunk]
        m = block.shape[0]
        prefixes = _prefix_membership(block, n)
        values = game.value_batch(
            prefixes.reshape(m * n, n)
        ).reshape(m, n)
        previous = np.concatenate(
            [np.full((m, 1), empty), values[:, :-1]], axis=1
        )
        marginals = values - previous
        totals += np.bincount(
            block.ravel(), weights=marginals.ravel(), minlength=n
        )
    return {
        p: float(totals[i]) / n_permutations
        for i, p in enumerate(game.players)
    }


def truncated_monte_carlo_shapley(
    game: CoalitionGame,
    n_permutations: int = 200,
    truncation_tolerance: float = 0.01,
    seed: int = 0,
) -> dict[str, float]:
    """Ghorbani & Zou's TMC-Shapley: stop scanning a permutation once the
    running coalition's value is within ``truncation_tolerance`` of v(N) —
    the remaining players' marginals are set to zero for that permutation.

    All permutations advance one prefix *position* at a time: position
    ``i`` is evaluated in one ``value_batch`` call covering only the
    permutations still active (not yet truncated), preserving the scalar
    scan's evaluation-saving semantics while vectorizing each step.
    """
    if n_permutations < 1:
        raise ValuationError("need at least one permutation")
    n = game.n
    full_value = game.value(game.grand_coalition)
    threshold = truncation_tolerance * max(abs(full_value), 1e-12)
    perms = _sample_permutations(n, n_permutations, seed)
    empty = game.value_batch(np.zeros((1, n), dtype=bool))[0]

    totals = np.zeros(n)
    previous = np.full(n_permutations, empty)
    members = np.zeros((n_permutations, n), dtype=bool)
    active = np.ones(n_permutations, dtype=bool)
    for i in range(n):
        active &= np.abs(full_value - previous) > threshold
        if not active.any():
            break
        rows = np.flatnonzero(active)
        members[rows, perms[rows, i]] = True
        current = game.value_batch(members[rows])
        marginals = current - previous[rows]
        np.add.at(totals, perms[rows, i], marginals)
        previous[rows] = current
    return {
        p: float(totals[i]) / n_permutations
        for i, p in enumerate(game.players)
    }


def shapley_error(
    estimate: dict[str, float], exact: dict[str, float]
) -> float:
    """Mean absolute error between two allocations over shared players."""
    keys = set(estimate) & set(exact)
    if not keys:
        raise ValuationError("allocations share no players")
    return sum(abs(estimate[k] - exact[k]) for k in keys) / len(keys)


def leave_one_out(game: CoalitionGame) -> dict[str, float]:
    """LOO values: v(N) - v(N \\ {i}).  Cheap (n+1 evals) but ignores
    synergies — the classic baseline the Shapley literature improves on.
    All n+1 coalitions go through one ``value_batch`` call."""
    n = game.n
    membership = np.ones((n + 1, n), dtype=bool)
    np.fill_diagonal(membership[1:], False)
    values = game.value_batch(membership)
    full = values[0]
    return {
        p: float(full - values[i + 1]) for i, p in enumerate(game.players)
    }
