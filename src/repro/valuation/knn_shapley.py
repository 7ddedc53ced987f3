"""Exact, efficient Shapley values for KNN utility (Jia et al., VLDB 2019).

Section 8.2 cites "efficient task-specific data valuation for nearest
neighbor algorithms": when the buyer's task is a K-NN classifier and players
are individual training points, the Shapley value of every point can be
computed *exactly* in O(n log n) per test point via a backward recurrence —
no 2^n enumeration.  This is the paper's flagship example of a
"computationally efficient alternative that maintains the good properties
of the Shapley value", and benchmark E3 compares it against the generic
estimators.

For a single test point (x, y), sort training points by distance; with
1-based rank i over n points:

    s_(n) = 1[y_(n) = y] / n
    s_(i) = s_(i+1) + (1[y_(i) = y] - 1[y_(i+1) = y]) / K * min(K, i) / i

:func:`knn_shapley` computes the full (test × train) distance matrix,
sorts all rows at once, and unrolls the recurrence into a reversed
cumulative sum — no per-test-point Python loop at all (E19 measures the
gap to the per-point loop the test suite keeps as the reference).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValuationError


def _validate(x_train, y_train, x_test, y_test, k):
    n = x_train.shape[0]
    if n == 0 or x_test.shape[0] == 0:
        raise ValuationError("need non-empty train and test sets")
    if k < 1:
        raise ValuationError("k must be >= 1")
    if y_train.shape[0] != n or y_test.shape[0] != x_test.shape[0]:
        raise ValuationError("label vectors misaligned with features")


def _distance_matrix(x_train: np.ndarray, x_test: np.ndarray) -> np.ndarray:
    """(T, n) Euclidean distances, elementwise-identical to a per-row
    ``np.linalg.norm(x_train - x, axis=1)`` (so stable argsort tie-breaks
    agree with the per-point reference loop)."""
    return np.linalg.norm(
        x_train[None, :, :] - x_test[:, None, :], axis=2
    )


def knn_shapley(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    k: int = 5,
) -> np.ndarray:
    """Per-training-point Shapley values of mean KNN test accuracy."""
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    x_test = np.asarray(x_test, dtype=float)
    y_test = np.asarray(y_test)
    _validate(x_train, y_train, x_test, y_test, k)
    n = x_train.shape[0]
    dist = _distance_matrix(x_train, x_test)  # (T, n)
    order = np.argsort(dist, axis=1, kind="stable")
    match = (y_train[order] == y_test[:, None]).astype(float)  # (T, n)

    # recurrence: s_i = s_{i+1} + (match_i - match_{i+1})/k * min(k, i+1)/(i+1)
    # (0-based rank i); closed form = tail + reversed cumsum of the deltas
    tail = match[:, -1:] / n  # s_{n-1} for every test point
    s = np.repeat(tail, n, axis=1)
    if n > 1:
        ranks = np.arange(1, n, dtype=float)  # 1-based ranks 1..n-1
        coef = np.minimum(k, ranks) / ranks
        deltas = (match[:, :-1] - match[:, 1:]) / k * coef[None, :]
        s[:, :-1] += np.cumsum(deltas[:, ::-1], axis=1)[:, ::-1]

    values = np.zeros(n)
    np.add.at(values, order.ravel(), s.ravel())
    return values / x_test.shape[0]


def knn_utility(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    k: int = 5,
) -> float:
    """Mean probability-of-correct of the soft K-NN the recurrence values:
    utility = mean over test points of (#matching labels in K nearest)/K.
    The Shapley values above sum to exactly this (efficiency axiom)."""
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    x_test = np.asarray(x_test, dtype=float)
    y_test = np.asarray(y_test)
    if x_train.shape[0] == 0 or x_test.shape[0] == 0:
        raise ValuationError("need non-empty train and test sets")
    kk = min(k, x_train.shape[0])
    dist = _distance_matrix(x_train, x_test)
    # kind="stable" keeps tie-breaking identical to the per-point argsort
    order = np.argsort(dist, axis=1, kind="stable")[:, :kk]
    hits = y_train[order] == y_test[:, None]
    return float(hits.mean(axis=1).mean())
