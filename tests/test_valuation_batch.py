"""Tests for the vectorized valuation engine.

Covers the ``CoalitionGame.value_batch`` memoization contract (each
distinct coalition evaluated once, no double-counting when the scalar and
batched paths interleave, unknown players rejected), equivalence of the
vectorized estimators with the scalar reference implementations on seeded
games, and the batched WTP evaluation surface the arbiter round uses.
"""

import numpy as np
import pytest

from oracles.valuation import (
    scalar_exact_shapley,
    scalar_knn_shapley,
    scalar_monte_carlo_shapley,
    scalar_truncated_monte_carlo_shapley,
)
from repro.errors import ValuationError
from repro.relation import Column, Relation
from repro.valuation import (
    CoalitionGame,
    exact_shapley,
    knn_shapley,
    leave_one_out,
    monte_carlo_shapley,
    truncated_monte_carlo_shapley,
)
from repro.valuation.workloads import capped_additive_game
from repro.wtp import PriceCurve, QueryCompletenessTask, WTPFunction


def counting_game(n=4, batch_fn=True):
    """Additive game that counts characteristic-function invocations."""
    players = [f"p{i}" for i in range(n)]
    weights = np.arange(1.0, n + 1.0)
    index = {p: i for i, p in enumerate(players)}
    calls = {"scalar": 0, "batch_rows": 0}

    def value(s):
        calls["scalar"] += 1
        return float(sum(weights[index[p]] for p in s))

    def value_batch(members):
        calls["batch_rows"] += members.shape[0]
        return members.astype(float) @ weights

    game = CoalitionGame.of(
        players, value, value_batch if batch_fn else None
    )
    return game, calls


def capped_game(n, seed=0, vectorized=True):
    return capped_additive_game(n, seed=seed, vectorized=vectorized)


# -- value_batch memoization semantics ---------------------------------------


def test_value_batch_counts_each_distinct_coalition_once():
    game, calls = counting_game()
    values = game.value_batch([{"p0"}, {"p0", "p1"}, {"p0"}, {"p0", "p1"}])
    assert values.tolist() == [1.0, 3.0, 1.0, 3.0]
    # four requests, two distinct coalitions -> two evaluations
    assert game.evaluations == 2
    assert calls["batch_rows"] == 2


def test_value_then_batch_does_not_double_count():
    game, calls = counting_game()
    game.value({"p0"})
    assert game.evaluations == 1
    values = game.value_batch([{"p0"}, {"p1"}])
    assert values.tolist() == [1.0, 2.0]
    # {"p0"} was a cache hit inside the batch: only {"p1"} is new
    assert game.evaluations == 2
    assert calls["scalar"] + calls["batch_rows"] == 2


def test_batch_then_value_does_not_double_count():
    game, calls = counting_game()
    game.value_batch([{"p0", "p2"}])
    assert game.evaluations == 1
    assert game.value({"p0", "p2"}) == 4.0
    assert game.evaluations == 1  # cache hit on the scalar path
    assert calls["scalar"] == 0  # the scalar fn never ran


def test_value_batch_without_batch_fn_falls_back_to_scalar_fn():
    game, calls = counting_game(batch_fn=False)
    values = game.value_batch([{"p0"}, {"p0", "p3"}, {"p0"}])
    assert values.tolist() == [1.0, 5.0, 1.0]
    assert calls["scalar"] == 2  # deduplicated before the fallback loop


def test_batch_fn_only_game_serves_scalar_value():
    weights = np.array([2.0, 3.0])
    game = CoalitionGame.of(
        ["a", "b"],
        batch_fn=lambda members: members.astype(float) @ weights,
    )
    assert game.value({"a"}) == 2.0
    assert game.value({"a", "b"}) == 5.0
    assert game.evaluations == 2


def test_value_batch_rejects_unknown_players():
    game, _calls = counting_game()
    with pytest.raises(ValuationError, match="unknown players"):
        game.value_batch([{"p0"}, {"nope"}])


def test_value_batch_rejects_misshapen_membership():
    game, _calls = counting_game(n=4)
    with pytest.raises(ValuationError, match="membership matrix"):
        game.value_batch(np.ones((2, 5), dtype=bool))


def test_value_batch_rejects_wrong_length_batch_fn():
    game = CoalitionGame.of(
        ["a", "b"], batch_fn=lambda members: np.zeros(99)
    )
    with pytest.raises(ValuationError, match="batch_fn returned"):
        game.value_batch([{"a"}])


def test_value_batch_empty_input():
    game, _calls = counting_game()
    assert game.value_batch([]).shape == (0,)
    assert game.evaluations == 0


def test_game_requires_a_characteristic_function():
    with pytest.raises(ValuationError):
        CoalitionGame.of(["a"])


# -- vectorized estimators match the scalar reference ------------------------


@pytest.mark.parametrize("vectorized", [True, False])
def test_monte_carlo_batched_matches_scalar(vectorized):
    batched = monte_carlo_shapley(
        capped_game(12, vectorized=vectorized), 80, seed=3
    )
    scalar = scalar_monte_carlo_shapley(
        capped_game(12, vectorized=False), 80, seed=3
    )
    for p in scalar:
        assert batched[p] == pytest.approx(scalar[p], abs=1e-6)


def test_monte_carlo_batched_matches_scalar_evaluation_count():
    g1 = capped_game(10)
    g2 = capped_game(10, vectorized=False)
    monte_carlo_shapley(g1, 40, seed=5)
    scalar_monte_carlo_shapley(g2, 40, seed=5)
    # same permutations from the same seed -> same distinct coalitions
    assert g1.evaluations == g2.evaluations


@pytest.mark.parametrize("tolerance", [0.02, 0.2])
def test_truncated_mc_batched_matches_scalar(tolerance):
    batched = truncated_monte_carlo_shapley(
        capped_game(12), 80, truncation_tolerance=tolerance, seed=3
    )
    scalar = scalar_truncated_monte_carlo_shapley(
        capped_game(12, vectorized=False), 80,
        truncation_tolerance=tolerance, seed=3,
    )
    for p in scalar:
        assert batched[p] == pytest.approx(scalar[p], abs=1e-6)


def test_truncated_mc_batched_preserves_truncation_savings():
    g_trunc = capped_game(12)
    g_full = capped_game(12)
    truncated_monte_carlo_shapley(
        g_trunc, 60, truncation_tolerance=0.05, seed=3
    )
    monte_carlo_shapley(g_full, 60, seed=3)
    assert g_trunc.evaluations < g_full.evaluations


def test_exact_shapley_batched_matches_scalar():
    batched = exact_shapley(capped_game(8))
    scalar = scalar_exact_shapley(capped_game(8, vectorized=False))
    for p in scalar:
        assert batched[p] == pytest.approx(scalar[p], abs=1e-9)


def test_exact_shapley_batched_efficiency_glove():
    def glove_batch(members):
        lefts = members[:, 0].astype(float)
        rights = members[:, 1:].sum(axis=1).astype(float)
        return np.minimum(lefts, rights)

    game = CoalitionGame.of(["a", "b", "c"], batch_fn=glove_batch)
    shapley = exact_shapley(game)
    assert shapley["a"] == pytest.approx(2 / 3)
    assert shapley["b"] == pytest.approx(1 / 6)
    assert shapley["c"] == pytest.approx(1 / 6)


def test_leave_one_out_uses_one_batched_call():
    game, calls = counting_game(n=5)
    loo = leave_one_out(game)
    assert game.evaluations == 6  # grand coalition + 5 drop-one coalitions
    assert loo == {f"p{i}": float(i + 1) for i in range(5)}


def test_knn_shapley_batched_matches_scalar():
    rng = np.random.default_rng(11)
    x = rng.normal(0, 1, size=(120, 3))
    y = (x[:, 0] - x[:, 2] > 0).astype(int)
    x_test, y_test = x[:15], y[:15]
    batched = knn_shapley(x, y, x_test, y_test, k=3)
    scalar = scalar_knn_shapley(x, y, x_test, y_test, k=3)
    np.testing.assert_allclose(batched, scalar, atol=1e-9)


def test_knn_shapley_batched_single_training_point():
    x = np.array([[0.0, 0.0]])
    y = np.array([1])
    x_test = np.array([[1.0, 1.0], [2.0, 2.0]])
    y_test = np.array([1, 0])
    batched = knn_shapley(x, y, x_test, y_test, k=1)
    scalar = scalar_knn_shapley(x, y, x_test, y_test, k=1)
    np.testing.assert_allclose(batched, scalar, atol=1e-12)


def test_in_core_early_exits_on_scalar_games():
    from repro.valuation import in_core

    game, calls = counting_game(n=6, batch_fn=False)
    # grossly inefficient allocation: violated by the very first singleton
    allocation = {p: 0.0 for p in game.players}
    allocation["p5"] = game.value(game.grand_coalition)
    assert not in_core(game, allocation)
    # grand coalition + p0's singleton — not all 2^6 - 2 coalitions
    assert calls["scalar"] <= 3


# -- batched WTP evaluation (the arbiter's step-2 surface) -------------------


def completeness_world():
    relation = Relation(
        "r",
        [Column("entity_id", "int"), Column("f0", "any")],
        [(1, 1.0), (2, None), (3, 3.0)],
    )
    task = QueryCompletenessTask(wanted_keys=[1, 2, 3], attributes=["f0"])
    wtp = WTPFunction(
        buyer="b", task=task, curve=PriceCurve.of((0.3, 10.0), (0.8, 50.0))
    )
    return relation, wtp


def test_evaluate_batch_matches_scalar_evaluate():
    relation, wtp = completeness_world()
    outcomes = wtp.evaluate_batch([relation, relation])
    satisfaction, price = wtp.evaluate(relation)
    assert len(outcomes) == 2
    for outcome in outcomes:
        assert outcome.evaluated
        assert outcome.satisfaction == pytest.approx(satisfaction)
        assert outcome.price == pytest.approx(price)


def test_evaluate_batch_contains_per_candidate_failures():
    relation, wtp = completeness_world()
    bad = Relation("bad", [Column("x", "int")], [(1,)])  # lacks key column
    outcomes = wtp.evaluate_batch([bad, relation])
    assert not outcomes[0].evaluated and outcomes[0].error is None
    assert outcomes[1].evaluated


def test_evaluate_batch_captures_crashes_without_sinking_batch():
    class SometimesCrashes:
        required_attributes = ["f0"]

        def evaluate(self, relation):
            if len(relation) < 2:
                raise ZeroDivisionError("buyer bug")
            return 0.9

    relation, _ = completeness_world()
    tiny = Relation(
        "tiny", [Column("entity_id", "int"), Column("f0", "any")], [(1, 1.0)]
    )
    wtp = WTPFunction(
        buyer="b", task=SometimesCrashes(), curve=PriceCurve.single(0.5, 7.0)
    )
    outcomes = wtp.evaluate_batch([tiny, relation])
    assert isinstance(outcomes[0].error, ZeroDivisionError)
    assert outcomes[1].evaluated
    assert outcomes[1].price == 7.0


def test_evaluate_batch_one_unconvertible_result_does_not_sink_batch():
    class WeirdBatchTask:
        required_attributes = ["f0"]

        def evaluate(self, relation):
            return 0.9

        def evaluate_batch(self, relations):
            return [0.9, {"oops": 1}]

    relation, _ = completeness_world()
    wtp = WTPFunction(
        buyer="b", task=WeirdBatchTask(), curve=PriceCurve.single(0.5, 7.0)
    )
    outcomes = wtp.evaluate_batch([relation, relation])
    assert outcomes[0].evaluated and outcomes[0].price == 7.0
    # the dict result crashes pricing for its own slot only
    assert isinstance(outcomes[1].error, TypeError)


def test_evaluate_batch_keeps_non_float_satisfaction_raw():
    """A bool satisfaction must survive unlaundered so the arbiter's
    sanity check can reject it, exactly as the scalar path would."""

    class BoolTask:
        required_attributes = ["f0"]

        def evaluate(self, relation):
            return True

        def evaluate_batch(self, relations):
            return [True for _ in relations]

    relation, _ = completeness_world()
    wtp = WTPFunction(
        buyer="b", task=BoolTask(), curve=PriceCurve.single(0.5, 7.0)
    )
    (outcome,) = wtp.evaluate_batch([relation])
    assert outcome.satisfaction is True  # not coerced to 1.0
    assert outcome.price == wtp.evaluate(relation)[1]


def test_evaluate_batch_none_return_is_a_crash_not_cannot_run():
    """A buggy task returning None from evaluate() must stay audit-visible
    as a crash (the scalar path raised in price_for), not be silently
    mapped to 'task cannot run'."""

    class BuggyNoneTask(QueryCompletenessTask):
        def evaluate(self, relation):
            return None

    relation, _ = completeness_world()
    task = BuggyNoneTask(wanted_keys=[1], attributes=["f0"])
    wtp = WTPFunction(
        buyer="b", task=task, curve=PriceCurve.single(0.5, 7.0)
    )
    (outcome,) = wtp.evaluate_batch([relation])
    assert isinstance(outcome.error, TypeError)


def test_price_for_batch_matches_scalar_price_for():
    curve = PriceCurve.of((0.2, 5.0), (0.5, 20.0), (0.9, 100.0))
    points = [0.0, 0.1999, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0, float("nan")]
    batch = curve.price_for_batch(points)
    for s, p in zip(points, batch):
        assert p == curve.price_for(s)
    # NaN satisfaction never commands a price on either path
    assert curve.price_for(float("nan")) == 0.0
