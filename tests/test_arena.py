"""Tests for the evaluation kernel (:class:`repro.core.arena.ShardArena`).

The arena answers every summary query — one shard for an
:class:`EntropySummary`, many for a :class:`ShardedSummary` — so its
answers are pinned against oracles that share none of its code:

* COUNT against each shard's :meth:`CompressedPolynomial.evaluate`
  (``Σ_s n_s · P_s[masked ∩ owned_s] / P_s``, Binomial variances
  added) at 1e-9, and against :class:`NaivePolynomial`'s definitional
  expectation on the same small schema;
* GROUP BY against per-label point COUNTs ``E[A=v ∧ ρ]``;
* SUM against ``Σ_v w_v · E[A=v ∧ ρ]``.

The lifecycle pieces (lazy build, ``warm``, hot-swap rebuild, pickling)
are covered here too.
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np
import pytest

from repro.core.arena import ShardArena
from repro.core.naive import NaivePolynomial
from repro.core.sharding import ShardedSummary
from repro.core.summary import EntropySummary
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import QueryError
from repro.stats.predicates import Conjunction, RangePredicate, SetPredicate
from tests.test_sharding import _fit

PAIRS = dict(pairs=[("A", "B"), ("B", "C")], budget=6)


@pytest.fixture(scope="module")
def relation():
    """``D`` joins no statistic, so it stays a free attribute."""
    rng = np.random.default_rng(41)
    schema = Schema(
        [
            integer_domain("A", 4),
            integer_domain("B", 6),
            integer_domain("C", 3),
            integer_domain("D", 2),
        ]
    )
    columns = []
    for size in schema.sizes():
        weights = 1.0 / (np.arange(size) + 1.0)
        weights /= weights.sum()
        columns.append(rng.choice(size, size=500, p=weights))
    return Relation(schema, columns)


@pytest.fixture(scope="module")
def one_shard(relation):
    return _fit(relation, **PAIRS)


@pytest.fixture(scope="module")
def round_robin(relation):
    return _fit(relation, num_shards=3, **PAIRS)


@pytest.fixture(scope="module")
def by_attribute(relation):
    return _fit(relation, num_shards=3, by="B", **PAIRS)


@pytest.fixture(scope="module")
def overlapping(round_robin):
    """Owned ranges over shards that hold rows of every ``B`` value, so
    a shard's parameters carry mass outside its range and only the
    owned-range narrowing keeps it out of the answer."""
    return ShardedSummary(
        round_robin.shards, shard_by="B", ranges=[(0, 1), (2, 3), (4, 5)]
    )


@pytest.fixture(
    scope="module",
    params=["one_shard", "round_robin", "by_attribute", "overlapping"],
)
def summary(request):
    return request.getfixturevalue(request.param)


def _kernel(summary) -> ShardArena:
    return getattr(summary, "arena", None) or summary.engine


def _predicates(schema):
    """A mix of shapes: trivial, point, range, set, multi-attribute."""
    def conj(**preds):
        return Conjunction(schema, preds)

    return [
        None,
        conj(A=RangePredicate(1, 2)),
        conj(B=RangePredicate(0, 2)),
        conj(B=RangePredicate(3, 5)),
        conj(B=RangePredicate.point(2), A=RangePredicate(0, 3)),
        conj(A=RangePredicate(0, 1), B=RangePredicate(1, 4), C=RangePredicate(0, 1)),
        conj(C=RangePredicate.point(2), D=RangePredicate.point(1)),
        conj(B=SetPredicate([0, 4]), D=RangePredicate.point(0)),
    ]


def _masks(predicate) -> dict:
    return {} if predicate is None else predicate.attribute_masks()


def _shard_masks(summary, masks):
    """``(shard, masks)`` per shard whose owned range meets the masks,
    the shard attribute narrowed to the owned range."""
    shards = getattr(summary, "shards", [summary])
    ranges = getattr(summary, "owned_ranges", None)
    for index, shard in enumerate(shards):
        if ranges is None:
            yield shard, masks
            continue
        by = summary.by_position
        low, high = ranges[index]
        owned = np.zeros(summary.schema.domain(by).size, dtype=bool)
        owned[low : high + 1] = True
        narrowed = owned & masks[by] if by in masks else owned
        if narrowed.any():
            yield shard, {**masks, by: narrowed}


def oracle(summary, masks) -> tuple[float, float]:
    """``(expectation, variance)`` straight from each shard's polynomial."""
    expectation = variance = 0.0
    for shard, shard_masks in _shard_masks(summary, masks):
        full = shard.polynomial.evaluate(shard.params)
        p = shard.polynomial.evaluate(shard.params, shard_masks) / full
        expectation += shard.total * p
        variance += shard.total * p * (1.0 - p)
    return expectation, variance


def naive_oracle(summary, masks) -> float:
    """Expected count from the uncompressed polynomial (Eq. 5)."""
    return sum(
        NaivePolynomial(shard.statistic_set).expected_count(
            shard.params, shard.total, shard_masks
        )
        for shard, shard_masks in _shard_masks(summary, masks)
    )


def _point(schema, attr, value) -> np.ndarray:
    mask = np.zeros(schema.domain(attr).size, dtype=bool)
    mask[value] = True
    return mask


# ----------------------------------------------------------------------
# COUNT
# ----------------------------------------------------------------------

class TestCount:
    def test_matches_polynomial(self, summary):
        for predicate in _predicates(summary.schema):
            expected, variance = oracle(summary, _masks(predicate))
            estimate = summary.count(predicate)
            assert estimate.expectation == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )
            assert estimate.variance == pytest.approx(
                variance, rel=1e-9, abs=1e-9
            )

    def test_matches_naive_polynomial(self, summary):
        for predicate in _predicates(summary.schema):
            expected = naive_oracle(summary, _masks(predicate))
            assert summary.count(predicate).expectation == pytest.approx(
                expected, rel=1e-9, abs=1e-9
            )

    def test_batch_matches_single_queries(self, summary):
        predicates = _predicates(summary.schema)
        summary.clear_cache()
        batch = summary.estimate_batch(predicates)
        summary.clear_cache()
        for predicate, batched in zip(predicates, batch):
            single = summary.count(predicate)
            assert batched.expectation == pytest.approx(
                single.expectation, rel=1e-12, abs=1e-12
            )
            assert batched.variance == pytest.approx(
                single.variance, rel=1e-12, abs=1e-12
            )

    def test_pruned_shards_contribute_exact_zero(self, by_attribute):
        """A predicate confined to one owned range zeroes the other
        shards' polynomials: the answer is that shard's alone."""
        schema = by_attribute.schema
        for index, (low, high) in enumerate(by_attribute.owned_ranges):
            predicate = Conjunction(schema, {"B": RangePredicate(low, high)})
            owner = by_attribute.shards[index].count(predicate)
            merged = by_attribute.count(predicate)
            assert merged.expectation == pytest.approx(
                owner.expectation, rel=1e-12, abs=1e-12
            )
            assert merged.variance == pytest.approx(
                owner.variance, rel=1e-12, abs=1e-12
            )

    def test_schema_mismatch_raises(self, summary):
        other = Schema([integer_domain("Z", 3)])
        bad = Conjunction(other, {"Z": RangePredicate(0, 1)})
        with pytest.raises(QueryError, match="different schema"):
            summary.count(bad)


# ----------------------------------------------------------------------
# GROUP BY and SUM against per-label point COUNTs
# ----------------------------------------------------------------------

class TestGradientQueries:
    @pytest.mark.parametrize(
        "attrs", [("A",), ("B",), ("C",), ("D",), ("A", "C"), ("B", "D")]
    )
    def test_group_by_matches_point_counts(self, summary, attrs):
        schema = summary.schema
        for predicate in (None, *_predicates(schema)[1:]):
            masks = _masks(predicate)
            grouped = _kernel(summary).group_by(
                [schema.position(attr) for attr in attrs], masks
            )
            # Filter-then-group: a predicate on a group attribute
            # restricts which of its values appear.
            values = [
                np.flatnonzero(
                    masks.get(schema.position(attr), np.ones(schema.domain(attr).size, bool))
                ).tolist()
                for attr in attrs
            ]
            assert set(grouped) == set(itertools.product(*values))
            for labels, (expectation, variance) in grouped.items():
                point = dict(masks)
                for attr, value in zip(attrs, labels):
                    point[schema.position(attr)] = _point(schema, attr, value)
                expected, expected_variance = oracle(summary, point)
                assert expectation == pytest.approx(
                    expected, rel=1e-9, abs=1e-9
                )
                assert variance == pytest.approx(
                    expected_variance, rel=1e-9, abs=1e-9
                )

    def test_summary_group_by_keys_labels(self, one_shard):
        grouped = one_shard.group_by(["B"])
        labels = one_shard.schema.domain("B").labels
        assert list(grouped) == [(label,) for label in labels]
        assert sum(e.expectation for e in grouped.values()) == pytest.approx(
            one_shard.total, rel=1e-9
        )

    @pytest.mark.parametrize("attr", ["A", "B", "D"])
    def test_sum_matches_weighted_point_counts(self, summary, attr):
        schema = summary.schema
        pos = schema.position(attr)
        weights = np.linspace(1.0, 3.0, schema.domain(attr).size)
        for predicate in _predicates(schema):
            masks = _masks(predicate)
            expected = 0.0
            for value, weight in enumerate(weights):
                if pos in masks and not masks[pos][value]:
                    continue
                point = {**masks, pos: _point(schema, attr, value)}
                expected += weight * oracle(summary, point)[0]
            assert summary.sum_estimate(attr, weights, predicate) == (
                pytest.approx(expected, rel=1e-9, abs=1e-9)
            )

    def test_avg_is_sum_over_count(self, round_robin):
        weights = np.arange(round_robin.schema.domain("A").size, dtype=float)
        assert round_robin.avg_estimate("A", weights) == pytest.approx(
            round_robin.sum_estimate("A", weights) / round_robin.total,
            rel=1e-9,
        )

    def test_weights_must_cover_the_domain(self, summary):
        with pytest.raises(QueryError, match="one weight per domain value"):
            summary.sum_estimate("A", np.ones(2))


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------

class TestLayout:
    def test_one_shard_arena_references_term_bounds(self, one_shard):
        """The term table holds the polynomial's bound arrays, not
        copies of them."""
        arena = one_shard.engine
        components = one_shard.polynomial.components
        assert len(arena.comp_table) == len(components)
        for (_, _, _, bounds), component in zip(arena.comp_table, components):
            for pos, (lo, hi) in bounds.items():
                assert lo is component.lo[pos]
                assert hi is component.hi[pos]

    def test_accepts_either_summary_kind(self, summary):
        arena = ShardArena(summary)
        shards = getattr(summary, "shards", [summary])
        assert arena.num_shards == len(shards)
        assert arena.num_terms == sum(
            sum(c.num_terms for c in shard.polynomial.components)
            for shard in shards
        )
        assert arena.stats()["shards"] == len(shards)


# ----------------------------------------------------------------------
# Lifecycle: build, cache, hot swap, pickling
# ----------------------------------------------------------------------

class TestArenaLifecycle:
    def test_summary_engine_is_lazy(self, relation):
        summary = _fit(relation, iterations=10)
        assert summary._engine is None  # fitting builds no arena
        summary.clear_cache()  # clearing does not build one either
        assert summary._engine is None
        summary.count(None)
        assert isinstance(summary._engine, ShardArena)
        assert summary.engine is summary._engine

    def test_summary_pickle_drops_the_engine(self, one_shard):
        one_shard.count(None)
        clone = pickle.loads(pickle.dumps(one_shard))
        assert clone._engine is None
        predicate = _predicates(one_shard.schema)[4]
        assert clone.count(predicate).expectation == pytest.approx(
            one_shard.count(predicate).expectation, rel=1e-12
        )

    def test_warm_builds_once_and_stats_describe_it(self, relation):
        sharded = _fit(relation, num_shards=3)
        assert sharded._arena is None  # lazy until warmed or queried
        assert sharded.warm() is sharded
        arena = sharded._arena
        assert isinstance(arena, ShardArena)
        assert sharded.arena is arena  # stable across calls
        stats = arena.stats()
        assert stats["shards"] == 3
        assert stats["terms"] >= 0

    def test_result_cache_hits_on_repeat(self, relation):
        sharded = _fit(relation, num_shards=3).warm()
        predicate = _predicates(sharded.schema)[1]
        arena = sharded.arena
        arena.clear_cache()
        first = sharded.estimate(predicate)
        assert arena.cache_misses == 1
        second = sharded.estimate(predicate)
        assert arena.cache_hits == 1
        assert second.expectation == first.expectation

    def test_clear_cache_keeps_arena_but_drops_results(self, relation):
        sharded = _fit(relation, num_shards=3).warm()
        arena = sharded.arena
        sharded.estimate(_predicates(sharded.schema)[1])
        assert arena.stats()["cache_entries"] >= 1
        sharded.clear_cache()
        # The arena layout derives from immutable shard parameters, so
        # it survives; only the memoized results go.
        assert sharded.arena is arena
        assert arena.stats()["cache_entries"] == 0

    def test_with_shards_rebuilds_the_arena(self, relation):
        sharded = _fit(relation, num_shards=3).warm()
        swapped = sharded.with_shards({0: sharded.shards[0]})
        assert swapped._arena is not None  # publish path warms eagerly
        assert swapped._arena is not sharded._arena
        baseline = sharded.estimate(None).expectation
        assert swapped.estimate(None).expectation == pytest.approx(baseline)

    def test_pickle_round_trip_drops_derived_state(self, relation):
        sharded = _fit(relation, num_shards=3).warm()
        clone = pickle.loads(pickle.dumps(sharded))
        assert clone._arena is None
        original = sharded.estimate(_predicates(sharded.schema)[4])
        revived = clone.estimate(_predicates(clone.schema)[4])
        assert revived.expectation == pytest.approx(
            original.expectation, rel=1e-12
        )

    def test_save_load_round_trip_warms(self, relation, tmp_path):
        sharded = _fit(relation, num_shards=3).warm()
        prefix = tmp_path / "model"
        sharded.save(prefix)
        loaded = ShardedSummary.load(prefix)
        assert loaded._arena is not None  # load() warms eagerly
        predicate = _predicates(loaded.schema)[2]
        assert loaded.estimate(predicate).expectation == pytest.approx(
            sharded.estimate(predicate).expectation, rel=1e-9
        )

    def test_unsharded_save_load_round_trip(self, one_shard, tmp_path):
        one_shard.save(tmp_path / "model")
        loaded = EntropySummary.load(tmp_path / "model")
        assert loaded.partition_value == pytest.approx(
            one_shard.partition_value, rel=1e-12
        )
        for predicate in _predicates(loaded.schema):
            assert loaded.count(predicate).expectation == pytest.approx(
                one_shard.count(predicate).expectation, rel=1e-12, abs=1e-12
            )
