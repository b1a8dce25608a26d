"""Tests for query answering over fitted models (Sec 3.2 / 4.2).

Every answer comes from the summary's one-shard evaluation kernel
(:class:`~repro.core.arena.ShardArena`); the oracles here are the
naive polynomial and the fitted statistics themselves.
"""

import numpy as np
import pytest

from repro.core.inference import QueryEstimate, round_half_up
from repro.core.naive import NaivePolynomial
from repro.core.polynomial import CompressedPolynomial
from repro.core.solver import solve_statistics
from repro.core.summary import EntropySummary
from repro.errors import DomainError, QueryError
from repro.stats.predicates import Conjunction, RangePredicate

from tests.conftest import masked_estimate


@pytest.fixture
def fitted(small_statistics):
    poly = CompressedPolynomial(small_statistics)
    params, _ = solve_statistics(poly, max_iterations=200)
    summary = EntropySummary(small_statistics, poly, params)
    return poly, params, summary, small_statistics


def masked_count(summary, masks) -> float:
    return masked_estimate(summary, masks)[0]


class TestRounding:
    def test_round_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(0.49) == 0
        assert round_half_up(1.5) == 2
        assert round_half_up(2.4) == 2


class TestQueryEstimate:
    def test_variance_is_binomial(self):
        estimate = QueryEstimate(50.0, 0.5, 100)
        assert estimate.variance == pytest.approx(25.0)
        assert estimate.std == pytest.approx(5.0)

    def test_ci_clipped(self):
        estimate = QueryEstimate(1.0, 0.01, 100)
        low, high = estimate.ci95
        assert low >= 0.0
        assert high <= 100.0

    def test_rounded(self):
        assert QueryEstimate(0.51, 0.001, 100).rounded == 1
        assert QueryEstimate(0.49, 0.001, 100).rounded == 0


class TestOptimizedQueryAnswering:
    """Sec 4.2: masking equals the extended-polynomial route, here
    checked against the naive polynomial's direct expectation."""

    def test_matches_naive_expectation(self, fitted, rng):
        poly, params, summary, statistic_set = fitted
        naive = NaivePolynomial(statistic_set)
        for _ in range(20):
            masks = {
                pos: rng.random(size) > 0.4
                for pos, size in enumerate(poly.sizes)
                if rng.random() > 0.3
            }
            masks = {
                pos: mask if mask.any() else np.ones_like(mask)
                for pos, mask in masks.items()
            }
            expected = naive.expected_count(params, statistic_set.total, masks)
            actual = masked_count(summary, masks)
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_trivial_query_returns_n(self, fitted):
        poly, params, summary, statistic_set = fitted
        predicate = Conjunction(poly.schema, {})
        assert summary.count(predicate).expectation == pytest.approx(
            statistic_set.total
        )

    def test_one_dim_statistics_reproduced(self, fitted):
        poly, params, summary, statistic_set = fitted
        for pos in range(poly.schema.num_attributes):
            for index, target in enumerate(statistic_set.one_dim[pos]):
                predicate = Conjunction(
                    poly.schema, {pos: RangePredicate.point(index)}
                )
                estimate = summary.count(predicate).expectation
                assert estimate == pytest.approx(target, abs=0.01)

    def test_two_dim_statistics_reproduced(self, fitted):
        poly, params, summary, statistic_set = fitted
        for statistic in statistic_set.multi_dim:
            masks = statistic.predicate.attribute_masks()
            estimate = masked_count(summary, masks)
            assert estimate == pytest.approx(statistic.value, abs=0.05)

    def test_estimates_additive_over_partitions(self, fitted):
        poly, params, summary, _ = fitted
        size = poly.sizes[0]
        total = 0.0
        for index in range(size):
            predicate = Conjunction(poly.schema, {0: RangePredicate.point(index)})
            total += summary.count(predicate).expectation
        trivial = summary.count(Conjunction(poly.schema, {})).expectation
        assert total == pytest.approx(trivial, rel=1e-9)

    def test_probability_bounds(self, fitted, rng):
        poly, params, summary, _ = fitted
        predicate = Conjunction(poly.schema, {0: RangePredicate.point(0)})
        estimate = summary.count(predicate)
        assert 0.0 <= estimate.probability <= 1.0
        assert estimate.probability == pytest.approx(
            estimate.expectation / summary.total
        )


class TestGroupBy:
    def test_group_by_matches_point_queries(self, fitted):
        poly, params, summary, _ = fitted
        grouped = summary.group_by([1])
        for value, estimate in grouped.items():
            predicate = Conjunction(
                poly.schema, {1: RangePredicate.point(value[0])}
            )
            assert estimate.expectation == pytest.approx(
                summary.count(predicate).expectation, rel=1e-9
            )

    def test_group_by_two_attributes(self, fitted):
        poly, params, summary, statistic_set = fitted
        grouped = summary.group_by([0, 2])
        assert len(grouped) == poly.sizes[0] * poly.sizes[2]
        total = sum(e.expectation for e in grouped.values())
        assert total == pytest.approx(statistic_set.total, rel=1e-9)

    def test_group_by_with_predicate(self, fitted):
        poly, params, summary, _ = fitted
        predicate = Conjunction(poly.schema, {0: RangePredicate(0, 1)})
        grouped = summary.group_by([1], predicate)
        direct = {}
        for value in range(poly.sizes[1]):
            conj = Conjunction(
                poly.schema,
                {0: RangePredicate(0, 1), 1: RangePredicate.point(value)},
            )
            direct[(value,)] = summary.count(conj).expectation
        for key, estimate in grouped.items():
            assert estimate.expectation == pytest.approx(direct[key], rel=1e-9)

    def test_group_by_constrained_attr_filters_groups(self, fitted):
        # Filter-then-group: a predicate on the group attribute restricts
        # which values appear, and each group matches the point estimate.
        poly, params, summary, _ = fitted
        predicate = Conjunction(poly.schema, {0: RangePredicate(0, 1)})
        grouped = summary.group_by([0], predicate)
        assert set(grouped) == {(0,), (1,)}
        for (value,), estimate in grouped.items():
            point = summary.count(
                Conjunction(poly.schema, {0: RangePredicate.point(value)})
            )
            assert estimate.expectation == pytest.approx(point.expectation)

    def test_group_by_rejects_duplicates(self, fitted):
        _, _, summary, _ = fitted
        with pytest.raises(QueryError):
            summary.group_by([1, 1])

    def test_group_by_needs_attribute(self, fitted):
        _, _, summary, _ = fitted
        with pytest.raises(QueryError):
            summary.group_by([])


class TestQueryCache:
    def test_repeat_query_hits_cache(self, fitted):
        _, _, summary, _ = fitted
        engine = summary.engine
        masks = {0: np.array([True, False, True, False])}
        first = masked_count(summary, masks)
        misses = engine.cache_misses
        second = masked_count(summary, masks)
        assert second == first
        assert engine.cache_misses == misses
        assert engine.cache_hits >= 1

    def test_different_masks_are_distinct_entries(self, fitted):
        _, _, summary, _ = fitted
        a = masked_count(summary, {0: np.array([True, False, False, False])})
        b = masked_count(summary, {0: np.array([False, True, False, False])})
        assert a != b

    def test_clear_cache_resets_counters(self, fitted):
        _, _, summary, _ = fitted
        masked_count(summary, {0: np.array([True, False, True, False])})
        summary.clear_cache()
        assert summary.engine.cache_hits == summary.engine.cache_misses == 0
        assert summary.engine.stats()["cache_entries"] == 0


class TestPointEstimate:
    def test_by_labels(self, fitted):
        poly, params, summary, _ = fitted
        estimate = summary.count_labels({"A": 0, "C": 1})
        predicate = Conjunction(
            poly.schema, {0: RangePredicate.point(0), 2: RangePredicate.point(1)}
        )
        assert estimate.expectation == pytest.approx(
            summary.count(predicate).expectation
        )

    def test_unknown_label(self, fitted):
        _, _, summary, _ = fitted
        with pytest.raises(DomainError):
            summary.count_labels({"A": 99})
