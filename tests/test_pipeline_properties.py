"""Pipeline-level property tests (hypothesis).

These tie the whole stack together on randomly generated inputs: data →
measured statistics → compressed polynomial → Mirror Descent → query
answering, asserting the invariants the paper's math guarantees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.naive import NaivePolynomial
from repro.core.polynomial import CompressedPolynomial
from repro.core.solver import MirrorDescentSolver
from repro.core.summary import EntropySummary

from tests.conftest import masked_estimate, relations_with_stats


def _fit(statistic_set, max_iterations=250):
    poly = CompressedPolynomial(statistic_set)
    solver = MirrorDescentSolver(poly, max_iterations=max_iterations)
    params, _ = solver.solve()
    return poly, params


def _count(summary, masks) -> float:
    return masked_estimate(summary, masks)[0]


class TestFittedModelProperties:
    @given(relations_with_stats(max_stats=3))
    @settings(max_examples=12)
    def test_optimized_path_equals_naive_expectation(self, data):
        """Sec 4.2's variable-zeroing formula must agree with the
        definitional expectation on the uncompressed polynomial for
        arbitrary conjunctive masks."""
        relation, statistic_set = data
        poly, params = _fit(statistic_set, max_iterations=60)
        naive = NaivePolynomial(statistic_set)
        summary = EntropySummary(statistic_set, poly, params)
        generator = np.random.default_rng(relation.num_rows + 17)
        for _ in range(5):
            masks = {}
            for pos, size in enumerate(poly.sizes):
                if generator.random() < 0.6:
                    mask = generator.random(size) > 0.5
                    if not mask.any():
                        mask[int(generator.integers(size))] = True
                    masks[pos] = mask
            expected = naive.expected_count(params, statistic_set.total, masks)
            actual = _count(summary, masks)
            assert actual == pytest.approx(expected, rel=1e-8, abs=1e-6)

    @given(relations_with_stats(max_stats=2))
    @settings(max_examples=10)
    def test_group_by_partitions_cardinality(self, data):
        relation, statistic_set = data
        poly, params = _fit(statistic_set, max_iterations=40)
        summary = EntropySummary(statistic_set, poly, params)
        for pos in range(poly.schema.num_attributes):
            grouped = summary.group_by([pos])
            total = sum(e.expectation for e in grouped.values())
            assert total == pytest.approx(statistic_set.total, rel=1e-9)

    @given(relations_with_stats(max_stats=2), st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_monotonicity_under_mask_inclusion(self, data, seed):
        """Widening a predicate can only increase the estimate
        (monomials are non-negative)."""
        relation, statistic_set = data
        poly, params = _fit(statistic_set, max_iterations=40)
        summary = EntropySummary(statistic_set, poly, params)
        generator = np.random.default_rng(seed)
        pos = int(generator.integers(poly.schema.num_attributes))
        size = poly.sizes[pos]
        narrow = generator.random(size) > 0.6
        if not narrow.any():
            narrow[0] = True
        wide = narrow | (generator.random(size) > 0.5)
        narrow_est = _count(summary, {pos: narrow})
        wide_est = _count(summary, {pos: wide})
        assert wide_est >= narrow_est - 1e-9

    @given(relations_with_stats(max_stats=3))
    @settings(max_examples=10)
    def test_solved_model_reproduces_measured_statistics(self, data):
        """Every statistic measured from the data must be reproduced by
        the fitted model when queried through the public path."""
        relation, statistic_set = data
        poly, params = _fit(statistic_set)
        summary = EntropySummary(statistic_set, poly, params)
        tolerance = max(2e-3 * statistic_set.total, 0.5)
        for statistic in statistic_set.multi_dim:
            masks = statistic.predicate.attribute_masks()
            estimate = _count(summary, masks)
            assert abs(estimate - statistic.value) < tolerance

    @given(relations_with_stats(max_stats=2))
    @settings(max_examples=8)
    def test_save_load_identical_estimates(self, tmp_path_factory, data):
        relation, statistic_set = data
        poly, params = _fit(statistic_set, max_iterations=30)
        summary = EntropySummary(statistic_set, poly, params)
        prefix = tmp_path_factory.mktemp("models") / "model"
        summary.save(prefix)
        loaded = EntropySummary.load(prefix)
        generator = np.random.default_rng(relation.num_rows)
        pos = int(generator.integers(poly.schema.num_attributes))
        mask = generator.random(poly.sizes[pos]) > 0.5
        if not mask.any():
            mask[0] = True
        original = _count(summary, {pos: mask})
        restored = _count(loaded, {pos: mask})
        assert restored == pytest.approx(original, rel=1e-12, abs=1e-12)
