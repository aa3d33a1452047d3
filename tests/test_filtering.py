"""Tests for statistical filtering (repro.ranging.filtering)."""

import numpy as np
import pytest

from repro.core.measurements import MeasurementSet
from repro.errors import ValidationError
from repro.ranging.filtering import confidence_weighted_edges, limit_rounds, median_filter


def multi_round_set():
    ms = MeasurementSet()
    # Pair (0,1): 5 rounds, one garbage.
    for r, d in enumerate((10.0, 10.1, 25.0, 9.9, 10.05)):
        ms.add_distance(0, 1, d, true_distance=10.0, round_index=r)
    # Pair (2,3): 2 rounds.
    for r, d in enumerate((5.0, 5.2)):
        ms.add_distance(2, 3, d, true_distance=5.0, round_index=r)
    return ms


class TestLimitRounds:
    def test_caps_rounds(self):
        ms = multi_round_set()
        limited = limit_rounds(ms, 2)
        assert len(limited.get(0, 1)) == 2

    def test_invalid(self):
        with pytest.raises(ValidationError):
            limit_rounds(multi_round_set(), 0)


class TestMedianFilter:
    def test_removes_outlier(self):
        filtered = median_filter(multi_round_set())
        assert filtered.distances(0, 1)[0] == pytest.approx(10.05)

    def test_max_rounds(self):
        filtered = median_filter(multi_round_set(), max_rounds=2)
        assert filtered.distances(0, 1)[0] == pytest.approx(10.05, abs=0.1)

    def test_one_measurement_per_pair_after(self):
        filtered = median_filter(multi_round_set())
        assert len(filtered) == 2


class TestConfidenceWeightedEdges:
    def test_bidirectional_full_weight(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        ms.add_distance(1, 0, 10.2)
        edges = confidence_weighted_edges(ms)
        assert len(edges) == 1
        assert edges.weights[0] == 1.0
        assert edges.distances[0] == pytest.approx(10.1)

    def test_disagreeing_pair_dropped(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        ms.add_distance(1, 0, 14.0)
        edges = confidence_weighted_edges(ms)
        assert len(edges) == 0

    def test_repeated_oneway_medium_weight(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0, round_index=0)
        ms.add_distance(0, 1, 10.3, round_index=1)
        edges = confidence_weighted_edges(ms)
        assert edges.weights[0] == 0.5

    def test_single_observation_low_weight(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        edges = confidence_weighted_edges(ms)
        assert edges.weights[0] == 0.15

    def test_inconsistent_repeats_low_weight(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0, round_index=0)
        ms.add_distance(0, 1, 14.0, round_index=1)
        edges = confidence_weighted_edges(ms)
        assert edges.weights[0] == 0.15

    def test_empty_input(self):
        edges = confidence_weighted_edges(MeasurementSet())
        assert len(edges) == 0

    def test_invalid_weight_ordering(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        with pytest.raises(ValidationError):
            confidence_weighted_edges(ms, single_weight=0.9, repeated_weight=0.5)

    def test_invalid_tolerance(self):
        with pytest.raises(ValidationError):
            confidence_weighted_edges(MeasurementSet(), agreement_tolerance_m=-1.0)

    def test_mixed_population(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        ms.add_distance(1, 0, 10.1)  # bidirectional
        ms.add_distance(2, 3, 5.0)
        ms.add_distance(2, 3, 5.1)  # repeated one-way
        ms.add_distance(4, 5, 7.0)  # single
        edges = confidence_weighted_edges(ms)
        weights = {tuple(p): w for p, w in zip(edges.pairs, edges.weights)}
        assert weights[(0, 1)] == 1.0
        assert weights[(2, 3)] == 0.5
        assert weights[(4, 5)] == 0.15
