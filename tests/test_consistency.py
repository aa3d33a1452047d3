"""Tests for cross-node consistency checks (repro.ranging.consistency)."""

import numpy as np
import pytest

from repro.core.measurements import MeasurementSet
from repro.errors import ValidationError
from repro.ranging.consistency import bidirectional_filter, triangle_filter


def triangle_set(d01=10.0, d02=10.0, d12=10.0):
    ms = MeasurementSet()
    ms.add_distance(0, 1, d01)
    ms.add_distance(0, 2, d02)
    ms.add_distance(1, 2, d12)
    return ms


class TestBidirectionalFilter:
    def test_consistent_pair_kept(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        ms.add_distance(1, 0, 10.4)
        out = bidirectional_filter(ms, tolerance_m=1.0)
        assert (0, 1) in out and (1, 0) in out

    def test_inconsistent_pair_dropped(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        ms.add_distance(1, 0, 13.0)
        out = bidirectional_filter(ms, tolerance_m=1.0)
        assert len(out) == 0

    def test_unpaired_kept_by_default(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        out = bidirectional_filter(ms)
        assert len(out) == 1

    def test_unpaired_dropped_when_requested(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 10.0)
        out = bidirectional_filter(ms, keep_unpaired=False)
        assert len(out) == 0

    def test_multiround_uses_median(self):
        ms = MeasurementSet()
        for d in (10.0, 10.1, 30.0):  # median 10.1
            ms.add_distance(0, 1, d)
        ms.add_distance(1, 0, 10.3)
        out = bidirectional_filter(ms, tolerance_m=1.0)
        assert len(out) == 2  # both direction medians kept

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            bidirectional_filter(MeasurementSet(), tolerance_m=-1.0)


class TestTriangleFilter:
    def test_valid_triangle_untouched(self):
        ms = triangle_set()
        out = triangle_filter(ms)
        assert len(out) == 3

    def test_underestimated_edge_dropped_greedy(self):
        # d12 underestimated: 10 + 2 < ... no wait, make 0-1 the culprit:
        # true triangle 10/10/10, but d01 reported as 0.5.
        # Violation: 0.5 + 10 >= 10 holds... need the SHORT edge to break
        # a triangle: a+b < c means shortest two sum below longest.
        # 0.5 (bad) + 10 = 10.5 >= 10 -> no violation in a single
        # triangle; underestimates are caught via larger structures.
        # Use an overestimated edge instead: d12 = 25.
        ms = triangle_set(d12=25.0)
        out = triangle_filter(ms, slack_m=1.0)
        assert (1, 2) not in out and (2, 1) not in out
        assert (0, 1) in out and (0, 2) in out

    def test_underestimate_caught_with_two_triangles(self):
        # Nodes 0-3; edge (0,1) underestimated badly.  It participates
        # in two violating triangles, while each innocent edge is in
        # only one -> greedy removes (0,1).
        ms = MeasurementSet()
        ms.add_distance(0, 1, 1.0)  # true ~10, garbage underestimate
        ms.add_distance(0, 2, 10.0)
        ms.add_distance(1, 2, 13.0)
        ms.add_distance(0, 3, 10.0)
        ms.add_distance(1, 3, 13.0)
        ms.add_distance(2, 3, 9.0)
        out = triangle_filter(ms, slack_m=1.0, drop_policy="greedy")
        assert (0, 1) not in out
        assert (0, 2) in out and (2, 3) in out

    def test_suspect_policy_drops_longest(self):
        ms = triangle_set(d12=25.0)
        out = triangle_filter(ms, drop_policy="suspect")
        assert (1, 2) not in out

    def test_all_policy_drops_everything(self):
        ms = triangle_set(d12=25.0)
        out = triangle_filter(ms, drop_policy="all")
        assert len(out) == 0

    def test_slack_tolerates_noise(self):
        ms = triangle_set(d12=20.5)  # 10 + 10 + 1.0 >= 20.5
        out = triangle_filter(ms, slack_m=1.0)
        assert len(out) == 3

    def test_edges_without_triangles_untouched(self):
        ms = MeasurementSet()
        ms.add_distance(0, 1, 5.0)
        ms.add_distance(2, 3, 500.0)
        out = triangle_filter(ms)
        assert len(out) == 2

    def test_degenerate_triangle_kept_at_zero_slack(self):
        # Collinear nodes: 10 + 10 == 20 satisfies the inequality.
        out = triangle_filter(triangle_set(d12=20.0), slack_m=0.0)
        assert len(out) == 3

    def test_violation_beyond_slack_dropped(self):
        out = triangle_filter(triangle_set(d12=21.5), slack_m=1.0)
        assert (1, 2) not in out and len(out) == 2

    @pytest.mark.parametrize("policy", ["greedy", "suspect", "all"])
    def test_empty_set(self, policy):
        assert len(triangle_filter(MeasurementSet(), drop_policy=policy)) == 0

    def test_invalid_policy(self):
        with pytest.raises(ValidationError):
            triangle_filter(MeasurementSet(), drop_policy="random")

    def test_invalid_slack(self):
        with pytest.raises(ValidationError):
            triangle_filter(MeasurementSet(), slack_m=-1.0)


class TestBidirectionalThenTriangle:
    """The ranging service's consistency stage: the bidirectional check
    first, then the triangle check on what it kept."""

    def test_dropped_pair_no_longer_closes_a_triangle(self):
        ms = MeasurementSet()
        for i, j, d in [(0, 1, 10.0), (0, 2, 10.0)]:
            ms.add_distance(i, j, d)
            ms.add_distance(j, i, d)
        # 1 -> 2 overestimated: it would break the triangle, but the
        # two directions disagree, so the bidirectional check takes it.
        ms.add_distance(1, 2, 25.0)
        ms.add_distance(2, 1, 10.0)
        kept = bidirectional_filter(ms, tolerance_m=1.0)
        assert (1, 2) not in kept and (2, 1) not in kept
        out = triangle_filter(kept, slack_m=1.0)
        assert len(out) == len(kept) == 4

    def test_empty_set(self):
        assert len(triangle_filter(bidirectional_filter(MeasurementSet()))) == 0
