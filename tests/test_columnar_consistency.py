"""The columnar consistency filters are bytewise the per-pair filters.

``triangle_filter`` and ``confidence_weighted_edges`` read a set's
``(source, receiver, distance)`` columns: medians off sorted runs,
triangles through a node-by-node edge-id matrix, greedy votes as a
``bincount`` loop.  ``tests/_consistency_oracle.py`` keeps the bodies
they replaced, which walked dictionaries of pairs and called
``np.median`` per pair.  Here both run on the same sets, and the kept
measurements (every field, in order) and the edge lists (pairs,
distances, weights and their dtypes) must be equal bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.measurements import MeasurementSet
from repro.ranging.consistency import triangle_filter
from repro.ranging.filtering import confidence_weighted_edges

import _consistency_oracle
import _edge_oracle

POLICIES = ("greedy", "suspect", "all")

#: A coarse grid makes ties, equal middle values and violated
#: triangles common; the float range covers everything else.  -0.0 is
#: drawn too: a measurement stores it as 0.0, so no sort can pick
#: between two zeros.
_distance = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0]),
    st.floats(0.0, 40.0, allow_nan=False),
)


@st.composite
def measurement_sets(draw):
    """Sets over up to seven nodes: each pair measured in no direction,
    one or both, with 1-4 rounds per direction, inserted in a shuffled
    order, some with ground truth."""
    n_nodes = draw(st.integers(2, 7))
    rows = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            directions = draw(st.sampled_from([(), ((i, j),), ((j, i),), ((i, j), (j, i))]))
            for source, receiver in directions:
                rounds = draw(st.integers(1, 4))
                for round_index in range(rounds):
                    rows.append((source, receiver, draw(_distance), round_index))
    rows = draw(st.permutations(rows))
    ms = MeasurementSet()
    for source, receiver, value, round_index in rows:
        truth = draw(st.sampled_from([None, value, 4.5]))
        ms.add_distance(source, receiver, value, true_distance=truth, round_index=round_index)
    return ms


def _rows(measurements):
    """Every field of every measurement, floats as their exact hex."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(m))
        for m in measurements
    ]


def _edge_bytes(edges):
    return [
        (array.dtype.str, array.shape, array.tobytes())
        for array in (edges.pairs, edges.distances, edges.weights)
    ]


def _from_rows(rows):
    ms = MeasurementSet()
    for source, receiver, value in rows:
        ms.add_distance(source, receiver, value)
    return ms


#: One violated triangle: its three edges tie at one vote each, and the
#: greedy policy drops the largest pair, (1, 2), not the longest edge.
_VOTE_TIE = _from_rows([(0, 1, 9.0), (0, 2, 1.0), (2, 1, 1.0)])

weight_sets = st.sampled_from(
    [
        {},
        {"bidirectional_weight": 1, "repeated_weight": 1, "single_weight": 0},
        {"bidirectional_weight": 2, "repeated_weight": 0.5, "single_weight": 0},
        {"agreement_tolerance_m": 0.0},
        {"agreement_tolerance_m": 3},
    ]
)


class TestColumnarFilters:
    @given(
        ms=measurement_sets(),
        policy=st.sampled_from(POLICIES),
        slack=st.sampled_from([0.0, 1.0, 2.5, 3]),
        weights=weight_sets,
    )
    @example(ms=MeasurementSet(), policy="greedy", slack=1.0, weights={})
    @example(ms=_VOTE_TIE, policy="greedy", slack=0.0, weights={})
    @settings(max_examples=400, deadline=None)
    def test_filters_match_the_per_pair_filters(self, ms, policy, slack, weights):
        fast = triangle_filter(ms, slack_m=slack, drop_policy=policy)
        slow = _consistency_oracle.triangle_filter(ms, slack_m=slack, drop_policy=policy)
        assert _rows(fast) == _rows(slow)
        for kept in (ms, fast):
            assert _edge_bytes(confidence_weighted_edges(kept, **weights)) == _edge_bytes(
                _consistency_oracle.confidence_weighted_edges(kept, **weights)
            )

    @given(ms=measurement_sets())
    @settings(max_examples=200, deadline=None)
    def test_reduce_matches_the_per_pair_reduction(self, ms):
        assert _rows(ms.reduce()) == _rows(_consistency_oracle.reduce_median(ms))

    def test_signed_zeros_collapse_to_the_oracle_zero(self):
        # Sorted equal, the three zeros once left -0.0 in the middle of
        # the columnar median and 0.0 in the per-pair one.
        ms = _from_rows([(0, 1, 0.0), (0, 1, -0.0), (0, 1, 0.0)])
        assert [m.distance.hex() for m in ms] == ["0x0.0p+0"] * 3
        assert _edge_bytes(ms.to_edge_list()) == _edge_bytes(
            _edge_oracle.per_pair_edge_list(ms)
        )
        assert _rows(ms.reduce()) == _rows(_consistency_oracle.reduce_median(ms))
        assert _rows(triangle_filter(ms)) == _rows(_consistency_oracle.triangle_filter(ms))
        assert _edge_bytes(confidence_weighted_edges(ms)) == _edge_bytes(
            _consistency_oracle.confidence_weighted_edges(ms)
        )

    def test_vote_tie_drops_the_largest_pair(self):
        out = triangle_filter(_VOTE_TIE, slack_m=0.0)
        assert [(m.source, m.receiver) for m in out] == [(0, 1), (0, 2)]
        out = triangle_filter(_VOTE_TIE, slack_m=0.0, drop_policy="suspect")
        assert [(m.source, m.receiver) for m in out] == [(0, 2), (2, 1)]

    @pytest.mark.parametrize(
        "weights, dtype",
        [
            ({}, np.float64),
            ({"bidirectional_weight": 1, "repeated_weight": 1, "single_weight": 0}, np.int64),
            ({"bidirectional_weight": 1, "repeated_weight": 1, "single_weight": 0.5}, np.float64),
        ],
    )
    def test_weights_keep_the_dtype_of_the_weights_used(self, weights, dtype):
        # One bidirectional, one repeated and one single pair.
        ms = _from_rows([(0, 1, 5.0), (1, 0, 5.2), (1, 2, 3.0), (1, 2, 3.1), (3, 2, 4.0)])
        edges = confidence_weighted_edges(ms, **weights)
        assert edges.weights.dtype == dtype
        assert _edge_bytes(edges) == _edge_bytes(
            _consistency_oracle.confidence_weighted_edges(ms, **weights)
        )
