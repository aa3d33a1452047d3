"""The baselines' one shortest-path helper is bytewise the inline search.

``repro.core.measurements._shortest_paths`` builds the symmetric CSR
matrix and runs scipy's Dijkstra for MDS-MAP completion, DV-hop and
DV-distance.  ``tests/_shortest_path_oracle.py`` keeps the bodies each
module ran inline before.  On random graphs (connected or not, unit or
measured lengths, zero-length edges, all sources or a subset) the
helper, ``complete_distances`` and both APS localizers must give the
same bytes as those bodies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aps, mds
from repro.core.aps import dv_distance_localize, dv_hop_localize
from repro.core.measurements import EdgeList, _shortest_paths
from repro.core.mds import complete_distances
from repro.errors import ValidationError

import _shortest_path_oracle

#: Lengths with ties and zero-length edges common.
_length = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 10.0]),
    st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def graphs(draw, min_nodes=2):
    """An edge list over ``n_nodes`` nodes, connected or split in two.

    A connected graph contains a random spanning tree; a disconnected
    one draws its edges within two node groups only.  Edges come in a
    shuffled order, some written ``(j, i)``.
    """
    n_nodes = draw(st.integers(min_nodes, 12))
    order = draw(st.permutations(range(n_nodes)))
    connected = draw(st.booleans())
    if connected:
        tree = {
            tuple(sorted((order[k], order[draw(st.integers(0, k - 1))])))
            for k in range(1, n_nodes)
        }
        candidates = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    else:
        tree = set()
        cut = draw(st.integers(1, n_nodes - 1))
        group = {node: k < cut for k, node in enumerate(order)}
        candidates = [
            (i, j)
            for i in range(n_nodes)
            for j in range(i + 1, n_nodes)
            if group[i] == group[j]
        ]
    extra = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    pairs = draw(st.permutations(sorted(tree | extra)))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [(j, i) if flip else (i, j) for (i, j), flip in zip(pairs, flips)]
    distances = draw(st.lists(_length, min_size=len(pairs), max_size=len(pairs)))
    edges = EdgeList(
        pairs=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        distances=np.asarray(distances, dtype=float),
        weights=np.ones(len(pairs)),
    )
    return edges, n_nodes


def _bytes(array):
    return array.dtype.str, array.shape, array.tobytes()


def _outcome(call):
    """A call's result as comparable bytes, or its error."""
    try:
        result = call()
    except Exception as error:  # both sides must fail alike
        return type(error), str(error)
    if isinstance(result, np.ndarray):
        return _bytes(result)
    return tuple(
        _bytes(array)
        for array in (result.positions, result.localized, result.is_anchor, result.anchors_per_node)
    )


class TestHelperMatchesInlineSearch:
    @given(graph=graphs(), unit=st.booleans(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_search(self, graph, unit, data):
        edges, n_nodes = graph
        sources = data.draw(
            st.one_of(
                st.none(),
                st.lists(st.integers(0, n_nodes - 1), min_size=1, max_size=n_nodes, unique=True),
            )
        )
        fast = _shortest_paths(edges, n_nodes, unit_lengths=unit, sources=sources)
        slow = _shortest_path_oracle.search(edges, n_nodes, unit_lengths=unit, sources=sources)
        assert _bytes(fast) == _bytes(slow)

    @given(graph=graphs())
    @settings(max_examples=200, deadline=None)
    def test_complete_distances(self, graph):
        edges, n_nodes = graph
        assert _outcome(lambda: complete_distances(edges, n_nodes)) == _outcome(
            lambda: _shortest_path_oracle.complete_distances(edges, n_nodes)
        )

    @pytest.mark.parametrize("localizer", [dv_hop_localize, dv_distance_localize])
    @given(graph=graphs(min_nodes=4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_aps_localizers(self, localizer, graph, data):
        edges, n_nodes = graph
        anchor_ids = data.draw(
            st.lists(st.integers(0, n_nodes - 1), min_size=3, max_size=5, unique=True)
        )
        anchors = {
            a: np.asarray(data.draw(st.tuples(st.integers(0, 40), st.integers(0, 40))), float)
            for a in anchor_ids
        }
        fast = _outcome(lambda: localizer(edges, anchors, n_nodes))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aps, "_shortest_paths", _shortest_path_oracle.search)
            slow = _outcome(lambda: localizer(edges, anchors, n_nodes))
        assert fast == slow

    def test_zero_length_edge(self):
        # A 0 m edge (0, 1), a 3 m edge (1, 2), and node 3 alone.
        edges = EdgeList(
            pairs=np.array([[0, 1], [1, 2]]),
            distances=np.array([0.0, 3.0]),
            weights=np.ones(2),
        )
        for unit in (False, True):
            for sources in (None, [2, 0]):
                fast = _shortest_paths(edges, 4, unit_lengths=unit, sources=sources)
                slow = _shortest_path_oracle.search(edges, 4, unit_lengths=unit, sources=sources)
                assert _bytes(fast) == _bytes(slow)
        full = _shortest_paths(edges, 4)
        assert full[0, 2] == 3.0 and np.isinf(full[3, :3]).all()


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_complete_distances_rejects_before_the_search(bad, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("shortest-path search reached with an unusable length")

    monkeypatch.setattr(mds, "_shortest_paths", no_search)
    edges = EdgeList(
        pairs=np.array([[0, 1], [1, 2]]), distances=np.array([1.0, bad]), weights=np.ones(2)
    )
    with pytest.raises(ValidationError, match="finite and >= 0"):
        complete_distances(edges, 3)
