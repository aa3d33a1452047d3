"""Cross-module integration tests: full pipelines through the public API."""

import numpy as np
import pytest

from repro import (
    LssConfig,
    RangingService,
    distributed_localize,
    evaluate_localization,
    gaussian_ranges,
    localize_network,
    lss_localize,
    run_campaign,
)
from repro.acoustics import get_environment
from repro.core import DistributedConfig, align_to_reference, mds_map
from repro.deploy import paper_grid, random_anchors, square_grid
from repro.ranging import bidirectional_filter, triangle_filter
from repro.ranging.filtering import confidence_weighted_edges


@pytest.fixture(scope="module")
def field_data():
    """A small but complete field campaign: grid + calibrated service."""
    from repro.deploy import offset_grid

    positions = offset_grid(columns=5, rows=5)  # compact 45x40 m patch
    service = RangingService(environment=get_environment("grass")).calibrate(rng=0)
    raw = run_campaign(positions, service, rounds=3, rng=2)
    return positions, raw


class TestRangingToLocalizationPipeline:
    def test_campaign_to_lss(self, field_data):
        positions, raw = field_data
        from repro.core import lss_localize_robust

        edges = confidence_weighted_edges(raw)
        result = lss_localize_robust(
            edges, len(positions), config=LssConfig(min_spacing_m=9.0), rng=4
        )
        report = evaluate_localization(result.positions, positions, align=True)
        assert report.n_localized == len(positions)
        assert report.average_error < 5.0

    def test_campaign_to_multilateration(self, field_data):
        positions, raw = field_data
        filtered = triangle_filter(bidirectional_filter(raw))
        anchors_idx = random_anchors(len(positions), 8, rng=5)
        anchor_positions = {int(i): positions[i] for i in anchors_idx}
        result = localize_network(filtered, anchor_positions, len(positions))
        localized = result.localized & ~result.is_anchor
        if localized.sum():
            report = evaluate_localization(
                result.positions[localized], positions[localized]
            )
            assert report.average_error < 6.0

    def test_campaign_to_distributed(self, field_data):
        positions, raw = field_data
        edges = confidence_weighted_edges(raw)
        config = DistributedConfig(min_spacing_m=9.0)
        result = distributed_localize(edges, len(positions), root=12, config=config, rng=6)
        assert result.localized.sum() >= len(positions) // 2


class TestAlgorithmComparison:
    """The paper's comparative claims, on one shared clean scenario."""

    @pytest.fixture(scope="class")
    def scenario(self):
        positions = square_grid(5, 5, spacing_m=10.0)
        ranges = gaussian_ranges(positions, max_range_m=16.0, sigma_m=0.33, rng=7)
        return positions, ranges

    def test_lss_beats_mds_map_on_sparse_data(self, scenario):
        positions, ranges = scenario
        n = len(positions)
        lss = lss_localize(ranges, n, config=LssConfig(min_spacing_m=10.0), rng=8)
        lss_report = evaluate_localization(lss.positions, positions, align=True)
        mds_coords = mds_map(ranges.to_edge_list(), n)
        mds_report = evaluate_localization(mds_coords, positions, align=True)
        # Shortest-path completion overestimates long distances, so
        # LSS refinement should beat raw MDS-MAP.
        assert lss_report.average_error <= mds_report.average_error + 0.05

    def test_lss_without_anchors_comparable_to_anchored_multilateration(self, scenario):
        positions, _ = scenario
        # Denser ranges so the anchored baseline can localize at all.
        ranges = gaussian_ranges(positions, max_range_m=23.0, sigma_m=0.33, rng=7)
        n = len(positions)
        anchors_idx = [0, 4, 20, 24, 12]
        anchor_positions = {i: positions[i] for i in anchors_idx}
        multilat = localize_network(ranges, anchor_positions, n)
        loc = multilat.localized & ~multilat.is_anchor
        multilat_report = evaluate_localization(
            multilat.positions[loc], positions[loc]
        )
        lss = lss_localize(ranges, n, config=LssConfig(min_spacing_m=10.0), rng=9)
        lss_report = evaluate_localization(lss.positions, positions, align=True)
        assert lss_report.n_localized == n
        assert lss_report.average_error < max(2.0 * multilat_report.average_error, 1.0)

    def test_mds_init_accelerates_lss(self, scenario):
        positions, ranges = scenario
        n = len(positions)
        edges = ranges.to_edge_list()
        init = mds_map(edges, n)
        seeded = lss_localize(
            ranges,
            n,
            config=LssConfig(min_spacing_m=10.0, restarts=1, max_epochs=500),
            initial=init,
            rng=10,
        )
        report = evaluate_localization(seeded.positions, positions, align=True)
        assert report.average_error < 1.0


class TestEndToEndDeterminism:
    def test_full_pipeline_reproducible(self):
        positions = paper_grid(20, rng=3)[:20]
        service = RangingService(environment=get_environment("grass")).calibrate(rng=0)

        def pipeline(seed):
            raw = run_campaign(positions, service, rounds=2, rng=seed)
            edges = confidence_weighted_edges(raw)
            result = lss_localize(
                edges, len(positions), config=LssConfig(min_spacing_m=9.0), rng=seed
            )
            return result.positions

        a = pipeline(11)
        b = pipeline(11)
        assert np.allclose(a, b)
