"""Tests for repro.core.evaluation."""

import math

import numpy as np
import pytest

from repro.core.evaluation import (
    align_to_reference,
    error_histogram,
    evaluate_localization,
    localization_errors,
    trimmed_mean_error,
)
from repro.core.geometry import apply_transform, rigid_transform_matrix
from repro.errors import ValidationError


@pytest.fixture
def square():
    return np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])


class TestAlignToReference:
    def test_undoes_rigid_transform(self, square):
        t = rigid_transform_matrix(1.2, 30.0, -4.0)
        moved = apply_transform(square, t)
        aligned = align_to_reference(moved, square)
        assert np.allclose(aligned, square, atol=1e-6)

    def test_undoes_reflection(self, square):
        t = rigid_transform_matrix(0.0, 0.0, 0.0, reflect=True)
        moved = apply_transform(square, t)
        aligned = align_to_reference(moved, square)
        assert np.allclose(aligned, square, atol=1e-6)

    def test_does_not_rescale(self, square):
        # Scaled configurations must NOT align perfectly: rigid only.
        aligned = align_to_reference(square * 2.0, square)
        errors = localization_errors(aligned, square)
        assert errors.mean() > 1.0

    def test_shape_mismatch(self, square):
        with pytest.raises(ValidationError):
            align_to_reference(square, square[:3])


class TestLocalizationErrors:
    def test_zero_for_identical(self, square):
        assert np.allclose(localization_errors(square, square), 0.0)

    def test_known_offsets(self):
        est = np.array([[1.0, 0.0], [0.0, 2.0]])
        act = np.zeros((2, 2))
        assert localization_errors(est, act) == pytest.approx([1.0, 2.0])

    def test_empty(self):
        assert localization_errors(np.zeros((0, 2)), np.zeros((0, 2))).size == 0


class TestEvaluateLocalization:
    def test_all_localized(self, square):
        report = evaluate_localization(square + [0.5, 0.0], square)
        assert report.n_total == 4
        assert report.n_localized == 4
        assert report.average_error == pytest.approx(0.5)
        assert report.median_error == pytest.approx(0.5)
        assert report.max_error == pytest.approx(0.5)
        assert report.localized_fraction == 1.0

    def test_nan_rows_excluded(self, square):
        est = square.copy()
        est[2] = np.nan
        report = evaluate_localization(est, square)
        assert report.n_localized == 3

    def test_explicit_mask(self, square):
        mask = [True, True, False, False]
        report = evaluate_localization(square, square, localized_mask=mask)
        assert report.n_localized == 2

    def test_mask_intersects_nan(self, square):
        est = square.copy()
        est[0] = np.nan
        report = evaluate_localization(
            est, square, localized_mask=[True, True, True, True]
        )
        assert report.n_localized == 3

    def test_nothing_localized(self, square):
        est = np.full_like(square, np.nan)
        report = evaluate_localization(est, square)
        assert report.n_localized == 0
        assert math.isnan(report.average_error)
        assert report.localized_fraction == 0.0

    def test_align_flag(self, square):
        t = rigid_transform_matrix(0.7, 5.0, 5.0)
        moved = apply_transform(square, t)
        unaligned = evaluate_localization(moved, square)
        aligned = evaluate_localization(moved, square, align=True)
        assert aligned.average_error < 1e-6
        assert unaligned.average_error > 1.0

    def test_shape_mismatch(self, square):
        with pytest.raises(ValidationError):
            evaluate_localization(square[:2], square)

    def test_bad_mask_shape(self, square):
        with pytest.raises(ValidationError):
            evaluate_localization(square, square, localized_mask=[True])


class TestErrorHistogram:
    def test_symmetric_bins_centered(self):
        errors = [-0.25, 0.0, 0.25]
        edges, counts = error_histogram(errors, bin_width=0.1)
        assert counts.sum() == 3
        # Zero must be inside one bin, not on an edge.
        zero_bin = np.searchsorted(edges, 0.0) - 1
        assert edges[zero_bin] < 0.0 < edges[zero_bin + 1]

    def test_empty_input(self):
        edges, counts = error_histogram([], bin_width=0.5)
        assert counts.sum() == 0

    def test_nan_filtered(self):
        edges, counts = error_histogram([0.1, np.nan, -0.1])
        assert counts.sum() == 2

    def test_bad_bin_width(self):
        with pytest.raises(ValidationError):
            error_histogram([0.0], bin_width=0.0)

    def test_asymmetric_mode(self):
        edges, counts = error_histogram([1.0, 2.0, 3.0], bin_width=1.0, symmetric=False)
        assert counts.sum() == 3


class TestTrimmedMean:
    def test_no_trim(self):
        assert trimmed_mean_error([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_drop_worst(self):
        assert trimmed_mean_error([1.0, 2.0, 30.0], drop_worst=1) == pytest.approx(1.5)

    def test_drop_all_returns_nan(self):
        assert math.isnan(trimmed_mean_error([1.0], drop_worst=1))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            trimmed_mean_error([1.0], drop_worst=-1)

    def test_paper_usage(self):
        # "2.2 m average, 1.5 m without the largest 5" style computation.
        errors = [0.5] * 42 + [10.0] * 5
        full = float(np.mean(errors))
        trimmed = trimmed_mean_error(errors, drop_worst=5)
        assert trimmed < full
        assert trimmed == pytest.approx(0.5)
