"""Core localization algorithms: the paper's primary contribution.

Exports the multilateration suite (Section 4.1), centralized LSS with
soft constraints (Section 4.2), the distributed LSS pipeline (Section
4.3), the classical-MDS baselines, and the shared measurement/geometry/
evaluation utilities.
"""

from .distributed import (
    DistributedConfig,
    DistributedResult,
    LocalMap,
    build_local_maps,
    build_transforms,
    distributed_localize,
)
from .evaluation import (
    LocalizationReport,
    align_to_reference,
    error_histogram,
    evaluate_localization,
    localization_errors,
    trimmed_mean_error,
)
from .geometry import (
    all_pairs_circle_intersections,
    apply_transform,
    centroid,
    circle_intersections,
    compose_transforms,
    is_collinear,
    pairwise_distances,
    rigid_transform_matrix,
)
from .lss import (
    LssConfig,
    LssResult,
    lss_error,
    lss_gradient,
    lss_localize,
    lss_localize_robust,
)
from .mds import classical_mds, complete_distances, mds_map
from .measurements import EdgeList, MeasurementSet, RangeMeasurement
from .aps import dv_distance_localize, dv_hop_localize
from .protocol import ProtocolResult, run_distributed_protocol
from .multilateration import (
    MultilaterationResult,
    NetworkLocalization,
    intersection_consistency_filter,
    localize_network,
    multilaterate,
)
from .transforms import (
    TransformEstimate,
    estimate_transform_closed_form,
    transform_residual,
)

__all__ = [
    # measurements
    "RangeMeasurement",
    "EdgeList",
    "MeasurementSet",
    # geometry
    "pairwise_distances",
    "circle_intersections",
    "all_pairs_circle_intersections",
    "rigid_transform_matrix",
    "apply_transform",
    "compose_transforms",
    "centroid",
    "is_collinear",
    # transforms
    "TransformEstimate",
    "transform_residual",
    "estimate_transform_closed_form",
    # evaluation
    "LocalizationReport",
    "align_to_reference",
    "localization_errors",
    "evaluate_localization",
    "error_histogram",
    "trimmed_mean_error",
    # multilateration
    "MultilaterationResult",
    "NetworkLocalization",
    "intersection_consistency_filter",
    "multilaterate",
    "localize_network",
    # LSS
    "LssConfig",
    "LssResult",
    "lss_error",
    "lss_gradient",
    "lss_localize",
    "lss_localize_robust",
    # MDS baselines
    "classical_mds",
    "complete_distances",
    "mds_map",
    # distributed
    "DistributedConfig",
    "DistributedResult",
    "LocalMap",
    "build_local_maps",
    "build_transforms",
    "distributed_localize",
    # protocol
    "ProtocolResult",
    "run_distributed_protocol",
    # APS baselines
    "dv_hop_localize",
    "dv_distance_localize",
]
