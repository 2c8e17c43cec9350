"""Planar Cantor-type families joined by a sup-norm stretch map.

The package builds two nested square families over the unit square
(geometric pre-image sides sigma^k, image sides 2^-k with a
logarithmic haircut), the piecewise radial homeomorphism carrying one
onto the other, closed forms for its derivative, Jacobian, and
distortion, series diagnostics with an explicit integrability
threshold, and doubly logarithmic gauges measuring the image family.
"""

from .analysis import (
    SeriesDiagnostics,
    SeriesTerm,
    SubexpFunctional,
    frame_integral_mc,
    frame_jacobian_integral,
    frame_subexp_integral,
    frame_tv_integral,
    image_area_partition_defect,
    gain_ratio_limit,
    gain_ratio,
    p_threshold,
    series_terms,
    subexp_A,
)
from .construction import (
    CellAddress,
    ConstructionParams,
    EnumerationCapError,
    Frame,
    LevelRadii,
    Square,
    ValidationReport,
    enumerate_cells,
    frame,
    image_side,
    image_square,
    preimage_side,
    preimage_square,
    radii,
    validate_geometry,
)
from .logspace import LogQuantity, log_add
from .mapping import (
    DistortionComparison,
    FieldSample,
    FrameAt,
    FrameMapCoeffs,
    RegionLocation,
    SquareInteriorAt,
    coeffs,
    compare_distortion_bound,
    consistency_check,
    evaluate,
    evaluate_batch,
    fields,
    fields_batch,
    frame_map,
    locate,
    sup_distortion,
)
from .measure import (
    Gauge,
    MassDistributionReport,
    ScanTable,
    box_dimension_pre,
    gauge_eval,
    gauge_log_eval,
    mass_distribution_bound,
    monotone_threshold,
    natural_cover_sum,
    threshold_scan,
)
from .quadrature import QuadratureError, integrate
from .render import render_svg
from .verify import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"
