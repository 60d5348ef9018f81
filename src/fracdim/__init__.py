"""Fractal dimension estimation for point clouds and weighted networks.

Topological estimators (persistent-homology dimension, magnitude and
persistent-magnitude dimensions) next to classical baselines
(box-counting, correlation, network covering and scaling dimensions).
"""

from .errors import (
    DegenerateInputError,
    FracdimError,
    InvalidEntryError,
    ParseError,
    ResourceLimitError,
    SingularSimilarityError,
    UndefinedDimensionError,
)
from .estimators import (
    DimensionEstimate,
    LogLogFit,
    PHDimensionConfig,
    alpha_magnitude_dimension,
    box_counting_network,
    box_counting_pointcloud,
    correlation_dimension,
    greedy_cover,
    internal_scaling_dimension,
    loglog_fit,
    magnitude_dimension,
    ph_dimension,
    power_weighted_sum,
)
from .filtration import (
    FilteredComplex,
    Simplex,
    alpha_complex_2d,
    vietoris_rips,
)
from .magnitude import (
    MagnitudeFunctionSamples,
    magnitude,
    magnitude_function,
    persistent_magnitude,
    persistent_magnitude_curve,
    rips_magnitude,
)
from .persistence import Barcode, Interval, h0_union_find, persistence
from .spaces import (
    MetricView,
    PointCloud,
    SierpinskiTreeParams,
    WeightedNetwork,
    cantor_set,
    derive_seed,
    euclidean_metric,
    line_network,
    network_diameter,
    rescale,
    shortest_path_metric,
    shortest_path_rows,
    sierpinski_tree,
    sierpinski_triangle,
    subsample,
)

__version__ = "0.1.0"
