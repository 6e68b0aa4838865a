"""Multivariate conformal prediction with optimal-transport ranks.

Vector-valued conformity residuals are pushed onto a discrete spherical
uniform measure through an entropic transport map; the norm of the image is a
multivariate rank in [0, 1] that plugs straight into split-conformal
calibration. Euclidean, Mahalanobis, and quantile-interval baselines plus a
seeded benchmark harness round out the toolbox.
"""

from .bench import (
    BenchConfig,
    BenchReport,
    MethodResult,
    export_contours,
    marginal_coverage,
    region_size_mc,
    run_benchmark,
    sweep,
    write_region_csv,
)
from .conformal import (
    AbsoluteResidualScore,
    CalibratedPredictor,
    EuclideanResidualScore,
    MahalanobisResidualScore,
    MaxIntervalScore,
    Region2D,
    SCORE_KINDS,
    ScoreFunction,
    TransportRankScore,
    Whitener,
    calibrate,
    conformal_threshold,
    default_mahalanobis_ridge,
    estimate_covariance,
    make_score_function,
    pit_values,
    region_contour_2d,
    region_volumes,
)
from .data import (
    Dataset,
    KnnMeanRegressor,
    KnnQuantilePredictor,
    Regressor,
    RidgeRegressor,
    ScoreMatrix,
    SplitSpec,
    fit_quantile_predictor,
    fit_regressor,
    load_dataset_csv,
    residuals,
    split_dataset,
    synth_dataset,
    write_dataset_csv,
)
from .entropic import EntropicMap, fit_entropic_map
from .errors import (
    DimensionError,
    MethodError,
    NotFittedError,
    ParamError,
    ParseError,
    ProvenanceError,
    SinkhornNotConverged,
)
from .serialize import load_predictor, save_predictor
from .sinkhorn import (
    DualPotentials,
    OtProblem,
    Standardizer,
    coupling_marginal_error,
    sinkhorn_solve,
)
from .sphere import (
    SphericalGrid,
    build_spherical_grid,
    grid_radius_index,
    halton_sequence,
    inverse_normal_cdf,
    sphere_directions,
)

__version__ = "0.1.0"
