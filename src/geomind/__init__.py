"""geomind: a Riemannian geometry engine for token-embedding manifolds.

Token fields induce a conformal density metric; thought flows are
integrated as (optionally feedback-forced) geodesics on it, and the
consciousness cycle of perception, prediction, evaluation and adjustment
closes the loop between geometry and learning.
"""

from .cognition import (CognitionParams, MindState, attention_weights,
                        context_vector, cycle_step, feedback_forcing, perceive,
                        predict_contextual, predict_geometric,
                        prediction_error, sample_embedding)
from .errors import (ChartDomainError, ChartExitError, ConfigError,
                     FieldFormatError, GeomindError, NoGeodesicError,
                     SingularMetricError)
from .geodesic import (ShootingOptions, Trajectory, geodesic_between,
                       geodesic_step, integrate_geodesic, path_length_energy)
from .io import (export_trajectory, load_field, load_input_schedule,
                 save_field, save_snapshots)
from .manifold import (ConformalFieldMetric, CurvatureReport, FlatMetric,
                       MetricSource, SphereMetric, TokenField, christoffel_fd,
                       curvature_at, density_at, density_gradient)
from .mind import (FieldReport, Selection, ThoughtFlow, analyze_field,
                   demo_field, feature_vector, intrinsic_dimension,
                   learn_update, manipulate_feature, pca_projection,
                   run_learning, run_thought_flow, score_flow,
                   select_conscious)

__version__ = "0.1.0"

__all__ = [
    "ChartDomainError", "ChartExitError", "CognitionParams", "ConfigError",
    "ConformalFieldMetric", "CurvatureReport",
    "FieldFormatError", "FieldReport", "FlatMetric", "GeomindError",
    "MetricSource", "MindState", "NoGeodesicError", "Selection",
    "ShootingOptions", "SingularMetricError", "SphereMetric", "ThoughtFlow",
    "TokenField", "Trajectory",
    "analyze_field", "attention_weights", "christoffel_fd", "context_vector",
    "curvature_at", "cycle_step", "demo_field", "density_at",
    "density_gradient", "export_trajectory", "feature_vector",
    "feedback_forcing", "geodesic_between", "geodesic_step",
    "integrate_geodesic", "intrinsic_dimension",
    "learn_update", "load_field", "load_input_schedule", "manipulate_feature",
    "path_length_energy", "pca_projection", "perceive", "predict_contextual",
    "predict_geometric", "prediction_error", "run_learning",
    "run_thought_flow", "sample_embedding", "save_field", "save_snapshots",
    "score_flow", "select_conscious",
]
