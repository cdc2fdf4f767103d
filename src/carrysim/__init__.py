"""Carrying simplices of competitive maps: criteria, computation, verification."""

from .cone import OrderInterval
from .criteria import (
    CompetitionModel,
    ConditionResult,
    competition_matrix,
    run_criteria,
    spectral_radius,
)
from .modelio import LoadedModel, ModelFileError, load_model_dict, load_model_file
from .models import (
    LeslieGowerModel,
    MayOsterModel,
    ModelEvaluationError,
    ModelParameterError,
    NeuralNetModel,
    ShiftedSoftplus,
)
from .periodic import (
    FourierSeries,
    IntegrationConfig,
    PeriodicLVSystem,
    PoincareMapModel,
    Trajectory,
    check_a_conditions,
    integrate,
    wang_jiang_check,
)
from .simplex import (
    RadialSurface,
    SimplexGrid,
    SurfaceDegeneracyError,
    asymptotic_check,
    compute_attractor_cloud,
    compute_carrying_simplex,
    invariance_residual,
    sweep_1d,
    unordered_check,
    verify_surface,
)

__version__ = "0.1.0"
