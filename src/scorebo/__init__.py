"""Dimension-decomposed Bayesian optimization on discrete grids."""

from .acquisition import score_grid
from .baseline import BoOptimizer
from .engine import ProjectionTable, ScoreOptimizer
from .errors import (ConfigurationError, ObjectiveError, SolverError,
                     SpaceExhausted, SurrogateError)
from .gp import GpModel, KernelConfig, gp_fit
from .space import (EvaluationRecord, History, ParameterGrid, SearchSpace,
                    StepResult, make_grid)

__all__ = [
    "score_grid",
    "BoOptimizer", "ProjectionTable", "ScoreOptimizer",
    "ConfigurationError", "ObjectiveError", "SolverError", "SpaceExhausted", "SurrogateError",
    "GpModel", "KernelConfig", "gp_fit",
    "EvaluationRecord", "History", "ParameterGrid", "SearchSpace", "StepResult",
    "make_grid",
]

__version__ = "0.1.0"
