"""Thread-modular interval analysis for the MTIR toy language."""

from .analysis import (
    AnalysisConfig, AnalysisResult, analyze, compute_combinations,
)
from .cfg import ProgramModel, ThreadCfg, build_model, loads_of
from .domain import AbstractEnv, Interval
from .facts import FeasibilityEngine
from .parser import parse

__all__ = [
    "AbstractEnv", "AnalysisConfig", "AnalysisResult", "FeasibilityEngine",
    "Interval", "ProgramModel", "ThreadCfg", "analyze", "build_model",
    "compute_combinations", "loads_of", "parse",
]

__version__ = "0.1.0"
