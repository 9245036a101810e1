"""Experiment harness: Table-2 matrix, figure reproductions, claims."""

from .anticache import AntiCacheReport, anticache_experiment
from .configs import (
    DEVICE_SWEEP_LABELS,
    FS_SWEEP_LABELS,
    TABLE2_CONFIGS,
    ExpConfig,
    config_by_label,
)
from .figures import (
    FigureData,
    figure1,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
)
from .cache import SCHEMA_VERSION, ResultCache
from .cost import ComponentCosts, DesignPoint, capacity_study
from .future import FutureSweepResult, future_device_sweep
from .headline import HeadlineResults, compute_headline
from .lifetime import LIFETIME_LABELS
from .parallel import CellTiming, MatrixEngine, detect_workers
from .runner import DEFAULT_WORKLOAD, ConfigResult, Workload, run_config, run_matrix
from .sensitivity import SensitivityReport, sensitivity_analysis
from .trends import TREND_DATA, crossover_year, doubling_time_years, figure1_series

__all__ = [
    "AntiCacheReport",
    "anticache_experiment",
    "CellTiming",
    "MatrixEngine",
    "ResultCache",
    "SCHEMA_VERSION",
    "detect_workers",
    "ComponentCosts",
    "DesignPoint",
    "capacity_study",
    "FutureSweepResult",
    "future_device_sweep",
    "LIFETIME_LABELS",
    "SensitivityReport",
    "sensitivity_analysis",
    "ExpConfig",
    "TABLE2_CONFIGS",
    "FS_SWEEP_LABELS",
    "DEVICE_SWEEP_LABELS",
    "config_by_label",
    "Workload",
    "DEFAULT_WORKLOAD",
    "ConfigResult",
    "run_config",
    "run_matrix",
    "FigureData",
    "figure1",
    "table1",
    "table2",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "HeadlineResults",
    "compute_headline",
    "TREND_DATA",
    "figure1_series",
    "crossover_year",
    "doubling_time_years",
]
