"""Deployment building, metrics and experiment definitions."""

from .deployment import Deployment, RunResult
from .experiments import (
    ALL_EXPERIMENTS,
    ExperimentScale,
    PAPER_SCALE,
    SMALL_SCALE,
    build_config,
    figure5_trusted_counter_costs,
    figure6_batching,
    figure6_scalability,
    figure6_throughput_latency,
    figure6_wan,
    figure7_failure,
    figure8_hardware_sweep,
    figure9_throughput_per_machine,
    figure_openloop,
    figure_recovery,
    figure_sharding_scaleout,
    print_rows,
)
from .metrics import CompletionRecord, MetricsCollector, RunMetrics
from .spec import DeploymentSpec

__all__ = [
    "ALL_EXPERIMENTS",
    "CompletionRecord",
    "Deployment",
    "DeploymentSpec",
    "ExperimentScale",
    "MetricsCollector",
    "PAPER_SCALE",
    "RunMetrics",
    "RunResult",
    "SMALL_SCALE",
    "build_config",
    "figure5_trusted_counter_costs",
    "figure6_batching",
    "figure6_scalability",
    "figure6_throughput_latency",
    "figure6_wan",
    "figure7_failure",
    "figure8_hardware_sweep",
    "figure9_throughput_per_machine",
    "figure_openloop",
    "figure_recovery",
    "figure_sharding_scaleout",
    "print_rows",
]
