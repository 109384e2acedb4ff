"""The paper's core contribution: analysis, claims, and the FlexiTrust recipe."""

from .analysis import ComparisonRow, comparison_row, figure1_table, format_table
from .claims import (
    claims_table,
    responsiveness_row,
    rollback_row,
    sequential_throughput_bound,
    sequentiality_row,
)
from .flexitrust import (
    Transformation,
    TransformationStep,
    expected_speedup,
    transform,
    transformable_protocols,
    trusted_accesses_per_batch,
)
from .instrumented import FIGURE5_BARS, InstrumentedPbftReplica, TrustedUsage, instrumented_pbft_factory

__all__ = [
    "ComparisonRow",
    "FIGURE5_BARS",
    "InstrumentedPbftReplica",
    "Transformation",
    "TransformationStep",
    "TrustedUsage",
    "claims_table",
    "comparison_row",
    "expected_speedup",
    "figure1_table",
    "format_table",
    "instrumented_pbft_factory",
    "responsiveness_row",
    "rollback_row",
    "sequential_throughput_bound",
    "sequentiality_row",
    "transform",
    "transformable_protocols",
    "trusted_accesses_per_batch",
]
