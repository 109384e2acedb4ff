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
    transform,
    transformable_protocols,
    trusted_accesses_per_batch,
)

__all__ = [
    "ComparisonRow",
    "Transformation",
    "TransformationStep",
    "claims_table",
    "comparison_row",
    "figure1_table",
    "format_table",
    "responsiveness_row",
    "rollback_row",
    "sequential_throughput_bound",
    "sequentiality_row",
    "transform",
    "transformable_protocols",
    "trusted_accesses_per_batch",
]
