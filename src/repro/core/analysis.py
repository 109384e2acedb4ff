"""Protocol property analysis — the comparison table of Figure 1.

The table is derived from the protocol registry: trusted abstraction, whether
the protocol keeps the liveness guarantees of standard bft protocols, whether
it supports out-of-order (parallel) consensus, how much trusted memory it
needs, and whether only the primary requires an active trusted component.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.types import TrustedAbstraction
from ..protocols.registry import PROTOCOLS, ProtocolSpec


@dataclass(frozen=True)
class ComparisonRow:
    """One row of the Figure 1 comparison table."""

    protocol: str
    replicas: str
    trusted_abstraction: str
    bft_liveness: bool
    out_of_order: bool
    trusted_memory: str
    only_primary_tc: bool

    def as_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "replicas": self.replicas,
            "trusted": self.trusted_abstraction,
            "bft_liveness": self.bft_liveness,
            "out_of_order": self.out_of_order,
            "memory": self.trusted_memory,
            "only_primary_tc": self.only_primary_tc,
        }


def comparison_row(spec: ProtocolSpec) -> ComparisonRow:
    """Build the Figure 1 row for one protocol."""
    return ComparisonRow(
        protocol=spec.display_name,
        replicas=spec.regime.value,
        trusted_abstraction=spec.trusted_abstraction.value,
        bft_liveness=spec.bft_liveness,
        out_of_order=spec.out_of_order,
        trusted_memory=spec.trusted_memory,
        only_primary_tc=spec.only_primary_tc,
    )


def figure1_table(include_baselines: bool = False) -> list[ComparisonRow]:
    """The Figure 1 comparison table.

    By default only protocols that use trusted components appear (that is what
    the paper tabulates); ``include_baselines`` adds Pbft and Zyzzyva for
    context.
    """
    rows = []
    for name in sorted(PROTOCOLS):
        spec = PROTOCOLS[name]
        if name.startswith("oflexi"):
            continue  # ablation variants, not separate designs
        if not include_baselines and spec.trusted_abstraction is TrustedAbstraction.NONE:
            continue
        rows.append(comparison_row(spec))
    return rows


def format_table(rows: list[ComparisonRow]) -> str:
    """Render the comparison table as fixed-width text."""
    headers = ["Protocol", "Replicas", "Trusted", "BFT liveness",
               "Out-of-order", "Memory", "Only primary TC"]
    lines = ["  ".join(f"{h:<15}" for h in headers)]
    for row in rows:
        values = [row.protocol, row.replicas, row.trusted_abstraction,
                  "yes" if row.bft_liveness else "no",
                  "yes" if row.out_of_order else "no",
                  row.trusted_memory,
                  "yes" if row.only_primary_tc else "no"]
        lines.append("  ".join(f"{str(v):<15}" for v in values))
    return "\n".join(lines)
