"""Protocol property analysis — the comparison table of Figure 1.

Every column follows from what a protocol's trusted component binds and
whether its consensus is sequential:

* binding every replica's messages (Section 4) means 2f + 1 replicas, hence
  f + 1 quorums, which lose bft liveness (responsiveness, Section 5);
* a trusted log costs high trusted memory, a counter low, no binding none;
* only the primary touches trusted hardware under FlexiTrust (Section 8.1);
* out-of-order consensus is exactly non-sequential consensus.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..protocols.family import OwnLogBinding
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


def comparison_row(spec: ProtocolSpec) -> ComparisonRow:
    """Build the Figure 1 row for one protocol."""
    if not spec.uses_trusted:
        trusted, memory = "none", "none"
    elif issubclass(spec.replica_class, OwnLogBinding):
        trusted, memory = "log", "high"
    else:
        trusted, memory = "counter", "low"
    two_f_plus_one = spec.trusted_at_all_replicas
    return ComparisonRow(
        protocol=spec.display_name,
        replicas="2f+1" if two_f_plus_one else "3f+1",
        trusted_abstraction=trusted,
        bft_liveness=not two_f_plus_one,
        out_of_order=not spec.sequential,
        trusted_memory=memory,
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
        if not include_baselines and not spec.uses_trusted:
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
