"""Tables for README.md from the pair lines ``pairs.py`` wrote.

    python3 benchmarks/evidence/PR16/summary.py benchmarks/evidence/PR16/*.jsonl
"""

from __future__ import annotations

import json
import statistics
import sys

#: end-to-end metrics where a larger value is the better one.
HIGHER = {"tx_per_host_s", "model_tx_s", "served_share"}


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(paths: list) -> None:
    groups: dict = {}
    for path in paths:
        with open(path) as handle:
            for line in handle:
                pair = json.loads(line)
                groups.setdefault((pair["workload"], pair["trace"]),
                                  []).append(pair)
    for (workload, trace), pairs in sorted(groups.items()):
        print(f"\n### `{workload}`, `--trace {trace}`, {len(pairs)} pairs "
              f"(seeds {', '.join(str(p['seed']) for p in pairs)})\n")
        print("| metric | parent: median [q1, q3] | change: median [q1, q3] "
              "| change / parent | pairs the change wins |")
        print("|---|---|---|---|---|")
        for name in pairs[0]["parent"]:
            if name in ("attempted", "failed"):
                continue
            parent = [p["parent"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            if trace and not (name.startswith("host_us_per_tx.")
                              or name in ("sim.events_per_tx",
                                          "net.msgs_per_tx")):
                continue
            if not any(parent) and not any(change):
                continue
            better = (lambda c, p: c > p) if name in HIGHER else (
                lambda c, p: c < p)
            wins = sum(better(c, p) for c, p in zip(change, parent))
            ties = sum(c == p for c, p in zip(change, parent))
            base = statistics.median(parent)
            ratio = (f"{statistics.median(change) / base:.3f}" if base
                     else "–")
            print(f"| `{name}` | {quartiles(parent)} | {quartiles(change)} "
                  f"| {ratio} | {wins} of {len(pairs)}"
                  + (f" ({ties} ties)" if ties else "") + " |")


if __name__ == "__main__":
    main(sys.argv[1:])
