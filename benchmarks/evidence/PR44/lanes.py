"""What building one ``sim_recovery`` deployment allocates, and its rows.

    python3 benchmarks/evidence/PR44/lanes.py CHECKOUT --scale 0.25 --seed 7

Against CHECKOUT's ``src/`` and ``benchmarks/e2e/workloads.py``: traces the
allocations of building the first ``sim_recovery`` unit (2 048 open-loop
lanes) with ``tracemalloc`` and prints the YCSB generators and seeded
``random.Random`` streams it made, their size, and the bytes it holds;
then runs every unit of the workload and prints the digest of their model
rows (the first 12 hex characters of ``repro.common.jsonhash.json_digest``),
which must not move.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import tracemalloc


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("checkout")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks" / "e2e")]
    import workloads
    from repro.common.jsonhash import json_digest

    units = workloads.WORKLOADS["sim_recovery"].units(args.seed, args.scale)
    tracemalloc.start()
    deployment = units[0].spec.build()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    generators = sum(1 for client in deployment.clients
                     if client.workload is not None)
    randoms = len(deployment.rng._streams)
    total = sum(stat.size for stat in snapshot.statistics("filename"))
    deployment.close()
    rows = [workloads.run_unit(unit).row for unit in units]
    print(json.dumps({
        "checkout": checkout.name, "lanes": len(deployment.clients),
        "ycsb_generators": generators, "rng_streams": randoms,
        "rng_stream_bytes": randoms * sys.getsizeof(random.Random()),
        "build_traced_bytes": total,
        "rows_digest": json_digest(rows)[:12],
    }))


if __name__ == "__main__":
    main()
