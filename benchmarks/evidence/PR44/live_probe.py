"""Latency and socket calls of one live closed loop, in one checkout.

    python3 benchmarks/evidence/PR44/live_probe.py CHECKOUT \
        --clients 1 --batches 40 --protocols pbft minbft flexi-bft

Builds the deployments with ``benchmarks/e2e/workloads.py`` of CHECKOUT
(the ``live_tcp_closed`` shape: f=1, batch 10, ``--backend`` live-tcp by
default, or the asyncio-queue ``live``) against CHECKOUT's ``src/``, and
prints one JSON line per protocol: completions per host second, client
latency p50 and mean, and the socket ``send`` and ``recv`` calls per
completed transaction.  The socket calls are counted where
asyncio's selector transport makes them (``write`` with an empty buffer,
``_write_ready``, and the two read paths), which is one system call each.
"""

from __future__ import annotations

import argparse
import asyncio.selector_events as selector_events
import json
import pathlib
import statistics
import sys

COUNTS = {"send": 0, "recv": 0}


def _count_socket_calls() -> None:
    transport = selector_events._SelectorSocketTransport

    def wrap(name, key, when=lambda self, *args: True):
        original = getattr(transport, name)

        def counted(self, *args):
            if when(self, *args):
                COUNTS[key] += 1
            return original(self, *args)
        setattr(transport, name, counted)

    wrap("write", "send", lambda self, data: bool(data) and not self._buffer)
    wrap("_write_ready", "send")
    wrap("_read_ready__data_received", "recv")
    wrap("_read_ready__get_buffer", "recv")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("checkout")
    parser.add_argument("--clients", type=int, default=1)
    parser.add_argument("--batches", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--backend", default="live-tcp",
                        choices=("live-tcp", "live"))
    parser.add_argument("--protocols", nargs="+",
                        default=["pbft", "minbft", "flexi-bft"])
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks" / "e2e")]
    import workloads

    _count_socket_calls()
    for protocol in args.protocols:
        unit = workloads._closed_unit(
            protocol, args.seed, args.backend, f=1, clients=args.clients,
            batch=10, batches=args.batches)
        COUNTS.update(send=0, recv=0)
        result = workloads.run_unit(unit)
        completed = result.completed
        latencies = result.latencies_ms
        print(json.dumps({
            "checkout": checkout.name, "backend": args.backend,
            "protocol": protocol,
            "clients": args.clients, "seed": args.seed,
            "completed": completed,
            "tx_per_host_s": round(completed / result.host_s, 1),
            "latency_p50_ms": round(statistics.median(latencies), 3),
            "latency_mean_ms": round(statistics.fmean(latencies), 3),
            "sends_per_tx": round(COUNTS["send"] / completed, 3),
            "recvs_per_tx": round(COUNTS["recv"] / completed, 3),
        }), flush=True)


if __name__ == "__main__":
    main()
