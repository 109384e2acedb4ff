"""Isolated operations per second of each layer, through direct timed calls.

Each probe builds its inputs from the seed, outside the clock, and then
times only the calls into one layer.  The numbers say what a layer can do
alone; the traced run says what it costs inside a workload.  A probe whose
layer changed shape under it reports 0 and says so on stderr — the probes
reach below the stable public surface, so they must not take the benchmark
down with them.
"""

from __future__ import annotations

import random
import sys
import time


def _timed(duration_s: float, make_inputs, call, fresh: bool = False) -> float:
    """ops/s of ``call(item)`` over chunks of inputs, for ``duration_s``.

    ``fresh`` builds a new chunk for every pass, for layers that keep
    something on the objects they are handed; the rest reuse one chunk.
    """
    operations = 0
    elapsed = 0.0
    clock = time.perf_counter
    items = None
    while elapsed < duration_s:
        if fresh or items is None:
            items = make_inputs()
        start = clock()
        for item in items:
            call(item)
        elapsed += clock() - start
        operations += len(items)
    return operations / elapsed


def _requests(rng: random.Random, count: int, client: str = "client-0"):
    from repro.common.types import RequestId
    from repro.execution.state_machine import Operation
    from repro.protocols.messages import ClientRequest

    base = rng.randrange(1 << 30)
    return [ClientRequest(
        request_id=RequestId(client=client, number=base + index),
        operations=(Operation(action="write",
                              key=f"user{rng.randrange(6000)}",
                              value="%064x" % rng.getrandbits(256)),))
            for index in range(count)]


def _envelopes(rng: random.Random, count: int):
    from repro.net.network import Envelope

    return [Envelope("client-0", "replica-0", request, 0.0, 120.0)
            for request in _requests(rng, count)]


def _probe_sim_events(rng, duration_s):
    from repro.sim.kernel import Simulator

    events = 5_000

    def chunk():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1

        return [(sim, [rng.random() * 1_000.0 for _ in range(events)], tick)]

    def call(item):
        sim, delays, tick = item
        for delay in delays:
            sim.schedule(delay, tick)
        sim.run()

    return _timed(duration_s, chunk, call, fresh=True) * events


def _probe_net_sends(rng, duration_s):
    from repro.net.network import Network
    from repro.net.topology import build_topology
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

    class Sink:
        def __init__(self, name):
            self.name = name

        def receive(self, envelope):
            pass

    names = [f"replica-{i}" for i in range(4)]
    sends = 5_000

    def chunk():
        sim = Simulator()
        network = Network(sim, build_topology(names, [], ("san-jose",), 120.0),
                          RngRegistry(rng.randrange(1 << 30)))
        for name in names:
            network.register(Sink(name))
        return [(sim, network, [(rng.choice(names), rng.choice(names))
                                for _ in range(sends)])]

    def call(item):
        sim, network, pairs = item
        for source, destination in pairs:
            network.send(source, destination, "payload")
        sim.run()

    return _timed(duration_s, chunk, call, fresh=True) * sends


def _probe_wire_encode(rng, duration_s):
    from repro.net.wire import WireCodec

    codec = WireCodec()
    # Fresh objects per chunk: an instance keeps its canonical encoding, so
    # re-encoding one would time a cache read.
    return _timed(duration_s, lambda: _envelopes(rng, 2_000),
                  codec.encode_frame, fresh=True)


def _probe_wire_decode(rng, duration_s):
    from repro.net.wire import WireCodec

    codec = WireCodec()
    frames = [codec.encode_frame(e) for e in _envelopes(rng, 2_000)]
    return _timed(duration_s, lambda: frames, codec.decode_frame)


def _probe_crypto_digest(rng, duration_s):
    from repro.crypto.digest import digest

    def chunk():
        return [{"request": "client-%d" % rng.randrange(240),
                 "number": rng.randrange(1 << 30),
                 "operations": ("write", "user%d" % rng.randrange(6000),
                                "%064x" % rng.getrandbits(256))}
                for _ in range(2_000)]

    return _timed(duration_s, chunk, digest)


def _encoded(rng, count):
    return [rng.getrandbits(8 * 96).to_bytes(96, "big") for _ in range(count)]


def _probe_crypto_sign(rng, duration_s):
    from repro.crypto.keystore import KeyStore

    key = KeyStore(seed=rng.randrange(1 << 30)).register("replica-0")
    return _timed(duration_s, lambda: _encoded(rng, 2_000), key.sign_bytes)


def _probe_crypto_verify(rng, duration_s, hit: bool):
    from repro.crypto.keystore import KeyStore

    store = KeyStore(seed=rng.randrange(1 << 30))
    key = store.register("replica-0")

    def signed(count):
        return [(encoded, key.sign_bytes(encoded))
                for encoded in _encoded(rng, count)]

    def call(item):
        store.verify_encoded(*item)

    if hit:
        pairs = signed(1_000)
        for pair in pairs:
            call(pair)
        return _timed(duration_s, lambda: pairs, call)
    # More pairs than the verify cache holds, so a reused pair was evicted.
    return _timed(duration_s, lambda: signed(10_000), call)


def _probe_execution(rng, duration_s):
    from repro.execution.kvstore import KeyValueStore
    from repro.execution.state_machine import Operation

    store = KeyValueStore(records=6_000, value_size=64)

    def chunk():
        return [Operation(action="write" if rng.random() < 0.5 else "read",
                          key=f"user{rng.randrange(6000)}",
                          value="%064x" % rng.getrandbits(256))
                for _ in range(2_000)]

    return _timed(duration_s, chunk, store.apply)


def _probe_recovery_wal(rng, duration_s):
    from repro.common.config import RecoveryConfig
    from repro.protocols.messages import RequestBatch
    from repro.recovery.store import DurableStore
    from repro.sim.kernel import Simulator

    store = DurableStore("replica-0", Simulator(), RecoveryConfig())
    seq = [0]

    def chunk():
        batches = [RequestBatch(requests=tuple(_requests(rng, 10)))
                   for _ in range(100)]
        return [(batch, batch.digest()) for batch in batches]

    def call(item):
        seq[0] += 1
        store.append_batch(seq[0], 0, *item)
        if seq[0] % 100 == 0:
            store.save_checkpoint(seq[0], b"\x00" * 32, None)

    return _timed(duration_s, chunk, call)


def _probe_trusted(rng, duration_s):
    from repro.common.config import SGX_ENCLAVE_COUNTER
    from repro.crypto.keystore import KeyStore
    from repro.trusted.component import TrustedComponentHost

    key = KeyStore(seed=rng.randrange(1 << 30)).register("tc/replica-0")
    host = TrustedComponentHost(key, SGX_ENCLAVE_COUNTER)
    counter_id, _ = host.create_counter()

    def call(payload_digest):
        host.append_f(counter_id, payload_digest)

    return _timed(duration_s,
                  lambda: [rng.getrandbits(256).to_bytes(32, "big")
                           for _ in range(2_000)], call)


def _probe_workload_arrivals(rng, duration_s):
    from repro.sim.kernel import Simulator
    from repro.workload.openloop import OpenLoopConfig, OpenLoopEngine

    class Lane:
        """Answers every request one simulated microsecond later."""

        on_complete = None

        def __init__(self, sim):
            self.sim = sim

        def submit(self, operations):
            self.sim.schedule(1.0, self.on_complete)

        def abandon_pending(self, reason="abandoned"):
            return None

    arrivals = 5_000
    config = OpenLoopConfig(arrival_rate_tx_s=100_000.0, max_in_flight=32,
                            deadline_us=25_000.0,
                            duration_s=arrivals / 100_000.0)

    def chunk():
        sim = Simulator()
        engine = OpenLoopEngine(sim, [Lane(sim) for _ in range(32)], config,
                                rng=random.Random(rng.randrange(1 << 30)),
                                records=6_000)
        return [(sim, engine)]

    def call(item):
        sim, engine = item
        engine.start()
        sim.run(until=config.duration_s * 1_000_000.0)
        engine.stop()

    # One engine run draws ``arrivals`` arrivals on average.
    return _timed(duration_s, chunk, call, fresh=True) * arrivals


PROBES = {
    "probe.sim.events_per_s": _probe_sim_events,
    "probe.net.sends_per_s": _probe_net_sends,
    "probe.net.wire.encode_per_s": _probe_wire_encode,
    "probe.net.wire.decode_per_s": _probe_wire_decode,
    "probe.crypto.digest_per_s": _probe_crypto_digest,
    "probe.crypto.sign_per_s": _probe_crypto_sign,
    "probe.crypto.verify_hit_per_s":
        lambda rng, duration_s: _probe_crypto_verify(rng, duration_s, True),
    "probe.crypto.verify_miss_per_s":
        lambda rng, duration_s: _probe_crypto_verify(rng, duration_s, False),
    "probe.execution.ops_per_s": _probe_execution,
    "probe.recovery.wal_appends_per_s": _probe_recovery_wal,
    "probe.trusted.appends_per_s": _probe_trusted,
    "probe.workload.arrivals_per_s": _probe_workload_arrivals,
}


def run_probes(seed: int, duration_s: float) -> dict:
    """Every probe's ops/s; inputs come from ``seed`` alone."""
    results = {}
    for name, probe in PROBES.items():
        rng = random.Random(f"{seed}/{name}")
        try:
            results[name] = probe(rng, duration_s)
        except Exception as exc:  # noqa: BLE001 - a probe must not end the run
            print(f"probe {name} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            results[name] = 0.0
    return results


if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    for probe_name, value in run_probes(1, 1.0).items():
        print(f"{probe_name:40s} {value:14.1f} 1/s")
