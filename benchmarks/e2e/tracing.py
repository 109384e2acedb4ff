"""Span tracing installed from outside the program, for the traced run only.

``Tracer.install()`` replaces, at run time, the public entry points of each
layer (the package names under ``src/repro``) with wrappers that keep a span
stack.  A span has a name, a layer, a start, an end and a parent; its *self
time* is its duration minus the part its child spans cover, so the self
times of all spans add up to the traced wall time exactly.

Callbacks are traced where they cross a layer boundary: whatever is handed
to a kernel (``schedule*``), a worker pool, a serial device or a ``Timer``
runs later inside a span of the layer that *defines* the callback.  What a
kernel's ``run`` does not hand to such a child — heap pops, the stop test,
on the live backend the asyncio loop and its idle waits — is the kernel's
own self time.

The cyclic garbage collector runs wherever an allocation happens to cross
its threshold, which would charge a pause to whichever span was allocating
at that moment; ``gc.callbacks`` times each collection instead, takes it
out of the open span and reports it as its own ``gc`` bucket.

Tracing costs time in every span.  ``calibrate()`` measures the cost per
span in the span itself and in its parent; ``layer_self_ns()`` moves that
estimate out of the layers into a separate ``trace`` bucket, so the layer
values approximate the untraced program while still adding up to the total.

Nothing here is imported by the timed run.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from functools import partial

#: layers reported as ``host_us_per_tx.<layer>``; ``other`` is the harness
#: and any module outside the named packages, ``gc`` the interpreter's
#: cyclic collector, ``trace`` the tracer itself.
LAYERS = ("sim", "realtime", "net", "net.wire", "net.tcp", "crypto",
          "trusted", "execution", "protocols", "recovery", "workload",
          "runtime.metrics", "other", "gc", "trace")

#: Worker pools, serial devices and timers live in ``repro.sim`` /
#: ``repro.kernel`` but run on whichever kernel drives the deployment; their
#: time belongs to that kernel's layer (``sim`` or ``realtime``), so the
#: simulator's layer reads zero on a live workload and the reverse.
KERNEL = "<kernel>"

#: module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.net.wire", "net.wire"),
    ("repro.net.tcp", "net.tcp"),
    ("repro.net", "net"),
    ("repro.sim.kernel", "sim"),
    ("repro.sim", KERNEL),
    ("repro.kernel", KERNEL),
    ("repro.realtime", "realtime"),
    ("repro.crypto", "crypto"),
    ("repro.trusted", "trusted"),
    ("repro.execution", "execution"),
    ("repro.protocols", "protocols"),
    ("repro.recovery", "recovery"),
    ("repro.workload", "workload"),
    ("repro.runtime.metrics", "runtime.metrics"),
)

#: (module, class, method, layer[, index of a callback argument to trace]).
_METHODS = (
    ("repro.sim.kernel", "Simulator", "run", "sim"),
    ("repro.sim.kernel", "Simulator", "schedule_at", "sim", 2),
    ("repro.sim.kernel", "Simulator", "schedule_call", "sim", 2),
    ("repro.realtime.kernel", "AsyncioKernel", "run_until", "realtime"),
    ("repro.realtime.kernel", "AsyncioKernel", "schedule", "realtime", 2),
    ("repro.realtime.kernel", "AsyncioKernel", "schedule_at", "realtime", 2),
    ("repro.kernel", "Timer", "__init__", KERNEL, 2),
    ("repro.sim.resources", "WorkerPool", "submit", KERNEL, 2),
    ("repro.sim.resources", "SerialDevice", "reserve", KERNEL),
    ("repro.sim.resources", "SerialDevice", "reserve_and_call", KERNEL, 1),
    ("repro.net.network", "Network", "send", "net"),
    ("repro.net.network", "Network", "broadcast", "net"),
    ("repro.net.tcp", "TcpTransport", "_schedule_delivery", "net.tcp"),
    ("repro.net.tcp", "TcpTransport", "_on_frame", "net.tcp"),
    ("asyncio.streams", "StreamWriter", "write", "net.tcp"),
    ("repro.net.wire", "WireCodec", "encode_frame", "net.wire"),
    ("repro.net.wire", "WireCodec", "decode_payload_traced", "net.wire"),
    ("repro.crypto.signatures", "SigningKey", "sign", "crypto"),
    ("repro.crypto.signatures", "SigningKey", "sign_bytes", "crypto"),
    ("repro.crypto.signatures", "MacKey", "generate", "crypto"),
    ("repro.crypto.signatures", "MacKey", "verify", "crypto"),
    ("repro.crypto.keystore", "KeyStore", "sign", "crypto"),
    ("repro.crypto.keystore", "KeyStore", "verify", "crypto"),
    ("repro.crypto.keystore", "KeyStore", "verify_encoded", "crypto"),
    ("repro.crypto.keystore", "KeyStore", "is_valid", "crypto"),
    ("repro.crypto.keystore", "KeyStore", "is_valid_encoded", "crypto"),
    ("repro.crypto.keystore", "KeyStore", "mac", "crypto"),
    ("repro.crypto.keystore", "KeyStore", "verify_mac", "crypto"),
    ("repro.trusted.component", "TrustedComponentHost", "counter_append",
     "trusted"),
    ("repro.trusted.component", "TrustedComponentHost", "log_append",
     "trusted"),
    ("repro.trusted.component", "TrustedComponentHost", "log_lookup",
     "trusted"),
    ("repro.trusted.component", "TrustedComponentHost", "append_f", "trusted"),
    ("repro.trusted.component", "TrustedComponentHost", "create_counter",
     "trusted"),
    ("repro.execution.kvstore", "KeyValueStore", "apply", "execution"),
    ("repro.execution.kvstore", "KeyValueStore", "state_digest", "execution"),
    ("repro.execution.kvstore", "KeyValueStore", "snapshot", "execution"),
    ("repro.execution.kvstore", "KeyValueStore", "restore", "execution"),
    ("repro.execution.ledger", "Ledger", "record", "execution"),
    ("repro.execution.ledger", "Ledger", "truncate_below", "execution"),
    ("repro.execution.safety", "SafetyMonitor", "record_execution",
     "execution"),
    ("repro.recovery.store", "DurableStore", "append_batch", "recovery"),
    ("repro.recovery.store", "DurableStore", "save_checkpoint", "recovery"),
    ("repro.recovery.store", "DurableStore", "wal_suffix", "recovery"),
    ("repro.protocols.base", "BaseReplica", "receive", "protocols"),
    ("repro.protocols.base", "BaseReplica", "dispatch", "protocols"),
    ("repro.protocols.base", "BaseReplica", "execute_batch", "protocols"),
    ("repro.protocols.base", "BaseReplica", "begin_recovery", "protocols"),
    ("repro.workload.client", "Client", "submit", "workload"),
    ("repro.workload.client", "Client", "receive", "workload"),
    ("repro.workload.client", "Client", "abandon_pending", "workload"),
    ("repro.workload.ycsb", "YcsbWorkload", "next_operations", "workload"),
    ("repro.runtime.metrics", "MetricsCollector", "record_submission",
     "runtime.metrics"),
    ("repro.runtime.metrics", "MetricsCollector", "record_completion",
     "runtime.metrics"),
    ("repro.runtime.metrics", "MetricsCollector", "record_abandonment",
     "runtime.metrics"),
)

#: module-level functions other layers import by name: (module, name, layer).
#: They are rebound in every importing module of a *different* layer, so a
#: call from outside the layer opens a span and the layer's own recursion
#: does not.
_FUNCTIONS = (
    ("repro.crypto.digest", "digest", "crypto"),
    ("repro.crypto.digest", "canonical_bytes", "crypto"),
    ("repro.crypto.digest", "combine_digests", "crypto"),
    ("repro.crypto.digest", "encode_fixed_attrs", "crypto"),
    ("repro.crypto.digest", "encode_fixed_key_dict", "crypto"),
)

#: spans whose calls count work at a boundary, keyed by metric.
COUNTED = {
    "signs": (("crypto", "SigningKey.sign_bytes"),),
    "verifies": (("crypto", "KeyStore.verify_encoded"),),
    "frames": (("net.wire", "WireCodec.encode_frame"),),
}


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _request_id(args, result):
    """The request id a call carries, for the raw span sample only."""
    for value in (result,) + args[1:3]:
        value = getattr(value, "payload", value)
        rid = getattr(value, "request_id", None)
        if rid is not None:
            return str(rid)
        if type(value).__name__ == "RequestId":
            return str(value)
    return None


class Tracer:
    """Span stack, per-(layer, function) aggregates, capped raw sample."""

    def __init__(self, kernel_layer: str = "sim",
                 sample_cap: int = 20_000) -> None:
        #: ``sim`` or ``realtime``: the layer of the kernel-side machinery.
        self.kernel_layer = kernel_layer
        #: (layer, name) -> [calls, self_ns, total_ns, child spans]
        self.cells: dict = {}
        #: one frame per open span: [child_ns, child spans, span id]
        self._stack: list = [[0, 0, 0]]
        self._next_id = 1
        self._sample_cap = sample_cap
        self.samples: list = []
        #: bytes returned by the frame encoder, summed at the boundary.
        self.frame_bytes = 0
        self._restore: list = []
        self._described: dict = {}
        self._origin_ns = 0
        self._active = False
        self._gc_started = 0
        self.gc_ns = 0
        self.total_ns = 0
        #: estimated tracer cost per span, inside it and in its parent.
        self.inner_ns = 0.0
        self.outer_ns = 0.0

    # ------------------------------------------------------------- wrapping
    def wrap(self, fn, layer: str, name: str, callback_index=None):
        """``fn`` with a span around every call."""
        if layer == KERNEL:
            layer = self.kernel_layer
        cell = self.cells.setdefault((layer, name), [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        wrap_callback = self.wrap_callback
        sample = self._sample

        def traced(*args, **kwargs):
            if callback_index is not None and len(args) > callback_index:
                callback = args[callback_index]
                if callback is not None:
                    args = (args[:callback_index] + (wrap_callback(callback),)
                            + args[callback_index + 1:])
            if not self._active:
                # Outside the root span (deployment build, teardown):
                # callbacks are still traced for when they fire inside it.
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [0, 0, span_id]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                cell[0] += 1
                cell[1] += duration - frame[0]
                cell[2] += duration
                cell[3] += frame[1]
                parent = stack[-1]
                parent[0] += duration
                parent[1] += 1
                if span_id <= self._sample_cap:
                    sample(span_id, parent[2], layer, name, start, end,
                           args, result)

        return traced

    def wrap_callback(self, callback):
        """A deferred call, traced in the layer that defines it."""
        if getattr(callback, "__code__", None) is _TRACED_CODE:
            return callback
        target = callback
        while isinstance(target, partial):
            target = target.func
        target = getattr(target, "__func__", target)
        described = self._described.get(target)
        if described is None:
            described = (layer_of_module(getattr(target, "__module__", "")),
                         getattr(target, "__qualname__", repr(target)))
            self._described[target] = described
        return self.wrap(callback, *described)

    def _sample(self, span_id, parent_id, layer, name, start, end, args,
                result) -> None:
        self.samples.append({
            "id": span_id, "parent": parent_id, "layer": layer, "name": name,
            "start_us": (start - self._origin_ns) / 1_000.0,
            "end_us": (end - self._origin_ns) / 1_000.0,
            "request": _request_id(args, result)})

    # ----------------------------------------------------------- installing
    def install(self) -> list:
        """Patch every target that exists; returns the ones that do not."""
        missing = []
        for module_name, class_name, method, layer, *callback in _METHODS:
            try:
                owner = getattr(importlib.import_module(module_name),
                                class_name)
                original = owner.__dict__[method]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{class_name}.{method}")
                continue
            label = class_name if method == "__init__" else f"{class_name}.{method}"
            setattr(owner, method, self.wrap(original, layer, label,
                                             *callback))
            self._restore.append((owner, method, original))
        if ("net.wire", "WireCodec.encode_frame") in self.cells:
            self._count_frame_bytes()
        for module_name, name, layer in _FUNCTIONS:
            try:
                original = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{name}")
                continue
            traced = self.wrap(original, layer, name)
            for importer_name, importer in list(sys.modules.items()):
                if (importer is None or not importer_name.startswith("repro")
                        or layer_of_module(importer_name) == layer):
                    continue
                if importer.__dict__.get(name) is original:
                    setattr(importer, name, traced)
                    self._restore.append((importer, name, original))
        gc.callbacks.append(self._on_gc)
        return missing

    def _count_frame_bytes(self) -> None:
        """Sum encoded frame lengths at the codec boundary."""
        from repro.net.wire import WireCodec

        traced = WireCodec.encode_frame

        def encode_frame(codec, value, trace=None):
            frame = traced(codec, value, trace)
            self.frame_bytes += len(frame)
            return frame

        WireCodec.encode_frame = encode_frame

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._active:
            return
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started:
            pause = time.perf_counter_ns() - self._gc_started
            self._gc_started = 0
            self.gc_ns += pause
            # Counted as covered time of the open span, like a child.
            self._stack[-1][0] += pause

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -------------------------------------------------------------- running
    def run(self, fn):
        """Run ``fn()`` as a root span; its self time is layer ``other``.

        Only calls made inside a root span are recorded, and successive
        root spans add up, so a repetition of several deployments traces
        exactly the driving calls the untraced run times.
        """
        root = self._stack[0]
        root[0] = root[1] = 0
        start = time.perf_counter_ns()
        if not self._origin_ns:
            self._origin_ns = start
        self._active = True
        try:
            return fn()
        finally:
            self._active = False
            duration = time.perf_counter_ns() - start
            self.total_ns += duration
            cell = self.cells.setdefault(("other", "harness"), [0, 0, 0, 0])
            cell[0] += 1
            cell[1] += duration - root[0]
            cell[2] += duration
            cell[3] += root[1]

    def calibrate(self, calls: int = 50_000) -> None:
        """Estimate the tracer's own cost per span.

        A traced no-op called in a loop from a traced parent: the no-op's
        self time is the cost inside a span, the parent's self time minus
        the same loop over the bare no-op is the cost a span adds to its
        parent.
        """
        def noop():
            return None

        def loop(fn):
            for _ in range(calls):
                fn()

        probe = Tracer(sample_cap=0)
        traced_noop = probe.wrap(noop, "cal", "noop")
        traced_loop = probe.wrap(loop, "cal", "loop")
        probe.run(lambda: traced_loop(traced_noop))
        start = time.perf_counter_ns()
        loop(noop)
        bare_ns = time.perf_counter_ns() - start
        self.inner_ns = probe.cells[("cal", "noop")][1] / calls
        self.outer_ns = max(
            0.0, (probe.cells[("cal", "loop")][1] - bare_ns) / calls)

    # ------------------------------------------------------------ reporting
    def layer_self_ns(self) -> dict:
        """Self time per layer, tracer cost moved to the ``trace`` bucket."""
        layers = dict.fromkeys(LAYERS, 0.0)
        layers["gc"] = float(self.gc_ns)
        for (layer, _), (calls, self_ns, _, children) in self.cells.items():
            cost = min(float(self_ns),
                       calls * self.inner_ns + children * self.outer_ns)
            layers[layer] = layers.get(layer, 0.0) + self_ns - cost
            layers["trace"] += cost
        return layers

    def calls(self, keys) -> int:
        return sum(self.cells.get(key, (0,))[0] for key in keys)

    def kernel_residual_ns(self) -> int:
        """Self time of the kernels' run loops (not handed to any child)."""
        return sum(self.cells.get(key, (0, 0))[1] for key in (
            ("sim", "Simulator.run"), ("realtime", "AsyncioKernel.run_until")))

    def write(self, path_prefix: str, header: dict) -> None:
        """Aggregates as JSON, the raw span sample as JSON lines."""
        functions = [
            {"layer": layer, "function": name, "calls": calls,
             "self_us": self_ns / 1_000.0, "total_us": total_ns / 1_000.0,
             "child_spans": children}
            for (layer, name), (calls, self_ns, total_ns, children)
            in sorted(self.cells.items(), key=lambda item: -item[1][1])]
        summary = dict(header, total_us=self.total_ns / 1_000.0,
                       tracer_inner_ns=self.inner_ns,
                       tracer_outer_ns=self.outer_ns,
                       layer_self_us={layer: ns / 1_000.0 for layer, ns
                                      in self.layer_self_ns().items()},
                       functions=functions,
                       spans_sampled=len(self.samples))
        with open(path_prefix + ".summary.json", "w") as handle:
            json.dump(summary, handle, indent=1)
        with open(path_prefix + ".spans.jsonl", "w") as handle:
            for span in sorted(self.samples, key=lambda s: s["id"]):
                handle.write(json.dumps(span) + "\n")


_TRACED_CODE = Tracer().wrap(lambda: None, "cal", "code").__code__
