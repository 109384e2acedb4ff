"""Configuration dataclasses for deployments, protocols and hardware models.

The paper's evaluation (Section 9) varies a small number of knobs: the fault
threshold ``f``, the number of clients, the batch size, the number of WAN
regions, the latency of the trusted hardware, and which protocol runs.  Every
one of those knobs appears here as an explicit field so experiments are plain
data that can be printed, compared and swept.

A value stays a field only while some experiment, benchmark or test sets it
away from its default, because every field enters the cell hash of
:meth:`~repro.runtime.spec.DeploymentSpec.describe`.  A value nothing turns
is a named constant beside its one reader.  The model's crypto costs are
such constants (``CRYPTO_COSTS`` in :mod:`repro.protocols.base`): the paper
varies how many signatures a protocol makes, never their price.
``tests/unit/test_knob_census.py`` lists every settable value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigurationError
from .types import Micros, ms


@dataclass(frozen=True)
class CryptoCostModel:
    """Simulated CPU cost (microseconds) of each cryptographic primitive.

    One table serves every replica (``CRYPTO_COSTS`` in
    :mod:`repro.protocols.base`); no deployment configures it.

    ResilientDB uses CMAC for MACs, ED25519 for signatures and SHA-256 for
    hashing (Section 9.1).  The defaults below are in the ballpark of those
    primitives on a modern server core and, more importantly, preserve their
    *ratios*: a signature costs roughly two orders of magnitude more than a
    MAC, and verification is a little cheaper than signing for MACs but more
    expensive for ED25519 batch-less verification.
    """

    mac_generate_us: Micros = 0.4
    mac_verify_us: Micros = 0.4
    ds_sign_us: Micros = 45.0
    ds_verify_us: Micros = 120.0
    hash_us: Micros = 0.5
    #: verifying a trusted-component attestation = one DS verification plus a
    #: constant for parsing the attested tuple.
    attestation_verify_us: Micros = 125.0
    #: applying one YCSB operation to the key-value store.
    execute_op_us: Micros = 1.5
    #: fixed per-message handling overhead (deserialisation, dispatch).
    message_overhead_us: Micros = 1.0


@dataclass(frozen=True)
class TrustedHardwareSpec:
    """Model of one kind of trusted hardware (Section 9.9).

    ``access_latency_us`` is the time a single counter/log operation occupies
    the (serial) device.  ``persistent`` says whether the component's state
    survives a host-controlled restart; SGX enclave counters do *not*, which is
    exactly the rollback-attack surface of Section 6.
    """

    name: str
    access_latency_us: Micros
    persistent: bool

    def with_latency(self, access_latency_us: Micros) -> "TrustedHardwareSpec":
        """Copy of this spec with a different access latency (Figure 8 sweep)."""
        return replace(self, access_latency_us=access_latency_us)


# Hardware presets used throughout the paper's discussion.
SGX_ENCLAVE_COUNTER = TrustedHardwareSpec(
    name="sgx-enclave-counter", access_latency_us=25.0, persistent=False)
SGX_PERSISTENT_COUNTER = TrustedHardwareSpec(
    name="sgx-persistent-counter", access_latency_us=ms(60.0), persistent=True)
TPM_COUNTER = TrustedHardwareSpec(
    name="tpm", access_latency_us=ms(100.0), persistent=True)
ADAM_CS_COUNTER = TrustedHardwareSpec(
    name="adam-cs", access_latency_us=ms(8.0), persistent=True)
#: A rollback-protected counter at enclave speed: same access latency as
#: SGX_ENCLAVE_COUNTER but persistent.  Recovery experiments use this pair to
#: isolate the effect of *persistence* from the effect of access latency.
ROLLBACK_PROTECTED_COUNTER = TrustedHardwareSpec(
    name="rollback-protected-counter", access_latency_us=25.0, persistent=True)

HARDWARE_PRESETS = {
    spec.name: spec
    for spec in (SGX_ENCLAVE_COUNTER, SGX_PERSISTENT_COUNTER, TPM_COUNTER,
                 ADAM_CS_COUNTER, ROLLBACK_PROTECTED_COUNTER)
}


@dataclass(frozen=True)
class NetworkConfig:
    """Message transport parameters.

    ``region_names`` selects how many of the paper's six regions are used
    (Figure 6(vi)); replicas are assigned to regions round-robin, exactly like
    "use the regions in this order" in Section 9.7.
    """

    region_names: tuple[str, ...] = ("san-jose",)
    seed: int = 7

    def validate(self) -> None:
        if not self.region_names:
            raise ConfigurationError("at least one region is required")


@dataclass(frozen=True)
class WorkloadConfig:
    """YCSB-style workload parameters (Section 9.2)."""

    num_clients: int = 64
    records: int = 6000
    write_fraction: float = 0.5
    #: client requests per signed client message (client-side batching).
    requests_per_client_message: int = 1
    seed: int = 11

    def validate(self) -> None:
        if self.num_clients <= 0:
            raise ConfigurationError("need at least one client")
        if self.records <= 0:
            raise ConfigurationError("the store must hold at least one record")
        if self.requests_per_client_message <= 0:
            raise ConfigurationError(
                "each client message must carry at least one request")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write fraction must be within [0, 1]")


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-protocol tunables common to every replica implementation."""

    batch_size: int = 100
    #: maximum consensus instances a primary may have in flight; 1 models the
    #: sequential trust-bft protocols of Section 7, larger values model the
    #: parallel invocations of bft / FlexiTrust protocols.
    max_outstanding: int = 64
    checkpoint_interval: int = 100
    request_timeout_us: Micros = ms(250.0)
    view_change_timeout_us: Micros = ms(500.0)
    batch_timeout_us: Micros = ms(2.0)
    worker_threads: int = 16

    def validate(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        if self.max_outstanding <= 0:
            raise ConfigurationError("max outstanding must be positive")
        if self.checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint interval must be positive")
        if self.worker_threads <= 0:
            raise ConfigurationError("worker threads must be positive")


@dataclass(frozen=True)
class FaultConfig:
    """Which replicas misbehave and how.

    ``crashed`` replicas silently stop.  ``byzantine`` replicas are handed to
    the adversary strategy configured by the experiment (e.g. the
    responsiveness attack of Section 5 or the rollback attack of Section 6).
    Timed crash/restart/partition scenarios are expressed separately with a
    :class:`~repro.recovery.schedule.FaultSchedule` handed to the deployment.
    """

    crashed: tuple[int, ...] = ()
    byzantine: tuple[int, ...] = ()

    def validate(self, n: int, f: int) -> None:
        overlap = set(self.crashed) & set(self.byzantine)
        if overlap:
            raise ConfigurationError(
                f"replicas {sorted(overlap)} are listed as both crashed and "
                f"byzantine; a replica has exactly one fault kind")
        faulty = set(self.crashed) | set(self.byzantine)
        if len(faulty) > f:
            raise ConfigurationError(
                f"{len(faulty)} faulty replicas configured but the protocol "
                f"only tolerates f={f}")
        for rid in faulty:
            if not 0 <= rid < n:
                raise ConfigurationError(f"faulty replica {rid} out of range")


@dataclass(frozen=True)
class RecoveryConfig:
    """Timing of the durable store every replica seat keeps.

    ``fsync_latency_us`` is the time one write-ahead-log append (or checkpoint
    write) occupies the replica's serial disk; messages produced by the
    writing handler do not leave the replica before the write is durable.
    The defaults model an instantaneous disk, so a failure-free run pays no
    time for durability; recovery experiments raise the latency to price it
    in.
    """

    fsync_latency_us: Micros = 0.0
    #: per-record read cost when replaying the local store at restart.
    replay_latency_us: Micros = 0.0

    def validate(self) -> None:
        if self.fsync_latency_us < 0 or self.replay_latency_us < 0:
            raise ConfigurationError("storage latencies cannot be negative")


@dataclass(frozen=True)
class ExperimentConfig:
    """Run-length and measurement-window parameters."""

    warmup_batches: int = 5
    measured_batches: int = 40
    max_sim_time_us: Micros = 120 * 1_000_000.0
    seed: int = 1

    def validate(self) -> None:
        if self.measured_batches <= 0:
            raise ConfigurationError("need at least one measured batch")
        if self.warmup_batches < 0:
            raise ConfigurationError("warmup batches cannot be negative")


@dataclass(frozen=True)
class DeploymentConfig:
    """Everything needed to build and run one deployment of one protocol."""

    protocol: str = "pbft"
    f: int = 1
    trusted_hardware: TrustedHardwareSpec = SGX_ENCLAVE_COUNTER
    network: NetworkConfig = field(default_factory=NetworkConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    protocol_config: ProtocolConfig = field(default_factory=ProtocolConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def validate(self, n: int) -> None:
        """Check the configuration against the deployment size ``n``."""
        if self.f < 0:
            raise ConfigurationError("f cannot be negative")
        if n <= 0:
            raise ConfigurationError("deployment must have at least one replica")
        self.network.validate()
        self.workload.validate()
        self.protocol_config.validate()
        self.experiment.validate()
        self.faults.validate(n, max(self.f, 0))
        self.recovery.validate()

    def with_updates(self, **kwargs) -> "DeploymentConfig":
        """Functional update helper used heavily by parameter sweeps."""
        return replace(self, **kwargs)


def sequential_variant(config: ProtocolConfig) -> ProtocolConfig:
    """Return a copy of ``config`` restricted to one in-flight consensus.

    Used to build the oFlexi-BFT / oFlexi-ZZ ablations of Section 9.2 and to
    model the inherent sequentiality of trust-bft protocols.
    """
    return replace(config, max_outstanding=1)
