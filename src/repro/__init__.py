"""repro — reproduction of "Dissecting BFT Consensus: In Trusted Components we Trust!"

The package is organised bottom-up:

* :mod:`repro.sim`, :mod:`repro.net`, :mod:`repro.crypto`, :mod:`repro.trusted`,
  :mod:`repro.execution`, :mod:`repro.workload` — the substrates (event kernel,
  network, crypto, trusted components, state machine, YCSB clients).
* :mod:`repro.protocols` — the ten consensus protocols of the evaluation.
* :mod:`repro.core` — the paper's contribution: the FlexiTrust transformation,
  the Figure 1 analysis, and the Section 5–7 claims as table rows.
* :mod:`repro.recovery` — crash recovery: durable replica stores, timed fault
  schedules, and peer state transfer for restart/rejoin scenarios.
* :mod:`repro.runtime` — deployments, metrics, and the per-figure experiments.
* :mod:`repro.sharding` — scale-out: many consensus groups over a partitioned
  keyspace, driven by cross-shard clients.

Quickstart::

    from repro import DeploymentConfig, Deployment

    config = DeploymentConfig(protocol="flexi-zz", f=1)
    result = Deployment(config).run_until_target(target_requests=200)
    print(result.metrics.throughput_tx_s)
"""

from .common import (
    CryptoCostModel,
    DeploymentConfig,
    ExperimentConfig,
    FaultConfig,
    HARDWARE_PRESETS,
    NetworkConfig,
    ProtocolConfig,
    ROLLBACK_PROTECTED_COUNTER,
    RecoveryConfig,
    SGX_ENCLAVE_COUNTER,
    SGX_PERSISTENT_COUNTER,
    TPM_COUNTER,
    TrustedHardwareSpec,
    WorkloadConfig,
)
from .core import (
    claims_table,
    figure1_table,
    responsiveness_row,
    rollback_row,
    sequentiality_row,
    transform,
)
from .protocols import PROTOCOLS, get_protocol, protocol_names
from .recovery import (
    DurableStore,
    FaultSchedule,
    crash_at,
    heal_at,
    partition_at,
    restart_at,
)
from .backends import BACKENDS, Backend, resolve_backend
from .runtime import (
    Deployment,
    DeploymentSpec,
    ExperimentScale,
    PAPER_SCALE,
    RunResult,
    SMALL_SCALE,
)
from .sharding import ShardRouter, ShardedDeployment

__version__ = "1.2.0"

__all__ = [
    "BACKENDS",
    "Backend",
    "CryptoCostModel",
    "Deployment",
    "DeploymentConfig",
    "DeploymentSpec",
    "DurableStore",
    "ExperimentConfig",
    "ExperimentScale",
    "FaultConfig",
    "FaultSchedule",
    "HARDWARE_PRESETS",
    "NetworkConfig",
    "PAPER_SCALE",
    "PROTOCOLS",
    "ProtocolConfig",
    "ROLLBACK_PROTECTED_COUNTER",
    "RecoveryConfig",
    "RunResult",
    "SGX_ENCLAVE_COUNTER",
    "SGX_PERSISTENT_COUNTER",
    "SMALL_SCALE",
    "ShardRouter",
    "ShardedDeployment",
    "TPM_COUNTER",
    "TrustedHardwareSpec",
    "WorkloadConfig",
    "__version__",
    "claims_table",
    "crash_at",
    "figure1_table",
    "get_protocol",
    "heal_at",
    "partition_at",
    "protocol_names",
    "resolve_backend",
    "responsiveness_row",
    "restart_at",
    "rollback_row",
    "sequentiality_row",
    "transform",
]
