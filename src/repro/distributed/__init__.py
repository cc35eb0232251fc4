"""The bidirectional single-loop distributed system (cloud/edge/device)."""

from repro.distributed.cloud import CloudConfig, CloudServer
from repro.distributed.device import DeviceNode
from repro.distributed.edge import EdgeConfig, EdgeServer
from repro.distributed.executor import (
    ExecutionPlan,
    WorkerSpec,
    parallel_map,
    resolve_workers,
)
from repro.distributed.faults import (
    DeliveryError,
    FaultConfig,
    FaultDecision,
    FaultPolicy,
    FaultRecord,
    ProtocolError,
    TransportFailure,
)
from repro.distributed.messages import Message, MessageKind, payload_nbytes
from repro.distributed.metrics import (
    NormalizedTradeoff,
    centralized_upload_bytes,
    energy_efficiency_ratio,
    size_efficiency_ratio,
)
from repro.distributed.network import Ledger, Network, NetworkShard, TrafficStats
from repro.distributed.system import (
    ACMEConfig,
    ACMERunResult,
    ACMESystem,
    ClusterResult,
    run_multiprocess,
)
from repro.distributed.transport import (
    TcpTransport,
    TransportConfig,
)
from repro.distributed.wire import WireError

__all__ = [
    "ACMEConfig",
    "ACMERunResult",
    "ACMESystem",
    "CloudConfig",
    "CloudServer",
    "ClusterResult",
    "DeliveryError",
    "DeviceNode",
    "EdgeConfig",
    "EdgeServer",
    "ExecutionPlan",
    "FaultConfig",
    "FaultDecision",
    "FaultPolicy",
    "FaultRecord",
    "Ledger",
    "Message",
    "MessageKind",
    "Network",
    "NetworkShard",
    "NormalizedTradeoff",
    "ProtocolError",
    "TcpTransport",
    "TrafficStats",
    "TransportConfig",
    "TransportFailure",
    "WireError",
    "WorkerSpec",
    "centralized_upload_bytes",
    "energy_efficiency_ratio",
    "parallel_map",
    "payload_nbytes",
    "resolve_workers",
    "run_multiprocess",
    "size_efficiency_ratio",
]
