"""Process supervisor: the ACME tiers as real OS processes over TCP.

:func:`run_multiprocess` launches one **cloud process** (serving a
:class:`~repro.distributed.transport.WireHub`) and one **edge process
per cluster** (each hosting its devices on a local
:class:`~repro.distributed.transport.WireFabric` and dialing the hub
through a :class:`~repro.distributed.transport.WireLink`), then merges
the per-edge results and ledgers in edge index order.

Determinism without data on the wire.  Every process rebuilds its slice
of the world locally from ``(ACMEConfig, seed)`` via
:func:`~repro.distributed.system.build_fleet_data` /
:func:`~repro.distributed.system.build_cluster` — dataset partition,
splits, fleet profiles and model init are pure functions of the seed —
so only protocol messages cross the sockets.  Each edge process's
fabric ledger is exactly the loopback run's per-edge shard ledger;
concatenating them in edge index order reproduces the loopback
``kind_sequence()`` and Table-I byte counters bit-for-bit.

Degraded mode, never a hang.  Every wait in the supervisor is bounded:
a killed or wedged edge process is detected (process exit, pipe EOF or
``edge_timeout``), surfaced internally as the protocol's own
:class:`~repro.distributed.faults.DeliveryError`, and folded into the
result as a crashed cluster — ``round_participation`` all zero, a
``"crash"`` entry in ``fault_counts``, one failed delivery — while the
surviving clusters' results stand.  All child processes are reaped on
every exit path (they are also daemonic, so even a dying supervisor
cannot leak them).

Fork-safe workers.  Children are forked where the platform can, and a
parent thread may hold an engine lock at that moment (a
:class:`~repro.distributed.messages.Message` being numbered, a
projection being cached); its owner does not exist in the child, so the
first thing each worker does is rebind every registered module-level
lock (:func:`repro.analysis.registry.reinit_locks_after_fork`).

Test hooks: ``kill_edge``/``kill_point`` make the chosen edge process
SIGKILL *itself* at a deterministic protocol point, which is how the
kill-an-edge integration test produces a real mid-campaign crash.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.analysis import registry
from repro.distributed.faults import DeliveryError
from repro.distributed.metrics import centralized_upload_bytes
from repro.distributed.network import Ledger
from repro.distributed.system import (
    ACMEConfig,
    ACMERunResult,
    ClusterResult,
    arm_fault_policy,
    build_cluster,
    build_fleet_data,
    dtype_scope,
    run_edge_phases,
)
from repro.distributed.transport import TcpTransport, TransportConfig

__all__ = ["run_multiprocess", "KILL_POINTS"]

#: Deterministic self-SIGKILL points for the kill-an-edge hook.
#: ``mid_rounds`` = after one aggregation round, the canonical
#: "mid-campaign" crash; the rest map to ``run_edge_phases`` checkpoints.
KILL_POINTS = ("backbone", "search", "distribute", "mid_rounds", "aggregate")


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------
def _cloud_worker(config: ACMEConfig, tcfg: TransportConfig, conn) -> None:
    """Cloud tier: pretrain/candidates, then serve edges until told to stop."""
    registry.reinit_locks_after_fork()
    transport = None
    try:
        with dtype_scope(config):
            from repro.distributed.cloud import CloudServer
            from repro.models.vit import VisionTransformer

            data = build_fleet_data(config)
            transport = TcpTransport.serve("cloud-hub", tcfg)
            reference = VisionTransformer(config.vit, seed=config.seed)
            cloud = CloudServer(
                reference, data.public_dataset, transport.network, config.cloud
            )
            cloud.pretrain_reference()
            cloud.generate_dynamic_backbone()
            cloud.prepare_candidates()
            conn.send(("ready", transport.port))
        while True:
            command = conn.recv()  # EOF here = the supervisor died
            if command == "stop":
                break
    except EOFError:
        pass
    # reprolint: broad-except -- worker-process boundary: any cloud-tier failure
    # is reported over the pipe for the supervisor to reap; the process exits next
    except Exception:
        with contextlib.suppress(Exception):
            conn.send(("error", traceback.format_exc()))
    finally:
        if transport is not None:
            transport.close()
        with contextlib.suppress(Exception):
            conn.close()


def _edge_worker(
    config: ACMEConfig,
    tcfg: TransportConfig,
    cluster_idx: int,
    conn,
    kill_point: Optional[str],
) -> None:
    """Edge tier: build the cluster locally, dial the hub, run the phases."""
    registry.reinit_locks_after_fork()
    try:
        with dtype_scope(config):
            data = build_fleet_data(config)
            port = conn.recv()  # the supervisor sends it once the hub is up
            if not isinstance(port, int):
                return  # supervisor aborted the launch
            transport = TcpTransport.connect(
                f"edge{cluster_idx}-link", tcfg.host, port, tcfg
            )
            try:
                edge = build_cluster(config, data, cluster_idx, transport.network)
                arm_fault_policy(transport.network, config, [edge])
                transport.start()
                if kill_point == "mid_rounds":
                    # The canonical mid-campaign crash: one aggregation
                    # round done, the rest never happen.
                    edge.request_backbone()
                    edge.search_header()
                    edge.distribute_models()
                    edge.aggregation_loop(num_rounds=1)
                    os.kill(os.getpid(), signal.SIGKILL)
                checkpoint = None
                if kill_point is not None:

                    def checkpoint(phase: str) -> None:
                        if phase == kill_point:
                            os.kill(os.getpid(), signal.SIGKILL)

                result = run_edge_phases(config, edge, checkpoint=checkpoint)
                # Only counters, fault records and kinds travel home:
                # the log's messages (payloads) never cross the pipe.
                ledger = Ledger()
                ledger.absorb(transport.network)
                kinds = ledger.kind_sequence()
                ledger.log.clear()
                conn.send(("result", (result, ledger, kinds)))
            finally:
                transport.close()
    # reprolint: broad-except -- worker-process boundary: any edge-tier failure
    # is reported over the pipe for the supervisor to reap; the process exits next
    except Exception:
        with contextlib.suppress(Exception):
            conn.send(("error", traceback.format_exc()))
    finally:
        with contextlib.suppress(Exception):
            conn.close()


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------
def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _await_report(conn, process, timeout: float, name: str) -> Tuple[str, object]:
    """Wait (bounded) for a worker's report; crash/timeout → DeliveryError."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            if conn.poll(0.2):
                return conn.recv()
        except (EOFError, OSError):
            raise DeliveryError(
                f"{name} process closed its pipe without reporting a result"
            ) from None
        if not process.is_alive():
            # Drain a report that raced the exit.
            with contextlib.suppress(EOFError, OSError):
                if conn.poll(0):
                    return conn.recv()
            raise DeliveryError(
                f"{name} process exited with code {process.exitcode} "
                f"before reporting a result"
            )
        if time.monotonic() > deadline:
            raise DeliveryError(
                f"{name} process produced no result within {timeout}s"
            )


def _degraded_cluster(config: ACMEConfig, cluster_idx: int) -> ClusterResult:
    """The result slot of a crashed edge: zero participation, no evals."""
    return ClusterResult(
        edge_name=f"edge{cluster_idx}",
        width=0.0,
        depth=0,
        round_participation=[0.0] * config.edge.aggregation_rounds,
    )


def _reap(processes: List) -> None:
    """Terminate, then kill, then join every child — no orphans, ever."""
    for process in processes:
        with contextlib.suppress(Exception):
            if process.is_alive():
                process.terminate()
    for process in processes:
        with contextlib.suppress(Exception):
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
    for process in processes:
        with contextlib.suppress(Exception):
            process.close()


def run_multiprocess(
    config: ACMEConfig,
    transport: Optional[TransportConfig] = None,
    edge_timeout: float = 900.0,
    kill_edge: Optional[int] = None,
    kill_point: str = "mid_rounds",
) -> ACMERunResult:
    """Run the full ACME pipeline as separate processes over TCP.

    Parameters
    ----------
    config:
        The same :class:`ACMEConfig` a loopback run takes.  The result
        is bit-for-bit the loopback result for the same seed (asserted
        in ``tests/distributed/test_transport.py``).
    transport:
        TCP liveness/recovery knobs (heartbeat interval and miss
        threshold, request/connect timeouts, reconnect backoff).
    edge_timeout:
        Per-process ceiling (seconds) on cloud readiness and on each
        edge's full pipeline; an overrun degrades that edge instead of
        hanging the run.
    kill_edge / kill_point:
        Fault-injection hook: edge ``kill_edge`` SIGKILLs itself at
        ``kill_point`` (one of :data:`KILL_POINTS`).  The run completes
        degraded: participation < 1.0, a ``"crash"`` fault count, one
        failed delivery.
    """
    cfg = config
    tcfg = transport if transport is not None else TransportConfig()
    if kill_edge is not None and kill_point not in KILL_POINTS:
        raise ValueError(f"kill_point must be one of {KILL_POINTS}, got {kill_point!r}")
    ctx = _mp_context()
    processes: List = []
    conns: List = []
    try:
        cloud_conn, cloud_child = ctx.Pipe()
        conns.append(cloud_conn)
        cloud_proc = ctx.Process(
            target=_cloud_worker,
            args=(cfg, tcfg, cloud_child),
            name="acme-cloud",
            daemon=True,
        )
        cloud_proc.start()
        processes.append(cloud_proc)
        cloud_child.close()

        edge_conns: List = []
        edge_procs: List = []
        for cluster_idx in range(cfg.num_clusters):
            parent_conn, child_conn = ctx.Pipe()
            conns.append(parent_conn)
            process = ctx.Process(
                target=_edge_worker,
                args=(
                    cfg,
                    tcfg,
                    cluster_idx,
                    child_conn,
                    kill_point if kill_edge == cluster_idx else None,
                ),
                name=f"acme-edge{cluster_idx}",
                daemon=True,
            )
            process.start()
            processes.append(process)
            child_conn.close()
            edge_conns.append(parent_conn)
            edge_procs.append(process)

        # The cloud's "ready" carries the bound port; edges idle on their
        # pipes (rebuilding their data meanwhile) until it arrives.
        try:
            status, payload = _await_report(
                cloud_conn, cloud_proc, edge_timeout, "cloud"
            )
        except DeliveryError as exc:
            raise RuntimeError(f"cloud process failed to start: {exc}") from exc
        if status == "error":
            raise RuntimeError(f"cloud process failed:\n{payload}")
        port = int(payload)
        for parent_conn in edge_conns:
            with contextlib.suppress(Exception):
                parent_conn.send(port)

        clusters: List[ClusterResult] = []
        ledgers: List[Optional[Tuple[Ledger, List[str]]]] = []
        crashes: List[Tuple[int, DeliveryError]] = []
        for cluster_idx, (parent_conn, process) in enumerate(
            zip(edge_conns, edge_procs)
        ):
            try:
                status, payload = _await_report(
                    parent_conn, process, edge_timeout, f"edge{cluster_idx}"
                )
            except DeliveryError as exc:
                # The degraded path: the crash becomes a recorded fault
                # and a zero-participation cluster, not a dead run.
                crashes.append((cluster_idx, exc))
                clusters.append(_degraded_cluster(cfg, cluster_idx))
                ledgers.append(None)
                continue
            if status == "error":
                raise RuntimeError(f"edge{cluster_idx} process failed:\n{payload}")
            result, ledger, kinds = payload
            clusters.append(result)
            ledgers.append((ledger, kinds))

        with contextlib.suppress(Exception):
            cloud_conn.send("stop")
        cloud_proc.join(timeout=10.0)
        return _merge_results(cfg, clusters, ledgers, crashes)
    finally:
        _reap(processes)
        for conn in conns:
            with contextlib.suppress(Exception):
                conn.close()


def _merge_results(
    cfg: ACMEConfig,
    clusters: List[ClusterResult],
    ledgers: List[Optional[Tuple[Ledger, List[str]]]],
    crashes: List[Tuple[int, DeliveryError]],
) -> ACMERunResult:
    """Fold per-edge ledgers (edge index order — the parity contract)."""
    total = Ledger()
    kinds: List[str] = []
    edge_kinds: Dict[str, List[str]] = {}
    for cluster_idx, report in enumerate(ledgers):
        if report is None:
            continue
        ledger, sequence = report
        total.absorb(ledger)
        kinds.extend(sequence)
        edge_kinds[f"edge{cluster_idx}"] = sequence
    fault_counts = total.fault_counts()
    if crashes:
        # DeliveryError-derived: the supervisor's liveness check raised
        # them; the counters speak the fault ledger's language.
        fault_counts["crash"] = len(crashes)
    data = build_fleet_data(cfg)
    return ACMERunResult(
        clusters=clusters,
        traffic=total.stats,
        centralized_upload_bytes=centralized_upload_bytes(data.device_datasets),
        message_kinds=kinds,
        edge_message_kinds=edge_kinds,
        fault_counts=fault_counts,
        total_retries=total.retry_count,
        delivery_attempts=total.delivery_attempts,
        failed_deliveries=total.failed_deliveries + len(crashes),
    )
