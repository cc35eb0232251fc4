"""Perf bench: the TCP wire transport's overhead over loopback.

PR 8 makes the transport pluggable: the same seeded campaign can run
in-process (loopback) or as real OS processes over TCP with the wire
codec carrying every message.  Two budgets in ``BENCH_perf.json``:

* ``transport_tcp_overhead`` — the same 2-edge campaign over loopback
  vs over TCP processes (speedup = loopback-time / TCP-time, so < 1.0
  by construction).  TCP pays process spawn, per-process dataset
  rebuild, codec work and socket hops; the 0.1x floor bounds that at
  ~10x wall-clock, loud enough to catch a reconnect storm, a heartbeat
  busy-loop or a serialization blow-up while tolerating CI noise.  The
  record asserts bit-identical results first — a fast-but-wrong
  transport never records a number.
* ``wire_codec_vs_npz`` — round-tripping a model state dict through the
  wire codec vs the npz serializer (``repro.nn.serialization``, its
  uncompressed mode — the fair baseline: the wire codec does not
  compress either).  The floor (0.5x) guards against the codec becoming
  pathologically slower than the format it replaced on the wire.

Run:  PYTHONPATH=src python benchmarks/bench_transport.py
  or: PYTHONPATH=src python -m pytest benchmarks/bench_transport.py -s
Smoke (tiny shapes, no floors, trajectory untouched — wired into tier-1
via tests/test_bench_transport_smoke.py):
      PYTHONPATH=src python benchmarks/bench_transport.py --smoke
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import emit_perf, perf_record, timed

from repro.distributed.system import ACMEConfig, ACMESystem, run_multiprocess
from repro.distributed.wire import decode_value, encode_value
from repro.models.vit import ViTConfig, VisionTransformer
from repro.nn.serialization import state_dict_nbytes, state_from_bytes, state_to_bytes

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Loopback-time / TCP-time: spawn + rebuild + codec + sockets may cost
#: up to ~10x before the floor trips.
TCP_OVERHEAD_FLOOR = 0.1
#: Wire-codec round-trip vs uncompressed npz round-trip.
CODEC_FLOOR = 0.5


def _campaign_config(smoke: bool) -> ACMEConfig:
    return ACMEConfig(
        num_clusters=2,
        devices_per_cluster=2 if smoke else 3,
        num_classes=4 if smoke else 6,
        samples_per_class=12 if smoke else 24,
        compute_dtype="float64",
        seed=0,
    )


def _campaigns(smoke: bool):
    """Run the same seeded campaign over both transports; assert parity."""
    config = _campaign_config(smoke)
    start = time.perf_counter()
    loop = ACMESystem(config).run()
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    tcp = run_multiprocess(config, edge_timeout=600.0)
    tcp_s = time.perf_counter() - start
    # Overhead is only worth recording for a transport that is *right*.
    if tcp.message_kinds != loop.message_kinds:
        raise AssertionError("TCP kind sequence diverged from loopback")
    if [c.device_accuracies for c in tcp.clusters] != [
        c.device_accuracies for c in loop.clusters
    ]:
        raise AssertionError("TCP accuracies diverged from loopback")
    if tcp.traffic.total_bytes != loop.traffic.total_bytes:
        raise AssertionError("TCP traffic ledger diverged from loopback")
    return loop_s, tcp_s, loop


def _codec_loops(smoke: bool):
    """Round-trip a backbone state dict through both serializers."""
    config = ViTConfig() if not smoke else ViTConfig(embed_dim=16, depth=2, num_heads=2)
    state = VisionTransformer(config, seed=0).state_dict()

    def wire_fn():
        decode_value(encode_value(state))

    def npz_fn():
        state_from_bytes(state_to_bytes(state, compress=False))

    return state, wire_fn, npz_fn


def bench_transport(smoke: bool = False):
    loop_s, tcp_s, loop = _campaigns(smoke)
    state, wire_fn, npz_fn = _codec_loops(smoke)
    reps = dict(repeats=3, warmup=1) if smoke else dict(repeats=7, warmup=2)
    wire_t = timed(wire_fn, **reps)
    npz_t = timed(npz_fn, **reps)
    state_bytes = state_dict_nbytes(state)

    one_run = {"repeats": 1, "warmup": 0}
    return [
        perf_record(
            "transport_tcp_overhead",
            fast={"best_s": tcp_s, "mean_s": tcp_s, **one_run},
            baseline={"best_s": loop_s, "mean_s": loop_s, **one_run},
            floor=None if smoke else TCP_OVERHEAD_FLOOR,
            loopback_s=loop_s,
            tcp_s=tcp_s,
            tcp_over_loopback=tcp_s / max(loop_s, 1e-12),
            mean_accuracy=loop.mean_accuracy,
            messages=len(loop.message_kinds),
            metric="same seeded campaign: speedup = loopback-time / "
            "TCP-time (results asserted bit-identical first; the floor "
            "bounds transport overhead at ~10x wall-clock)",
        ),
        perf_record(
            "wire_codec_vs_npz",
            fast=wire_t,
            baseline=npz_t,
            floor=None if smoke else CODEC_FLOOR,
            state_mb=state_bytes / 1e6,
            arrays=len(state),
            metric="wire-codec state-dict round-trip vs uncompressed npz "
            "round-trip (floor guards codec pathologies)",
        ),
    ]


def run_bench(smoke: bool = False):
    if smoke:
        # Tiny shapes, no floors, committed trajectory untouched — the
        # tier-1 mode proving the bench itself (both transports end to
        # end with parity asserts, the codec loops, record plumbing)
        # cannot rot between perf PRs.
        return emit_perf("bench_transport_smoke", bench_transport(smoke=True))
    return emit_perf(
        "bench_transport",
        bench_transport(),
        path=REPO_ROOT / "BENCH_perf.json",
    )


def test_transport_bench():
    run_bench(smoke="--smoke" in sys.argv)


if __name__ == "__main__":
    run_bench(smoke="--smoke" in sys.argv)
