"""One invocation = one workload: set up, measure, gate, print.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics: the named workload's
traced pass (interleaved with untraced repetitions, whose difference is
the tracing overhead), one traced pass of each *other* workload (their
spans are the remaining layers' numbers, so every invocation reports
the whole layer profile), and the layer probes.  End-to-end metrics
never come from a traced pass.

Nothing is printed unless every gate holds: one digest per
``(workload, seed)`` across the warm-up, every repetition and every
traced pass (which is also the TCP-equals-loopback gate and the
benchmark-loop-equals-``run_scale_campaign`` gate, since those warm-ups
run the other path), the pinned digests of ``expected.json`` on the host
they were recorded on, and no child process, non-daemon thread or file
descriptor left behind.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Whole set-ups per ``--trace 0`` invocation; ``setup_s`` is their median.
SETUP_REPEATS = 3
MIN_REPS = 3
#: A ``one_cpu`` workload changes CPU this often: seldom enough that the
#: repetition after a move (cold L2, ~8 % slower) is one of many.
PLACE_SECONDS = 3.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _place(cpus) -> None:
    """Move every thread of this process onto ``cpus``."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread ended between the listing and the call
            pass


def _stray_threads() -> List[str]:
    main = threading.main_thread()
    return [
        t.name
        for t in threading.enumerate()
        if t is not main and not t.daemon and t.is_alive()
    ]


class Invocation:
    """Shared state of one ``--workload`` run; see the module docstring."""

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool, out: Path):
        start = time.perf_counter()
        try:
            from . import host, workloads  # imports repro: part of set-up
        except ModuleNotFoundError as error:
            raise SystemExit(
                f"cannot import the program under test ({error}); "
                f"is {ROOT / 'src'} in this checkout?"
            )

        self.import_s = time.perf_counter() - start
        self.host = host
        self.workloads = workloads
        if name not in workloads.WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.out = out
        self.spec = load_spec()
        self.fingerprint = host.fingerprint()
        self.fds = _open_fds()
        self.digests: Dict[str, dict] = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.placed, self.placed_at = 0, time.perf_counter()

    # -- gates ----------------------------------------------------------
    def check_replay(self, workload, outcome, what: str) -> None:
        """One digest per (workload, seed), whatever path produced it."""
        reference = self.digests.setdefault(workload.name, workload.warm.digest)
        if outcome.digest != reference:
            raise self.workloads.GateError(
                f"{workload.name} seed {self.seed}: {what} broke the replay "
                f"contract: {self.workloads.digest_diff(reference, outcome.digest)}"
            )

    def check_pinned(self, workload) -> None:
        """Digests recorded on the parent commit, on the recording host."""
        if self.smoke:
            return
        pinned = json.loads((HERE / "expected.json").read_text())
        if any(self.fingerprint.get(k) != v for k, v in pinned["host"].items()):
            print(
                f"note: expected.json was recorded on another host "
                f"({pinned['host']}); pinned-digest gate skipped",
                file=sys.stderr,
            )
            return
        want = pinned["digests"].get(workload.name, {}).get(str(self.seed))
        got = json.loads(json.dumps(self.digests[workload.name]))
        if want is not None and want != got:
            raise self.workloads.GateError(
                f"{workload.name} seed {self.seed}: digest differs from the one "
                f"pinned in expected.json: {self.workloads.digest_diff(want, got)}"
            )

    def check_leaks(self) -> None:
        deadline = time.monotonic() + 3.0
        while True:
            gc.collect()
            problems = []
            children = self.workloads.live_children()
            threads = _stray_threads()
            extra_fds = _open_fds() - self.fds
            if children:
                problems.append(f"live child processes {children}")
            if threads:
                problems.append(f"non-daemon threads {threads}")
            if extra_fds > 0:
                problems.append(f"{extra_fds} extra file descriptors")
            if not problems:
                return
            if time.monotonic() > deadline:
                raise self.workloads.GateError(
                    f"{self.name}: left behind " + ", ".join(problems)
                )
            time.sleep(0.05)

    # -- measurement ----------------------------------------------------
    def timed(self, workload, fn):
        """(outcome, wall, cpu) of one repetition, collector quiesced.

        A ``one_cpu`` workload runs each repetition with all its threads
        on a single CPU, moving to the next CPU of the affinity mask
        every ``PLACE_SECONDS``.  A vCPU of this kind of host is slowed
        ~1.5x whenever a neighbour lands on its hyperthread sibling, for
        seconds to minutes and largely independently of the other vCPU
        (README, "Noise"); a thread the kernel leaves on one vCPU reads
        that vCPU's luck for the whole run, while the fastest repetition
        of a run that visits both reads the quieter one's.
        """
        gc.collect()
        if workload.one_cpu:
            now = time.perf_counter()
            if now - self.placed_at >= PLACE_SECONDS:
                self.placed, self.placed_at = self.placed + 1, now
            _place({self.cpus[self.placed % len(self.cpus)]})
        try:
            cpu0 = self.workloads.cpu_seconds()
            start = time.perf_counter()
            outcome = fn()
            wall = time.perf_counter() - start
            cpu = self.workloads.cpu_seconds() - cpu0
        finally:
            if workload.one_cpu:
                _place(set(self.cpus))
        return outcome, wall, cpu

    def end_to_end(self) -> dict:
        from .stats import steady, summary

        workload = self.workloads.WORKLOADS[self.name](self.seed, self.smoke)
        setups = []
        repeats = 1 if self.smoke else SETUP_REPEATS
        for index in range(repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append(self.import_s + time.perf_counter() - start)
            if index + 1 < repeats:
                workload.teardown()
        walls: List[float] = []
        cpus: List[float] = []
        outcome = None
        began = time.perf_counter()
        while True:
            outcome, wall, cpu = self.timed(workload, workload.run)
            self.check_replay(workload, outcome, f"repetition {len(walls)}")
            walls.append(wall)
            cpus.append(cpu)
            elapsed = time.perf_counter() - began
            # Never start a repetition that would mostly overrun.
            if len(walls) >= (2 if self.smoke else MIN_REPS) and (
                elapsed + 0.5 * statistics.median(walls) >= self.seconds
            ):
                break
        workload.teardown()
        self.check_pinned(workload)
        self.check_leaks()
        peak_kb = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        metrics = {
            "setup_s": statistics.median(setups),
            "campaign_s": steady(walls),
            "cpu_s": steady(cpus),
            "peak_rss_mb": peak_kb / 1024.0,
            "upload_mb": outcome.upload_bytes / 1e6,
            "total_mb": outcome.total_bytes / 1e6,
        }
        detail = {
            "samples": {"setup_s": setups, "campaign_s": walls, "cpu_s": cpus},
            "summary": {
                "setup_s": summary(setups),
                "campaign_s": summary(walls),
                "cpu_s": summary(cpus),
            },
            "throughput": {
                "unit": f"{workload.unit}/s",
                "value": outcome.units / steady(walls),
            },
            "import_s": self.import_s,
        }
        return self.result(outcome, metrics, "end_to_end", detail)

    def layer_profile(self) -> dict:
        from . import probes
        from .spans import SpanRecorder
        from .stats import steady

        metrics: Dict[str, float] = {}
        detail: Dict[str, object] = {"self_time": {}}
        named_outcome = None
        for name, cls in self.workloads.WORKLOADS.items():
            workload = cls(self.seed, self.smoke)
            workload.setup()
            named = name == self.name
            pairs = 1
            if named and not self.smoke:
                # Half the run's seconds, split between traced and untraced.
                pairs = int(self.seconds / 4 // max(workload.warm_s, 1e-3))
                pairs = min(max(pairs, 2), 6)
            plain: List[float] = []
            traced: List[float] = []
            per_rep: List[Dict[str, float]] = []
            for run in range(pairs):
                if named:
                    outcome, wall, _ = self.timed(workload, workload.run)
                    self.check_replay(workload, outcome, f"untraced pass {run}")
                    plain.append(wall)
                rec = SpanRecorder(name, run)
                outcome, wall, _ = self.timed(workload, lambda: workload.run_traced(rec))
                self.check_replay(workload, outcome, f"traced pass {run}")
                traced.append(wall / workload.traced_regions)
                per_rep.append(workload.layer_metrics(rec, outcome))
                rec.write(self.out / "traces")
                detail["self_time"][name] = rec.self_times()
                if named:
                    named_outcome = outcome
                    per_rep[-1]["system.unattributed_share"] = rec.unattributed_share()
            for key in per_rep[0]:
                metrics[key] = statistics.median(rep[key] for rep in per_rep)
            if named:
                metrics["trace.overhead_share"] = steady(traced) / steady(plain) - 1.0
                detail["overhead"] = {"traced_s": traced, "untraced_s": plain}
            workload.teardown()
            self.check_pinned(workload)
        self.check_leaks()
        metrics.update(probes.run_probes(self.smoke))
        metrics["host.calib_ms"] = steady(self.host.calib_samples(8 if self.smoke else 40))
        return self.result(named_outcome, metrics, "per_layer", detail)

    # -- output ---------------------------------------------------------
    def result(self, outcome, metrics: Dict[str, float], section: str, detail: dict) -> dict:
        declared = {m["name"]: m["unit"] for m in self.spec[section]}
        if set(metrics) != set(declared):
            raise self.workloads.GateError(
                f"emitted {section} names differ from BENCHMARK.json: "
                f"missing {sorted(set(declared) - set(metrics))}, "
                f"undeclared {sorted(set(metrics) - set(declared))}"
            )
        line = {
            "correct": True,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": declared[name]}
                for name in declared
            },
        }
        detail.update(
            workload=self.name,
            seed=self.seed,
            smoke=self.smoke,
            section=section,
            host=self.fingerprint,
            digest=self.digests[self.name],
            digests=self.digests,
            result=line,
        )
        self.out.mkdir(parents=True, exist_ok=True)
        trace = 0 if section == "end_to_end" else 1
        path = self.out / f"{self.name}.seed{self.seed}.trace{trace}.json"
        path.write_text(json.dumps(detail, indent=1))
        return line


def run_single(name: str, seed: int, seconds: float, trace: int, smoke: bool, out: Path) -> int:
    invocation = Invocation(name, seed, seconds, smoke, out)
    try:
        line = invocation.layer_profile() if trace else invocation.end_to_end()
    except invocation.workloads.GateError as error:
        print(f"GATE FAILED: {error}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0
