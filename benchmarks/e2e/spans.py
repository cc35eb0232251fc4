"""Benchmark-owned span recorder: spans in memory, written out at exit.

The program under test carries no tracing of its own (ROADMAP item 1 is
a later change), so every span here is recorded *around* a call into a
layer's public function, from the benchmark's side.  A span is
``(name, start, end, parent)``; the workload and run identify the trace
file it is written to.  A layer's *self time* is its span's duration
minus the part its child spans cover, and the share of the root that is
nobody's leaf span is the unattributed share the acceptance criteria
bound at 5 %.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class SpanRecorder:
    """A single-threaded span stack (the traced passes are serial)."""

    def __init__(self, workload: str, run: int = 0) -> None:
        self.workload = workload
        self.run = run
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name, time.perf_counter())
        try:
            yield
        finally:
            self._close(index, time.perf_counter())

    def add(self, name: str, start: float, end: float) -> None:
        """A closed span from explicit timestamps, under the open span.

        For layers entered through a callback rather than a call the
        benchmark makes — ``run_edge_phases`` reports each phase's end
        through its ``checkpoint`` hook.
        """
        self._close(self._open(name, start), end)

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, start, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, end: float) -> None:
        assert self._stack and self._stack[-1] == index, "spans close in LIFO order"
        self._stack.pop()
        self.spans[index].end = end

    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span, covered in zip(self.spans, child_time):
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start - covered
        return dict(table)

    def unattributed_share(self) -> float:
        """1 − Σ leaf spans / Σ root spans: time no named leaf covers."""
        has_child = [False] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                has_child[span.parent] = True
        roots = sum(s.end - s.start for s in self.spans if s.parent is None)
        leaves = sum(
            s.end - s.start
            for s, parent in zip(self.spans, has_child)
            if not parent
        )
        return 1.0 - leaves / roots if roots > 0 else 0.0

    # ------------------------------------------------------------------
    def write(self, directory: Path) -> None:
        """Chrome trace-event JSON (Perfetto-loadable) + self-time table."""
        directory.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"workload": self.workload, "run": self.run, "parent": s.parent},
            }
            for s in self.spans
        ]
        stem = f"{self.workload}.run{self.run}"
        (directory / f"{stem}.trace.json").write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
        )
        (directory / f"{stem}.selftime.txt").write_text(self.self_time_table())

    def self_time_table(self) -> str:
        rows = sorted(
            self.self_times().items(), key=lambda item: -item[1]["self_s"]
        )
        roots = sum(s.end - s.start for s in self.spans if s.parent is None) or 1.0
        lines = [f"{'span':<34}{'calls':>7}{'total_s':>11}{'self_s':>11}{'self %':>8}"]
        for name, row in rows:
            lines.append(
                f"{name:<34}{int(row['calls']):>7}{row['total_s']:>11.4f}"
                f"{row['self_s']:>11.4f}{100 * row['self_s'] / roots:>8.1f}"
            )
        lines.append(f"unattributed share: {self.unattributed_share():.4f}")
        return "\n".join(lines) + "\n"
