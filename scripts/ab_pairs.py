"""Alternating parent/change pairs of one benchmark workload.

The standing discipline for a performance claim (ROADMAP, and the
choosing-metrics guide §8): run the parent commit and the change at
least ten times each, in pairs, alternating which side goes first;
report every run; claim a gain only when the change wins at least nine
tenths of the pairs (ties counting for neither) *and* the medians differ
by more than the parent's own inter-quartile range.

    python scripts/ab_pairs.py --parent <git-ref> --workload W \\
        [--pairs 10] [--seconds S] [--seed N]

The parent is resolved to a commit in this repository, then checked out
in a temporary directory by a local ``git clone --no-checkout`` and a
detached ``git checkout``; removing that directory, on every exit path,
is the whole cleanup.  The change is this checkout as it stands
(uncommitted edits included).  Each side runs its *own*
``benchmarks/e2e/run.py --workload W --trace 0``, so each side's gates
(pinned digests, replay, nothing left behind) are on: a run that exits
non-zero or reports ``correct: false`` makes this script exit 1 after
the report.  Metric names, directions and regression bounds are read
from ``BENCHMARK.json``; nothing is imported from ``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, out: Path, args: argparse.Namespace) -> Optional[dict]:
    """One ``--trace 0`` invocation of ``checkout``'s own benchmark.

    Returns its ``metrics`` (``{name: value}``), or ``None`` when a gate
    failed — the run's output is echoed either way.
    """
    command = [
        sys.executable,
        str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "0",
        "--out", str(out),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if done.returncode != 0 or not result.get("correct"):
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(spec: dict, parent: Sequence[float], change: Sequence[float]) -> str:
    """Section 8's rule for one metric over the completed pairs."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_cost = [sign * v for v in parent]  # lower cost is better on both sides
    c_cost = [sign * v for v in change]
    wins = sum(c < p for p, c in zip(p_cost, c_cost))
    losses = sum(c > p for p, c in zip(p_cost, c_cost))
    pairs = len(p_cost)
    p_q1, p_median, p_q3 = quartiles(p_cost)
    iqr = p_q3 - p_q1
    saved = p_median - quartiles(c_cost)[1]
    bound = spec["bound"] * abs(p_median)
    tally = f"wins {wins}/{pairs}, losses {losses}, ties {pairs - wins - losses}"
    gap = f"median gap {saved:.6g} vs parent IQR {iqr:.6g}"
    if wins >= math.ceil(0.9 * pairs) and saved > iqr:
        if pairs >= 10:
            return f"{tally}: GAIN ({gap})"
        return f"{tally}: better, but a claim needs ten pairs ({gap})"
    if -saved > bound:
        return f"{tally}: WORSE beyond the {spec['bound']:.0%} bound ({gap})"
    if iqr > bound and not max(c_cost) < min(p_cost):
        return f"{tally}: unresolved, parent IQR wider than the {spec['bound']:.0%} bound ({gap})"
    return f"{tally}: within the {spec['bound']:.0%} bound, no gain claimed ({gap})"


def report(metrics: List[dict], runs: Dict[str, List[dict]]) -> None:
    for spec in metrics:
        name = spec["name"]
        columns = {side: [run[name] for run in runs[side]] for side in SIDES}
        if not columns["parent"]:
            continue
        print(f"\n{name} [{spec['unit']}, {spec['better']} is better]")
        for side in SIDES:
            q1, median, q3 = quartiles(columns[side])
            every = " ".join(f"{v:.6g}" for v in columns[side])
            print(f"  {side:6s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  runs: {every}")
        print(f"  {verdict(spec, columns['parent'], columns['change'])}")


def git(parser: argparse.ArgumentParser, cwd: Path, *args: str) -> str:
    """``git <args>`` in ``cwd``; its stdout, or a usage error naming why."""
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        parser.error(f"git {args[0]} failed: {done.stderr.strip()}")
    return done.stdout.strip()


@contextlib.contextmanager
def parent_checkout(parser: argparse.ArgumentParser, ref: str) -> Iterator[Path]:
    """``ref``, resolved in this repository, checked out detached in a
    temporary local clone; the clone's directory sits alone in a
    temporary directory that is removed on every exit path (SIGTERM
    included), so a caller may write scratch files beside it."""
    # SIGTERM unwinds like Ctrl-C, so the temporary checkout is removed
    # either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sha = git(parser, REPO_ROOT, "rev-parse", "--verify", f"{ref}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix=f"{parser.prog}.") as scratch:
        checkout = Path(scratch) / "parent"
        git(parser, REPO_ROOT, "clone", "--quiet", "--no-checkout", str(REPO_ROOT),
            str(checkout))
        git(parser, checkout, "checkout", "--quiet", "--detach", sha)
        yield checkout


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per run (default: each side's BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    gate_failures = 0
    with parent_checkout(parser, args.parent) as parent:
        scratch = parent.parent
        checkouts = {"parent": parent, "change": REPO_ROOT}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side] = run_once(
                    checkouts[side], scratch / f"out.{side}", args
                )
                print(f"pair {pair + 1:2d} {side:6s} {json.dumps(results[side])}", flush=True)
            if None in results.values():
                gate_failures += 1
                continue  # a pair counts only when both sides ran clean
            for side in SIDES:
                runs[side].append(results[side])
    print(
        f"\n{args.workload} seed {args.seed}: {len(runs['parent'])} of {args.pairs} "
        f"pairs clean, parent = {args.parent}"
    )
    report(metrics, runs)
    if gate_failures:
        print(f"\n{gate_failures} pair(s) had a run that failed a gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
