"""Parent-vs-change digest parity on this host.

    python scripts/parity.py --parent <git-ref> [--expect FIELD ...]

Runs the same cases in two trees — the parent commit, checked out by
``ab_pairs.py``'s :func:`parent_checkout`, and this checkout as it stands
— each in its own subprocess with its own ``src/`` on the path, and
compares the full digests case by case:

* the benchmark's two campaigns (``campaign_cloud``, ``campaign_edge``)
  as one ``ACMESystem.run()`` each, at the default dtype and at float64,
  seeds 0 and 1 — ``ACMERunResult.digest()``;
* a small scale campaign with drops, churn, a deadline and a thrashing
  LRU, seeds 0 and 1 — ``ScaleReport.digest()``.

Same host, two commits: no pin and no host fingerprint is involved, so
nothing can skip the comparison.  For each case the script prints
``equal`` or the first differing field (``protocol.total_bytes``) with
both values, then every other differing field.  It exits 1 on any
difference whose field is not named by an ``--expect``, 2 when a tree
fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ab_pairs import REPO_ROOT, SIDES, parent_checkout

#: Runs in each tree (``python -c``) and prints ``{case: digest}`` as
#: JSON.  It uses only what both trees are expected to have; a tree
#: whose ``ScaleReport`` predates ``digest()`` gets the same protocol
#: half from ``to_dict()`` and ``participation`` alone as its numeric
#: half.
RUNNER = r'''
import json

from repro.core.header_importance import ImportanceConfig
from repro.distributed import ACMEConfig, ACMESystem
from repro.distributed.scale import ScaleConfig, run_scale_campaign
from repro.models import ViTConfig


def campaign_cloud():
    cfg = ACMEConfig(
        num_clusters=1, devices_per_cluster=2, samples_per_class=8,
        public_samples_per_class=6,
        vit=ViTConfig(num_classes=8, depth=6, embed_dim=32), seed=0,
    )
    cfg.cloud.pretrain_epochs = 2
    return cfg


def campaign_edge():
    cfg = ACMEConfig(
        num_clusters=2, devices_per_cluster=6, samples_per_class=24,
        public_samples_per_class=4, seed=0,
    )
    cfg.edge.aggregation_rounds = 3
    cfg.cloud.pretrain_epochs = 1
    cfg.cloud.distill.epochs = 1
    return cfg


SCALE_PROTOCOL = (
    "cluster_sizes", "contributions", "kind_counts", "total_bytes",
    "fault_counts", "failed_deliveries", "stragglers", "carried",
    "eval_requests_served", "hydrations", "evictions", "live_headers",
)


def scale_digest(report):
    if hasattr(report, "digest"):
        return report.digest()
    fields = report.to_dict()
    fields["total_bytes"] = int(round(report.total_megabytes * 1e6))
    for name in ("kind_counts", "fault_counts"):
        fields[name] = dict(sorted(fields[name].items()))
    return {
        "protocol": {name: fields[name] for name in SCALE_PROTOCOL},
        "numeric": {"participation": report.participation},
    }


digests = {}
for seed in (0, 1):
    for name, build in (("campaign_cloud", campaign_cloud), ("campaign_edge", campaign_edge)):
        for dtype in ("default", "float64"):
            cfg = build()
            cfg.edge.seed = seed
            cfg.device_importance = ImportanceConfig(seed=seed)
            if dtype != "default":
                cfg.compute_dtype = dtype
            system = ACMESystem(cfg)
            digests[f"{name} {dtype} seed {seed}"] = system.run().digest()
            system.dispose()
    report = run_scale_campaign(ScaleConfig(
        num_devices=96, num_clusters=4, rounds=2, lru_capacity=4,
        eval_requests=4, drop=0.1, churn=0.05, retries=5,
        deadline_quantile=0.9, ledger="summary", seed=seed,
    ))
    digests[f"scale seed {seed}"] = scale_digest(report)
print(json.dumps(digests))
'''

_ABSENT = "<absent>"


def differences(
    parent: object, change: object, path: str = ""
) -> Iterator[Tuple[str, object, object]]:
    """``(field, parent value, change value)`` wherever two digests
    differ, depth first in the parent's key order: a field is a dotted
    path of dict keys (``protocol.total_bytes``); a key on one side only
    differs with ``<absent>`` on the other."""
    if isinstance(parent, dict) and isinstance(change, dict):
        for key in [*parent, *(k for k in change if k not in parent)]:
            yield from differences(
                parent.get(key, _ABSENT),
                change.get(key, _ABSENT),
                f"{path}.{key}" if path else str(key),
            )
    elif parent != change:
        yield path, parent, change


def run_tree(tree: Path) -> Optional[Dict[str, dict]]:
    """Every case's digest in ``tree``, or ``None`` (its output echoed)
    when the tree fails to run them."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RUNNER], cwd=tree, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare(
    digests: Dict[str, Dict[str, dict]], expected: Sequence[str]
) -> List[str]:
    """Print the per-case report; return the unexpected differing fields."""
    unexpected: List[str] = []
    for case, parent in digests["parent"].items():
        found = list(differences(parent, digests["change"].get(case, _ABSENT)))
        if not found:
            print(f"{case}: equal")
            continue
        field, before, after = found[0]
        print(f"{case}: first difference {field}: parent {before!r}, change {after!r}")
        for field, before, after in found[1:]:
            print(f"    also {field}: parent {before!r}, change {after!r}")
        unexpected += [f"{case}: {f}" for f, _b, _a in found if f not in expected]
    return unexpected


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument(
        "--expect", action="append", default=[], metavar="FIELD",
        help="a field allowed to differ, e.g. protocol.total_bytes (repeatable)",
    )
    args = parser.parse_args(argv)
    digests: Dict[str, Dict[str, dict]] = {}
    with parent_checkout(parser, args.parent) as parent:
        for side, tree in zip(SIDES, (parent, REPO_ROOT)):
            result = run_tree(tree)
            if result is None:
                print(f"the {side} tree failed to run the cases", file=sys.stderr)
                return 2
            digests[side] = result
    unexpected = compare(digests, args.expect)
    if unexpected:
        print(f"\n{len(unexpected)} unexpected difference(s):", file=sys.stderr)
        for line in unexpected:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nparity against {args.parent}: no unexpected difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
