"""Table I — cost-efficiency of ACME vs a centralized system (CS).

Two columns per system, four fleet sizes:

* **Search space (10³)** — analytic, from Eq. (14) and the Table I
  accounting model: CS jointly searches (backbone grid × header space) per
  device; ACME runs header NAS once per edge server.
* **Upload data (MB)** — measured by running the real protocol (with
  training truncated to one batch per importance round — payload sizes
  depend on array shapes, not values) and the CS baseline (raw dataset
  upload).

Paper's shape: ACME search space ≈ 1% of CS; upload ≈ 6% of CS; both grow
linearly in N.
"""

from __future__ import annotations

from figures import emit, table
from repro.core.header_importance import ImportanceConfig
from repro.core.search_space import table1_search_space_row
from repro.distributed import ACMEConfig, ACMESystem
from repro.models import ViTConfig

FLEET_SIZES = (10, 20, 30, 40)
CLASSES = 8
# Per-device shard targets ~700 images so the byte ratio reflects the
# paper's data-rich devices (EXPERIMENTS.md, Table I).
IMAGES_PER_DEVICE = 700


def run_row(num_devices: int) -> dict:
    devices_per_cluster = 5
    num_clusters = num_devices // devices_per_cluster
    samples_per_class = IMAGES_PER_DEVICE * num_devices // CLASSES

    config = ACMEConfig(
        num_clusters=num_clusters,
        devices_per_cluster=devices_per_cluster,
        num_classes=CLASSES,
        samples_per_class=samples_per_class,
        vit=ViTConfig(num_classes=CLASSES, depth=4, embed_dim=32),
        device_importance=ImportanceConfig(epochs=1, max_batches_per_epoch=1),
        finalize=False,
        seed=0,
    )
    system = ACMESystem(config)
    result = system.run()
    cs_traffic = system.run_centralized_baseline()

    space = table1_search_space_row(num_devices, devices_per_cluster=devices_per_cluster)
    return {
        "N": num_devices,
        "cs_space_k": space["cs_thousands"],
        "ours_space_k": space["ours_thousands"],
        "cs_upload_mb": cs_traffic.upload_megabytes(),
        "ours_upload_mb": result.traffic.upload_megabytes(),
        "upload_ratio": result.traffic.upload_bytes / cs_traffic.upload_bytes,
        "space_ratio": space["ratio"],
    }


def figure():
    rows = [run_row(n) for n in FLEET_SIZES]

    lines = table(
        ["N", "CS space (10^3)", "Ours space (10^3)", "CS upload (MB)", "Ours upload (MB)",
         "space ratio", "upload ratio"],
        [
            [r["N"], r["cs_space_k"], r["ours_space_k"], r["cs_upload_mb"],
             r["ours_upload_mb"], r["space_ratio"], r["upload_ratio"]]
            for r in rows
        ],
    )
    lines.append("paper: search-space ratio ≈ 1%, upload ratio ≈ 6%")
    emit("table1_cost_efficiency", lines)

    # Shape assertions.
    for r in rows:
        assert r["space_ratio"] < 0.05, "ACME search space must be ≈1% of CS"
        assert r["upload_ratio"] < 0.20, "ACME upload must be a small fraction of CS"
    # CS costs grow exactly linearly in N (per-device data is constant).
    cs_spaces = [r["cs_space_k"] for r in rows]
    assert cs_spaces == sorted(cs_spaces)
    cs_uploads = [r["cs_upload_mb"] for r in rows]
    assert cs_uploads == sorted(cs_uploads)
    # ACME's upload depends on each edge's *searched* header size, so it is
    # only approximately linear: check the per-device cost stays in a band.
    per_device = [r["ours_upload_mb"] / r["N"] for r in rows]
    assert max(per_device) / min(per_device) < 6.0
    return rows
