"""Per-partition build manifest with lineage + metrics (resumable indexing).

Each completed partition appends one JSON line to `<out>/_manifest/<phase>.jsonl`
recording: partition id, inputs, row counts, bytes, wall time, dictionary hash,
extractor version. Phase completion is an atomic `<out>/_manifest/<phase>.done`
marker (written via tmp + rename). On resume, completed phases are skipped and
partially-written partitions are re-done idempotently (partition files are
themselves written tmp -> rename, so a crash never leaves a torn file that a
resume would trust).

Reference analog: the Meilisearch task queue + backup-index checkpoint in
scripts/maintenance/reindex-existing-data.py:303+ — re-expressed as explicit
batch lineage (SURVEY.md §4 'Checkpoint / resume').
"""

from __future__ import annotations

import json
import os
import time


class BuildManifest:
    def __init__(self, out_dir: str):
        self.dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.dir, exist_ok=True)

    # ---- phase markers ----

    def phase_done(self, phase: str) -> bool:
        return os.path.exists(os.path.join(self.dir, f"{phase}.done"))

    def mark_phase_done(self, phase: str, meta: dict | None = None) -> None:
        tmp = os.path.join(self.dir, f".{phase}.done.tmp")
        with open(tmp, "w") as f:
            json.dump({"phase": phase, "completed_at": time.time(), **(meta or {})}, f)
        os.replace(tmp, os.path.join(self.dir, f"{phase}.done"))

    # ---- per-partition lineage rows ----

    def record_partition(self, phase: str, row: dict) -> None:
        """Append one lineage row (atomic enough: single write() of one line)."""
        line = json.dumps({"ts": time.time(), **row}, sort_keys=True)
        with open(os.path.join(self.dir, f"{phase}.jsonl"), "a") as f:
            f.write(line + "\n")

    def partitions(self, phase: str) -> list[dict]:
        p = os.path.join(self.dir, f"{phase}.jsonl")
        if not os.path.exists(p):
            return []
        with open(p) as f:
            return [json.loads(line) for line in f if line.strip()]

    def completed_partition_ids(self, phase: str) -> set:
        return {r["partition"] for r in self.partitions(phase)}


def atomic_save_npy(path: str, arr) -> None:
    """Save a numpy array as .npy atomically (tmp in same dir + rename)."""
    import numpy as np

    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        np.save(f, arr)
    os.replace(tmp, path)


def atomic_write_parquet(table, path: str, **write_kwargs) -> None:
    """Write a parquet file atomically (tmp in same dir + rename)."""
    import pyarrow.parquet as pq

    tmp = path + f".tmp.{os.getpid()}"
    pq.write_table(table, tmp, **write_kwargs)
    os.replace(tmp, path)
