"""Trace persistence: JSONL save/load and a CSV adapter.

Lets users replay *real* traces (e.g. an actual Google-cluster-trace
extract) through the simulator instead of the synthetic generator, and
lets generated traces be archived for exact re-runs.

Formats
-------
* **JSONL** (:func:`save_jsonl` / :func:`load_jsonl`) — one record per
  line, usage embedded; lossless round-trip of every field.
* **CSV** (:func:`load_usage_csv`) — the adapter for external data:
  long-format rows ``task_id,timestamp_s,cpu,mem,storage`` plus a task
  table ``task_id,submit_time_s,duration_s,req_cpu,req_mem,req_storage``.
  This mirrors how the public Google trace's task-usage table is
  typically exported.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..cluster.resources import NUM_RESOURCES, as_row
from .records import TaskRecord, Trace

__all__ = ["save_jsonl", "load_jsonl", "load_usage_csv"]


def save_jsonl(trace: Trace, path: str | Path) -> None:
    """Write a trace as one JSON object per line (lossless)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in trace:
            fh.write(
                json.dumps(
                    {
                        "task_id": record.task_id,
                        "submit_time_s": record.submit_time_s,
                        "duration_s": record.duration_s,
                        "requested": record.requested.tolist(),
                        "sample_period_s": record.sample_period_s,
                        "is_short": record.is_short,
                        "usage": record.usage.tolist(),
                    }
                )
            )
            fh.write("\n")


def load_jsonl(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_jsonl`."""
    path = Path(path)
    records = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
            records.append(
                TaskRecord(
                    task_id=int(obj["task_id"]),
                    submit_time_s=float(obj["submit_time_s"]),
                    duration_s=float(obj["duration_s"]),
                    requested=as_row(obj["requested"]),
                    usage=np.asarray(obj["usage"], dtype=np.float64),
                    sample_period_s=float(obj["sample_period_s"]),
                    is_short=bool(obj.get("is_short", True)),
                )
            )
    return Trace(records)


def load_usage_csv(
    tasks_path: str | Path,
    usage_path: str | Path,
    *,
    sample_period_s: float,
    short_timeout_s: float = 300.0,
) -> Trace:
    """Assemble a trace from external task/usage CSV tables.

    Parameters
    ----------
    tasks_path:
        CSV with header ``task_id,submit_time_s,duration_s,req_cpu,
        req_mem,req_storage``.
    usage_path:
        CSV with header ``task_id,timestamp_s,cpu,mem,storage``; rows
        need not be sorted.  Timestamps are offsets from the task's
        submission and are bucketed to ``sample_period_s``.
    sample_period_s:
        Sampling period of the usage rows.
    short_timeout_s:
        Tasks at or under this duration are flagged short-lived.
    """
    tasks_path, usage_path = Path(tasks_path), Path(usage_path)

    tasks: dict[int, dict] = {}
    with tasks_path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            task_id = int(row["task_id"])
            tasks[task_id] = {
                "submit": float(row["submit_time_s"]),
                "duration": float(row["duration_s"]),
                "requested": as_row(
                    [
                        float(row["req_cpu"]),
                        float(row["req_mem"]),
                        float(row["req_storage"]),
                    ]
                ),
            }

    samples: dict[int, list[tuple[int, np.ndarray]]] = {t: [] for t in tasks}
    with usage_path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            task_id = int(row["task_id"])
            if task_id not in tasks:
                raise ValueError(
                    f"usage row references unknown task_id {task_id}"
                )
            index = int(float(row["timestamp_s"]) // sample_period_s)
            values = np.array(
                [float(row["cpu"]), float(row["mem"]), float(row["storage"])]
            )
            samples[task_id].append((index, values))

    records = []
    for task_id, info in tasks.items():
        rows = samples[task_id]
        n = max(1, int(np.ceil(info["duration"] / sample_period_s)))
        usage = np.zeros((n, NUM_RESOURCES))
        for index, values in rows:
            if 0 <= index < n:
                usage[index] = values
        # Forward-fill gaps so the demand series has no artificial
        # zero-usage dropouts (external exports are often sparse).
        last = usage[0].copy()
        for i in range(n):
            if usage[i].any():
                last = usage[i].copy()
            else:
                usage[i] = last
        usage = np.clip(usage, 0.0, info["requested"])
        records.append(
            TaskRecord(
                task_id=task_id,
                submit_time_s=info["submit"],
                duration_s=info["duration"],
                requested=info["requested"],
                usage=usage,
                sample_period_s=sample_period_s,
                is_short=info["duration"] <= short_timeout_s,
            )
        )
    return Trace(records)
