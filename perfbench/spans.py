"""In-memory span recorder for the traced benchmark run.

A span is recorded around each call the benchmark makes into a layer of
the program: name, start, end, parent span and run id.  Spans that call
Spark get their own job group, read back through ``statusTracker`` when
the span closes, so each span also carries the Spark jobs and tasks it
launched.  Spans stay in memory and are written out once, at the end.

With ``enabled=False`` every method is a no-op, so the untraced run
executes the same code without recording anything.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Longest wait for Spark's listener bus to report a span's jobs as ended.
JOB_STATUS_WAIT_S = 5.0


class Tracer:
    def __init__(self, run_id: str, *, enabled: bool, sc=None) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.sc = sc
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Parent for spans opened on threads with no open span of their
        #: own (Spark's foreachBatch callbacks run on a py4j thread).
        self.fallback_parent: int | None = None
        #: Time spent recording (span bookkeeping and Spark status reads).
        self.overhead_s = 0.0

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        """Id of this thread's innermost open span, else the fallback."""
        stack = self._stack()
        return stack[-1]["id"] if stack else self.fallback_parent

    @contextmanager
    def span(self, name: str, *, spark: bool = False):
        """Record ``name`` around the ``with`` body; yields the span dict."""
        if not self.enabled:
            yield {}
            return
        t_enter = time.perf_counter()
        stack = self._stack()
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": self.current(),
            "run": self.run_id,
        }
        group = f"perfbench-{self.run_id}-{rec['id']}" if spark else None
        if group:
            self.sc.setJobGroup(group, name)
        stack.append(rec)
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - t_enter
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            if group:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                rec.update(self._spark_counts(group))
            self.spans.append(rec)
            self.overhead_s += time.perf_counter() - rec["end"]

    def add(self, name: str, start: float, end: float, parent: int | None, **extra) -> dict:
        """Record a span measured elsewhere (e.g. a streaming micro-batch)."""
        t0 = time.perf_counter()
        rec = {"id": next(self._ids), "name": name, "parent": parent,
               "run": self.run_id, "start": start, "end": end, **extra}
        if self.enabled:
            self.spans.append(rec)
            self.overhead_s += time.perf_counter() - t0
        return rec

    def _spark_counts(self, group: str) -> dict:
        tracker = self.sc.statusTracker()
        deadline = time.monotonic() + JOB_STATUS_WAIT_S
        while True:
            infos = [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(group)]
            done = all(i is not None and i.status != "RUNNING" for i in infos)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        tasks = 0
        for info in infos:
            for sid in info.stageIds if info else ():
                stage = tracker.getStageInfo(sid)
                tasks += stage.numCompletedTasks if stage else 0
        return {"spark_jobs": len(infos), "tasks": tasks, "jobs_settled": done}

    # -- summaries -----------------------------------------------------------
    def named(self, prefix: str) -> list[dict]:
        return [s for s in self.spans if s["name"].startswith(prefix)]

    def total(self, prefix: str, key: str | None = None) -> float:
        spans = self.named(prefix)
        if key is None:
            return sum(s["end"] - s["start"] for s in spans)
        return sum(s.get(key, 0) for s in spans)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time not covered by its child spans.

        The layer is the span name up to its first dot.  Children of one
        span may overlap (micro-batches and the callbacks inside them), so
        coverage is the union of their intervals.
        """
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"] - covered)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")
