"""In-memory span tracer that wraps library functions where their callers
look them up.

A span records a name, a start and end time, the span open when it began
(its parent), and the run it belongs to: every span of one workload run
shares that run's id. Spans live in flat arrays until the benchmark writes
them out. A wrapper may also pass a call's arguments and result to an
observer that updates counters; the observer runs inside a ``trace.observe``
span, so its cost is charged to the tracer and not to any layer.

Self time is a span's duration minus the time its children cover. Children
run on the caller's thread, one after another, so they never overlap and
the time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

OBSERVE = "trace.observe"

Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[int] = []
        self.runs: list[str] = []  # run id -> kind ("setup", "unit", ...)
        self.counts: list[dict[str, float]] = []  # run id -> counter totals
        self.distinct: dict[str, set] = {}  # distinct keys seen in the current run
        self.run_id = -1

    # --- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_run(self, kind: str) -> int:
        """Start a workload run; later spans and counts belong to it."""
        self.runs.append(kind)
        self.counts.append({})
        self.distinct = {}
        self.run_id = len(self.runs) - 1
        return self.run_id

    def count(self, name: str, amount: float = 1) -> None:
        counts = self.counts[self.run_id]
        counts[name] = counts.get(name, 0) + amount

    def count_distinct(self, name: str, key) -> None:
        """Count `key` under `name` once per run."""
        seen = self.distinct.setdefault(name, set())
        if key not in seen:
            seen.add(key)
            self.count(name)

    def open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        nid = self.name_id(name)
        obs_id = self.name_id(OBSERVE)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                oidx = self.open(obs_id)
                try:
                    observe(self, args, kwargs, result)
                finally:
                    self.close(oidx)
            return result

        return traced

    @contextmanager
    def installed(self, sites: Iterable[tuple[str, str, str, Observer | None]]):
        """Replace each ``module.attribute`` with a traced wrapper.

        `sites` holds (module, attribute, span name, observer) tuples. Every
        replaced attribute is put back when the block exits, also on error.
        """
        saved = []
        try:
            for module_name, attr, name, observe in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # --- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self._run, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def self_ns(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - covered

    def totals(self, kind: str) -> "Totals":
        """Calls, inclusive time, self time and counters over runs of `kind`."""
        a = self.arrays()
        run_ids = [i for i, k in enumerate(self.runs) if k == kind]
        mask = np.isin(a["run"], run_ids)
        dur = (a["end_ns"] - a["start_ns"])[mask]
        own = self.self_ns()[mask]
        names = a["name"][mask]
        n = len(self.names)
        counts: dict[str, float] = {}
        for rid in run_ids:
            for key, value in self.counts[rid].items():
                counts[key] = counts.get(key, 0) + value
        return Totals(
            names=self.names,
            runs=len(run_ids),
            calls=np.bincount(names, minlength=n),
            incl_s=np.bincount(names, weights=dur, minlength=n) / 1e9,
            self_s=np.bincount(names, weights=own, minlength=n) / 1e9,
            counts=counts,
            spans=int(mask.sum()),
        )

    def write(self, path: Path, meta: dict) -> None:
        """Save every span as columns plus the name and run tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "runs": self.runs, "counts": self.counts, **meta}
        np.savez_compressed(path, header=np.array(json.dumps(header)), **self.arrays())


class Totals:
    """Per-name calls, inclusive and self seconds, and counters, summed over
    the runs of one kind."""

    def __init__(self, names, runs, calls, incl_s, self_s, counts, spans):
        self._index = {name: i for i, name in enumerate(names)}
        self.runs = runs
        self._calls, self._incl, self._self = calls, incl_s, self_s
        self.counts = counts
        self.spans = spans

    def _get(self, column, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(column[i])

    def calls(self, name: str) -> float:
        return self._get(self._calls, name)

    def incl(self, name: str) -> float:
        return self._get(self._incl, name)

    def self_time(self, name: str) -> float:
        return self._get(self._self, name)

    def layer_self(self, layer: str) -> float:
        return sum(
            float(self._self[i]) for name, i in self._index.items() if name.split(".")[0] == layer
        )

    def count(self, name: str) -> float:
        return float(self.counts.get(name, 0))
