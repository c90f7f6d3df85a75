"""In-memory span recording around the program's public entry points.

The benchmark does not edit the program: :func:`install` swaps each
entry point named in :data:`perfbench.layers.TARGETS` for a wrapper that
records one span per call (name, start, end, parent, process, counters),
and the returned undo callable puts the originals back.  Module-level
functions are replaced in every ``repro.*`` module that imported them by
name, so callers see the wrapper wherever they look the name up.

Spans stay in memory and are written when the benchmark ends.  A process
forked while the wrappers are installed (the parallel build's workers)
inherits the recorder and the open-span stack, so its spans keep the
right parent; it cannot hand them back in memory, so it appends each
closed span to ``<spill>.<pid>.jsonl`` and the parent reads those files
with :meth:`SpanRecorder.collect`.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import sys
import time
from collections import defaultdict


class SpanRecorder:
    """Collects spans for one process tree."""

    def __init__(self, spill: str):
        self.spill = spill
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[tuple] = []
        self._seq = 0

    def _adopt_fork(self) -> None:
        """First span in a forked child: drop the parent's copies."""
        self.pid = os.getpid()
        self.spans = []
        self._remote = f"{self.spill}.{self.pid}.jsonl"

    def begin(self, name: str) -> dict:
        if os.getpid() != self.pid:
            self._adopt_fork()
        self._seq += 1
        span = {
            "id": [self.pid, self._seq],
            "parent": list(self._stack[-1]) if self._stack else None,
            "name": name,
            "pid": self.pid,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self._stack.append((self.pid, self._seq))
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if hasattr(self, "_remote"):
            # A forked worker has no reliable exit hook: spill now.
            with open(self._remote, "a") as f:
                f.write(json.dumps(span) + "\n")
        else:
            self.spans.append(span)

    def collect(self) -> list[dict]:
        """This process's spans plus every forked worker's spill file."""
        spans = list(self.spans)
        spans.extend(read_spill(self.spill))
        return spans

    def write(self, path: str) -> None:
        write_spans(path, self.collect())


def write_spans(path: str, spans: list[dict]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")


def read_spill(prefix: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(glob.escape(prefix) + ".*.jsonl")):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def read_spans(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _wrap(recorder: SpanRecorder, layer: str, fn, counters, prepare):
    def wrapper(*args, **kwargs):
        if prepare is not None:
            args = prepare(args)
        span = recorder.begin(layer)
        try:
            result = fn(*args, **kwargs)
            if counters is not None:
                span["attrs"] = counters(args, result)
            return result
        finally:
            recorder.end(span)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", layer)
    wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
    return wrapper


def install(recorder: SpanRecorder, targets) -> tuple[callable, list[str]]:
    """Wrap every target; returns ``(undo, missing)``.

    ``missing`` names the entry points that no longer exist, so a layer
    the program dropped is reported as unseen instead of crashing.
    """
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for target in targets:
        module_name, _, attr = target.entry.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(target.entry)
            continue
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or member not in vars(owner):
                missing.append(target.entry)
                continue
            raw = vars(owner)[member]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(
                    recorder, target.layer, raw.__func__, target.counters,
                    target.prepare,
                ))
            else:
                wrapped = _wrap(recorder, target.layer, raw, target.counters,
                                target.prepare)
            setattr(owner, member, wrapped)
            undo.append((owner, member, raw))
            continue
        original = getattr(module, member, None)
        if original is None:
            missing.append(target.entry)
            continue
        wrapped = _wrap(recorder, target.layer, original, target.counters,
                        target.prepare)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    def uninstall() -> None:
        for owner, member, original in reversed(undo):
            setattr(owner, member, original)

    return uninstall, missing


# -- analysis -----------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered(window: tuple[float, float], spans) -> float:
    """Seconds of ``window`` covered by at least one of ``spans``."""
    lo, hi = window
    clipped = [(max(lo, s["start"]), min(hi, s["end"])) for s in spans]
    return _union_length([(a, b) for a, b in clipped if b > a])


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may run in other processes (parallel build workers) and
    overlap each other, so the covered part is the union of their
    intervals, clipped to the parent."""
    children: dict[tuple, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[tuple(span["parent"])].append(span)
    result = {}
    for span in spans:
        key = tuple(span["id"])
        window = (span["start"], span["end"])
        result[key] = (span["end"] - span["start"]) - covered(
            window, children.get(key, ())
        )
    return result


def layer_totals(spans: list[dict]) -> tuple[dict, dict]:
    """Per layer: summed self seconds, and summed counters.

    A counter is summed only on spans with no ancestor of the same layer,
    so a nested call (``solve`` calling ``finish_partial``) is not counted
    twice."""
    by_id = {tuple(s["id"]): s for s in spans}
    self_s = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        seconds[span["name"]] += self_s[tuple(span["id"])]
        parent = span["parent"]
        nested = False
        while parent is not None:
            ancestor = by_id.get(tuple(parent))
            if ancestor is None:
                break
            if ancestor["name"] == span["name"]:
                nested = True
                break
            parent = ancestor["parent"]
        if not nested:
            for key, value in span["attrs"].items():
                counts[span["name"]][key] += value
    return dict(seconds), {k: dict(v) for k, v in counts.items()}
