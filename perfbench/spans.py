"""In-memory span recorder for the traced benchmark pass.

A span is one call of a wrapped library function: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when it
started (its parent, -1 at the top), and the id of the benchmark operation
it belongs to, shared by every span of that operation. Spans are kept in
memory while the pass runs and written out once at the end.

``from .x import y`` copies the reference to ``y`` into the importing module,
so wrapping only ``x.y`` would miss callers that go through the copy.
``Tracer.patch_function`` therefore replaces the function at every binding
found in the package's loaded modules; ``Tracer.uninstall`` restores them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from array import array

import numpy as np

SETUP_OP = -1
PACKAGE = "vanar"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span in each column; plain arrays, so recording a
        # span allocates no Python object for the garbage collector to scan
        self.span_name = array("l")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.notes: dict[int, object] = {}
        self.op_id = SETUP_OP
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, note=None):
        """``fn`` recording one span per call; ``note(args, kwargs, result)``
        may attach a JSON-able value to the span."""
        nid = self.name_id(name)
        open_span, close_span, notes = self._open, self._close, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self.op_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(math.nan)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self.name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def patch_function(self, module: str, attr: str, name: str, note=None) -> None:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self.wrap(original, name, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, module: str, cls_name: str, attr: str, name: str, note=None) -> None:
        cls = getattr(sys.modules.get(module), cls_name, None)
        original = getattr(cls, "__dict__", {}).get(attr)
        if original is None:
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self) -> dict[str, np.ndarray]:
        """Spans as columns, with each span's self time (its duration minus
        the durations of its direct children)."""
        start, end = np.array(self.span_start), np.array(self.span_end)
        if np.isnan(end).any():
            raise RuntimeError("trace has spans that never closed")
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name": np.array(self.span_name, dtype=np.int64),
                "op": np.array(self.span_op, dtype=np.int64),
                "parent": parent, "start": start, "dur": dur, "self": dur - child}

    def __len__(self) -> int:
        return len(self.span_start)

    def ancestor_named(self, idx: int, names: set[str]) -> str | None:
        """Name of the nearest ancestor of span ``idx`` whose name is in ``names``."""
        parent = self.span_parent[idx]
        while parent >= 0:
            if self.names[self.span_name[parent]] in names:
                return self.names[self.span_name[parent]]
            parent = self.span_parent[parent]
        return None

    def write_jsonl(self, path, header: dict) -> None:
        """One JSON line per span after a header line; times relative to the first span."""
        t0 = min(self.span_start, default=0.0)
        columns = zip(self.span_name, self.span_op, self.span_parent, self.span_start, self.span_end)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"header": header, "names": self.names}) + "\n")
            for idx, (nid, op, parent, start, end) in enumerate(columns):
                row = {"span": idx, "op": op, "parent": parent, "name": self.names[nid],
                       "start": start - t0, "end": end - t0}
                if idx in self.notes:
                    row["note"] = self.notes[idx]
                f.write(json.dumps(row) + "\n")
