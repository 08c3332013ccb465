"""In-memory span tracing of the program's public functions.

The benchmark treats the program as a black box: it times each layer by
wrapping the public functions the layer exports, at every module of the
package that binds them (``saliency`` imports its own ``forward_essay``,
``cli`` calls ``corpusmod.load_corpus_cache`` and so on). A span records
its name, start, end, the span that caused it and the op it belongs to.
Spans stay in memory and are written out when the benchmark ends.

A target whose function a later version of the program no longer has is
skipped, and a function that is no longer called simply leaves no
spans: its count reads 0 and nothing fails.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

HOOK = "trace.hook"


def _count_windows(tr, args, kwargs, result):
    tr.add("corpus.windows", len(result))


def _count_fwd_tokens(tr, args, kwargs, result):
    tokens = args[1] if len(args) > 1 else kwargs.get("tokens", ())
    tr.add("lstm.fwd_tokens", len(tokens))


def _count_live_cols(tr, args, kwargs, result):
    # live = columns with a non-zero gradient; touched = every distinct
    # column the window and its corruptions read.
    m_cols = getattr(result, "m_cols", None)
    sample = args[1] if len(args) > 1 else kwargs.get("sample")
    corruptions = args[2] if len(args) > 2 else kwargs.get("corruptions")
    context = getattr(sample, "context", None)
    center = getattr(sample, "center_index", None)
    if not isinstance(m_cols, dict) or context is None or corruptions is None:
        return
    touched = set(context)
    touched.update(ctx[center] for ctx in corruptions)
    tr.add("sswe.live_cols", len(m_cols))
    tr.add("sswe.touched_cols", len(touched))


def _count_rmsprop(tr, args, kwargs, result):
    state = args[0] if args else kwargs.get("state")
    grads = args[2] if len(args) > 2 else kwargs.get("grads", {})
    acc = getattr(state, "acc", None)
    if isinstance(acc, dict):
        tr.add("lstm.rmsprop_elems", sum(int(a.size) for a in acc.values()))
    g = grads.get("M") if isinstance(grads, dict) else None
    if isinstance(g, np.ndarray) and g.ndim == 2:
        tr.add("lstm.m_touched_cols", int(np.count_nonzero(g.any(axis=0))))
        tr.add("lstm.m_cols", int(g.shape[1]))


# (module, function, hook run after the call, outside its span)
TARGETS = (
    ("corpus", "load_corpus", None),
    ("corpus", "save_corpus_cache", None),
    ("corpus", "load_corpus_cache", None),
    ("corpus", "extract_windows", _count_windows),
    ("corpus", "corrupt_window", None),
    ("sswe", "train_sswe", None),
    ("sswe", "backward", _count_live_cols),
    ("sswe", "save_embeddings", None),
    ("sswe", "load_embeddings", None),
    ("lstm", "train_scorer", None),
    ("lstm", "forward_essay", _count_fwd_tokens),
    ("lstm", "bptt", None),
    ("lstm", "rmsprop_update", _count_rmsprop),
    ("lstm", "predict", None),
    ("lstm", "save_model", None),
    ("lstm", "load_model", None),
    ("saliency", "quality_map", None),
    ("saliency", "quality_map_spans", None),
    ("saliency", "render_html", None),
    ("saliency", "render_ansi", None),
    ("metrics", "report", None),
)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, package: str = "essayscore"):
        self.package = package
        self.t0 = time.perf_counter()
        # span rows: [name, start, end, parent index, op id]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self.t0, None,
                           parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter() - self.t0
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, counter: str, value: float) -> None:
        self.counts[(counter, self.op)] += value

    # --- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                with self.span(HOOK):
                    hook(self, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Patch every module of the package that binds a target."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        for mod_name, fn_name, hook in TARGETS:
            owner = sys.modules.get(f"{self.package}.{mod_name}")
            fn = getattr(owner, fn_name, None)
            if not callable(fn):
                continue
            traced = self._wrap(fn, f"{mod_name}.{fn_name}", hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, traced)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    @contextmanager
    def installed(self, op: int):
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.remove()
            self.op = -1

    # --- analysis ---------------------------------------------------------

    def summarize(self, ops) -> dict:
        """Per-name totals over the spans of the given ops.

        Returns {name: {"count", "total_s", "self_s"}}, plus two derived
        entries: ``saliency.map_passes`` counts the fwd/bptt calls made
        inside ``saliency.quality_map``, and ``saliency.top_maps`` the maps
        made at top level (not inside another map) and their time.
        """
        ops = set(ops)
        out: dict[str, dict] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        map_passes = 0
        top_maps = 0
        top_map_s = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops or end is None:
                continue
            rec = out[name]
            rec["count"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            ancestors = self._ancestor_names(parent)
            if name in ("lstm.forward_essay", "lstm.bptt") \
                    and "saliency.quality_map" in ancestors:
                map_passes += 1
            if name in ("saliency.quality_map", "saliency.quality_map_spans") \
                    and not ancestors & {"saliency.quality_map",
                                         "saliency.quality_map_spans"}:
                top_maps += 1
                top_map_s += end - start
        out["saliency.map_passes"]["count"] = map_passes
        out["saliency.top_maps"]["count"] = top_maps
        out["saliency.top_maps"]["total_s"] = top_map_s
        return out

    def _ancestor_names(self, idx: int) -> set[str]:
        names = set()
        while idx >= 0:
            names.add(self.spans[idx][0])
            idx = self.spans[idx][3]
        return names

    def counter(self, name: str, ops) -> float:
        ops = set(ops)
        return sum(v for (n, op), v in self.counts.items()
                   if n == name and op in ops)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_s": start,
                                     "end_s": end, "parent": parent,
                                     "op": op}) + "\n")
