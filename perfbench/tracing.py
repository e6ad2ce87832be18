"""Timing spans around the public entry points of each ``repro`` layer.

The benchmark's traced run installs a :class:`Tracer`, which replaces a fixed
list of functions and methods with wrappers that time every call.  Nothing in
the program changes; :meth:`Tracer.uninstall` puts the originals back.

Each span records its call count, its total time and its *self* time: the
total minus the time spent in spans nested inside it on the same thread.  So
``plan.execute``'s self time is the fold work left after the read, decode and
readahead-wait spans it contains, and the readahead iterator's self time is
the time the consumer blocked on a fetch, with the decode it triggers taken
out.

Besides spans, the tracer keeps:

* every :class:`~repro.streaming.CompressedStore` opened while installed, so
  the public store counters (``preads``, ``chunks_read``, ...) can be summed;
* per :meth:`Plan.execute <repro.engine.Plan.execute>` call, the plan's pass
  count, the chunks it decoded per source pass, its incremental groups and
  the ``io_seconds`` it reports in ``last_execution``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: Span name -> (module, attribute path) of the wrapped callable.
SPAN_TARGETS = {
    "codecs.from_bytes": ("repro.codecs.pyblaz", "PyBlazCodec.from_bytes"),
    "store.read_payload": ("repro.streaming.store", "CompressedStore.read_payload"),
    "store.read_payload_span": ("repro.streaming.store",
                                "CompressedStore.read_payload_span"),
    "store.writer.append": ("repro.streaming.store", "CompressedStoreWriter.append"),
    "store.writer.finalize": ("repro.streaming.store",
                              "CompressedStoreWriter.finalize"),
    "plan.build": ("repro.engine.plan", "plan"),
    "plan.execute": ("repro.engine.plan", "Plan.execute"),
    "core.compress": ("repro.core.compressor", "Compressor.compress"),
    "kernels.transform_and_bin": ("repro.kernels.reference",
                                  "ReferenceKernel.transform_and_bin"),
    "sharded.append_shard": ("repro.streaming.sharded", "append_shard"),
    "sharded.open": ("repro.streaming.sharded", "ShardedStore.__init__"),
}

#: Counter names summed over every store the tracer saw opened.
STORE_COUNTERS = ("preads", "chunks_read", "chunks_prefetched", "read_retries")

#: Sections of a snapshot: span totals, execution/readahead counts, store counters.
SECTIONS = ("spans", "counts", "stores")

#: A snapshot with nothing recorded.
EMPTY = {section: {} for section in SECTIONS}


def _raw_attribute(owner, attribute: str):
    """``attribute`` as stored on ``owner`` (a classmethod stays a classmethod)."""
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


class Tracer:
    """Per-layer call counts and times, collected while installed."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans = defaultdict(lambda: [0, 0, 0])  # calls, total ns, self ns
        self._counts = defaultdict(float)
        self._stores = []
        self._patches = []

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, elapsed: int, child: int) -> None:
        with self._lock:
            entry = self._spans[name]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - child

    def _timed(self, name: str, call, *args, **kwargs):
        stack = self._stack()
        frame = [0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return call(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self._record(name, elapsed, frame[0])

    def wrap(self, name: str, function):
        """Return ``function`` wrapped in a span called ``name``."""
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self._timed(name, function, *args, **kwargs)
        return traced

    # ------------------------------------------------------------------ install
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, _raw_attribute(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer entry point; returns ``self``."""
        for name, (module_name, path) in SPAN_TARGETS.items():
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = _raw_attribute(owner, attribute)
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__))
            elif name == "plan.execute":
                replacement = self._wrap_execute(self.wrap(name, raw))
            else:
                replacement = self.wrap(name, raw)
            self._patch(owner, attribute, replacement)
        # the packages re-export these two functions under the same names
        plan_module = importlib.import_module("repro.engine.plan")
        sharded = importlib.import_module("repro.streaming.sharded")
        self._patch(importlib.import_module("repro.engine"), "plan",
                    plan_module.plan)
        self._patch(importlib.import_module("repro.streaming"), "append_shard",
                    sharded.append_shard)
        store_class = importlib.import_module("repro.streaming.store").CompressedStore
        self._patch(store_class, "__init__",
                    self._wrap_store_init(store_class.__init__))
        prefetcher = importlib.import_module("repro.streaming.prefetch").ChunkPrefetcher
        self._patch(prefetcher, "__iter__",
                    self._wrap_prefetch_iter(prefetcher.__iter__))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped callable (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def _wrap_store_init(self, init):
        @functools.wraps(init)
        def traced(store, *args, **kwargs):
            init(store, *args, **kwargs)
            with self._lock:
                self._stores.append(store)
        return traced

    def _wrap_prefetch_iter(self, iterate):
        """Time each ``next()`` on a readahead iterator as ``prefetch.next``."""
        tracer = self

        @functools.wraps(iterate)
        def traced(prefetcher):
            inner = iterate(prefetcher)
            done = object()
            try:
                while True:
                    chunk = tracer._timed("prefetch.next", next, inner, done)
                    if chunk is done:
                        return
                    with tracer._lock:
                        tracer._counts["prefetch.chunks"] += 1
                    yield chunk
            finally:
                inner.close()
        return traced

    def _wrap_execute(self, execute):
        """Record pass, decode and incremental counts around ``Plan.execute``."""
        tracer = self

        @functools.wraps(execute)
        def traced(plan, *args, **kwargs):
            stores = [source for source in plan.sources
                      if hasattr(source, "chunks_read")]
            before = [source.chunks_read for source in stores]
            result = execute(plan, *args, **kwargs)
            decoded = sum(source.chunks_read - start
                          for source, start in zip(stores, before))
            passes = [count for source, count in zip(plan.sources, plan.decode_passes)
                      if hasattr(source, "chunks_read")]
            last = plan.last_execution or {}
            with tracer._lock:
                totals = tracer._counts
                totals["executions"] += 1
                totals["passes"] += plan.n_passes
                totals["source_passes"] += sum(passes)
                totals["decodes"] += decoded
                totals["incremental_groups"] += last.get("incremental_groups", 0)
                totals["io_seconds"] += last.get("io_seconds", 0.0)
            return result
        return traced

    # ------------------------------------------------------------------ readout
    def snapshot(self) -> dict:
        """Cumulative totals so far, as a JSON-ready dict."""
        with self._lock:
            spans = {name: list(entry) for name, entry in self._spans.items()}
            counts = dict(self._counts)
            stores = list(self._stores)
        counters = {name: sum(getattr(store, name) for store in stores)
                    for name in STORE_COUNTERS}
        return {"spans": spans, "counts": counts, "stores": counters}


def _merge(first: dict, second: dict, sign: int) -> dict:
    """``first + sign * second``, section by section and name by name."""
    merged = {}
    for section in SECTIONS:
        totals = dict(first[section])
        for name, value in second[section].items():
            if isinstance(value, list):
                base = totals.get(name, [0] * len(value))
                totals[name] = [a + sign * b for a, b in zip(base, value)]
            else:
                totals[name] = totals.get(name, 0) + sign * value
        merged[section] = totals
    return merged


def difference(after: dict, before: dict) -> dict:
    """Totals accumulated between two :meth:`Tracer.snapshot` calls."""
    return _merge(after, before, -1)


def combine(first: dict, second: dict) -> dict:
    """Sum two snapshots (e.g. the benchmark process's and the server's)."""
    return _merge(first, second, 1)
