"""The one chunk-span reader, run inline or ahead of the consumer on threads.

Every sweep in the repo — fused plan passes, streaming structural ops, sharded
incremental folds, coalesced serving batches — walks chunks in a strict
``pread → decode → fold`` loop, so the CPU idles during I/O and the disk idles
during decode/fold.  Reading goes in three steps, written once here:

1. **plan** (:func:`_plan_spans`): split the requested chunks per underlying
   store file (one per shard of a sharded store) and coalesce adjacent
   records into **spans** — one ``os.pread`` each, split in memory;
2. **fetch** (:func:`_fetch_span`): resolve a span's chunks from the attached
   chunk cache, or read the misses through
   :meth:`repro.streaming.CompressedStore.read_payload_span`;
3. **consume** (:func:`_consume`, :func:`_consume_step`): decode fetched
   payloads, cache them, and count the logical reads.

Two drivers run those steps.  :func:`inline_chunks` runs them span by span on
the caller's thread (``load_region`` uses it).  :class:`ChunkPrefetcher`
fetches a bounded window of spans ahead on a small thread pool while the
consumer thread decodes **in deterministic index order** — so every fold
result stays bit-identical to the serial path.  Given the fused engine's fold
steps (:func:`repro.streaming.sources.fold_steps`), it hands over each step's
fetched records at once instead of decoded chunks.  The strictly serial
``read_chunk`` loop of ``iter_chunks(prefetch=0)`` stays beside them as the
reference path.

Division of labour, chosen by measurement rather than symmetry:

* **Workers fetch, the consumer decodes a fold step at once.**  Record reads
  release the GIL (``os.pread``, CRC-32), so fetching in threads overlaps
  genuinely with decode/fold work.  A fused sweep's consumer decodes a whole
  step's records with :func:`~repro.core.codec.decode_span`: one header
  parse, one array of maxima and one of indices filled straight from the
  record bytes, one :class:`~repro.core.CompressedArray` — no per-record
  parse and no join copy.  Decoding the span on a fetch worker instead
  measured no faster: the copies contend with the fold for the same two
  cores.  A step falls back to the per-chunk decode and join when the
  records are not pyblaz streams (version-1 raw records, other codecs), when
  a chunk cache is attached (cache entries are chunks, so hits and misses
  stay per chunk), or when anything in the step fails to fetch or decode —
  that path raises the serial loop's error at the serial loop's chunk.
* **Spans, not single chunks.**  Submitting one future per chunk costs more
  handoff than a small read saves; adjacent records within
  :data:`DEFAULT_SPAN_BYTES` (capped at :data:`DEFAULT_SPAN_CHUNKS`) merge
  into one positional read and one future.

Fault tolerance matches the synchronous path exactly: span fetches run through
:meth:`~repro.streaming.CompressedStore.read_payload_span`, whose record
verifier fires the fault-injection hooks and checks version-3 CRCs per chunk,
and any failure falls back to the per-chunk
:meth:`~repro.streaming.CompressedStore.read_payload` seam with its full retry
policy.  Exceptions surface at the failing chunk's position in the yielded
order, after every chunk ahead of it, exactly as a serial reader sees them.

Accounting: ``chunks_read`` counts only chunks actually *consumed* (yielded,
decoded as part of a step, or cache-served), in both drivers.  The thread
pool also counts its fetched payloads into ``chunks_prefetched`` as the
worker completes them, so an aborted pipeline leaves ``chunks_prefetched >
chunks_read`` instead of silently inflating the read counters that
pass-count tests assert on.
"""

from __future__ import annotations

import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import islice
from typing import Iterable, Iterator, Sequence

from ..core.codec import decode_span
from ..core.exceptions import CodecError

__all__ = [
    "ChunkPrefetcher",
    "coalesce_spans",
    "inline_chunks",
    "readahead_depth",
    "resolve_depth",
    "warm_store_cache",
    "DEFAULT_PREFETCH_WORKERS",
    "DEFAULT_SPAN_BYTES",
    "DEFAULT_SPAN_CHUNKS",
]

#: Fetch threads per prefetcher.  Two is enough to hide one read behind one
#: decode on the measured workloads; more threads add GIL handoffs, not speed.
DEFAULT_PREFETCH_WORKERS = 2

#: Coalescing budget: adjacent chunk records are merged into one positional
#: read while their combined size stays under this many bytes.
DEFAULT_SPAN_BYTES = 1 << 20

#: Cap on records per coalesced span, so tiny-chunk stores still pipeline at a
#: useful granularity instead of fetching everything in one giant span.
DEFAULT_SPAN_CHUNKS = 8

#: Auto mode leaves stores with fewer chunks than this on the serial path —
#: the pool spin-up would cost more than the overlap saves.
_MIN_AUTO_CHUNKS = 4


def resolve_depth(prefetch: int | None, *, n_chunks: int | None = None) -> int:
    """Resolve a user-facing ``prefetch`` setting into an in-flight span depth.

    ``None`` selects auto: 2× :data:`DEFAULT_PREFETCH_WORKERS`, except for
    stores of fewer than a handful of chunks (when ``n_chunks`` is known)
    where the serial path wins.  ``0`` disables prefetching outright; a positive integer
    is used verbatim as the bounded window of span fetches in flight.
    Negative values raise ``ValueError``.
    """
    if prefetch is None:
        if n_chunks is not None and n_chunks < _MIN_AUTO_CHUNKS:
            return 0
        return 2 * DEFAULT_PREFETCH_WORKERS
    depth = int(prefetch)
    if depth < 0:
        raise ValueError(f"prefetch depth must be >= 0, got {prefetch!r}")
    return depth


def readahead_depth(store, prefetch: int | None) -> int:
    """The span window ``store.iter_chunks(prefetch=prefetch)`` reads ahead with.

    ``0`` means the serial read loop: readahead disabled, auto mode on a store
    of few chunks, or a store of at most one chunk (nothing to read ahead of).
    Both stores' ``iter_chunks`` and the engine's ``prefetch_depth`` report
    take the depth from here.
    """
    depth = resolve_depth(prefetch, n_chunks=store.n_chunks)
    return depth if store.n_chunks > 1 else 0


def coalesce_spans(extents: Sequence[tuple[int, int, int]], *,
                   max_bytes: int = DEFAULT_SPAN_BYTES,
                   max_chunks: int = DEFAULT_SPAN_CHUNKS,
                   ) -> list[list[tuple[int, int, int]]]:
    """Group ``(index, offset, n_bytes)`` records into contiguous read spans.

    A span extends while the next record starts exactly where the previous one
    ended (chunk records are written back to back, so any gap means the caller
    skipped a chunk), the span stays within ``max_bytes``, and it holds at
    most ``max_chunks`` records.  Every record lands in exactly one span, in
    input order; a single record larger than ``max_bytes`` gets its own span.
    """
    spans: list[list[tuple[int, int, int]]] = []
    current: list[tuple[int, int, int]] = []
    current_bytes = 0
    for record in extents:
        _, offset, n_bytes = record
        if current:
            last_index, last_offset, last_bytes = current[-1]
            contiguous = offset == last_offset + last_bytes
            fits = (current_bytes + n_bytes <= max_bytes
                    and len(current) < max_chunks)
            if not (contiguous and fits):
                spans.append(current)
                current = []
                current_bytes = 0
        current.append(record)
        current_bytes += n_bytes
    if current:
        spans.append(current)
    return spans


def _segment_tasks(store, indices: Iterable[int]) -> Iterator[tuple[object, list[int]]]:
    """Split global chunk ``indices`` into per-underlying-store runs.

    Plain :class:`~repro.streaming.CompressedStore` sources yield one segment.
    Sharded stores yield one segment per run of consecutive indices living in
    the same shard — shards are opened lazily, only when their segment is
    consumed, preserving the sharded store's lazy-open contract.
    """
    locate = getattr(store, "locate", None)
    if locate is None:
        run = list(indices)
        if run:
            yield store, run
        return
    run_shard: int | None = None
    run: list[int] = []
    for index in indices:
        shard_index, local = locate(index)
        if run and shard_index != run_shard:
            yield store.shard(run_shard), run
            run = []
        run_shard = shard_index
        run.append(local)
    if run:
        yield store.shard(run_shard), run


def _plan_spans(store, indices: Iterable[int]) -> Iterator[tuple[object, list[int]]]:
    """Yield ``(underlying store, local indices)`` read spans, lazily.

    Global chunk ``indices`` split per underlying store file
    (:func:`_segment_tasks`), then into :func:`coalesce_spans` groups of
    adjacent records — the fetch unit of both reading modes.
    """
    for real, locals_ in _segment_tasks(store, indices):
        extents = [(local, *real._record_extent(local)[:2]) for local in locals_]
        for span in coalesce_spans(extents):
            yield real, [index for index, _, _ in span]


def _fetch_span(real, locals_: list[int]) -> list[tuple[str, object]]:
    """Resolve one span's chunks from cache or disk, in order.

    Returns one ``("chunk", decoded)`` or ``("payload", bytes)`` item per
    local index.  A read that fails ends the list with one ``("error",
    exception)`` item at the failing chunk's position, after every record
    verified ahead of it, so the consumer yields those chunks and then raises
    exactly where the serial loop would.  The single cache lookup per chunk
    here replaces (not duplicates) the lookup ``read_chunk`` would have done,
    so cache hit/miss counters stay identical to the serial path.
    """
    cache = real.chunk_cache
    path = str(real.path)
    hits = {}
    if cache is not None:
        for local in locals_:
            chunk = cache.get((path, local))
            if chunk is not None:
                hits[local] = chunk
    payloads: dict[int, bytes] = {}
    error: Exception | None = None
    misses = [local for local in locals_ if local not in hits]
    if misses:
        try:
            real.read_payload_span(misses, payloads)
        except Exception as exc:  # re-raised by _consume at its chunk's position
            error = exc
    items: list[tuple[str, object]] = []
    for local in locals_:
        if local in hits:
            items.append(("chunk", hits[local]))
        elif local in payloads:
            items.append(("payload", payloads[local]))
        else:
            items.append(("error", error))
            break
    return items


def _fetch_ahead(real, locals_: list[int]) -> list[tuple[str, object]]:
    """Worker body: :func:`_fetch_span`, counting its payloads as prefetched."""
    items = _fetch_span(real, locals_)
    real._note_prefetched(sum(kind == "payload" for kind, _ in items))
    return items


def _consume(real, local: int, item: tuple[str, object]):
    """Consumer body: decode one fetched item and count the logical read."""
    kind, value = item
    if kind == "error":
        raise value
    if kind == "payload":
        chunk = real._chunk_from_payload(local, value)
        cache = real.chunk_cache
        if cache is not None:
            cache.put((str(real.path), local), chunk)
    else:
        chunk = value
    real._note_read()
    return chunk


def inline_chunks(store, indices: Iterable[int]) -> Iterator:
    """Yield ``indices``'s decoded chunks in order, reading span by span inline.

    The pipeline of :class:`ChunkPrefetcher` run on the caller's thread, one
    span at a time: the same span plan, fetch and consume, so values,
    ``chunks_read``, cache counters and error positions match it; only
    ``chunks_prefetched`` stays untouched, since nothing is read ahead.  At
    most one span's payloads are resident, which bounds
    :meth:`~repro.streaming.store.StoreReader.load_region`'s memory.
    """
    for real, locals_ in _plan_spans(store, indices):
        for local, item in zip(locals_, _fetch_span(real, locals_)):
            yield _consume(real, local, item)


def _shutdown_pool(pool: ThreadPoolExecutor) -> None:
    """Finalizer body: stop the fetch pool, dropping any queued spans."""
    pool.shutdown(wait=True, cancel_futures=True)


def _consume_step(column: list[tuple[object, int, tuple[str, object]]]):
    """Consumer body of a fold step: decode its fetched payloads in one piece.

    ``column`` holds one source's ``(store, local index, fetched item)`` per
    chunk of the step, possibly from two shards.  Returns the step's records
    decoded straight into one joined chunk
    (:func:`~repro.core.codec.decode_span`), without counting the reads.
    Returns ``None`` when the step needs the per-chunk :func:`_consume`
    instead: an item is a fetch error or a cached chunk, a store's records
    are not pyblaz streams (v1 raw records, another codec), or the span does
    not decode cleanly.  That path raises exactly the serial loop's error at
    exactly its chunk.
    """
    if not all(kind == "payload" and real._span_decodable
               for real, _, (kind, _) in column):
        return None
    try:
        return decode_span([payload for _, _, (_, payload) in column])
    except CodecError:
        return None


class ChunkPrefetcher:
    """Bounded-window pipelined reader over a store's chunks.

    Iterating a prefetcher yields the same decoded chunk objects, in the same
    order, as ``store.read_chunk(i) for i in indices`` — but record fetches
    run up to ``depth`` coalesced spans ahead on a pool of
    :data:`DEFAULT_PREFETCH_WORKERS` threads, so the consumer's decode/fold
    work overlaps the I/O.

    Parameters
    ----------
    store:
        An open :class:`~repro.streaming.CompressedStore` or
        :class:`~repro.streaming.ShardedStore`.
    indices:
        Global chunk indices to yield, in order (default: every chunk).
    depth:
        Maximum coalesced span fetches in flight (``None`` → auto, ~2× the
        worker count).  ``0`` degenerates to the serial read path.
    steps:
        Chunk counts of successive fold steps, covering ``indices``.  When
        given, iteration yields each step's fetched ``(store, local index,
        item)`` list undecoded, for :func:`_consume_step` to decode in one
        piece; this needs ``depth > 0``.

    A prefetcher is **single-use**: iterate it once, then :meth:`close` it
    (closing is automatic when the iteration ends, is abandoned, or the
    prefetcher is garbage-collected — a ``weakref.finalize`` guarantees the
    pool's threads are joined, so aborted pipelines leak nothing).
    """

    def __init__(self, store, indices: Iterable[int] | None = None, *,
                 depth: int | None = None, steps: Sequence[int] | None = None):
        self.store = store
        self.indices = (list(range(store.n_chunks)) if indices is None
                        else [int(index) for index in indices])
        self.depth = resolve_depth(depth)
        self.steps = None if steps is None else list(steps)
        if self.steps is not None and (self.depth == 0
                                       or sum(self.steps) != len(self.indices)):
            raise ValueError(
                f"fold steps {self.steps} need readahead (depth {self.depth}) and "
                f"must cover the {len(self.indices)} requested chunks"
            )
        self._pool: ThreadPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None

    def __iter__(self) -> Iterator:
        """Yield decoded chunks, or each fold step's fetched items, in request order."""
        if self.steps is None and (self.depth == 0 or len(self.indices) <= 1):
            for index in self.indices:
                yield self.store.read_chunk(index)
            return
        items = self._fetched()
        try:
            if self.steps is None:
                for real, local, item in items:
                    yield _consume(real, local, item)
            else:
                for size in self.steps:
                    yield list(islice(items, size))
        finally:
            items.close()

    def _fetched(self) -> Iterator[tuple[object, int, tuple[str, object]]]:
        """Yield ``(store, local index, fetched item)`` in order, fetching ahead."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=DEFAULT_PREFETCH_WORKERS, thread_name_prefix="repro-prefetch"
            )
            self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        spans = _plan_spans(self.store, self.indices)
        window: deque[tuple[object, list[int], Future]] = deque()

        def submit_next() -> bool:
            """Move one span from the plan into the in-flight window."""
            try:
                real, locals_ = next(spans)
            except StopIteration:
                return False
            window.append((real, locals_, self._pool.submit(_fetch_ahead, real, locals_)))
            return True

        try:
            for _ in range(self.depth):
                if not submit_next():
                    break
            while window:
                real, locals_, future = window.popleft()
                submit_next()  # keep the window full before blocking
                for local, item in zip(locals_, future.result()):
                    yield real, local, item
                    if item[0] == "error":
                        return  # the consumer raises it; the stream ends there
        finally:
            self.close()

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop the fetch pool and join its threads (idempotent)."""
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "ChunkPrefetcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChunkPrefetcher(chunks={len(self.indices)}, depth={self.depth})"


def warm_store_cache(store, indices: Iterable[int] | None = None) -> int:
    """Decode ``store``'s uncached chunks into its attached chunk cache.

    The explicit warm-up (:meth:`repro.serving.StoreCatalog.prefetch`):
    span-reads every chunk of ``indices`` (default: all) that is not already
    cached, one :func:`_plan_spans` span at a time, decodes it, and inserts it
    with ``prefetched=True`` so the cache's prefetch effectiveness counters
    track whether warmed entries were later used or evicted unused.  At most
    one span's payloads are resident at once.  Warming counts into
    ``chunks_prefetched`` but **not** ``chunks_read`` — no logical read
    happened yet.  Returns the number of chunks warmed; a store without a
    cache warms nothing.
    """
    if store.chunk_cache is None:
        return 0
    chunk_indices = range(store.n_chunks) if indices is None else indices
    warmed = 0
    for real, locals_ in _plan_spans(store, chunk_indices):
        cache = real.chunk_cache
        if cache is None:  # pragma: no cover - shards share the parent cache
            continue
        path = str(real.path)
        misses = [local for local in locals_ if (path, local) not in cache]
        if not misses:
            continue
        payloads = real.read_payload_span(misses)
        real._note_prefetched(len(misses))
        for local in misses:
            chunk = real._chunk_from_payload(local, payloads[local])
            cache.put((path, local), chunk, prefetched=True)
            warmed += 1
    return warmed
