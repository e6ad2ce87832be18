"""Shared chunk-source plumbing for the out-of-core operation layers.

Both :mod:`repro.streaming.ops` (one-op sweeps, structural store writers) and
the lazy plan engine (:mod:`repro.engine.plan`) consume the same two source
kinds — an open :class:`CompressedStore` of a pyblaz-family codec, or any
iterable of chunk :class:`repro.core.CompressedArray` objects — and need the
same guarantees about them: pyblaz-ness, aligned chunking across sources, and
matching store geometry.  Those checks live here, in the streaming layer, so
the engine depends downward on streaming (never the reverse).
"""

from __future__ import annotations

import math
from itertools import accumulate, groupby, islice, pairwise
from operator import itemgetter
from typing import Iterator, Sequence

from ..core.compressed import CompressedArray, concatenate_rows
from ..core.exceptions import CodecError
from .prefetch import (DEFAULT_SPAN_CHUNKS, ChunkPrefetcher, _consume, _consume_step,
                       coalesce_spans, readahead_depth)
from .sharded import ShardedStore
from .store import CompressedStore

__all__ = [
    "STORE_TYPES",
    "require_pyblaz",
    "source_chunks",
    "aligned_chunks",
    "aligned_spans",
    "fold_steps",
    "FOLD_STEP_COEFFICIENTS",
    "check_stores",
]

#: The open-store source kinds every layer treats interchangeably: a single
#: chunked store file, or a sharded store directory presenting the same
#: surface.  ``isinstance(source, STORE_TYPES)`` is the one idiom for "this
#: source is a reopenable on-disk store" across ops, engine and serving.
STORE_TYPES = (CompressedStore, ShardedStore)


def require_pyblaz(store) -> None:
    """Reject stores whose chunks are not pyblaz-family compressed arrays."""
    if store.settings is None:
        raise CodecError(
            f"compressed-domain ops fold pyblaz chunks via core.ops; this "
            f"store holds {store.codec_name!r} streams"
        )


def source_chunks(source, *, prefetch: int | None = None) -> Iterator[CompressedArray]:
    """Iterate a source's chunks: a store's records or an iterable's items.

    ``prefetch`` passes through to :meth:`CompressedStore.iter_chunks
    <repro.streaming.CompressedStore.iter_chunks>` for store sources (``None``
    auto-enables readahead, ``0`` keeps the serial loop); in-memory iterables
    ignore it.
    """
    if isinstance(source, STORE_TYPES):
        require_pyblaz(source)
        return source.iter_chunks(prefetch=prefetch)
    return iter(source)


def aligned_chunks(sources: tuple, *, prefetch: int | None = None) -> Iterator[tuple]:
    """Yield aligned chunk tuples across sources, enforcing identical chunking.

    With ``prefetch`` enabled (the default auto mode), every store source
    reads ahead through its own :class:`~repro.streaming.ChunkPrefetcher`;
    the lockstep zip below consumes them jointly, so multi-source sweeps
    (dot, covariance, structural binaries) pipeline all their inputs at once.
    Abandoning or closing this generator closes every source iterator, which
    shuts the prefetchers' fetch pools down promptly.
    """
    iterators = [source_chunks(source, prefetch=prefetch) for source in sources]
    try:
        yield from _zip_aligned(iterators)
    finally:
        for iterator in iterators:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


def _zip_aligned(iterators: list) -> Iterator[tuple]:
    """Zip chunk iterators in lockstep, rejecting ragged or misshapen tuples."""
    sentinel = object()
    while True:
        chunks = tuple(next(iterator, sentinel) for iterator in iterators)
        if all(chunk is sentinel for chunk in chunks):
            return
        if any(chunk is sentinel for chunk in chunks):
            raise ValueError(
                "binary compressed-domain ops require identically chunked "
                "sources (one ran out of chunks early)"
            )
        shapes = {tuple(chunk.shape) for chunk in chunks}
        if len(shapes) > 1:
            raise ValueError(
                f"chunk shapes differ ({' vs '.join(map(str, shapes))}); "
                "recompress with matching slab_rows"
            )
        yield chunks
        chunks = None  # release the previous chunk tuple before decoding the next


#: Coefficients one fold step may hold (512 KiB of dense float64 per source).
#: Joining chunks pays only while a step's fixed numpy-call cost is large next
#: to its arithmetic; measured on a 2-vCPU Xeon, steps past this budget lose
#: time and memory to the join and to cache misses (``docs/performance.md``).
FOLD_STEP_COEFFICIENTS = 1 << 16


def fold_steps(sources: tuple) -> list[int]:
    """Chunk counts of the fused engine's successive fold steps over store ``sources``.

    The read-span rule (:func:`~repro.streaming.prefetch.coalesce_spans`)
    applied to the chunks' coefficient counts: a step joins consecutive
    chunks while it holds at most :data:`DEFAULT_SPAN_CHUNKS` chunks and
    :data:`FOLD_STEP_COEFFICIENTS` coefficients, and a chunk over the budget
    folds alone, exactly as a caller iterable's chunk does.  Sweeps require
    identically chunked sources, so the first source's chunking decides.
    """
    first = sources[0]
    row_size = math.prod(first.shape[1:])
    offsets = accumulate((rows * row_size for rows in first.chunk_rows), initial=0)
    extents = [(index, offset, stop - offset)
               for index, (offset, stop) in enumerate(pairwise(offsets))]
    return [len(span) for span in coalesce_spans(
        extents, max_bytes=FOLD_STEP_COEFFICIENTS, max_chunks=DEFAULT_SPAN_CHUNKS)]


def aligned_spans(sources: tuple, *, prefetch: int | None = None) -> Iterator[tuple]:
    """Yield aligned chunk tuples batched into spans: the fused engine's step unit.

    When every source is an open store, each :func:`fold_steps` step yields
    one chunk per source joining the step's chunks.  With readahead on and no
    chunk cache attached, each source's
    :class:`~repro.streaming.ChunkPrefetcher` hands over a whole step's
    fetched records, which decode straight into that one chunk
    (:func:`~repro.core.codec.decode_span`); otherwise the step's decoded
    chunks are joined with :func:`~repro.core.compressed.concatenate_rows`,
    so cache hits and misses stay per chunk.  Every per-block value of a
    joined chunk has its chunk's bits, so folds over spans equal folds over
    chunks exactly.  Caller-supplied iterables keep one chunk tuple per step:
    their memory bound is one chunk per source.
    """
    if not all(isinstance(source, STORE_TYPES) for source in sources):
        return aligned_chunks(sources, prefetch=prefetch)
    steps = fold_steps(sources)
    depth = readahead_depth(sources[0], prefetch)
    if depth and all(source.chunk_cache is None
                     and source.chunk_rows == sources[0].chunk_rows
                     for source in sources):
        for source in sources:
            require_pyblaz(source)
        return _decoded_steps(
            [ChunkPrefetcher(source, depth=depth, steps=steps) for source in sources]
        )
    return _batched(aligned_chunks(sources, prefetch=prefetch), steps)


def _decoded_steps(prefetchers: list) -> Iterator[tuple]:
    """One joined chunk per source per fold step, decoded from fetched records.

    A step whose columns all decode in one piece (:func:`_consume_step`)
    counts its reads and yields.  Any other step — a fetch error, a corrupt
    or irregular record — replays the serial loop's order instead: chunk by
    chunk, source by source, through the per-chunk consumer, so the same
    error surfaces at the same chunk with the same reads counted ahead of it.
    """
    iterators = [iter(prefetcher) for prefetcher in prefetchers]
    try:
        for columns in zip(*iterators):
            spans = tuple(_consume_step(column) for column in columns)
            if None in spans or len({span.shape for span in spans}) > 1:
                spans = _join(list(_zip_aligned(
                    [(_consume(*piece) for piece in column) for column in columns]
                )))
            else:
                for column in columns:
                    for real, pieces in groupby(column, key=itemgetter(0)):
                        real._note_read(sum(1 for _ in pieces))
            columns = None  # hold only the joined spans while they are folded
            yield spans
            spans = None  # release them before decoding the next step
    finally:
        for iterator in iterators:
            iterator.close()


def _batched(iterator, steps: list[int]) -> Iterator[tuple]:
    """Join each fold step's aligned tuples into one tuple of joined chunks."""
    try:
        for size in steps:
            batch = list(islice(iterator, size))
            span = _join(batch)
            batch = None  # hold only the joined span while it is folded
            yield span
            span = None  # release it before decoding the next
    finally:
        iterator.close()


def _join(batch: list[tuple]) -> tuple:
    """One joined chunk per source from a batch of aligned tuples."""
    if len(batch) == 1:
        return batch[0]
    return tuple(concatenate_rows(column) for column in zip(*batch))


def check_stores(sources: Sequence) -> None:
    """Cheap upfront geometry checks across every open-store source."""
    stores = [source for source in sources if isinstance(source, STORE_TYPES)]
    if len(stores) < 2:
        return
    first = stores[0]
    for other in stores[1:]:
        if other.shape != first.shape:
            raise ValueError(
                f"stores have different shapes ({first.shape} vs {other.shape})"
            )
        if other.chunk_rows != first.chunk_rows:
            raise ValueError(
                f"stores are chunked differently (chunk rows {first.chunk_rows} "
                f"vs {other.chunk_rows}); recompress with matching slab_rows"
            )
