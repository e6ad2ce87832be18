"""Parity of the readahead span decode with the per-chunk read paths.

With readahead on and no chunk cache, a fused sweep hands each fold step's
fetched records to :func:`repro.core.codec.decode_span` at once instead of
decoding chunk by chunk and joining.  Each case here runs the same step
sweep (:func:`repro.streaming.sources.aligned_spans`) three ways:

* ``span`` — the default readahead path under test;
* ``serial`` — ``prefetch=0``, the per-chunk ``read_chunk`` reference;
* ``chunked`` — readahead decoding per chunk, then joining each step
  (the readahead path before span decoding).

The joined chunks, or the error type and chunk, and ``chunks_read`` must
match ``serial``; ``preads`` and ``chunks_prefetched``, which count fetch
spans and readahead, must match ``chunked``.  Every store here fits in one
fetch window, so even a failed sweep fetches the same spans on both
readahead paths.
"""

from __future__ import annotations

import struct
import threading
from unittest import mock

import numpy as np
import pytest

from repro import engine
from repro.codecs import get_codec
from repro.core import CompressionSettings, codec
from repro.core.exceptions import CodecError, IntegrityError
from repro.engine import expr
from repro.serving import ChunkCache
from repro.streaming import (
    CompressedStore,
    ShardedStore,
    append_shard,
    init_sharded_store,
    prefetch,
    sources,
    stream_compress,
)
from repro.streaming.sharded import shard_filename
from tests.conftest import smooth_field

SETTINGS = CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")
CODEC = get_codec("pyblaz", settings=SETTINGS)
DEPTH = 4


def _sweep(stores: tuple, mode: str) -> list[tuple]:
    """Every fold step's joined chunks, read through ``mode``."""
    if mode == "chunked":
        steps = sources.fold_steps(stores)
        iterator = sources._batched(sources.aligned_chunks(stores, prefetch=DEPTH), steps)
    else:
        iterator = sources.aligned_spans(stores, prefetch=0 if mode == "serial" else DEPTH)
    return list(iterator)


def _outcome(opener, mode: str) -> dict:
    """Sweep freshly opened stores in ``mode``; the steps or the error, and counters."""
    stores = opener()
    try:
        try:
            steps = _sweep(stores, mode)
            result = [tuple((chunk.shape, chunk.maxima.tobytes(), chunk.indices.tobytes())
                            for chunk in step) for step in steps]
        except ValueError as exc:  # CodecError and IntegrityError included
            result = (type(exc), getattr(exc, "chunk_index", None), str(exc))
        counters = [(store.chunks_read, store.chunks_prefetched, store.preads)
                    for store in stores]
    finally:
        for store in stores:
            store.close()
    return {"result": result, "read": [c[0] for c in counters],
            "fetched": [c[1:] for c in counters]}


def _assert_parity(opener) -> dict:
    span, serial, chunked = (_outcome(opener, mode)
                             for mode in ("span", "serial", "chunked"))
    assert span["result"] == serial["result"]
    assert span["read"] == serial["read"]
    assert span["fetched"] == chunked["fetched"]
    assert chunked["result"] == serial["result"]
    return span


def _flip(path, index: int, at=None) -> None:
    """Flip a byte of chunk ``index``'s record: at ``at`` bytes in, else mid-record."""
    with CompressedStore(path) as store:
        offset, n_bytes, _ = store._record_extent(index)
    position = offset + (n_bytes // 2 if at is None else at)
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)[0]
        handle.seek(position)
        handle.write(bytes([byte ^ 0xFF]))


def _write_legacy_store(path, version: int, chunks) -> None:
    """A store without checksums: v2 (pyblaz streams) or v1 (raw records)."""
    with open(path, "wb") as handle:
        if version == 2:
            name = CODEC.name.encode("ascii")
            handle.write(b"PBLZC" + struct.pack("<BB", 2, len(name)) + name)
        else:
            handle.write(b"PBLZC" + struct.pack("<B", 1)
                         + codec.pack_type_codes(SETTINGS, SETTINGS.ndim)
                         + codec.pack_block_geometry(SETTINGS))
        table = []
        for chunk in chunks:
            if version == 2:
                payload = CODEC.to_bytes(chunk)
            else:
                payload = (codec.pack_floats(chunk.maxima, SETTINGS.float_format)
                           + chunk.indices.astype("<i2").tobytes())
            table.append((handle.tell(), len(payload), chunk.shape[0]))
            handle.write(payload)
        footer_offset = handle.tell()
        footer = struct.pack("<Q", len(table))
        for offset, n_bytes, n_rows in table:
            footer += (struct.pack("<QQQ", offset, n_bytes, n_rows) if version == 2
                       else struct.pack("<QQ", offset, n_rows))
        shape = (sum(entry[2] for entry in table),) + chunks[0].shape[1:]
        if version == 2:
            footer += struct.pack("<Q", len(shape))
        footer += struct.pack(f"<{len(shape)}Q", *shape)
        handle.write(footer + struct.pack("<Q", footer_offset) + b"PBLZE")


def _legacy_store(path, version: int):
    field = smooth_field((64, 20), seed=4)
    chunks = [CODEC.compress(field[row:row + 8]) for row in range(0, 64, 8)]
    _write_legacy_store(path, version, chunks)
    return path


@pytest.fixture
def one_step(tmp_path):
    """An 8-chunk v3 store: one fold step, one fetch span."""
    path = tmp_path / "field.pblzc"
    stream_compress(smooth_field((64, 20), seed=3), path, CODEC, slab_rows=8).close()
    with CompressedStore(path) as store:
        assert sources.fold_steps((store,)) == [8]
    return path


def test_clean_sweep_matches(one_step):
    span = _assert_parity(lambda: (CompressedStore(one_step),))
    assert span["read"] == [8]
    # all 8 chunks prefetched in one pread, after the settings peek at chunk 0
    assert span["fetched"] == [(8, 2)]


@pytest.mark.parametrize("retry", [True, False], ids=["retry", "no-retry"])
def test_crc_failure_mid_step(one_step, retry):
    _flip(one_step, 3)
    kwargs = {} if retry else {"retry_policy": None}
    span = _assert_parity(lambda: (CompressedStore(one_step, **kwargs),))
    assert span["result"][:2] == (IntegrityError, 3)
    assert span["read"] == [3]


def test_corrupt_contents_mid_step_without_crc(tmp_path):
    """A v2 record whose row count is garbage fails to decode at its own chunk."""
    path = _legacy_store(tmp_path / "legacy.pblzc", 2)
    _flip(path, 3, at=9)  # the low byte of the stream's row count
    span = _assert_parity(lambda: (CompressedStore(path),))
    kind, _, message = span["result"]
    assert kind is CodecError and "corrupt chunk 3" in message
    assert span["read"] == [3]


def test_row_count_mismatch_across_sources(tmp_path):
    """A last record that claims 6 rows still decodes; the sources then disagree."""
    paths = [_legacy_store(tmp_path / f"{name}.pblzc", 2) for name in "ab"]
    with CompressedStore(paths[1]) as store:
        offset = store._record_extent(7)[0]
    with open(paths[1], "r+b") as handle:
        handle.seek(offset + 9)  # the low byte of the stream's row count
        handle.write(bytes([6]))
    span = _assert_parity(lambda: tuple(CompressedStore(path) for path in paths))
    kind, _, message = span["result"]
    assert kind is ValueError and "chunk shapes differ" in message


def test_v1_records_decode_per_chunk(tmp_path):
    path = _legacy_store(tmp_path / "v1.pblzc", 1)
    with CompressedStore(path) as store:
        assert store.version == 1 and not store._span_decodable
    span = _assert_parity(lambda: (CompressedStore(path),))
    assert span["read"] == [8]


def test_first_error_across_sources_wins(tmp_path):
    """Two corrupt sources: the serial loop's first failing chunk tuple decides."""
    paths = []
    for name, bad in (("a", 5), ("b", 3)):
        path = tmp_path / f"{name}.pblzc"
        stream_compress(smooth_field((64, 20), seed=bad), path, CODEC, slab_rows=8).close()
        _flip(path, bad)
        paths.append(path)
    span = _assert_parity(lambda: tuple(CompressedStore(path) for path in paths))
    assert span["result"][:2] == (IntegrityError, 3)
    assert span["read"] == [4, 3]


@pytest.fixture
def straddling(tmp_path):
    """A 2-shard store whose first fold step spans the shard boundary."""
    path = tmp_path / "grown.shards"
    init_sharded_store(path, smooth_field((40, 20), seed=5), SETTINGS,
                       slab_rows=8).close()
    append_shard(path, smooth_field((40, 20), seed=6), slab_rows=8).close()
    with ShardedStore(path) as store:
        assert store.n_shards == 2
        assert sources.fold_steps((store,)) == [8, 2]
    return path


def test_step_straddling_shards(straddling):
    span = _assert_parity(lambda: (ShardedStore(straddling),))
    assert span["read"] == [10]
    assert span["fetched"][0][0] == 10


def test_crc_failure_in_second_shard_of_a_step(straddling):
    _flip(straddling / shard_filename(1), 1)
    span = _assert_parity(lambda: (ShardedStore(straddling),))
    assert span["result"][:2] == (IntegrityError, 1)  # shard-local chunk index
    assert span["read"] == [6]


def test_chunk_cache_counts_unchanged(one_step):
    def sweep_twice(prefetch_depth):
        cache = ChunkCache(max_bytes=64 * 1024 * 1024)
        with CompressedStore(one_step) as store:
            store.chunk_cache = cache
            steps = [list(sources.aligned_spans((store,), prefetch=prefetch_depth))
                     for _ in range(2)]
            assert store.chunks_read == 16
        return steps, cache.hits, cache.misses

    readahead, serial = sweep_twice(DEPTH), sweep_twice(0)
    assert readahead[1:] == serial[1:] == (8, 8)
    for left, right in zip(readahead[0], serial[0]):
        for a, b in zip(left, right):
            assert np.array_equal(a[0].maxima, b[0].maxima)
            assert np.array_equal(a[0].indices, b[0].indices)


def test_default_sweep_decodes_one_span_per_step(one_step, tmp_path):
    other = tmp_path / "other.pblzc"
    stream_compress(smooth_field((64, 20), seed=7), other, CODEC, slab_rows=8).close()
    with CompressedStore(one_step) as a, CompressedStore(other) as b:
        request = {"mean": expr.mean(expr.source(a)), "dot": expr.dot(expr.source(a),
                                                                     expr.source(b))}
        reference = engine.evaluate(request, prefetch=0)
        with mock.patch.object(prefetch, "decode_span", wraps=prefetch.decode_span) as spy:
            values = engine.evaluate(request)
        assert values == reference
        assert spy.call_count == 2  # one 8-chunk step per source
        assert a.chunks_read == b.chunks_read == 16


def test_steps_must_cover_the_chunks_and_need_readahead(one_step):
    with CompressedStore(one_step) as store:
        with pytest.raises(ValueError, match="must cover the 8 requested chunks"):
            prefetch.ChunkPrefetcher(store, depth=DEPTH, steps=[4])
        with pytest.raises(ValueError, match="need readahead"):
            prefetch.ChunkPrefetcher(store, depth=0, steps=[8])


def test_abandoned_step_sweep_leaks_no_threads(straddling):
    baseline = threading.active_count()
    with ShardedStore(straddling) as store:
        iterator = sources.aligned_spans((store,), prefetch=DEPTH)
        next(iterator)
        iterator.close()
        assert threading.active_count() == baseline
        assert store.chunks_read == 8
