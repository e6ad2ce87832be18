"""Where chunk reads fail: error positions on every read path, closed stores.

A sweep over a store with one corrupt chunk ``k`` must yield (and count)
chunks ``0 .. k-1`` and then raise the :class:`IntegrityError` naming chunk
``k`` — whether it reads serially, through the readahead pipeline, or through
``load_region``'s inline span reader, on a single or a sharded store.
"""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.codecs import get_codec
from repro.core import CompressionSettings
from repro.core.exceptions import IntegrityError
from repro.streaming import (
    CompressedStore,
    ShardedStore,
    append_shard,
    init_sharded_store,
    stream_compress,
)
from tests.conftest import smooth_field

SETTINGS = CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")
CODEC = get_codec("pyblaz", settings=SETTINGS)
MODES = ("serial", "readahead", "region")


def _corrupt(path, index) -> None:
    """Flip one byte inside chunk ``index``'s record of the store at ``path``."""
    with CompressedStore(path) as store:
        offset, n_bytes, _ = store._record_extent(index)
    with open(path, "r+b") as handle:
        handle.seek(offset + n_bytes // 2)
        byte = handle.read(1)[0]
        handle.seek(offset + n_bytes // 2)
        handle.write(bytes([byte ^ 0xFF]))


def _sweep(store, mode) -> tuple[int, IntegrityError]:
    """Read every chunk in ``mode``; return the chunks seen and the error."""
    seen = 0
    with pytest.raises(IntegrityError) as caught:
        if mode == "region":
            store.load_region(slice(None))
        else:
            for _ in store.iter_chunks(prefetch=0 if mode == "serial" else 4):
                seen += 1
    return seen, caught.value


class TestErrorPosition:
    @pytest.mark.parametrize("retry", [True, False], ids=["retry", "no-retry"])
    @pytest.mark.parametrize("mode", MODES)
    def test_single_store(self, tmp_path, mode, retry):
        path = tmp_path / "field.pblzc"
        stream_compress(smooth_field((128, 20), seed=3), path, CODEC,
                        slab_rows=8).close()
        _corrupt(path, 3)
        kwargs = {} if retry else {"retry_policy": None}
        with CompressedStore(path, **kwargs) as store:
            assert store.n_chunks == 16
            seen, error = _sweep(store, mode)
            assert error.chunk_index == 3
            assert store.chunks_read == 3
            if mode != "region":
                assert seen == 3

    @pytest.mark.parametrize("mode", MODES)
    def test_sharded_store(self, tmp_path, mode):
        path = tmp_path / "grown.shards"
        init_sharded_store(path, smooth_field((64, 20), seed=4), SETTINGS,
                           slab_rows=8).close()
        append_shard(path, smooth_field((64, 20), seed=5), slab_rows=8).close()
        with ShardedStore(path) as store:
            shard_path = store.shard_paths()[1]
        _corrupt(shard_path, 3)  # global chunk 8 + 3
        with ShardedStore(path) as store:
            assert store.n_chunks == 16
            seen, error = _sweep(store, mode)
            assert (error.path, error.chunk_index) == (shard_path, 3)
            assert store.chunks_read == 11
            if mode != "region":
                assert seen == 11


class TestClosedShardedStore:
    def test_counters_kept_and_reads_raise(self, tmp_path):
        path = tmp_path / "grown.shards"
        init_sharded_store(path, smooth_field((16, 8), seed=6), SETTINGS,
                           slab_rows=8).close()
        append_shard(path, smooth_field((16, 8), seed=7), slab_rows=8).close()
        store = ShardedStore(path)
        store.load_region(slice(0, 16))  # opens shard 0 only
        counters = (store.chunks_read, store.preads)
        assert counters[0] == 2
        store.close()
        assert (store.chunks_read, store.preads) == counters

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            # the opened shard fails as any closed CompressedStore does; the
            # unopened one must fail too instead of reopening its file
            for index in (0, store.n_chunks - 1):
                with pytest.raises(ValueError):
                    store.read_chunk(index)
            with pytest.raises(ValueError):
                store.load_region(slice(16, 32))
            gc.collect()
        assert store.chunks_read == counters[0]
        assert set(store._shards) == {0}  # nothing reopened

