"""Span-batched fused sweeps, the row-concatenation helper and executor counters.

Serial plan sweeps over store sources fold one span per step (at most
``DEFAULT_SPAN_CHUNKS`` chunks and ``FOLD_STEP_COEFFICIENTS`` coefficients,
aligned chunk tuples joined per source with
:func:`repro.core.compressed.concatenate_rows`); caller-supplied iterables
keep one chunk per step.  These tests pin the step counts, the
helper's contract, and that work counters (``chunks_read``,
``prefetch_depth``) report the same truth on every execution path.
"""

import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import engine
from repro.core import CompressionSettings, Compressor, ops
from repro.core.compressed import concatenate_rows
from repro.core.pruning import corner_pruning_mask
from repro.engine import compile as plan_compile
from repro.engine import expr
from repro.parallel import ProcessExecutor
from repro.streaming import (
    ChunkedCompressor,
    ShardedStore,
    append_shard,
    init_sharded_store,
)
from repro.streaming.prefetch import DEFAULT_SPAN_CHUNKS
from repro.streaming.sources import FOLD_STEP_COEFFICIENTS, fold_steps

from tests.conftest import smooth_field

# the module, not the ``repro.engine.plan`` function the package re-exports
plan_module = importlib.import_module("repro.engine.plan")


@pytest.fixture
def settings():
    return CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")


@pytest.fixture
def field():
    # 19 chunks of 4 rows: two full spans plus a 3-chunk tail span
    return smooth_field((76, 12), seed=11)


@pytest.fixture
def store(tmp_path, settings, field):
    with ChunkedCompressor(settings, slab_rows=4).compress_to_store(
        field, tmp_path / "field.pblzc"
    ) as opened:
        yield opened


@pytest.fixture
def sharded(tmp_path, settings):
    path = tmp_path / "grown.shards"
    init_sharded_store(path, smooth_field((36, 12), seed=1), settings,
                       slab_rows=8).close()
    append_shard(path, smooth_field((22, 12), seed=2), slab_rows=8).close()
    with ShardedStore(path) as opened:
        yield opened


class TestConcatenateRows:
    def test_joins_store_chunks_into_the_one_shot_array(self, store, settings,
                                                        field):
        joined = concatenate_rows(list(store.iter_chunks(prefetch=0)))
        one_shot = Compressor(settings).compress(field)
        assert joined.shape == one_shot.shape
        assert np.array_equal(joined.maxima, one_shot.maxima)
        assert np.array_equal(joined.indices, one_shot.indices)

    def test_ragged_last_chunk_is_accepted(self, settings):
        chunks = [Compressor(settings).compress(smooth_field(shape, seed=3))
                  for shape in ((8, 12), (4, 12), (3, 12))]
        joined = concatenate_rows(chunks)
        assert joined.shape == (15, 12)
        assert joined.n_blocks == sum(chunk.n_blocks for chunk in chunks)

    def test_single_chunk_result_owns_its_arrays(self, settings):
        chunk = Compressor(settings).compress(smooth_field((8, 12), seed=4))
        joined = concatenate_rows([chunk])
        assert joined is not chunk
        assert not np.shares_memory(joined.indices, chunk.indices)
        assert np.array_equal(joined.indices, chunk.indices)

    def test_rejects_different_settings(self, settings):
        other = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                    index_dtype="int8")
        data = smooth_field((8, 12), seed=5)
        with pytest.raises(ValueError, match="chunk 1 has different compression"):
            concatenate_rows([Compressor(settings).compress(data),
                              Compressor(other).compress(data)])

    def test_accepts_equal_pruned_settings_objects(self):
        # two equal settings objects carrying a pruning mask: the dataclass
        # ``==`` would compare the mask arrays elementwise and raise
        first, second = (
            CompressionSettings(block_shape=(4, 4),
                                pruning_mask=corner_pruning_mask((4, 4), (2, 2)))
            for _ in range(2)
        )
        assert first is not second
        data = smooth_field((16, 12), seed=8)
        chunks = [Compressor(first).compress(data[:8]),
                  Compressor(second).compress(data[8:])]
        joined = concatenate_rows(chunks)
        assert np.array_equal(joined.indices,
                              Compressor(first).compress(data).indices)

    def test_rejects_a_different_pruning_mask(self):
        data = smooth_field((8, 12), seed=8)
        kept, pruned = (
            CompressionSettings(block_shape=(4, 4),
                                pruning_mask=corner_pruning_mask((4, 4), drop))
            for drop in ((1, 1), (2, 2))
        )
        with pytest.raises(ValueError, match="chunk 1 has different compression"):
            concatenate_rows([Compressor(kept).compress(data),
                              Compressor(pruned).compress(data)])

    def test_rejects_different_trailing_shapes(self, settings):
        with pytest.raises(ValueError, match=r"chunk 1 has trailing shape \(8,\)"):
            concatenate_rows([
                Compressor(settings).compress(smooth_field((8, 12), seed=6)),
                Compressor(settings).compress(smooth_field((8, 8), seed=6)),
            ])

    def test_rejects_a_ragged_chunk_before_the_last(self, settings):
        with pytest.raises(ValueError, match="chunk 0 has 6 rows"):
            concatenate_rows([
                Compressor(settings).compress(smooth_field((6, 12), seed=7)),
                Compressor(settings).compress(smooth_field((8, 12), seed=7)),
            ])

    def test_rejects_no_chunks(self):
        with pytest.raises(ValueError, match="zero chunks"):
            concatenate_rows([])


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so each call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


REQUEST = {"mean": expr.mean, "variance": expr.variance,
           "l2_norm": expr.l2_norm}


class TestStepCount:
    @pytest.mark.parametrize("prefetch", [None, 0])
    def test_store_sources_step_once_per_span(self, monkeypatch, store,
                                              prefetch):
        steps = _count_calls(monkeypatch, plan_module, "_evaluate_chunk_terms")
        source = expr.source(store)
        built = engine.plan({name: op(source) for name, op in REQUEST.items()})
        before = store.chunks_read
        built.execute(prefetch=prefetch)
        spans = math.ceil(store.n_chunks / DEFAULT_SPAN_CHUNKS)
        assert store.n_chunks == 19 and spans == 3
        assert len(steps) == spans * built.n_passes
        # one decode per chunk per pass, exactly as before batching
        assert built.decode_passes == (2,)
        assert store.chunks_read - before == 2 * store.n_chunks

    def test_chunks_over_the_budget_step_once_per_chunk(self, monkeypatch,
                                                        tmp_path, settings):
        # 512x256 chunks hold 131072 coefficients each, twice the step budget,
        # so each folds alone, exactly as before spans
        with ChunkedCompressor(settings, slab_rows=512).compress_to_store(
            smooth_field((1536, 256), seed=12), tmp_path / "wide.pblzc"
        ) as large:
            assert 512 * 256 > FOLD_STEP_COEFFICIENTS
            assert fold_steps((large,)) == [1, 1, 1]
            steps = _count_calls(monkeypatch, plan_module,
                                 "_evaluate_chunk_terms")
            source = expr.source(large)
            built = engine.plan({name: op(source) for name, op in REQUEST.items()})
            values = built.execute()
            assert len(steps) == large.n_chunks * built.n_passes
            memory = large.load_compressed()
            assert values == {name: getattr(ops, name)(memory) for name in REQUEST}

    def test_steps_stop_at_the_chunk_cap_and_the_coefficient_budget(self):
        # rows of 1024 coefficients: the budget is 64 rows
        assert FOLD_STEP_COEFFICIENTS == 64 * 1024

        def steps(*chunk_rows):
            return fold_steps((SimpleNamespace(shape=(sum(chunk_rows), 32, 32),
                                               chunk_rows=chunk_rows),))

        assert steps(*[4] * 19) == [8, 8, 3]
        # four 16-row chunks fill the budget exactly; a 64-row chunk fits
        # alone; a 100-row chunk is over it and folds alone
        assert steps(*[16] * 6, 64, 100, 3) == [4, 2, 1, 1, 1]

    def test_iterable_sources_step_once_per_chunk(self, monkeypatch, store):
        chunks = list(store.iter_chunks(prefetch=0))
        steps = _count_calls(monkeypatch, plan_module, "_evaluate_chunk_terms")
        source = expr.source(chunks)
        built = engine.plan({name: op(source) for name, op in REQUEST.items()})
        built.execute()
        assert len(steps) == len(chunks) * built.n_passes

    def test_compiled_steps_run_once_per_span(self, monkeypatch, store):
        steps = _count_calls(monkeypatch, plan_compile, "run_compiled_step")
        source = expr.source(store)
        built = engine.plan({name: op(source) for name, op in REQUEST.items()})
        built.execute(backend="gemm")
        assert built.last_execution["compiled_groups"] == built.n_passes
        assert len(steps) == math.ceil(store.n_chunks / DEFAULT_SPAN_CHUNKS) * 2


def _unservable(source) -> dict:
    """Two decoding passes a sharded store cannot answer from its partials."""
    return {"variance": expr.variance(source),
            "distance": expr.euclidean_distance(source, source)}


class TestExecutorAccounting:
    def test_process_executor_counts_plain_store_reads(self, store):
        built = engine.plan(_unservable(expr.source(store)))
        before = store.chunks_read
        pooled = built.execute(executor=ProcessExecutor(n_workers=2))
        assert store.chunks_read - before == 2 * store.n_chunks
        assert built.last_execution["prefetch_depth"] == 0
        assert pooled == built.execute(prefetch=0)

    def test_process_executor_counts_reads_per_shard(self, sharded):
        built = engine.plan(_unservable(expr.source(sharded)))
        assert sharded.n_shards == 2
        built.execute(executor=ProcessExecutor(n_workers=2))
        assert built.last_execution["prefetch_depth"] == 0
        # only the settings lookup opened a shard here: crediting the
        # workers' reads opens none
        assert set(sharded._shards) == {0}
        assert sharded.chunks_read == 2 * sharded.n_chunks
        for index in range(sharded.n_shards):
            shard = sharded.shard(index)
            assert shard.chunks_read == 2 * shard.n_chunks
        assert sharded.chunks_read == 2 * sharded.n_chunks


class TestPrefetchDepth:
    def test_iterable_sources_report_zero(self, store):
        built = engine.plan(expr.mean(expr.source(list(store.iter_chunks()))))
        built.execute()
        assert built.last_execution["prefetch_depth"] == 0

    def test_partial_served_groups_report_zero(self, sharded):
        built = engine.plan(expr.mean(expr.source(sharded)))
        built.execute()
        assert built.last_execution["incremental_groups"] == 1
        assert built.last_execution["prefetch_depth"] == 0

    def test_single_chunk_store_reports_zero(self, tmp_path, settings):
        with ChunkedCompressor(settings, slab_rows=64).compress_to_store(
            smooth_field((16, 12), seed=9), tmp_path / "one.pblzc"
        ) as single:
            built = engine.plan(expr.mean(expr.source(single)))
            built.execute(prefetch=4)
            assert single.n_chunks == 1
            assert built.last_execution["prefetch_depth"] == 0
