"""Property: folding one read span per step equals in-memory ops bit for bit.

Serial plan sweeps over store sources join up to ``DEFAULT_SPAN_CHUNKS``
aligned chunks per source into one array and fold it in one step.  Every
per-block partial sum reduces over that block's own elements, and the exact
finalize does not depend on how the per-block vectors were grouped, so every
fused scalar must ``==`` :mod:`repro.core.ops` on the store's assembled
:meth:`load_compressed` array.  Hypothesis sweeps 2-D and 3-D blocks, chunk
sizes with ragged last chunks, pruning masks, structural ``scale``/
``negate``/``add``/``subtract`` nodes, sharded stores whose shard boundaries
fall inside a span, and chunks that decode with distinct but equal settings
objects.
"""

import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings as hyp_settings, strategies as st

from repro import engine
from repro.core import CompressionSettings, codec, ops
from repro.core.pruning import corner_pruning_mask
from repro.engine import expr
from repro.streaming import (
    ChunkedCompressor,
    ShardedStore,
    append_shard,
    init_sharded_store,
)

#: op name -> arity; the fusable reduction set.
ARITY = {
    "mean": 1,
    "l2_norm": 1,
    "variance": 1,
    "standard_deviation": 1,
    "dot": 2,
    "covariance": 2,
    "euclidean_distance": 2,
    "cosine_similarity": 2,
}

#: structural wrappers applied to the first operand: (expression, in-memory)
WRAPPERS = {
    "none": (lambda x, y: x, lambda a, b: a),
    "scale": (lambda x, y: expr.scale(x, -1.5), lambda a, b: ops.multiply_scalar(a, -1.5)),
    "negate": (lambda x, y: expr.negate(x), lambda a, b: ops.negate(a)),
    "add": (lambda x, y: expr.add(x, y), lambda a, b: ops.add(a, b)),
    "subtract": (lambda x, y: expr.subtract(x, y), lambda a, b: ops.subtract(a, b)),
}


class _NeverCached(dict):
    """A settings cache that never hits: every decoded chunk gets its own object."""

    def get(self, key, default=None):
        return default


@st.composite
def span_case(draw):
    """Two arrays, block settings, chunking (maybe ragged), layout, ops, wrapper."""
    block = draw(st.sampled_from([(4, 4), (8, 8), (2, 4), (4, 4, 4), (2, 2, 4)]))
    block_rows = block[0]
    slab_rows = draw(st.integers(1, 2)) * block_rows
    n_full = draw(st.integers(1, 20))
    ragged = draw(st.integers(0, block_rows - 1))
    rows = n_full * slab_rows + ragged
    tail = tuple(draw(st.integers(1, 9)) for _ in block[1:])
    pruned = draw(st.booleans())
    settings = CompressionSettings(
        block_shape=block,
        float_format=draw(st.sampled_from(["float32", "float64"])),
        index_dtype=draw(st.sampled_from(["int8", "int16"])),
        pruning_mask=(corner_pruning_mask(block, [extent // 2 for extent in block])
                      if pruned else None),
    )
    # shard boundaries, in whole chunks; boundaries off multiples of the span
    # size land inside a span
    n_chunks = -(-rows // slab_rows)
    cuts = sorted(draw(st.sets(st.integers(1, n_chunks - 1), max_size=3))) \
        if n_chunks > 1 else []
    sharded = draw(st.booleans())
    names = sorted(draw(st.sets(st.sampled_from(sorted(ARITY)), min_size=1)))
    wrapper = draw(st.sampled_from(sorted(WRAPPERS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = (rows,) + tail
    a = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05
    b = np.cumsum(rng.standard_normal(shape), axis=0) * 0.05 + 0.1
    fresh_settings = draw(st.booleans())
    return (a, b, settings, slab_rows, (cuts if sharded else None), names,
            wrapper, fresh_settings)


def _open(workdir: Path, name: str, array, settings, slab_rows, cuts):
    """A plain store, or a sharded store split at the chunk boundaries ``cuts``."""
    if cuts is None:
        return ChunkedCompressor(settings, slab_rows=slab_rows).compress_to_store(
            array, workdir / f"{name}.pblzc"
        )
    path = workdir / f"{name}.shards"
    bounds = [cut * slab_rows for cut in cuts] + [array.shape[0]]
    # partials off: every group must sweep, none may be partial-served
    init_sharded_store(path, array[:bounds[0]], settings, slab_rows=slab_rows,
                       update_partials=False).close()
    for start, stop in zip(bounds, bounds[1:]):
        append_shard(path, array[start:stop], slab_rows=slab_rows,
                     update_partials=False).close()
    return ShardedStore(path)


@contextmanager
def _stores(a, b, settings, slab_rows, cuts):
    """Self-managed temp dir + store pair (Hypothesis forbids tmp_path in @given)."""
    with tempfile.TemporaryDirectory(prefix="span_prop_") as tmp, ExitStack() as stack:
        workdir = Path(tmp)
        yield tuple(stack.enter_context(_open(workdir, name, array, settings,
                                              slab_rows, cuts))
                    for name, array in (("a", a), ("b", b)))


class TestSpanFoldsMatchInMemory:
    @given(case=span_case())
    @hyp_settings(max_examples=40, deadline=None)
    def test_fused_scalars_equal_core_ops(self, case):
        a, b, settings, slab_rows, cuts, names, wrapper, fresh_settings = case
        with ExitStack() as stack:
            if fresh_settings:
                stack.enter_context(
                    mock.patch.object(codec, "_DECODED_SETTINGS", _NeverCached())
                )
            self._check(a, b, settings, slab_rows, cuts, names, wrapper)

    @staticmethod
    def _check(a, b, settings, slab_rows, cuts, names, wrapper):
        with _stores(a, b, settings, slab_rows, cuts) as (store_a, store_b):
            if cuts is not None:
                assert store_a.n_shards == len(cuts) + 1
            build, apply = WRAPPERS[wrapper]
            x, y = expr.source(store_a), expr.source(store_b)
            left = build(x, y)
            memory_b = store_b.load_compressed()
            memory_a = apply(store_a.load_compressed(), memory_b)
            if "cosine_similarity" in names and 0.0 in (ops.l2_norm(memory_a),
                                                        ops.l2_norm(memory_b)):
                names = [name for name in names if name != "cosine_similarity"] \
                    or ["mean"]
            request = {}
            expected = {}
            for name in names:
                builder = getattr(expr, name)
                function = getattr(ops, name)
                if ARITY[name] == 1:
                    request[name] = builder(left)
                    expected[name] = function(memory_a)
                else:
                    request[name] = builder(left, y)
                    expected[name] = function(memory_a, memory_b)
            built = engine.plan(request)
            assert built.execute() == expected
            assert built.execute(prefetch=0) == expected
            assert built.last_execution["incremental_groups"] == 0
