"""Out-of-core compressed-domain operations over chunked stores.

This module closes the gap between the in-memory operation set of
:mod:`repro.core.ops` (which needs a fully materialised
:class:`repro.core.CompressedArray`) and the chunk-table
:class:`repro.streaming.CompressedStore`: every Table I scalar reduction and
the linear structural operations run here **chunk at a time**, so a store of
any size is reduced — or rewritten — in chunk-sized memory.

Since the lazy engine landed, every scalar reduction here (:func:`mean`,
:func:`variance`, :func:`standard_deviation`, :func:`covariance`, :func:`dot`,
:func:`l2_norm`, :func:`euclidean_distance`, :func:`cosine_similarity`) is a
**thin one-op plan** over :mod:`repro.engine`: the function builds the matching
expression node and executes it.  The bit-identity contract is unchanged —
because the engine folds the same declarative
:data:`repro.core.ops.folds.FOLD_SPECS` partials in the same chunk order with
the same exact (correctly rounded) combine, a store-level reduction equals its in-memory
counterpart on the assembled array **bit for bit** whenever the chunks assemble
bit-identically (stores written under the ``reference`` kernel backend); under
the fast backends the two agree within the backend's documented
``accumulation_tolerance`` (see ``docs/ops.md``).  Callers that want several
reductions should hand them to :func:`repro.engine.plan` directly and pay one
fused sweep instead of one sweep per call (``docs/engine.md``).

Every scalar reduction also takes ``backend=`` and forwards it to
:meth:`repro.engine.Plan.execute`: the default ``None`` keeps the bit-exact
``reference`` sweep above; a fast backend name (``"gemm"``, ``"numba"``) runs
the fold through one compiled fused-pass kernel within the backend's
``fused_fold_tolerance`` (``docs/engine.md``, "Compiled plans"), falling back
to ``reference`` when unavailable.

Structural operations (:func:`add`, :func:`subtract`, :func:`scale`,
:func:`negate`) map :mod:`repro.core.ops` over the chunks and append each
result to a new store immediately — lazy, bounded memory, and bit-identical to
running the in-memory operation on the assembled array *and serializing the
result* (rebinning is per-block; persisting rounds the per-block maxima to the
working float format, exactly as ``serialize`` does for the in-memory result).
With an ``executor`` and store sources, per-chunk transforms fan out through
the bounded-window ordered :meth:`BlockExecutor.imap_jobs
<repro.parallel.BlockExecutor.imap_jobs>`, so workers decode and transform
concurrently while the writer appends in deterministic chunk order.

Memory contract: a serial reduction folds at most **one span (≤ 8
chunks and ≤ 65,536 coefficients, or one larger chunk) per store source, or one
chunk per iterable source** at a time, and a serial structural op transforms
one chunk (pair) at a time; partial states are one float64 per block per
tracked quantity.  With an ``executor`` (any
:class:`repro.parallel.BlockExecutor`),
per-chunk work fans out through the executor's job hooks — up to ``n_workers``
chunks decode concurrently (each worker reopens the store, so process pools
work too), and combine/append order is fixed by chunk order, keeping results
deterministic.

Sources may be a :class:`CompressedStore` (of a pyblaz-family codec) or any
iterable of chunk :class:`CompressedArray` objects.  Two-pass reductions
(:func:`variance`, :func:`covariance`) and the structural operations must be
able to re-iterate their source, so they reject single-shot generators.
"""

from __future__ import annotations

import math

from .. import engine
from ..core import ops as core_ops
from ..engine import expr
from .sharded import open_store
from .sources import STORE_TYPES, aligned_chunks, check_stores, require_pyblaz
from .store import CompressedStore, CompressedStoreWriter

__all__ = [
    "mean",
    "variance",
    "standard_deviation",
    "covariance",
    "dot",
    "l2_norm",
    "euclidean_distance",
    "cosine_similarity",
    "add",
    "subtract",
    "scale",
    "negate",
]


# ---------------------------------------------------------------------- scalar ops
def mean(source, *, padded: bool = True, executor=None, backend=None,
         prefetch=None) -> float:
    """Store-level mean (Algorithm 7), folded chunk-by-chunk.

    Matches :func:`repro.core.ops.mean` of the assembled array bit for bit
    (chunking-invariant fold; no error beyond compression).  ``padded`` selects
    the zero-padded (paper) or original-element-count domain.
    """
    return engine.evaluate(expr.mean(source, padded=padded), executor=executor,
                           backend=backend, prefetch=prefetch)


def l2_norm(source, *, executor=None, backend=None, prefetch=None) -> float:
    """Store-level L2 norm (Algorithm 10), folded chunk-by-chunk.

    Matches :func:`repro.core.ops.l2_norm` of the assembled array bit for bit;
    one square root at the end, so no per-chunk rounding is reintroduced.
    """
    return engine.evaluate(expr.l2_norm(source), executor=executor,
                           backend=backend, prefetch=prefetch)


def dot(a, b, *, executor=None, backend=None, prefetch=None) -> float:
    """Store-level dot product (Algorithm 6) of two identically chunked sources.

    Matches :func:`repro.core.ops.dot` of the assembled arrays bit for bit.
    The sources must agree chunk-by-chunk in shape and settings; two stores
    written with the same ``slab_rows`` satisfy this.
    """
    return engine.evaluate(expr.dot(a, b), executor=executor,
                           backend=backend, prefetch=prefetch)


def euclidean_distance(a, b, *, executor=None, backend=None,
                       prefetch=None) -> float:
    """Store-level Euclidean distance ``‖a − b‖₂`` without writing a difference.

    Matches :func:`repro.core.ops.euclidean_distance` of the assembled arrays
    bit for bit — the difference is taken in coefficient space per chunk, so no
    rebinning error and no intermediate store.
    """
    return engine.evaluate(expr.euclidean_distance(a, b), executor=executor,
                           backend=backend, prefetch=prefetch)


def cosine_similarity(a, b, *, executor=None, backend=None,
                      prefetch=None) -> float:
    """Store-level cosine similarity (Algorithm 11) in one pass over the chunks.

    Matches :func:`repro.core.ops.cosine_similarity` of the assembled arrays
    bit for bit; raises ``ZeroDivisionError`` for zero-norm operands.
    """
    return engine.evaluate(expr.cosine_similarity(a, b), executor=executor,
                           backend=backend, prefetch=prefetch)


def variance(source, *, executor=None, backend=None, prefetch=None) -> float:
    """Store-level variance (Algorithm 9), two exact passes over the chunks.

    Pass 1 folds the global DC mean, pass 2 folds the squared centered
    coefficients — the same two passes :func:`repro.core.ops.variance` runs
    in-memory, so the results match bit for bit.  The source must be
    re-iterable (a store, or a sequence of chunks).
    """
    return engine.evaluate(expr.variance(source), executor=executor,
                           backend=backend, prefetch=prefetch)


def standard_deviation(source, *, executor=None, backend=None,
                       prefetch=None) -> float:
    """Store-level standard deviation: the square root of :func:`variance`."""
    return engine.evaluate(expr.standard_deviation(source), executor=executor,
                           backend=backend, prefetch=prefetch)


def covariance(a, b, *, executor=None, backend=None, prefetch=None) -> float:
    """Store-level covariance (Algorithm 8), two exact passes over the chunks.

    Pass 1 folds each source's global DC mean, pass 2 folds the centered
    products — matching :func:`repro.core.ops.covariance` of the assembled
    arrays bit for bit.  Sources must be identically chunked and re-iterable.
    """
    return engine.evaluate(expr.covariance(a, b), executor=executor,
                           backend=backend, prefetch=prefetch)


# ---------------------------------------------------------------------- structural ops
#: Chunk transforms addressable by name, so executor jobs stay picklable.
_STRUCTURAL_OPS = {
    "add": core_ops.add,
    "subtract": core_ops.subtract,
    "scale": core_ops.multiply_scalar,
    "negate": core_ops.negate,
}


def _structural_chunk_job(operation: str, paths: tuple, index: int, extra: tuple):
    """Picklable per-chunk work unit for the structural fan-out.

    Reopens each store by path (workers may live in other processes), decodes
    only chunk ``index`` of each, and returns the transformed result chunk.
    """
    chunks = []
    for path in paths:
        with open_store(path) as store:
            chunks.append(store.read_chunk(index))
    return _STRUCTURAL_OPS[operation](*chunks, *extra)


def _map_to_store(operation: str, sources: tuple, path, executor=None,
                  extra: tuple = (), prefetch=None) -> CompressedStore:
    """Apply an in-memory chunk operation chunk-by-chunk into a new store.

    The result store mirrors the source chunking; only one input chunk (pair)
    and its result chunk are alive at a time (with an ``executor``, at most
    the bounded ``imap_jobs`` window of results).  Writing serializes each
    result chunk, which rounds its per-block maxima to the working float
    format — so the output store equals ``deserialize(serialize(op(assembled)))``
    bit for bit (indices are bit-identical outright; maxima after that one
    rounding, the same rounding any persisted in-memory result undergoes).
    Returns the store reopened for reading.

    With an ``executor`` and store-only sources, per-chunk transforms fan out
    through the executor's ordered bounded-window ``imap_jobs`` — workers
    decode and transform concurrently, and the writer appends strictly in
    chunk order, so the output is bit-identical to the serial path.

    On the serial path, ``prefetch`` (default auto) pipelines the input
    store's record reads ahead of the transform-and-append loop, so the
    writer never waits on the disk between chunks; ``prefetch=0`` restores
    the strict serial loop (``docs/performance.md``).
    """
    transform = _STRUCTURAL_OPS[operation]
    if executor is not None and sources and all(
        isinstance(source, STORE_TYPES) for source in sources
    ):
        for source in sources:
            require_pyblaz(source)
        check_stores(sources)
        paths = tuple(str(source.path) for source in sources)
        jobs = [(operation, paths, index, extra)
                for index in range(sources[0].n_chunks)]
        results = executor.imap_jobs(_structural_chunk_job, jobs)
        first = next(iter(results))
        with CompressedStoreWriter(path, first.settings) as writer:
            writer.append(first)
            first = None
            for chunk in results:
                writer.append(chunk)
        return CompressedStore(path)

    iterator = aligned_chunks(sources, prefetch=prefetch)
    try:
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("cannot operate on an empty chunk stream") from None
        result = transform(*first, *extra)
        first = None
        with CompressedStoreWriter(path, result.settings) as writer:
            writer.append(result)
            result = None
            for chunks in iterator:
                writer.append(transform(*chunks, *extra))
                chunks = None
    finally:
        iterator.close()
    return CompressedStore(path)


def negate(source, path, *, executor=None, prefetch=None) -> CompressedStore:
    """Write the negated array to ``path`` chunk-by-chunk (Algorithm 1; exact).

    Bit-identical to :func:`repro.core.ops.negate` of the assembled array —
    negation touches only indices, so no rebinning occurs.
    """
    return _map_to_store("negate", (source,), path, executor, prefetch=prefetch)


def scale(source, factor: float, path, *, executor=None,
          prefetch=None) -> CompressedStore:
    """Write ``factor · source`` to ``path`` chunk-by-chunk (Algorithm 5; exact).

    Scaling touches only the per-block maxima (and index signs); the result
    equals the serialized in-memory :func:`repro.core.ops.multiply_scalar` of
    the assembled array bit for bit (persisting rounds the scaled maxima to
    the working float format).  Raises ``ValueError`` for non-finite factors
    before any chunk is written.
    """
    factor = float(factor)
    if not math.isfinite(factor):
        raise ValueError("scalar must be finite")
    return _map_to_store("scale", (source,), path, executor, extra=(factor,),
                         prefetch=prefetch)


def add(a, b, path, *, executor=None, prefetch=None) -> CompressedStore:
    """Write the element-wise sum to ``path`` chunk-by-chunk (Algorithm 2).

    Error contract: rebinning only (half a bin width of the new per-block
    maxima), exactly as in-memory — rebinning is per-block, so the result
    equals the serialized in-memory :func:`repro.core.ops.add` of the
    assembled arrays bit for bit.
    """
    return _map_to_store("add", (a, b), path, executor, prefetch=prefetch)


def subtract(a, b, path, *, executor=None, prefetch=None) -> CompressedStore:
    """Write the element-wise difference ``a − b`` to ``path`` chunk-by-chunk.

    Same rebinning-only contract (and serialized bit-identity to
    :func:`repro.core.ops.subtract`) as :func:`add`.
    """
    return _map_to_store("subtract", (a, b), path, executor, prefetch=prefetch)
