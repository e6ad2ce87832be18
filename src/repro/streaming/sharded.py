"""Sharded append-mode stores with persisted incremental fold partials.

A *sharded store* is a directory holding a versioned JSON ``manifest.json``
over N immutable :class:`~repro.streaming.store.CompressedStore` shard files::

    my_data/
        manifest.json          per-shard geometry, sizes, CRC-32s, revision
        shard-000000.pblzc     ordinary chunked store (rows 0..r0)
        partials-000000.npz    persisted fold partials for shard 0
        shard-000001.pblzc     appended later (rows r0..r0+r1)
        partials-000001.npz

:class:`ShardedStore` presents the same geometry / ``read_chunk`` /
``load_region`` / ``chunks_read`` surface as a single store — the global chunk
index is the concatenation of every shard's chunks in shard order — so the
source plumbing (:mod:`repro.streaming.sources`), the plan engine and the
serving catalog accept one interchangeably with a :class:`CompressedStore`
(open either via :func:`open_store`).  Shards open lazily: reading a region
touches only the shards whose rows intersect it.

**Append** (:func:`append_shard`) never rewrites published bytes: each append
compresses the new rows into a *new* shard file, computes that shard's fold
partials, and atomically republishes the manifest with a bumped ``revision``.
Recorded per-shard CRCs therefore stay valid forever, and a reader holding the
previous manifest simply keeps its (consistent) older view.

**Incremental fold maintenance.**  For pyblaz-family shards the append path
persists, per shard, the concatenated per-chunk per-block partial vectors of
the uncentered folds (``dc`` and ``square`` — ``square`` also serves
``product(x, x)``, whose per-block arithmetic is identical) plus the counts a
:class:`~repro.core.ops.folds.FoldState` carries.  :meth:`ShardedStore.fold_state`
reassembles the accumulated state without decoding any chunk, and the plan
engine serves ``mean`` / ``l2_norm`` / ``dot(x, x)`` (and pass 1 of
``variance``) straight from it — so a query over a growing store costs O(new
chunks) at append time and O(shards) at query time.  The result is **bit
identical** to a cold sweep: the correctly rounded sum in
:func:`repro.core.ops.folds.total` sees the same float64 per-block values whether they
come from a live sweep's per-chunk vectors or from the persisted per-shard
concatenations of those same vectors.

**Staleness detection** is deliberately cheap: a shard entry whose partials
were never written (``append_shard(..., update_partials=False)``), whose
sidecar file is missing, or whose shard file size no longer matches the
manifest makes :meth:`ShardedStore.fold_state` return ``None``, and callers
fall back to a full sweep.  Deep integrity (per-chunk checksums) remains
``repro verify-store``'s job, which recurses into shards.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from ..codecs.base import Codec
from ..codecs.registry import get_codec
from ..codecs.serialization import DECODE_ERRORS
from ..core.compressed import CompressedArray
from ..core.exceptions import CodecError
from ..core.ops import folds
from ..core.settings import CompressionSettings
from ..reliability.retry import DEFAULT_READ_RETRY, RetryPolicy
from .chunked import stream_compress
from .store import CompressedStore

__all__ = [
    "ShardedStore",
    "init_sharded_store",
    "append_shard",
    "refresh_partials",
    "open_store",
    "is_sharded_store",
    "load_manifest",
    "save_manifest",
    "shard_filename",
    "partials_filename",
    "MANIFEST_NAME",
    "PARTIAL_FOLDS",
]

#: Name of the manifest file inside a sharded-store directory.
MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-sharded-store"
_MANIFEST_VERSION = 1
#: Folds whose per-shard partial vectors are persisted at append time.  The
#: ``square`` vectors double as ``product(x, x)`` (bitwise-identical per-block
#: arithmetic), so dot-with-self and cosine-with-self are incremental too.
PARTIAL_FOLDS = ("dc", "square")


# ------------------------------------------------------------------ layout
def shard_filename(index: int) -> str:
    """File name of shard ``index`` inside the store directory."""
    return f"shard-{index:06d}.pblzc"


def partials_filename(index: int) -> str:
    """File name of shard ``index``'s fold-partial sidecar."""
    return f"partials-{index:06d}.npz"


def is_sharded_store(path) -> bool:
    """True when ``path`` is a directory holding a sharded-store manifest."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def load_manifest(path) -> dict:
    """Read and validate the manifest of the sharded store directory ``path``.

    Raises :class:`CodecError` for a missing/garbled manifest, a foreign
    ``format`` marker, or a manifest written by a newer layout version than
    this reader understands.
    """
    path = Path(path)
    try:
        with open(path / MANIFEST_NAME, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CodecError(
            f"cannot read sharded-store manifest at {path}: {exc}"
        ) from exc
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise CodecError(
            f"{path} is not a sharded store (manifest format "
            f"{manifest.get('format')!r})"
        )
    version = int(manifest.get("version", 0))
    if version < 1 or version > _MANIFEST_VERSION:
        raise CodecError(
            f"sharded-store manifest at {path} is layout version {version}; "
            f"this reader supports versions 1..{_MANIFEST_VERSION}"
        )
    return manifest


def save_manifest(path, manifest: dict) -> None:
    """Atomically publish ``manifest`` as ``path``'s manifest file.

    The JSON lands in a temp sibling first and is renamed over the final name,
    so a crash mid-write never leaves a torn manifest — readers see either the
    previous revision or the new one, both internally consistent.
    """
    path = Path(path)
    temp = path / (MANIFEST_NAME + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    temp.replace(path / MANIFEST_NAME)


def _file_crc32(path) -> int:
    """CRC-32 of a whole file, streamed in 1 MiB blocks."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            crc = zlib.crc32(block, crc)
    return crc


# ------------------------------------------------------------------ partials
def _compute_partials(store: CompressedStore) -> "dict[str, np.ndarray] | None":
    """One shard's persisted fold state: concatenated per-chunk vectors + counts.

    Iterates the shard's chunks once, folding each through the uncentered
    partials (:data:`PARTIAL_FOLDS`).  Per-chunk per-block vectors are
    concatenated *in chunk order*, so summing them later exactly
    sees the float64 values a live sweep would, in the same order —
    the bit-identity invariant.  Returns ``None`` for non-pyblaz shards (no
    fold algebra applies); omits ``dc`` when the first coefficient was pruned.
    """
    settings = store.settings
    if settings is None:
        return None
    dc_parts: "list[np.ndarray] | None" = (
        [] if settings.first_coefficient_kept else None
    )
    square_parts: list[np.ndarray] = []
    n_blocks = n_elements = n_padded = 0
    for chunk in store.iter_chunks():
        if dc_parts is not None:
            dc_parts.append(folds.dc_partial(chunk).sums["dc"][0])
        state = folds.square_partial(chunk)
        square_parts.append(state.sums["square"][0])
        n_blocks += state.n_blocks
        n_elements += state.n_elements
        n_padded += state.n_padded_elements
    payload = {
        "square": np.concatenate(square_parts),
        "n_blocks": np.int64(n_blocks),
        "n_elements": np.int64(n_elements),
        "n_padded_elements": np.int64(n_padded),
        "dc_scale": np.float64(settings.dc_scale),
    }
    if dc_parts is not None:
        payload["dc"] = np.concatenate(dc_parts)
    return payload


def _write_partials(directory: Path, index: int, store: CompressedStore) -> bool:
    """Persist shard ``index``'s fold partials as an ``.npz`` sidecar.

    Written to a temp sibling and renamed into place (same atomic-publish
    discipline as the stores and the manifest).  Returns False — and writes
    nothing — for shards without a fold algebra (non-pyblaz codecs).
    """
    payload = _compute_partials(store)
    if payload is None:
        return False
    target = directory / partials_filename(index)
    temp = directory / (partials_filename(index) + ".tmp")
    with open(temp, "wb") as handle:
        np.savez(handle, **payload)
    temp.replace(target)
    return True


# ------------------------------------------------------------------ init / append
def _resolve_codec(codec: "Codec | CompressionSettings | str") -> Codec:
    """Accept a codec instance, pyblaz settings, or a registry name."""
    if isinstance(codec, CompressionSettings):
        from ..codecs.pyblaz import PyBlazCodec

        return PyBlazCodec(settings=codec)
    if isinstance(codec, str):
        return get_codec(codec)
    if isinstance(codec, Codec):
        return codec
    raise CodecError(
        f"sharded stores need a Codec, CompressionSettings or codec name, "
        f"got {codec!r}"
    )


def init_sharded_store(
    path, array, codec: "Codec | CompressionSettings | str", *,
    slab_rows: int | None = None, update_partials: bool = True,
) -> "ShardedStore":
    """Create a sharded store at directory ``path`` with ``array`` as shard 0.

    The directory must not exist (or be empty); the array is compressed
    slab-by-slab via :func:`repro.streaming.stream_compress` into
    ``shard-000000.pblzc``, the shard's fold partials are persisted (unless
    ``update_partials=False``), and the manifest is published atomically.
    Returns the store opened for reading.
    """
    path = Path(path)
    codec = _resolve_codec(codec)
    if path.exists():
        if not path.is_dir() or any(path.iterdir()):
            raise CodecError(
                f"shard-init target {path} already exists and is not an "
                "empty directory"
            )
    else:
        path.mkdir(parents=True)
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "codec": codec.name,
        "shape": [],
        "revision": 0,
        "shards": [],
    }
    return _append(path, manifest, np.asarray(array), codec, slab_rows,
                   update_partials)


def _codec_for_append(path: Path, manifest: dict) -> Codec:
    """Rebuild the codec the existing shards were written with.

    Pyblaz-family parameters are self-describing (recovered from shard 0's
    settings); other codecs fall back to their registry defaults — pass an
    explicit ``codec`` to :func:`append_shard` to override.
    """
    name = manifest["codec"]
    if manifest["shards"]:
        with CompressedStore(path / manifest["shards"][0]["file"]) as first:
            settings = first.settings
        if settings is not None:
            return get_codec(name, settings=settings)
    return get_codec(name)


def append_shard(
    path, array, *, slab_rows: int | None = None,
    codec: "Codec | CompressionSettings | str | None" = None,
    update_partials: bool = True,
) -> "ShardedStore":
    """Append ``array``'s rows to the sharded store at ``path`` as a new shard.

    The new rows are compressed into the next ``shard-NNNNNN.pblzc`` file
    (existing shards are immutable — their recorded CRCs stay valid), the
    shard's fold partials are computed — O(new chunks), the whole point —
    and the manifest is republished with ``revision`` bumped by one.

    Constraints mirror :class:`CompressedStoreWriter.append`: the trailing
    shape must match the store's, and for block-aligned codecs (pyblaz) every
    *existing* chunk must cover whole block rows — only the globally last
    chunk may be ragged, so appending after a ragged shard is an error.
    ``update_partials=False`` skips the sidecar (the entry is marked stale and
    queries fall back to full sweeps until :func:`refresh_partials` runs).
    Returns the store reopened with the new manifest.
    """
    path = Path(path)
    manifest = load_manifest(path)
    array = np.asarray(array)
    resolved = (_codec_for_append(path, manifest) if codec is None
                else _resolve_codec(codec))
    if resolved.name != manifest["codec"]:
        raise CodecError(
            f"sharded store {path} holds {manifest['codec']!r} shards; cannot "
            f"append {resolved.name!r} data"
        )
    tail = tuple(int(extent) for extent in manifest["shape"][1:])
    if tuple(array.shape[1:]) != tail:
        raise CodecError(
            f"appended trailing shape {tuple(array.shape[1:])} does not match "
            f"the store's trailing shape {tail}"
        )
    multiple = max(1, resolved.chunk_row_multiple)
    if multiple > 1:
        for entry in manifest["shards"]:
            if any(rows % multiple for rows in entry["chunk_rows"]):
                raise CodecError(
                    "a chunk with a partial block row was already appended; "
                    "only the final chunk may have a row count that is not a "
                    f"multiple of the block extent {multiple}"
                )
    return _append(path, manifest, array, resolved, slab_rows, update_partials)


def _append(path: Path, manifest: dict, array: np.ndarray, codec: Codec,
            slab_rows: int | None, update_partials: bool) -> "ShardedStore":
    """Write one new shard + sidecar, then atomically republish the manifest."""
    index = len(manifest["shards"])
    shard_path = path / shard_filename(index)
    store = stream_compress(array, shard_path, codec, slab_rows=slab_rows)
    try:
        entry: dict = {
            "file": shard_filename(index),
            "rows": int(store.shape[0]),
            "chunk_rows": [int(rows) for rows in store.chunk_rows],
            "partials": bool(update_partials
                             and _write_partials(path, index, store)),
        }
    finally:
        store.close()
    entry["n_bytes"] = os.path.getsize(shard_path)
    entry["crc32"] = _file_crc32(shard_path)
    if not manifest["shards"]:
        manifest["shape"] = [entry["rows"]] + [int(e) for e in array.shape[1:]]
    else:
        manifest["shape"][0] = int(manifest["shape"][0]) + entry["rows"]
    manifest["shards"].append(entry)
    manifest["revision"] = int(manifest.get("revision", 0)) + 1
    save_manifest(path, manifest)
    return ShardedStore(path)


def refresh_partials(path) -> int:
    """(Re)compute every missing per-shard partial sidecar; return the count.

    The repair path for stores appended with ``update_partials=False`` (or
    whose sidecars were lost): each stale shard is swept once, its sidecar
    rewritten, and the manifest republished with the entries marked fresh.
    The revision is *not* bumped — the logical contents are unchanged.
    """
    path = Path(path)
    manifest = load_manifest(path)
    written = 0
    for index, entry in enumerate(manifest["shards"]):
        if entry.get("partials") and (path / partials_filename(index)).is_file():
            continue
        with CompressedStore(path / entry["file"]) as store:
            if _write_partials(path, index, store):
                entry["partials"] = True
                written += 1
    if written:
        save_manifest(path, manifest)
    return written


# ------------------------------------------------------------------ the store
class ShardedStore:
    """Read-only view of a sharded store directory, shaped like one big store.

    The global chunk index concatenates every shard's chunks in shard order;
    ``read_chunk``/``iter_chunks``/``load_region``/``load`` behave exactly as
    on a single :class:`CompressedStore` over the assembled rows.  Shards open
    lazily (and stay open, shared) the first time one of their chunks is
    touched, so manifest-only operations — geometry, planning, partial-served
    queries — never open a shard file beyond the settings probe.

    Parameters
    ----------
    path:
        Sharded store directory (must hold a ``manifest.json``).
    retry_policy:
        Per-shard record-read retry policy, as for :class:`CompressedStore`.
    use_partials:
        When False, :meth:`fold_state` always returns ``None`` — the engine
        then sweeps chunks exactly as for a single store.  The benchmark's
        full-sweep baseline uses this.

    Attributes
    ----------
    codec_name, shape, revision:
        Straight from the manifest (no shard file is opened).
    chunks_read, chunks_prefetched, preads, read_retries:
        Sums over the shards opened so far — the same instrumentation
        contract tests rely on for single stores.
    chunk_cache:
        Optional decoded-chunk cache, propagated to every shard; entries key
        by each *shard's* path, so invalidation stays per shard.
    """

    def __init__(self, path, *, retry_policy: RetryPolicy | None = DEFAULT_READ_RETRY,
                 use_partials: bool = True):
        self.path = Path(path)
        self.manifest = load_manifest(self.path)
        self.version = int(self.manifest["version"])
        self.codec_name = str(self.manifest["codec"])
        self.revision = int(self.manifest.get("revision", 0))
        self.use_partials = use_partials
        self.retry_policy = retry_policy
        self.shape = tuple(int(extent) for extent in self.manifest["shape"])
        self._entries = list(self.manifest["shards"])
        if not self._entries:
            raise CodecError(f"sharded store {self.path} has no shards")
        self._codec: Codec | None = None
        self._chunk_cache = None
        self._shards: dict[int, CompressedStore] = {}
        self._partials: dict[int, dict] = {}
        # global chunk index: (shard index, local chunk index, n_rows, row_start)
        self._index: list[tuple[int, int, int, int]] = []
        row_start = 0
        for shard_index, entry in enumerate(self._entries):
            for local, rows in enumerate(entry["chunk_rows"]):
                self._index.append((shard_index, local, int(rows), row_start))
                row_start += int(rows)
        if row_start != self.shape[0]:
            raise CodecError(
                f"corrupt sharded manifest: shard chunk rows sum to "
                f"{row_start}, stored shape is {self.shape}"
            )

    # -------------------------------------------------------------- geometry
    @property
    def ndim(self) -> int:
        """Dimensionality of the stored array."""
        return len(self.shape)

    @property
    def n_shards(self) -> int:
        """Number of shard files the manifest describes."""
        return len(self._entries)

    @property
    def n_chunks(self) -> int:
        """Total chunk records across every shard."""
        return len(self._index)

    @property
    def chunk_rows(self) -> tuple[int, ...]:
        """Row count of every chunk, global (shard-concatenated) order."""
        return tuple(rows for _, _, rows, _ in self._index)

    @property
    def chunks_read(self) -> int:
        """Logical chunk reads so far, summed over the opened shards."""
        return sum(shard.chunks_read for shard in self._shards.values())

    @property
    def chunks_prefetched(self) -> int:
        """Payloads fetched ahead by the readahead pipeline, over opened shards."""
        return sum(shard.chunks_prefetched for shard in self._shards.values())

    @property
    def preads(self) -> int:
        """Physical record reads issued, summed over the opened shards."""
        return sum(shard.preads for shard in self._shards.values())

    @property
    def read_retries(self) -> int:
        """Record-read retries so far, summed over the opened shards."""
        return sum(shard.read_retries for shard in self._shards.values())

    @property
    def settings(self) -> CompressionSettings | None:
        """Shared pyblaz-family settings (from shard 0), or ``None``."""
        return self.shard(0).settings

    @property
    def dtype(self) -> np.dtype:
        """Element dtype chunk decompression produces (delegated to shard 0)."""
        return self.shard(0).dtype

    @property
    def codec(self) -> Codec:
        """A default instance of the store's codec (decoding needs no parameters)."""
        if self._codec is None:
            self._codec = get_codec(self.codec_name)
        return self._codec

    def use_codec(self, codec: Codec) -> None:
        """Swap the decoding codec instance (same stream format) on every shard."""
        if codec.name != self.codec_name:
            raise CodecError(
                f"store holds {self.codec_name!r} chunks; cannot decode them "
                f"with codec {codec.name!r}"
            )
        self._codec = codec
        for shard in self._shards.values():
            shard.use_codec(codec)

    @property
    def chunk_cache(self):
        """The decoded-chunk cache attached to this store's shards (or None)."""
        return self._chunk_cache

    @chunk_cache.setter
    def chunk_cache(self, cache) -> None:
        """Attach ``cache`` to every current and future shard (keys stay per shard)."""
        self._chunk_cache = cache
        for shard in self._shards.values():
            shard.chunk_cache = cache

    # -------------------------------------------------------------- shards
    def shard(self, index: int) -> CompressedStore:
        """The open :class:`CompressedStore` for shard ``index`` (lazy, shared)."""
        store = self._shards.get(index)
        if store is None:
            store = CompressedStore(self.path / self._entries[index]["file"],
                                    retry_policy=self.retry_policy)
            if self._chunk_cache is not None:
                store.chunk_cache = self._chunk_cache
            if self._codec is not None:
                store.use_codec(self._codec)
            self._shards[index] = store
        return store

    def shard_paths(self) -> tuple[str, ...]:
        """Every shard file path, in shard order (cache keys use these)."""
        return tuple(str(self.path / entry["file"]) for entry in self._entries)

    def locate(self, index: int) -> tuple[int, int]:
        """Map a global chunk index to ``(shard index, local chunk index)``."""
        shard_index, local, _, _ = self._index[index]
        return shard_index, local

    def _shard_runs(self, indices) -> Iterator[tuple[int, list[tuple[int, int]]]]:
        """Split global chunk ``indices`` into consecutive same-shard runs.

        Yields ``(shard index, [(global index, local index), ...])`` in input
        order; the coalesced readers work per shard file, so runs are the unit
        both :meth:`load_region` and the prefetcher fetch by.
        """
        run_shard: int | None = None
        run: list[tuple[int, int]] = []
        for index in indices:
            shard_index, local = self.locate(index)
            if run and shard_index != run_shard:
                yield run_shard, run
                run = []
            run_shard = shard_index
            run.append((index, local))
        if run:
            yield run_shard, run

    # -------------------------------------------------------------- chunk access
    def read_chunk(self, index: int):
        """Decode global chunk ``index`` (lazily opening its shard)."""
        shard_index, local, _, _ = self._index[index]
        return self.shard(shard_index).read_chunk(local)

    def iter_chunks(self, *, prefetch: int | None = None) -> Iterator:
        """Yield every chunk's compressed object in global row order.

        ``prefetch`` selects the pipelined readahead exactly as on
        :meth:`CompressedStore.iter_chunks`; the prefetcher crosses shard
        boundaries seamlessly (spans never straddle two shard files, but the
        window does, so the next shard's records are already in flight while
        the previous shard's tail decodes).
        """
        from .prefetch import ChunkPrefetcher, resolve_depth

        depth = resolve_depth(prefetch, n_chunks=self.n_chunks)
        if depth == 0:
            for index in range(self.n_chunks):
                yield self.read_chunk(index)
            return
        fetcher = ChunkPrefetcher(self, depth=depth)
        try:
            yield from fetcher
        finally:
            fetcher.close()

    def decompress_chunk(self, chunk) -> np.ndarray:
        """Decompress one chunk object with the store's codec."""
        try:
            return self.codec.decompress(chunk)
        except CodecError:
            raise
        except DECODE_ERRORS as exc:
            raise CodecError(
                f"corrupt chunk contents in {self.codec_name} store: {exc}"
            ) from exc

    def load_compressed(self) -> CompressedArray:
        """Assemble the full pyblaz :class:`CompressedArray` across every shard."""
        chunks = list(self.iter_chunks())
        if not all(isinstance(chunk, CompressedArray) for chunk in chunks):
            raise CodecError(
                f"load_compressed assembles pyblaz chunks; this store holds "
                f"{self.codec_name!r} streams — use load() or iter_chunks()"
            )
        maxima = np.concatenate([chunk.maxima for chunk in chunks], axis=0)
        indices = np.concatenate([chunk.indices for chunk in chunks], axis=0)
        return CompressedArray(
            settings=chunks[0].settings, shape=self.shape, maxima=maxima,
            indices=indices,
        )

    def load(self) -> np.ndarray:
        """Decompress the whole (shard-assembled) array, one chunk at a time."""
        out: np.ndarray | None = None
        for index, (_, _, n_rows, row_start) in enumerate(self._index):
            decompressed = self.decompress_chunk(self.read_chunk(index))
            if out is None:
                out = np.empty(self.shape, dtype=decompressed.dtype)
            out[row_start: row_start + n_rows] = decompressed
        return out

    def load_region(self, region) -> np.ndarray:
        """Decompress only the chunks (and shards) intersecting ``region``.

        Same contract as :meth:`CompressedStore.load_region`; shards whose
        rows fall outside the axis-0 range are never opened.
        """
        if not isinstance(region, tuple):
            region = (region,)
        if len(region) > self.ndim:
            raise ValueError(
                f"region has {len(region)} dimensions, the store has {self.ndim}"
            )
        region = region + (slice(None),) * (self.ndim - len(region))

        first = region[0]
        squeeze_rows = isinstance(first, (int, np.integer))
        if squeeze_rows:
            index = int(first)
            if index < 0:
                index += self.shape[0]
            if not 0 <= index < self.shape[0]:
                raise IndexError(f"row {first} out of range for {self.shape[0]} rows")
            start, stop, step = index, index + 1, 1
        else:
            start, stop, step = first.indices(self.shape[0])
            if step <= 0:
                raise ValueError("load_region requires a positive step along axis 0")

        selected: list[int] = []
        local_by_index: dict[int, slice] = {}
        for chunk_index, (_, _, n_rows, row_start) in enumerate(self._index):
            row_end = row_start + n_rows
            if row_end <= start or row_start >= stop:
                continue
            global_first = max(start, row_start)
            remainder = (global_first - start) % step
            if remainder:
                global_first += step - remainder
            global_stop = min(stop, row_end)
            if global_first >= global_stop:
                continue
            selected.append(chunk_index)
            local_by_index[chunk_index] = slice(
                global_first - row_start, global_stop - row_start, step
            )

        parts = []
        for run_shard, run in self._shard_runs(selected):
            # each shard's intersecting records go through its coalescing
            # reader — one positional read per adjacent span, not per chunk
            shard = self.shard(run_shard)
            for (_, chunk), chunk_index in zip(
                shard._iter_chunks_coalesced([local for _, local in run]),
                (global_index for global_index, _ in run),
            ):
                decompressed = self.decompress_chunk(chunk)
                parts.append(
                    decompressed[(local_by_index[chunk_index],) + region[1:]]
                )

        if parts:
            assembled = np.concatenate(parts, axis=0)
        else:
            empty_rows = (0,) + self.shape[1:]
            assembled = np.empty(empty_rows, dtype=self.dtype)[(slice(None),) + region[1:]]
        return assembled[0] if squeeze_rows else assembled

    # -------------------------------------------------------------- partials
    def partials_fresh(self) -> bool:
        """Cheap staleness probe for the persisted fold partials.

        Fresh means: partials are enabled for this handle, every manifest
        entry is marked as having them, every sidecar file exists, and every
        shard file still has its recorded byte size (an in-place rewrite —
        e.g. a repair that changed bytes — invalidates).  Deep per-chunk
        verification is ``verify-store``'s job, not this probe's.
        """
        if not self.use_partials:
            return False
        for index, entry in enumerate(self._entries):
            if not entry.get("partials"):
                return False
            try:
                if os.path.getsize(self.path / entry["file"]) != int(entry["n_bytes"]):
                    return False
            except OSError:
                return False
            if not (self.path / partials_filename(index)).is_file():
                return False
        return True

    def _shard_partials(self, index: int) -> dict:
        """Load (and memoize) shard ``index``'s sidecar arrays."""
        loaded = self._partials.get(index)
        if loaded is None:
            with np.load(self.path / partials_filename(index)) as data:
                loaded = {key: data[key] for key in data.files}
            self._partials[index] = loaded
        return loaded

    def fold_state(self, name: str, *, rename: str | None = None
                   ) -> "folds.FoldState | None":
        """The accumulated :class:`FoldState` of fold ``name``, decode-free.

        Reassembles the persisted per-shard partial vectors (one float64
        vector per shard, in shard order) into a state whose finalization is
        bit-identical to a cold sweep's — the exact sum sees the same values in
        the same order.  ``rename`` relabels the sums key (the engine serves
        ``product(x, x)`` from the ``square`` vectors this way).  Returns
        ``None`` — callers fall back to a full sweep — when the fold has no
        persisted form or :meth:`partials_fresh` fails.
        """
        if name not in PARTIAL_FOLDS or not self.partials_fresh():
            return None
        key = rename or name
        parts: list[np.ndarray] = []
        n_blocks = n_elements = n_padded = 0
        dc_scale: float | None = None
        try:
            for index in range(self.n_shards):
                data = self._shard_partials(index)
                if name not in data:
                    return None
                parts.append(np.asarray(data[name], dtype=np.float64))
                n_blocks += int(data["n_blocks"])
                n_elements += int(data["n_elements"])
                n_padded += int(data["n_padded_elements"])
                if name == "dc":
                    dc_scale = float(data["dc_scale"])
        except (OSError, KeyError, ValueError, zlib.error):
            return None
        return folds.FoldState(
            sums={key: parts}, n_blocks=n_blocks, n_elements=n_elements,
            n_padded_elements=n_padded, dc_scale=dc_scale,
        )

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close every shard opened so far (reads fail afterwards)."""
        for shard in self._shards.values():
            shard.close()
        self._shards.clear()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStore(shape={self.shape}, shards={self.n_shards}, "
            f"chunks={self.n_chunks}, codec={self.codec_name}, "
            f"revision={self.revision})"
        )


def open_store(path, *, retry_policy: RetryPolicy | None = DEFAULT_READ_RETRY,
               use_partials: bool = True) -> "CompressedStore | ShardedStore":
    """Open ``path`` as whichever store kind it is.

    A directory holding a sharded-store manifest opens as a
    :class:`ShardedStore`; anything else opens as a single
    :class:`CompressedStore`.  The one seam the engine's worker jobs, the
    serving catalog and the CLI all reopen stores through, so every layer
    accepts sharded paths wherever it accepted store files.
    """
    path = Path(path)
    if is_sharded_store(path):
        return ShardedStore(path, retry_policy=retry_policy,
                            use_partials=use_partials)
    return CompressedStore(path, retry_policy=retry_policy)
