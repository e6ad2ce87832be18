"""Serialization of compressed arrays and compression-ratio accounting (§IV-C).

The stored components of a compressed array are, following the paper:

* the floating-point and integer types, specified in 4 bits,
* the original shape ``s`` (64 bits per dimension),
* a marker for the end of ``s`` (up to 64 bits),
* the block shape ``i`` (64 bits per dimension),
* the pruning mask ``P`` flattened (``prod(i)`` bits),
* the per-block maxima ``N`` flattened (``f`` bits each, ``prod(ceil(s ⊘ i))`` blocks),
* the kept bin indices ``F`` (``i_bits * sum(P)`` bits per block).

Two kinds of sizes are exposed: the *accounting* size of §IV-C (used for the
compression-ratio figures of the paper, e.g. the ≈2.91 and ≈10.66 worked examples)
and the *actual* byte size of the serialized stream produced by :func:`serialize`,
which includes a small fixed header and byte-alignment overhead.

The byte format is self-describing: :func:`deserialize` reconstructs the
:class:`CompressedArray` (including its :class:`CompressionSettings`) from the bytes
alone, which the file-level round-trip tests exercise.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

from ..numerics import BFLOAT16, FLOAT16, FLOAT32, FLOAT64, FloatFormat
from .compressed import CompressedArray
from .exceptions import CodecError
from .settings import CompressionSettings

__all__ = [
    "stored_component_bits",
    "compressed_size_bits",
    "compression_ratio",
    "asymptotic_compression_ratio",
    "pack_floats",
    "unpack_floats",
    "float_bytes",
    "pack_type_codes",
    "unpack_type_codes",
    "pack_block_geometry",
    "unpack_block_geometry",
    "serialize",
    "deserialize",
    "decode_span",
    "save",
    "load",
]

_MAGIC = b"PBLZ"
_VERSION = 2

_FLOAT_CODES: dict[str, int] = {"bfloat16": 0, "float16": 1, "float32": 2, "float64": 3}
_FLOAT_BY_CODE: dict[int, FloatFormat] = {0: BFLOAT16, 1: FLOAT16, 2: FLOAT32, 3: FLOAT64}
_INDEX_CODES: dict[str, int] = {"int8": 0, "int16": 1, "int32": 2, "int64": 3}
_INDEX_BY_CODE: dict[int, np.dtype] = {
    0: np.dtype(np.int8),
    1: np.dtype(np.int16),
    2: np.dtype(np.int32),
    3: np.dtype(np.int64),
}
_TRANSFORM_CODES: dict[str, int] = {"dct": 0, "haar": 1, "identity": 2}
_TRANSFORM_BY_CODE = {v: k for k, v in _TRANSFORM_CODES.items()}


# --------------------------------------------------------------------------- accounting
def stored_component_bits(
    settings: CompressionSettings, array_shape: tuple[int, ...]
) -> dict[str, int]:
    """Bit count of each stored component for ``array_shape`` under ``settings``.

    Follows the component list of §IV-C exactly; the returned dict has keys
    ``type_tags``, ``shape``, ``shape_marker``, ``block_shape``, ``pruning_mask``,
    ``maxima`` and ``indices``.
    """
    ndim = len(array_shape)
    n_blocks = settings.n_blocks(array_shape)
    f_bits = settings.float_format.storage_bits
    i_bits = settings.index_dtype.itemsize * 8
    kept = settings.kept_per_block
    return {
        "type_tags": 4,
        "shape": 64 * ndim,
        "shape_marker": 64,
        "block_shape": 64 * ndim,
        "pruning_mask": settings.block_size,
        "maxima": f_bits * n_blocks,
        "indices": i_bits * kept * n_blocks,
    }


def compressed_size_bits(settings: CompressionSettings, array_shape: tuple[int, ...]) -> int:
    """Total stored size in bits per the §IV-C accounting."""
    return int(sum(stored_component_bits(settings, array_shape).values()))


def compression_ratio(
    settings: CompressionSettings,
    array_shape: tuple[int, ...],
    input_bits_per_element: int = 64,
) -> float:
    """Exact compression ratio ``(u · Πs) / stored bits`` for a finite array.

    ``input_bits_per_element`` is ``u`` in the paper's formula — the width of the
    uncompressed elements (64 for FP64 inputs).
    """
    numerator = float(input_bits_per_element) * float(np.prod(array_shape))
    return numerator / float(compressed_size_bits(settings, array_shape))


def asymptotic_compression_ratio(
    settings: CompressionSettings,
    array_shape: tuple[int, ...],
    input_bits_per_element: int = 64,
) -> float:
    """The §IV-C limit ratio ``u Πs / ((f + i ΣP) Π⌈s ⊘ i⌉)``.

    Ignores the per-array constant overhead (type tags, shapes, mask), which the
    exact ratio approaches as the array grows.
    """
    f_bits = settings.float_format.storage_bits
    i_bits = settings.index_dtype.itemsize * 8
    kept = settings.kept_per_block
    n_blocks = settings.n_blocks(array_shape)
    numerator = float(input_bits_per_element) * float(np.prod(array_shape))
    denominator = float(f_bits + i_bits * kept) * float(n_blocks)
    return numerator / denominator


# --------------------------------------------------------------------------- float packing
def pack_floats(values: np.ndarray, fmt: FloatFormat) -> bytes:
    """Pack float64 values into the working format's storage width."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if fmt.name == "float64":
        return values.astype("<f8").tobytes()
    if fmt.name == "float32":
        return values.astype("<f4").tobytes()
    if fmt.name == "float16":
        return values.astype("<f2").tobytes()
    if fmt.name == "bfloat16":
        as32 = values.astype(np.float32)
        bits = as32.view(np.uint32)
        upper = (bits >> np.uint32(16)).astype("<u2")
        return upper.tobytes()
    raise ValueError(f"unsupported float format {fmt}")  # pragma: no cover - defensive


#: Little-endian storage dtype of each float format's packed values (bfloat16
#: keeps the upper 16 bits of a float32).
_STORAGE_DTYPES: dict[str, str] = {
    "float64": "<f8", "float32": "<f4", "float16": "<f2", "bfloat16": "<u2",
}


def _widen(stored: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    """Float64 values of ``stored``, an array of ``fmt``'s storage dtype."""
    if fmt.name == "bfloat16":
        bits = stored.astype(np.uint32) << np.uint32(16)
        return bits.view(np.float32).astype(np.float64)
    return stored.astype(np.float64)


def unpack_floats(data: bytes, count: int, fmt: FloatFormat) -> np.ndarray:
    """Inverse of :func:`pack_floats`, returning float64 values."""
    if fmt.name not in _STORAGE_DTYPES:  # pragma: no cover - defensive
        raise ValueError(f"unsupported float format {fmt}")
    return _widen(np.frombuffer(data, dtype=_STORAGE_DTYPES[fmt.name], count=count), fmt)


def float_bytes(count: int, fmt: FloatFormat) -> int:
    """Byte length of ``count`` packed values in format ``fmt``."""
    return count * (fmt.storage_bits // 8)


# --------------------------------------------------------------------------- settings packing
# These pieces are shared between the one-shot stream format (v2, below) and the
# chunked :class:`repro.streaming.CompressedStore` format, which interleaves its own
# chunk table but reuses the identical settings encoding.
def pack_type_codes(settings: CompressionSettings, ndim: int) -> bytes:
    """Pack the float/index/transform type codes and dimensionality (4 bytes)."""
    return struct.pack(
        "<BBBB",
        _FLOAT_CODES[settings.float_format.name],
        _INDEX_CODES[settings.index_dtype.name],
        _TRANSFORM_CODES[settings.transform],
        ndim,
    )


def unpack_type_codes(data: bytes, offset: int) -> tuple[FloatFormat, np.dtype, str, int, int]:
    """Inverse of :func:`pack_type_codes`.

    Returns ``(float_format, index_dtype, transform, ndim, new_offset)``.
    """
    float_code, index_code, transform_code, ndim = struct.unpack_from("<BBBB", data, offset)
    return (
        _FLOAT_BY_CODE[float_code],
        _INDEX_BY_CODE[index_code],
        _TRANSFORM_BY_CODE[transform_code],
        ndim,
        offset + 4,
    )


def pack_block_geometry(settings: CompressionSettings) -> bytes:
    """Pack the block shape and pruning mask (the data-independent geometry)."""
    ndim = settings.ndim
    out = struct.pack(f"<{ndim}Q", *settings.block_shape)
    mask_bits = np.packbits(settings.mask.ravel().astype(np.uint8))
    out += struct.pack("<I", mask_bits.size)
    out += mask_bits.tobytes()
    return out


#: Settings decoded from header bytes, keyed by the type codes and the raw
#: geometry bytes.  Every chunk of a store repeats the same header, so chunk
#: decodes share one immutable settings object instead of rebuilding and
#: re-validating it per chunk.  Cleared when full; only successfully built
#: settings are entered.
_DECODED_SETTINGS: dict[tuple, CompressionSettings] = {}
_DECODED_SETTINGS_LIMIT = 64


def unpack_block_geometry(
    data: bytes,
    offset: int,
    ndim: int,
    float_format: FloatFormat,
    index_dtype: np.dtype,
    transform: str,
) -> tuple[CompressionSettings, int]:
    """Inverse of :func:`pack_block_geometry`; returns the full settings object.

    Equal geometry bytes under equal type codes decode to the *same* (immutable)
    settings object.
    """
    start = offset
    block_shape = struct.unpack_from(f"<{ndim}Q", data, offset)
    offset += 8 * ndim
    (mask_nbytes,) = struct.unpack_from("<I", data, offset)
    offset += 4
    key = (float_format.name, index_dtype.str, transform, ndim,
           bytes(data[start : offset + mask_nbytes]))
    settings = _DECODED_SETTINGS.get(key)
    if settings is None:
        mask_bits = np.frombuffer(data, dtype=np.uint8, count=mask_nbytes, offset=offset)
        block_size = int(np.prod(block_shape))
        mask = np.unpackbits(mask_bits, count=block_size).astype(bool).reshape(block_shape)
        settings = CompressionSettings(
            block_shape=block_shape,
            float_format=float_format,
            index_dtype=index_dtype,
            transform=transform,
            pruning_mask=None if mask.all() else mask,
        )
        if len(_DECODED_SETTINGS) >= _DECODED_SETTINGS_LIMIT:
            _DECODED_SETTINGS.clear()
        _DECODED_SETTINGS[key] = settings
    return settings, offset + mask_nbytes


# --------------------------------------------------------------------------- serialization
def serialize(compressed: CompressedArray) -> bytes:
    """Serialize a compressed array to a self-describing byte string."""
    settings = compressed.settings
    ndim = settings.ndim
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<B", _VERSION)
    header += pack_type_codes(settings, ndim)
    header += struct.pack(f"<{ndim}Q", *compressed.shape)
    header += pack_block_geometry(settings)

    payload = bytearray()
    payload += pack_floats(compressed.maxima, settings.float_format)
    payload += np.ascontiguousarray(
        compressed.indices, dtype=settings.index_dtype.newbyteorder("<")
    ).tobytes()
    return bytes(header) + bytes(payload)


def _read_header(data: bytes) -> tuple[CompressionSettings, tuple[int, ...], int]:
    """Parse a stream's header: ``(settings, shape, payload offset)``."""
    if data[:5] == _MAGIC + b"C":
        # the chunked-store magic "PBLZC" shares this format's "PBLZ" prefix;
        # catch it here so the error names the right tool instead of reporting a
        # bogus version number
        raise CodecError(
            "this is a PyBlaz chunked store; open it with "
            "repro.streaming.CompressedStore (CLI: stream-decompress)"
        )
    if data[:4] != _MAGIC:
        raise CodecError("not a PyBlaz compressed stream (bad magic)")
    offset = 4
    (version,) = struct.unpack_from("<B", data, offset)
    offset += 1
    if version != _VERSION:
        raise CodecError(f"unsupported stream version {version}")
    float_format, index_dtype, transform, ndim, offset = unpack_type_codes(data, offset)
    shape = struct.unpack_from(f"<{ndim}Q", data, offset)
    offset += 8 * ndim
    settings, offset = unpack_block_geometry(
        data, offset, ndim, float_format, index_dtype, transform
    )
    return settings, shape, offset


def deserialize(data: bytes) -> CompressedArray:
    """Reconstruct a :class:`CompressedArray` from bytes produced by :func:`serialize`."""
    settings, shape, offset = _read_header(data)
    float_format = settings.float_format
    grid_shape = settings.block_grid_shape(shape)
    n_blocks = math.prod(grid_shape)
    maxima_nbytes = float_bytes(n_blocks, float_format)
    maxima = unpack_floats(data[offset : offset + maxima_nbytes], n_blocks, float_format)
    offset += maxima_nbytes
    maxima = maxima.reshape(grid_shape)

    kept = settings.kept_per_block
    indices_count = n_blocks * kept
    indices = np.frombuffer(
        data, dtype=settings.index_dtype.newbyteorder("<"), count=indices_count,
        offset=offset,
    )
    indices = indices.astype(settings.index_dtype).reshape(n_blocks, kept)

    return CompressedArray(settings=settings, shape=shape, maxima=maxima, indices=indices)


#: Bytes ahead of the shape in a stream header: magic, version and type codes.
_CODES_END = len(_MAGIC) + 1 + 4


def _header_mismatch(position: int, record: bytes, first: bytes, shape_end: int,
                     header_end: int) -> CodecError:
    """The error for a span record whose header differs from chunk 0's."""
    if len(record) < header_end:
        return CodecError(f"chunk {position} is truncated ({len(record)} bytes, shorter "
                          f"than its {header_end}-byte header)")
    if record[:_CODES_END] != first[:_CODES_END]:
        return CodecError(f"chunk {position} has different type codes than chunk 0")
    if record[_CODES_END + 8 : shape_end] != first[_CODES_END + 8 : shape_end]:
        return CodecError(f"chunk {position} has a different trailing shape than chunk 0")
    return CodecError(f"chunk {position} has a different block geometry or pruning mask "
                      "than chunk 0")


def decode_span(records: Sequence[bytes]) -> CompressedArray:
    """Decode consecutive row chunks' streams straight into one joined array.

    Equal to ``concatenate_rows([deserialize(r) for r in records])``, with
    the same bits, but the header is parsed once and every record's maxima
    and indices are copied straight from the record bytes into one array
    each: no per-record :class:`CompressedArray` and no second join copy.
    Every record must repeat the first one's header except for its row
    count.  Raises :class:`CodecError`, naming the chunk's position in
    ``records``, when a record is not a valid stream, carries different type
    codes, trailing shape or block geometry (mask included), is truncated or
    has trailing bytes, or is a ragged chunk (a row count that is not a
    multiple of the block extent) anywhere but last.
    """
    if not records:
        raise CodecError("cannot decode an empty span of chunk streams")
    try:
        settings, shape, header_end = _read_header(records[0])
    except (struct.error, KeyError, ValueError) as exc:  # CodecError included
        raise CodecError(f"chunk 0 has a corrupt stream header: {exc}") from exc
    first = records[0]
    shape_end = _CODES_END + 8 * len(shape)
    codes, rest = first[:_CODES_END], first[_CODES_END + 8 : header_end]
    block_rows = settings.block_shape[0]
    row_blocks = math.prod(settings.block_grid_shape((block_rows,) + shape[1:]))
    kept = settings.kept_per_block
    float_width = settings.float_format.storage_bits // 8
    block_bytes = float_width + kept * settings.index_dtype.itemsize
    last = len(records) - 1
    counts = []
    rows = 0
    for position, record in enumerate(records):
        # everything but the row count must repeat chunk 0's header
        if not record.startswith(codes) or record[_CODES_END + 8 : header_end] != rest:
            raise _header_mismatch(position, record, first, shape_end, header_end)
        n_rows = int.from_bytes(record[_CODES_END : _CODES_END + 8], "little")
        if position < last and n_rows % block_rows:
            raise CodecError(
                f"chunk {position} has {n_rows} rows, not a multiple of the block "
                f"extent {block_rows}; only the last chunk may be ragged"
            )
        count = -(-n_rows // block_rows) * row_blocks
        expected = header_end + count * block_bytes
        if len(record) != expected:
            problem = "is truncated" if len(record) < expected else "has trailing bytes"
            raise CodecError(
                f"chunk {position} {problem} ({len(record)} bytes, expected {expected})"
            )
        counts.append(count)
        rows += n_rows

    stored_dtype = _STORAGE_DTYPES[settings.float_format.name]
    index_dtype = settings.index_dtype.newbyteorder("<")
    stored = np.concatenate([
        np.frombuffer(record, dtype=stored_dtype, count=count, offset=header_end)
        for record, count in zip(records, counts)
    ])
    indices = np.concatenate([
        np.frombuffer(record, dtype=index_dtype, count=count * kept,
                      offset=header_end + count * float_width)
        for record, count in zip(records, counts)
    ]).reshape(-1, kept).astype(settings.index_dtype, copy=False)
    shape = (rows,) + shape[1:]
    maxima = _widen(stored, settings.float_format).reshape(settings.block_grid_shape(shape))
    return CompressedArray(settings=settings, shape=shape, maxima=maxima, indices=indices)


def save(compressed: CompressedArray, path) -> None:
    """Write a compressed array to ``path``."""
    with open(path, "wb") as handle:
        handle.write(serialize(compressed))


def load(path) -> CompressedArray:
    """Read a compressed array previously written by :func:`save`."""
    with open(path, "rb") as handle:
        return deserialize(handle.read())
