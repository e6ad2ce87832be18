"""Rejections of :func:`repro.core.codec.decode_span`, each naming its chunk.

A span joins only records that ``concatenate_rows`` would join after a
per-record ``deserialize``: the same settings and trailing shape, and whole
block rows in every chunk but the last.  Anything else raises
:class:`CodecError` naming the offending chunk's position in the span.
"""

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor, codec
from repro.core.compressed import concatenate_rows
from repro.core.exceptions import CodecError
from repro.core.pruning import corner_pruning_mask

SETTINGS = CompressionSettings(block_shape=(4, 4), float_format="float32",
                               index_dtype="int16")


def _record(rows: int, columns: int = 12, settings: CompressionSettings = SETTINGS,
            seed: int = 0) -> bytes:
    data = np.random.default_rng(seed).standard_normal((rows, columns))
    return codec.serialize(Compressor(settings).compress(data))


def _span(*extra: bytes) -> list[bytes]:
    """Two good whole-block records, then ``extra``."""
    return [_record(8, seed=1), _record(4, seed=2), *extra]


def test_good_span_equals_per_record_join():
    records = _span(_record(6, seed=3))
    joined = codec.decode_span(records)
    expected = concatenate_rows([codec.deserialize(record) for record in records])
    assert joined.shape == (18, 12)
    assert np.array_equal(joined.maxima, expected.maxima)
    assert np.array_equal(joined.indices, expected.indices)


def test_single_record_equals_deserialize():
    record = _record(5)
    joined, single = codec.decode_span([record]), codec.deserialize(record)
    assert joined.shape == single.shape
    assert np.array_equal(joined.maxima, single.maxima)
    assert np.array_equal(joined.indices, single.indices)


def test_empty_span_rejected():
    with pytest.raises(CodecError, match="empty span"):
        codec.decode_span([])


def test_different_block_geometry_rejected():
    other = CompressionSettings(block_shape=(4, 2), float_format="float32",
                                index_dtype="int16")
    with pytest.raises(CodecError, match="chunk 2 has a different block geometry"):
        codec.decode_span(_span(_record(4, settings=other)))


def test_different_pruning_mask_rejected():
    pruned = CompressionSettings(block_shape=(4, 4), float_format="float32",
                                 index_dtype="int16",
                                 pruning_mask=corner_pruning_mask((4, 4), (2, 2)))
    with pytest.raises(CodecError, match="chunk 2 has a different block geometry or "
                                         "pruning mask"):
        codec.decode_span(_span(_record(4, settings=pruned)))


def test_different_type_codes_rejected():
    other = CompressionSettings(block_shape=(4, 4), float_format="float64",
                                index_dtype="int16")
    with pytest.raises(CodecError, match="chunk 1 has different type codes"):
        codec.decode_span([_record(4), _record(4, settings=other)])


def test_different_trailing_shape_rejected():
    with pytest.raises(CodecError, match="chunk 2 has a different trailing shape"):
        codec.decode_span(_span(_record(4, columns=16)))


def test_ragged_non_final_record_rejected():
    with pytest.raises(CodecError, match="chunk 1 has 6 rows, not a multiple of the "
                                         "block extent 4"):
        codec.decode_span([_record(8), _record(6), _record(4)])


def test_truncated_record_rejected():
    with pytest.raises(CodecError, match=r"chunk 1 is truncated \(\d+ bytes, expected"):
        codec.decode_span([_record(8), _record(4)[:-3], _record(4)])


def test_record_shorter_than_its_header_rejected():
    with pytest.raises(CodecError, match="chunk 2 is truncated"):
        codec.decode_span(_span(_record(4)[:20]))


def test_trailing_bytes_rejected():
    with pytest.raises(CodecError, match="chunk 0 has trailing bytes"):
        codec.decode_span([_record(8) + b"\0", _record(4)])


def test_corrupt_first_header_rejected():
    record = bytearray(_record(8))
    record[:4] = b"XXXX"
    with pytest.raises(CodecError, match="chunk 0 has a corrupt stream header"):
        codec.decode_span([bytes(record), _record(4)])
