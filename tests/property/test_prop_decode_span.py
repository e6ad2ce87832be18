"""Property: decoding a span of chunk streams at once equals per-record decode + join.

:func:`repro.core.codec.decode_span` parses the shared header once and copies
every record's maxima and indices into one array; the readahead sweep relies
on it returning exactly ``concatenate_rows([deserialize(r) for r in records])``.
Hypothesis sweeps every float and index format, pruned and unpruned masks,
1-D to 3-D blocks, and chunk row counts with a ragged last chunk.
"""

import numpy as np
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.core import CompressionSettings, Compressor, codec
from repro.core.compressed import concatenate_rows
from repro.core.pruning import corner_pruning_mask

FLOAT_FORMATS = ("bfloat16", "float16", "float32", "float64")
INDEX_DTYPES = ("int8", "int16", "int32", "int64")
BLOCKS = {1: (4,), 2: (4, 2), 3: (2, 4, 2)}


@st.composite
def spans(draw):
    """Serialized row chunks of one array; only the last may be ragged."""
    ndim = draw(st.sampled_from(sorted(BLOCKS)))
    block = BLOCKS[ndim]
    mask = (corner_pruning_mask(block, [extent // 2 for extent in block])
            if draw(st.booleans()) else None)
    settings = CompressionSettings(
        block_shape=block,
        float_format=draw(st.sampled_from(FLOAT_FORMATS)),
        index_dtype=draw(st.sampled_from(INDEX_DTYPES)),
        pruning_mask=mask,
    )
    trailing = tuple(draw(st.integers(1, 7)) for _ in range(ndim - 1))
    block_rows = draw(st.lists(st.integers(1, 3), max_size=5))
    ragged = draw(st.integers(1, 2 * block[0]))
    row_counts = [rows * block[0] for rows in block_rows] + [ragged]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    compressor = Compressor(settings)
    return [
        codec.serialize(compressor.compress(
            rng.standard_normal((rows,) + trailing) * 10.0 ** rng.integers(-3, 4)
        ))
        for rows in row_counts
    ]


@hyp_settings(max_examples=80, deadline=None)
@given(spans())
def test_decode_span_equals_deserialize_and_join(records):
    joined = codec.decode_span(records)
    expected = concatenate_rows([codec.deserialize(record) for record in records])
    assert joined.shape == expected.shape
    assert joined.settings.is_compatible_with(expected.settings)
    assert joined.settings.float_format == expected.settings.float_format
    assert joined.maxima.dtype == expected.maxima.dtype
    assert joined.maxima.shape == expected.maxima.shape
    # bit for bit, NaN payloads and signed zeros included
    assert joined.maxima.tobytes() == expected.maxima.tobytes()
    assert joined.indices.dtype == expected.indices.dtype
    assert joined.indices.shape == expected.indices.shape
    assert np.array_equal(joined.indices, expected.indices)
