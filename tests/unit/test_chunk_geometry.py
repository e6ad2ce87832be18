"""Unit tests for the derived chunk geometry the per-chunk hot path reads:
cached settings values, shared decoded settings, the direct DC read and the
cached block counts."""

import numpy as np
import pytest

from repro import engine
from repro.core import CompressionSettings, Compressor, codec
from repro.core.ops import folds
from repro.core.pruning import corner_pruning_mask, top_k_mask
from repro.engine import expr
from repro.streaming import ChunkedCompressor
from tests.conftest import smooth_field

INDEX_DTYPES = ["int8", "int16", "int32", "int64"]


def _settings(index_dtype="int16", pruning_mask=None, block_shape=(4, 4)):
    return CompressionSettings(block_shape=block_shape, float_format="float32",
                               index_dtype=index_dtype, pruning_mask=pruning_mask)


class TestSettingsMask:
    def test_unpruned_mask_rejects_writes(self):
        mask = _settings().mask
        assert mask.all()
        with pytest.raises(ValueError):
            mask[0, 0] = False

    def test_pruned_mask_rejects_writes(self):
        mask = _settings(pruning_mask=top_k_mask((4, 4), 5)).mask
        with pytest.raises(ValueError):
            mask[0, 0] = False

    def test_derived_values_are_computed_once(self):
        settings = _settings(pruning_mask=top_k_mask((4, 4), 5))
        assert settings.mask is settings.mask
        assert settings.kept_per_block == 5
        assert settings.block_size == 16
        assert settings.dc_scale == 4.0


class TestDecodedSettingsAreShared:
    def test_equal_headers_decode_to_the_same_object(self):
        compressor = Compressor(_settings())
        first = codec.deserialize(codec.serialize(compressor.compress(smooth_field((8, 12)))))
        second = codec.deserialize(
            codec.serialize(compressor.compress(smooth_field((16, 4), seed=3)))
        )
        assert first.settings is second.settings
        assert first.settings == _settings()

    def test_different_pruning_mask_decodes_to_a_different_object(self):
        field = smooth_field((8, 8))
        kept = codec.deserialize(codec.serialize(Compressor(_settings()).compress(field)))
        pruned_settings = _settings(pruning_mask=corner_pruning_mask((4, 4), (2, 2)))
        pruned = codec.deserialize(
            codec.serialize(Compressor(pruned_settings).compress(field))
        )
        assert pruned.settings is not kept.settings
        assert pruned.settings.is_compatible_with(pruned_settings)
        assert np.array_equal(pruned.settings.mask, pruned_settings.mask)

    def test_store_chunks_share_one_settings_object(self, tmp_path):
        chunked = ChunkedCompressor(_settings(), slab_rows=8)
        with chunked.compress_to_store(smooth_field((40, 12)), tmp_path / "s.pblzc") as store:
            chunks = list(store.iter_chunks())
        assert len(chunks) == 5
        assert all(chunk.settings is chunks[0].settings for chunk in chunks)

    def test_corrupt_geometry_still_raises(self):
        blob = bytearray(codec.serialize(Compressor(_settings()).compress(smooth_field((8, 8)))))
        # block extent 4 -> 3 (not a power of two) in the first geometry field
        offset = 4 + 1 + 4 + 8 * 2
        blob[offset] = 3
        with pytest.raises(ValueError, match="power-of-two"):
            codec.deserialize(bytes(blob))


class TestFirstCoefficients:
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("mask", [None, "corner", "top_k"])
    def test_bitwise_equal_to_the_dense_dc_column(self, index_dtype, mask):
        pruning = {None: None,
                   "corner": corner_pruning_mask((4, 4), (3, 3)),
                   "top_k": top_k_mask((4, 4), 3)}[mask]
        settings = _settings(index_dtype=index_dtype, pruning_mask=pruning)
        compressed = Compressor(settings).compress(smooth_field((13, 22), seed=5) * 1e3)
        dense = compressed.specified_coefficients()[..., 0, 0]
        direct = compressed.first_coefficients()
        assert direct.shape == compressed.grid_shape
        assert direct.dtype == np.float64
        assert direct.tobytes() == dense.tobytes()

    def test_pruned_dc_still_raises(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        compressed = Compressor(_settings(pruning_mask=mask)).compress(smooth_field((8, 8)))
        with pytest.raises(ValueError, match="pruned away"):
            compressed.first_coefficients()


class TestCachedCounts:
    @pytest.mark.parametrize("shape, block_shape", [
        ((13, 22), (4, 4)),
        ((1, 7), (4, 2)),
        ((9, 5, 3), (2, 4, 8)),
        ((33,), (8,)),
    ])
    def test_counts_equal_the_prod_formulas(self, shape, block_shape):
        settings = _settings(block_shape=block_shape)
        compressed = Compressor(settings).compress(
            np.random.default_rng(0).standard_normal(shape)
        )
        grid = settings.block_grid_shape(shape)
        assert compressed.grid_shape == grid
        assert compressed.n_blocks == int(np.prod(grid))
        assert compressed.n_elements == int(np.prod(shape))
        assert compressed.padded_shape == settings.padded_shape(shape)
        assert compressed.n_padded_elements == int(np.prod(settings.padded_shape(shape)))


class TestTotalsOncePerExecution:
    def test_each_term_is_summed_once(self, tmp_path, monkeypatch):
        chunked = ChunkedCompressor(_settings(), slab_rows=8)
        a = chunked.compress_to_store(smooth_field((40, 12), seed=1), tmp_path / "a.pblzc")
        b = chunked.compress_to_store(smooth_field((40, 12), seed=2), tmp_path / "b.pblzc")
        with a, b:
            x, y = expr.source(a), expr.source(b)
            request = {
                "mean": expr.mean(x), "variance": expr.variance(x),
                "l2": expr.l2_norm(x), "dot": expr.dot(x, y),
                "cosine": expr.cosine_similarity(x, y),
                "covariance": expr.covariance(x, y),
            }
            expected = engine.evaluate(request, prefetch=0)
            summed = []
            exact_sum = folds.exact_sum

            def counting(parts):
                summed.append(len(parts))
                return exact_sum(parts)

            monkeypatch.setattr(folds, "exact_sum", counting)
            assert engine.evaluate(request, prefetch=0) == expected
        # dc(x), dc(y), square(x), square(y), product(x, y), then
        # centered_square(x) and centered_product(x, y): seven distinct terms
        assert len(summed) == 7
