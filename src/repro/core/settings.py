"""Compression settings: the knobs of the PyBlaz pipeline.

A :class:`CompressionSettings` instance fixes everything about how an array is
compressed (§III-A): the working float format used after the data-type-conversion
step, the block shape used by the blocking step, the orthonormal transform, the
integer type used as bin indices, and the pruning mask.  The compression ratio is a
pure function of these settings and the input shape (§IV-C) — it does not depend on
the data — so the settings object also exposes the ratio computations through
:mod:`repro.core.codec`.

Two compressed arrays can only be combined by binary compressed-space operations
(addition, dot product, SSIM, ...) when they were produced under *compatible*
settings: same block shape, same transform, same index type and same pruning mask.
:meth:`CompressionSettings.is_compatible_with` captures that rule and the operations
in :mod:`repro.core.ops` enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from ..numerics import FloatFormat, resolve_format
from .exceptions import CodecError

__all__ = ["CompressionSettings", "SUPPORTED_INDEX_DTYPES"]

#: Integer dtypes accepted as bin-index types (§III-A(d)).
SUPPORTED_INDEX_DTYPES: tuple[np.dtype, ...] = (
    np.dtype(np.int8),
    np.dtype(np.int16),
    np.dtype(np.int32),
    np.dtype(np.int64),
)


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def _normalize_block_shape(block_shape: Iterable[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in block_shape)
    if len(shape) == 0:
        raise CodecError("block shape must have at least one dimension")
    for extent in shape:
        if extent < 1:
            raise CodecError(f"block extents must be positive, got {shape}")
        if not _is_power_of_two(extent):
            raise CodecError(
                f"PyBlaz supports only power-of-two block extents (got {shape}); "
                "see paper §III-A(b)"
            )
    return shape


@dataclass(frozen=True)
class CompressionSettings:
    """Immutable description of a PyBlaz compression configuration.

    Parameters
    ----------
    block_shape:
        Block extents per dimension, each a power of two; may be non-hypercubic,
        e.g. ``(4, 16, 16)``.  The dimensionality of the arrays to compress must
        equal ``len(block_shape)``.
    float_format:
        Working precision used after the data-type-conversion step and for the
        stored per-block maxima ``N``.  One of ``bfloat16``/``float16``/``float32``/
        ``float64`` (:class:`repro.numerics.FloatFormat` or its name).
    index_dtype:
        Integer dtype used as the bin-index type (``int8`` … ``int64``).
    transform:
        Name of the orthonormal transform: ``"dct"`` (default), ``"haar"`` or
        ``"identity"``.
    pruning_mask:
        Boolean array shaped like ``block_shape``; ``True`` marks coefficient
        indices that are *kept*.  ``None`` means keep everything.
    backend:
        Name of the kernel backend executing the transform+binning hot loop
        (see :mod:`repro.kernels`): ``"reference"`` (default, bit-exact),
        ``"gemm"`` or ``"numba"``.  An execution detail, not a property of the
        compressed form — it is excluded from equality/compatibility and never
        serialized, so streams produced under any backend interoperate.
    """

    block_shape: tuple[int, ...]
    float_format: FloatFormat = field(default="float32")  # type: ignore[assignment]
    index_dtype: np.dtype = field(default=np.dtype(np.int16))
    transform: str = "dct"
    pruning_mask: np.ndarray | None = None
    backend: str = field(default="reference", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_shape", _normalize_block_shape(self.block_shape))
        object.__setattr__(self, "float_format", resolve_format(self.float_format))
        dtype = np.dtype(self.index_dtype)
        if dtype not in SUPPORTED_INDEX_DTYPES:
            raise CodecError(
                f"index_dtype must be one of {[str(d) for d in SUPPORTED_INDEX_DTYPES]}, "
                f"got {dtype}"
            )
        object.__setattr__(self, "index_dtype", dtype)
        transform = str(self.transform).lower()
        if transform not in ("dct", "haar", "identity"):
            raise CodecError(f"unknown transform {self.transform!r}")
        object.__setattr__(self, "transform", transform)
        backend = str(self.backend).lower()
        # imported lazily: repro.kernels registers the built-in backends on
        # import and must not be a module-level dependency of core.settings
        from ..kernels import available_backends

        if backend not in available_backends():
            raise CodecError(
                f"unknown kernel backend {self.backend!r}; registered backends: "
                f"{', '.join(available_backends())}"
            )
        object.__setattr__(self, "backend", backend)
        if self.pruning_mask is not None:
            mask = np.asarray(self.pruning_mask, dtype=bool)
            if mask.shape != self.block_shape:
                raise CodecError(
                    f"pruning mask shape {mask.shape} must equal block shape {self.block_shape}"
                )
            if not mask.any():
                raise CodecError("pruning mask must keep at least one coefficient")
            mask = mask.copy()
            mask.setflags(write=False)
            object.__setattr__(self, "pruning_mask", mask)

    # ------------------------------------------------------------------ derived
    # The settings are immutable, so the per-chunk hot path reads these derived
    # values from a per-instance cache (``cached_property`` stores them in the
    # instance dict, past the frozen ``__setattr__``).
    @property
    def ndim(self) -> int:
        """Dimensionality of arrays this configuration compresses."""
        return len(self.block_shape)

    @cached_property
    def block_size(self) -> int:
        """Total number of elements per block."""
        return int(np.prod(self.block_shape))

    @cached_property
    def index_radius(self) -> int:
        """Bin index radius ``r = 2**(b-1) - 1`` (§III-A(d))."""
        bits = self.index_dtype.itemsize * 8
        return 2 ** (bits - 1) - 1

    @property
    def n_bins(self) -> int:
        """Number of bins: values distinguishable by the index type minus one."""
        return 2 * self.index_radius + 1

    @cached_property
    def mask(self) -> np.ndarray:
        """Effective pruning mask (all-True when no pruning was requested); read-only."""
        if self.pruning_mask is None:
            mask = np.ones(self.block_shape, dtype=bool)
            mask.setflags(write=False)
            return mask
        return self.pruning_mask

    @cached_property
    def kept_per_block(self) -> int:
        """Number of coefficients kept per block after pruning."""
        return int(self.mask.sum())

    @cached_property
    def first_coefficient_kept(self) -> bool:
        """Whether the DC (first) coefficient of each block survives pruning.

        Mean, variance, covariance, SSIM and the approximate Wasserstein distance
        all read the first coefficient of each block, so they require this.
        """
        return bool(self.mask[(0,) * self.ndim])

    @cached_property
    def dc_scale(self) -> float:
        """Scale ``c = prod(sqrt(block extents))`` relating DC coefficients to block means."""
        return float(np.prod(np.sqrt(np.asarray(self.block_shape, dtype=np.float64))))

    # ------------------------------------------------------------------ helpers
    def block_grid_shape(self, array_shape: Iterable[int]) -> tuple[int, ...]:
        """Shape of the arrangement of blocks ``b = ceil(s / i)`` for ``array_shape``."""
        shape = tuple(map(int, array_shape))
        if len(shape) != self.ndim:
            raise CodecError(
                f"array of dimensionality {len(shape)} cannot be compressed with "
                f"{self.ndim}-dimensional block shape {self.block_shape}"
            )
        if min(shape) < 1:
            raise CodecError(f"array shape must be positive, got {shape}")
        return tuple([-(-s // b) for s, b in zip(shape, self.block_shape)])

    def padded_shape(self, array_shape: Iterable[int]) -> tuple[int, ...]:
        """Shape after zero-padding so every extent is a multiple of the block extent."""
        grid = self.block_grid_shape(array_shape)
        return tuple(g * b for g, b in zip(grid, self.block_shape))

    def n_blocks(self, array_shape: Iterable[int]) -> int:
        """Total number of blocks used for ``array_shape``."""
        return int(np.prod(self.block_grid_shape(array_shape)))

    def is_compatible_with(self, other: "CompressionSettings") -> bool:
        """Whether binary compressed-space operations may combine arrays from both settings."""
        return (
            self.block_shape == other.block_shape
            and self.index_dtype == other.index_dtype
            and self.transform == other.transform
            and np.array_equal(self.mask, other.mask)
        )

    def with_(self, **changes) -> "CompressionSettings":
        """Return a copy with the given fields replaced (dataclass ``replace`` helper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable description used by experiment harnesses."""
        pruned = self.block_size - self.kept_per_block
        backend = "" if self.backend == "reference" else f" backend={self.backend}"
        return (
            f"block={'x'.join(map(str, self.block_shape))} "
            f"float={self.float_format.name} index={self.index_dtype.name} "
            f"transform={self.transform} pruned={pruned}/{self.block_size}{backend}"
        )
