"""The compressed array container (§III-B).

A :class:`CompressedArray` is the result of compression and the operand of every
compressed-space operation.  Following the paper, its essential contents are the
set ``{s, i, N, F}``:

* ``s`` — the original (uncompressed) shape,
* ``i`` — the block shape (carried via the :class:`CompressionSettings`),
* ``N`` — the biggest coefficient magnitude per block, shaped like the block grid,
* ``F`` — the flattened bin indices of the kept (unpruned) coefficients, one row per
  block,

plus everything needed for decompression: the pruning mask, the bin-index dtype, the
working float format and the transform name (all carried by the settings object).

The container is deliberately a thin, validated record: all algorithms live in
:class:`repro.core.compressor.Compressor` and :mod:`repro.core.ops`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pruning import unflatten_kept
from .settings import CompressionSettings

__all__ = ["CompressedArray", "concatenate_rows"]


@dataclass
class CompressedArray:
    """Compressed representation of an array.

    Attributes
    ----------
    settings:
        The :class:`CompressionSettings` used to produce this array.
    shape:
        Original array shape ``s``.
    maxima:
        Per-block biggest coefficient magnitude ``N`` (float64, shape = block grid).
    indices:
        Flattened kept bin indices ``F`` of shape ``(n_blocks, kept_per_block)`` with
        the settings' integer dtype.
    """

    settings: CompressionSettings
    shape: tuple[int, ...]
    maxima: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.shape = tuple(int(s) for s in self.shape)
        if len(self.shape) != self.settings.ndim:
            raise ValueError(
                f"shape {self.shape} dimensionality does not match settings "
                f"({self.settings.ndim}-dimensional blocks)"
            )
        maxima = np.asarray(self.maxima, dtype=np.float64)
        expected_grid = self.settings.block_grid_shape(self.shape)
        if maxima.shape != expected_grid:
            raise ValueError(
                f"maxima shape {maxima.shape} does not match block grid {expected_grid}"
            )
        self.maxima = maxima
        # the geometry is fixed at construction; every fold step reads it, so
        # keep the grid and the counts derived from it instead of recomputing
        self._grid_shape = expected_grid
        self._n_blocks = math.prod(expected_grid)
        indices = np.asarray(self.indices)
        if indices.dtype != self.settings.index_dtype:
            raise ValueError(
                f"indices dtype {indices.dtype} does not match settings index dtype "
                f"{self.settings.index_dtype}"
            )
        expected_indices_shape = (self.n_blocks, self.settings.kept_per_block)
        if indices.shape != expected_indices_shape:
            raise ValueError(
                f"indices shape {indices.shape} does not match {expected_indices_shape}"
            )
        self.indices = indices

    # ------------------------------------------------------------------ geometry
    @property
    def ndim(self) -> int:
        """Dimensionality of the original array."""
        return len(self.shape)

    @property
    def block_shape(self) -> tuple[int, ...]:
        return self.settings.block_shape

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """Shape of the block grid ``ceil(s / i)``."""
        return self._grid_shape

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def padded_shape(self) -> tuple[int, ...]:
        """Shape of the zero-padded array the blocks tile exactly."""
        return tuple(g * b for g, b in zip(self._grid_shape, self.settings.block_shape))

    @property
    def n_elements(self) -> int:
        """Number of elements of the original (uncropped) array."""
        return math.prod(self.shape)

    @property
    def n_padded_elements(self) -> int:
        """Number of elements of the padded array (what reductions actually see)."""
        return self._n_blocks * self.settings.block_size

    # ------------------------------------------------------------------ views
    def specified_coefficients(self) -> np.ndarray:
        """Recover the specified (kept) coefficients ``Ĉ = N ⊙ F ⊘ r`` (Algorithm 3).

        Returns a blocked float64 array of shape ``(grid..., block...)`` with zeros at
        pruned coefficient positions.
        """
        # a fresh float64 array (the indices are integers), scaled in place
        coefficients = unflatten_kept(
            self.indices, self.settings.mask, self._grid_shape, fill_value=0,
            dtype=np.float64,
        )
        radius = float(self.settings.index_radius)
        expand = self.maxima.reshape(self.maxima.shape + (1,) * self.settings.ndim)
        coefficients *= expand / radius
        return coefficients

    def first_coefficients(self) -> np.ndarray:
        """The DC (first) coefficient of every block, shaped like the block grid.

        These equal ``block mean * prod(sqrt(block extents))`` up to binning error,
        and are the basis of the mean, variance, covariance and Wasserstein
        operations.  Raises if the DC coefficient was pruned away.
        """
        if not self.settings.first_coefficient_kept:
            raise ValueError(
                "the first coefficient of each block was pruned away; "
                "mean-based operations are unavailable under this pruning mask"
            )
        # the kept DC coefficient is column 0 of every flattened block; these are
        # the float64 operations of specified_coefficients() on that one column,
        # so the bits are the same without dequantising the whole chunk
        radius = float(self.settings.index_radius)
        dc = self.indices[:, 0].astype(np.float64) * (self.maxima.ravel() / radius)
        return dc.reshape(self._grid_shape)

    def blockwise_means(self) -> np.ndarray:
        """Block-wise means of the (padded) array, shaped like the block grid."""
        return self.first_coefficients() / self.settings.dc_scale

    # ------------------------------------------------------------------ misc
    def copy(self) -> "CompressedArray":
        """Deep copy (settings are immutable and shared)."""
        return CompressedArray(
            settings=self.settings,
            shape=self.shape,
            maxima=self.maxima.copy(),
            indices=self.indices.copy(),
        )

    def is_compatible_with(self, other: "CompressedArray") -> bool:
        """Whether binary compressed-space operations may combine ``self`` and ``other``."""
        return (
            isinstance(other, CompressedArray)
            and self.shape == other.shape
            and self.settings.is_compatible_with(other.settings)
        )

    def allclose(self, other: "CompressedArray", rtol: float = 1e-9, atol: float = 0.0) -> bool:
        """Structural near-equality of two compressed arrays (same settings family)."""
        return (
            self.is_compatible_with(other)
            and np.allclose(self.maxima, other.maxima, rtol=rtol, atol=atol)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompressedArray(shape={self.shape}, {self.settings.describe()}, "
            f"blocks={self.n_blocks})"
        )

    # ------------------------------------------------------------------ operators
    # Arithmetic operators delegate to the compressed-space operations so that
    # compressed arrays compose like ordinary arrays without ever decompressing:
    # ``-a``, ``a + b``, ``a - b``, ``a + 2.0``, ``3.0 * a``, ``a / 4``.
    def __neg__(self) -> "CompressedArray":
        from .ops.linear import negate

        return negate(self)

    def __add__(self, other) -> "CompressedArray":
        from .ops.linear import add, add_scalar

        if isinstance(other, CompressedArray):
            return add(self, other)
        if isinstance(other, (int, float, np.integer, np.floating)):
            return add_scalar(self, float(other))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "CompressedArray":
        from .ops.linear import add_scalar, subtract

        if isinstance(other, CompressedArray):
            return subtract(self, other)
        if isinstance(other, (int, float, np.integer, np.floating)):
            return add_scalar(self, -float(other))
        return NotImplemented

    def __rsub__(self, other) -> "CompressedArray":
        from .ops.linear import add_scalar, multiply_scalar

        if isinstance(other, (int, float, np.integer, np.floating)):
            return add_scalar(multiply_scalar(self, -1.0), float(other))
        return NotImplemented

    def __mul__(self, other) -> "CompressedArray":
        from .ops.linear import multiply_scalar

        if isinstance(other, (int, float, np.integer, np.floating)):
            return multiply_scalar(self, float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CompressedArray":
        from .ops.linear import multiply_scalar

        if isinstance(other, (int, float, np.integer, np.floating)):
            divisor = float(other)
            if divisor == 0.0:
                raise ZeroDivisionError("division of a compressed array by zero")
            return multiply_scalar(self, 1.0 / divisor)
        return NotImplemented


def _same_format(a: CompressionSettings, b: CompressionSettings) -> bool:
    """Whether chunks compressed under ``a`` and ``b`` store blocks the same way.

    Compares pruning masks by value; the dataclass ``==`` would compare the
    mask arrays elementwise and fail on two equal pruned settings objects.
    """
    return a.is_compatible_with(b) and a.float_format == b.float_format


def concatenate_rows(chunks: Sequence[CompressedArray]) -> CompressedArray:
    """Join block-aligned chunks along grid axis 0 into one :class:`CompressedArray`.

    The result holds the chunks' per-block maxima and index rows in order, so
    every block of it carries exactly the bits it had in its chunk.  Chunks
    must share their settings and trailing shape, and every chunk but the
    last must span a whole number of blocks along axis 0 — otherwise the
    chunks' blocks would not tile the joined array.  Raises ``ValueError``
    when they do not.  The result owns fresh arrays, even for one chunk.
    """
    if not chunks:
        raise ValueError("cannot concatenate zero chunks")
    first = chunks[0]
    settings = first.settings
    trailing = first.shape[1:]
    block_rows = settings.block_shape[0]
    rows = 0
    for position, chunk in enumerate(chunks):
        if (chunk.settings is not settings
                and not _same_format(chunk.settings, settings)):
            raise ValueError(
                f"chunk {position} has different compression settings "
                f"({chunk.settings.describe()} vs {settings.describe()})"
            )
        if chunk.shape[1:] != trailing:
            raise ValueError(
                f"chunk {position} has trailing shape {chunk.shape[1:]}, "
                f"expected {trailing}"
            )
        if position < len(chunks) - 1 and chunk.shape[0] % block_rows:
            raise ValueError(
                f"chunk {position} has {chunk.shape[0]} rows, not a multiple of "
                f"the block extent {block_rows}; only the last chunk may be ragged"
            )
        rows += chunk.shape[0]
    return CompressedArray(
        settings=settings,
        shape=(rows,) + trailing,
        maxima=np.concatenate([chunk.maxima for chunk in chunks], axis=0),
        indices=np.concatenate([chunk.indices for chunk in chunks], axis=0),
    )
