"""Round float64 arrays to reduced-precision formats.

The compressor's first step (§III-A(a)) lowers the working precision of the input
array; the shallow-water experiment (§V-A) runs an entire simulation at a lowered
precision.  Both are implemented here as explicit rounding operations on float64
arrays so their error contribution is reproducible and directly testable.

For the formats numpy implements natively (float16/32/64) rounding is a round-trip
cast.  ``bfloat16`` is emulated bit-exactly by round-to-nearest-even to 8
significant bits, done once from float64 — the same rule hardware bfloat16 units use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import BFLOAT16, FLOAT64, FloatFormat, resolve_format

__all__ = ["round_to_format", "machine_epsilon", "ulp", "PrecisionEmulator"]


def _round_to_bfloat16(values: np.ndarray) -> np.ndarray:
    """Round float values to bfloat16 (round-to-nearest-even), returned as float32.

    The result is exactly representable in bfloat16: the low 16 bits of its float32
    pattern are zero.  The rounding is done once, directly from float64: going
    through float32 first would round twice and can break ties the wrong way
    (45219841 would become 45088768 instead of the nearest 45350912).  NaNs are
    preserved; values exceeding the (float32-like) bfloat16 range become
    infinities, matching a hardware cast.
    """
    arr = np.asarray(values, dtype=np.float64)
    _, exponent = np.frexp(arr)
    # bfloat16 keeps 8 significant bits; below the smallest normal (2**-126)
    # the quantum stays at the subnormal spacing 2**-133
    quantum_exponent = np.maximum(exponent, -125) - 8
    # scaling by powers of two is exact, and np.rint rounds half to even
    rounded = np.ldexp(np.rint(np.ldexp(arr, -quantum_exponent)), quantum_exponent)
    with np.errstate(over="ignore"):
        return rounded.astype(np.float32)


def round_to_format(values: np.ndarray, fmt: FloatFormat | str) -> np.ndarray:
    """Round ``values`` to ``fmt`` and return them as a float64 array.

    The returned array contains only values exactly representable in ``fmt``
    (plus infinities/NaNs produced by overflow), but is stored at float64 so that
    subsequent arithmetic does not accumulate further format error.

    Parameters
    ----------
    values:
        Input array (any real dtype).
    fmt:
        Target format or its name.
    """
    fmt = resolve_format(fmt)
    values = np.asarray(values)
    if fmt.numpy_dtype is not None and values.dtype == fmt.numpy_dtype:
        # already exactly representable in fmt: the round-trip cast is the
        # identity, so a single widening cast suffices (hot-path shortcut for
        # e.g. float32 inputs compressed at float32 working precision)
        return values.astype(np.float64)
    arr = np.asarray(values, dtype=np.float64)
    if fmt is FLOAT64 or fmt.name == "float64":
        return arr.copy()
    if fmt is BFLOAT16 or fmt.name == "bfloat16":
        return _round_to_bfloat16(arr).astype(np.float64)
    assert fmt.numpy_dtype is not None
    with np.errstate(over="ignore", invalid="ignore"):
        return arr.astype(fmt.numpy_dtype).astype(np.float64)


def machine_epsilon(fmt: FloatFormat | str) -> float:
    """Machine epsilon (gap between 1.0 and the next representable value) of ``fmt``."""
    return resolve_format(fmt).machine_epsilon


def ulp(values: np.ndarray, fmt: FloatFormat | str) -> np.ndarray:
    """Unit-in-the-last-place spacing of ``fmt`` at each element of ``values``.

    Useful for asserting that rounding error stays below half an ulp.
    Zeros map to the smallest subnormal spacing; non-finite values map to NaN.
    """
    fmt = resolve_format(fmt)
    arr = np.abs(np.asarray(values, dtype=np.float64))
    out = np.full(arr.shape, np.nan)
    finite = np.isfinite(arr)
    mag = np.where(arr[finite] == 0.0, fmt.smallest_normal, arr[finite])
    exponent = np.floor(np.log2(mag))
    exponent = np.clip(exponent, fmt.min_exponent, fmt.max_exponent)
    out[finite] = 2.0 ** (exponent - fmt.fraction_bits)
    return out


@dataclass
class PrecisionEmulator:
    """Applies format rounding after every arithmetic step of a simulation.

    The shallow-water solver calls :meth:`apply` on each updated state array so
    that the entire run behaves as if it had been carried out in ``fmt``.  With
    ``fmt`` = float64 the emulator is the identity, which keeps the solver code
    free of special cases.

    Attributes
    ----------
    fmt:
        Target working precision.
    count_roundings:
        When True, :attr:`rounding_calls` counts how many arrays were rounded,
        which tests use to verify the emulator is actually exercised.
    """

    fmt: FloatFormat
    count_roundings: bool = False
    rounding_calls: int = 0

    def __init__(self, fmt: FloatFormat | str, count_roundings: bool = False):
        object.__setattr__ if False else None  # keep dataclass semantics simple
        self.fmt = resolve_format(fmt)
        self.count_roundings = count_roundings
        self.rounding_calls = 0

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Round ``values`` to the emulated precision."""
        if self.count_roundings:
            self.rounding_calls += 1
        if self.fmt is FLOAT64:
            return np.asarray(values, dtype=np.float64)
        return round_to_format(values, self.fmt)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.apply(values)
