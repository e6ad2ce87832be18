"""Unit tests for repro.numerics.rounding."""

import numpy as np
import pytest

from repro.numerics import (
    BFLOAT16,
    FLOAT16,
    FLOAT32,
    FLOAT64,
    PrecisionEmulator,
    machine_epsilon,
    round_to_format,
    ulp,
)


class TestRoundToFormat:
    def test_float64_is_identity(self, rng):
        values = rng.standard_normal(100)
        assert np.array_equal(round_to_format(values, FLOAT64), values)

    def test_float32_matches_cast(self, rng):
        values = rng.standard_normal(100)
        expected = values.astype(np.float32).astype(np.float64)
        assert np.array_equal(round_to_format(values, "float32"), expected)

    def test_float16_matches_cast(self, rng):
        values = rng.standard_normal(100)
        expected = values.astype(np.float16).astype(np.float64)
        assert np.array_equal(round_to_format(values, "fp16"), expected)

    def test_returns_float64_dtype(self, rng):
        out = round_to_format(rng.standard_normal(10), "bfloat16")
        assert out.dtype == np.float64

    def test_bfloat16_values_have_zero_low_bits(self, rng):
        values = rng.standard_normal(1000)
        rounded = round_to_format(values, BFLOAT16).astype(np.float32)
        bits = rounded.view(np.uint32)
        assert np.all(bits & np.uint32(0xFFFF) == 0)

    def test_bfloat16_error_within_half_ulp(self, rng):
        values = rng.uniform(-100, 100, 1000)
        rounded = round_to_format(values, BFLOAT16)
        spacing = ulp(values, BFLOAT16)
        assert np.all(np.abs(rounded - values) <= 0.5 * spacing + 1e-300)

    def test_bfloat16_exactly_representable_values_unchanged(self):
        # powers of two and small integers are exactly representable in bfloat16
        values = np.array([0.0, 1.0, -1.0, 2.0, 0.5, -0.25, 96.0, 2.0**20])
        assert np.array_equal(round_to_format(values, BFLOAT16), values)

    def test_bfloat16_rounds_to_nearest_even(self):
        # 1 + 2**-8 sits exactly between 1.0 and 1 + 2**-7: ties go to even (1.0)
        value = np.array([1.0 + 2.0**-8])
        assert round_to_format(value, BFLOAT16)[0] == 1.0
        # slightly above the midpoint rounds up
        value = np.array([1.0 + 2.0**-8 + 2.0**-12])
        assert round_to_format(value, BFLOAT16)[0] == 1.0 + 2.0**-7

    def test_bfloat16_rounds_once_from_float64(self):
        # 45219841 lies just above the midpoint 172.5 * 2**18; rounding to float32
        # first lands exactly on the midpoint, and the tie then goes down to even
        value = np.array([45219841.0])
        assert round_to_format(value, BFLOAT16)[0] == 173 * 2.0**18

    def test_bfloat16_subnormals_and_overflow(self):
        values = np.array([2.0**-133, 2.0**-134, 3 * 2.0**-135, 3.4e38, -1e300])
        out = round_to_format(values, BFLOAT16)
        # 2**-134 is a tie between 0 and 2**-133 and goes to the even 0
        assert np.array_equal(out[:3], [2.0**-133, 0.0, 2.0**-133])
        assert out[3] == np.inf and out[4] == -np.inf

    def test_bfloat16_preserves_nan(self):
        out = round_to_format(np.array([np.nan, 1.0]), BFLOAT16)
        assert np.isnan(out[0]) and out[1] == 1.0

    def test_float16_overflow_to_inf(self):
        # §V-B: float16's short exponent overflows where bfloat16 does not
        big = np.array([1e6])
        assert np.isinf(round_to_format(big, FLOAT16)[0])
        assert np.isfinite(round_to_format(big, BFLOAT16)[0])

    def test_half_ulp_bound_float16(self, rng):
        values = rng.uniform(-1000, 1000, 500)
        rounded = round_to_format(values, FLOAT16)
        assert np.all(np.abs(rounded - values) <= 0.5 * ulp(values, FLOAT16) * (1 + 1e-12))

    def test_scalar_input(self):
        assert round_to_format(np.float64(0.1), "float32") == pytest.approx(
            np.float64(np.float32(0.1))
        )


class TestUlpAndEpsilon:
    def test_machine_epsilon_values(self):
        assert machine_epsilon("float32") == pytest.approx(2.0**-23)
        assert machine_epsilon("bfloat16") == pytest.approx(2.0**-7)

    def test_ulp_at_one(self):
        assert ulp(np.array([1.0]), FLOAT32)[0] == pytest.approx(2.0**-23)

    def test_ulp_scales_with_magnitude(self):
        small = ulp(np.array([1.0]), FLOAT16)[0]
        large = ulp(np.array([1024.0]), FLOAT16)[0]
        assert large == pytest.approx(small * 1024)

    def test_ulp_nan_for_nonfinite(self):
        out = ulp(np.array([np.inf, np.nan]), FLOAT32)
        assert np.isnan(out).all()


class TestPrecisionEmulator:
    def test_identity_at_float64(self, rng):
        emulator = PrecisionEmulator("float64")
        values = rng.standard_normal(50)
        assert np.array_equal(emulator(values), values)

    def test_rounds_at_float16(self, rng):
        emulator = PrecisionEmulator("float16")
        values = rng.standard_normal(50)
        assert np.array_equal(emulator(values), round_to_format(values, FLOAT16))

    def test_counts_calls(self, rng):
        emulator = PrecisionEmulator("float32", count_roundings=True)
        for _ in range(5):
            emulator(rng.standard_normal(3))
        assert emulator.rounding_calls == 5

    def test_accepts_format_object(self):
        assert PrecisionEmulator(FLOAT16).fmt is FLOAT16
