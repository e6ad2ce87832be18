"""Property tests: :func:`repro.core.ops.folds.exact_sum` is ``math.fsum``, bit for bit.

Results are compared with ``float.hex`` so signed zeros count; inputs where
``fsum`` raises must raise the same exception type.
"""

import math

import numpy as np
from hypothesis import example, given, settings as hyp_settings, strategies as st

from repro.core.ops.folds import exact_sum

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
subnormal = st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308,
                      allow_subnormal=True)
wide = st.builds(lambda sign, digits, power: sign * digits * 10.0 ** power,
                 st.sampled_from([-1.0, 1.0]),
                 st.floats(min_value=1.0, max_value=9.999999999999998),
                 st.integers(min_value=-300, max_value=299))
value = st.one_of(finite, subnormal, wide, st.sampled_from([0.0, -0.0, 1.0, -1.0]))
special = st.sampled_from([math.inf, -math.inf, math.nan, 1.7976931348623157e308,
                           -1.7976931348623157e308, 1e308, -1e308, 8.98846567431158e307])


def outcome(function, *args):
    """The hex of the result, or the exception type it raised."""
    try:
        return function(*args).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def fsum_of(parts):
    return math.fsum(v for part in parts for v in part)


def as_parts(lists):
    return [np.asarray(part, dtype=np.float64) for part in lists]


@st.composite
def parts_of(draw, element):
    """Values of ``element`` split into a list of (possibly empty) parts."""
    return draw(st.lists(st.lists(element, max_size=12), max_size=6))


@st.composite
def cancelling_parts(draw):
    """Values, their exact negations and an optional residue, shuffled into parts."""
    values = draw(st.lists(value, min_size=1, max_size=20))
    residue = draw(st.lists(value, max_size=2))
    pool = draw(st.permutations(values + [-v for v in values] + residue))
    cuts = sorted(draw(st.lists(st.integers(0, len(pool)), max_size=4)))
    bounds = [0] + cuts + [len(pool)]
    return [pool[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@given(parts_of(value))
@hyp_settings(max_examples=400, deadline=None)
def test_finite_parts_match_fsum(lists):
    assert outcome(exact_sum, as_parts(lists)) == outcome(fsum_of, lists)


@given(parts_of(st.one_of(wide, subnormal)))
@hyp_settings(max_examples=200, deadline=None)
def test_magnitudes_from_subnormal_to_1e300_match_fsum(lists):
    assert outcome(exact_sum, as_parts(lists)) == outcome(fsum_of, lists)


@given(cancelling_parts())
@hyp_settings(max_examples=300, deadline=None)
def test_exact_cancellation_matches_fsum(lists):
    assert outcome(exact_sum, as_parts(lists)) == outcome(fsum_of, lists)


@given(parts_of(st.one_of(value, special)))
@hyp_settings(max_examples=300, deadline=None)
@example([[1e308, 1e308, -1e308]])  # fsum's partials overflow though the sum fits
@example([[1.7976931348623157e308], [1e292]])
@example([[8.98846567431158e307] * 3, [-8.98846567431158e307] * 2])
@example([[math.inf], [-math.inf]])
@example([[math.nan, 1.0]])
@example([[-0.0], [-0.0]])
def test_non_finite_and_overflowing_inputs_match_fsum(lists):
    assert outcome(exact_sum, as_parts(lists)) == outcome(fsum_of, lists)


@given(st.integers(0, 5))
def test_empty_parts_match_fsum(n_parts):
    lists = [[] for _ in range(n_parts)]
    assert outcome(exact_sum, as_parts(lists)) == outcome(fsum_of, lists)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64))
@hyp_settings(max_examples=20, deadline=None)
def test_many_values_in_any_chunking_match_fsum(seed, n_parts):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-8, 8, 20_000)
    parts = np.array_split(values, n_parts)
    before = values.copy()
    assert exact_sum(parts).hex() == math.fsum(values.tolist()).hex()
    assert np.array_equal(values, before)  # the caller's arrays are not touched
