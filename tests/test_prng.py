from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from ibcslab.errors import DecodeError, ParameterError
from ibcslab.prng import (
    Bits,
    Prng,
    derive,
    map_to_range,
    randomness_length,
    seed_root,
)


@given(st.integers(min_value=0, max_value=512).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1 if n else 0))
))
def test_bits_pack_roundtrip(pair):
    nbits, value = pair
    bits = Bits(nbits, value)
    assert Bits.from_bytes(bits.to_bytes(), nbits) == bits


def test_bits_rejects_out_of_range():
    with pytest.raises(ParameterError):
        Bits(3, 8)
    with pytest.raises(ParameterError):
        Bits(0, 1)


def test_bits_packing_is_msb_first():
    assert Bits(8, 0b10100000).to_bytes() == b"\xa0"
    # 4-bit value packs into the high nibble, low bits zero-padded
    assert Bits(4, 0b1010).to_bytes() == b"\xa0"
    with pytest.raises(DecodeError):
        Bits.from_bytes(b"\xa1", 4)  # nonzero padding


def test_stream_is_deterministic_and_label_separated():
    root = seed_root(42)
    a = Prng(derive(root, "x", 0))
    b = Prng(derive(root, "x", 0))
    c = Prng(derive(root, "x", 1))
    seq_a = [a.take_bits(13).value for _ in range(50)]
    seq_b = [b.take_bits(13).value for _ in range(50)]
    seq_c = [c.take_bits(13).value for _ in range(50)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_randomness_length_is_byte_aligned_and_sized():
    assert randomness_length(1) == 64
    assert randomness_length(3) == 72  # 2 + 64 -> next byte multiple
    assert randomness_length(17) == 72  # 5 + 64
    assert randomness_length(256) % 8 == 0
    for m in (2, 3, 6, 17, 1000):
        assert randomness_length(m) >= (m - 1).bit_length() + 64


def test_map_to_range_requires_slack():
    with pytest.raises(ParameterError):
        map_to_range(Bits(8, 5), 17)
    assert map_to_range(Bits(72, 3), 17) == 3


def test_map_to_range_covers_space_nearly_uniformly():
    prng = Prng(derive(seed_root(7), "uniform"))
    counts = [0] * 6
    trials = 6000
    for _ in range(trials):
        counts[map_to_range(prng.take_bits(randomness_length(6)), 6)] += 1
    for c in counts:
        assert abs(c - trials / 6) < 150


def test_take_below_range():
    prng = Prng(derive(seed_root(1), "below"))
    values = {prng.take_below(13) for _ in range(500)}
    assert values <= set(range(13))
    assert len(values) == 13


@given(
    consumed=st.integers(min_value=0, max_value=700),
    n=st.one_of(st.integers(min_value=0, max_value=2000), st.integers(0, 8).map(lambda j: 256 * j)),
    m=st.integers(min_value=0, max_value=600),
)
@example(consumed=0, n=0, m=9)
@example(consumed=0, n=512, m=300)
@example(consumed=100, n=256, m=1)
@example(consumed=100, n=156, m=256)
@example(consumed=255, n=1, m=256)
def test_skip_bits_lands_where_take_bits_does(consumed, n, m):
    key = derive(seed_root(3), "skip")
    skipped, taken = Prng(key), Prng(key)
    skipped.take_bits(consumed)
    taken.take_bits(consumed)
    skipped.skip_bits(n)
    taken.take_bits(n)
    assert skipped.take_bits(m) == taken.take_bits(m)


def test_skip_bits_rejects_negative():
    with pytest.raises(ParameterError):
        Prng(seed_root(1)).skip_bits(-1)
