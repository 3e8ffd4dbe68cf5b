from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, strategies as st

from ibcslab import transport
from ibcslab.errors import DecodeError, ParameterError, ProtocolViolation
from ibcslab.prng import (
    STREAM_BITS,
    Prng,
    derive,
    derive_stem,
    randomness_length,
    seed_root,
)


# A challenge is a drawn int everywhere but the wire, where the challenge
# codec packs it at its round's width.
@given(st.integers(min_value=0, max_value=512).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1 if n else 0))
))
def test_bits_pack_roundtrip(pair):
    nbits, value = pair
    payload = transport.encode_challenge(value, nbits)
    assert len(payload) == (nbits + 7) // 8
    assert transport.decode_challenge(payload, nbits) == value


def test_bits_rejects_out_of_range():
    for value, nbits in ((8, 3), (1, 0), (-1, 8)):
        with pytest.raises(ProtocolViolation, match="exceeds its declared width"):
            transport.encode_challenge(value, nbits)


def test_bits_packing_is_msb_first():
    # a 4-bit value packs into the high nibble, low bits zero-padded
    assert transport.encode_challenge(0b1010, 4) == b"\xa0"
    with pytest.raises(DecodeError, match="nonzero padding bits"):
        transport.decode_challenge(b"\xa1", 4)
    with pytest.raises(DecodeError, match="expected 1 bytes for 4 bits, got 2"):
        transport.decode_challenge(b"\xa0\x00", 4)
    # a draw packs as the stream's bits in stream order: 256 bits are block 0
    key = derive(seed_root(4), "pack")
    block = hashlib.sha256(b"ibcslab/stream/v1" + key + bytes(8)).digest()
    assert transport.encode_challenge(Prng(key).take_bits(256), 256) == block
    assert transport.encode_challenge(Prng(key).take_bits(12), 12) == bytes(
        (block[0], block[1] & 0xF0)
    )



def test_stream_is_deterministic_and_label_separated():
    root = seed_root(42)
    a = Prng(derive(root, "x", 0))
    b = Prng(derive(root, "x", 0))
    c = Prng(derive(root, "x", 1))
    seq_a = [a.take_bits(13) for _ in range(50)]
    seq_b = [b.take_bits(13) for _ in range(50)]
    seq_c = [c.take_bits(13) for _ in range(50)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_randomness_length_is_byte_aligned_and_sized():
    assert randomness_length(1) == 64
    assert randomness_length(3) == 72  # 2 + 64 -> next byte multiple
    assert randomness_length(17) == 72  # 5 + 64
    assert randomness_length(256) % 8 == 0
    for m in (2, 3, 6, 17, 1000):
        assert randomness_length(m) >= (m - 1).bit_length() + 64


def test_reduction_covers_space_nearly_uniformly():
    prng = Prng(derive(seed_root(7), "uniform"))
    counts = [0] * 6
    trials = 6000
    for _ in range(trials):
        counts[prng.take_bits(randomness_length(6)) % 6] += 1
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


def _reference_bits(key: bytes, start: int, nbits: int) -> int:
    """Bits [start, start + nbits) of the stream keyed by `key`, hashed block
    by block straight from the stream's definition."""
    if not nbits:
        return 0
    first, last = start // 256, (start + nbits - 1) // 256
    blocks = b"".join(
        hashlib.sha256(b"ibcslab/stream/v1" + key + j.to_bytes(8, "big")).digest()
        for j in range(first, last + 1)
    )
    whole = int.from_bytes(blocks, "big")
    return (whole >> (256 * (last + 1) - start - nbits)) & ((1 << nbits) - 1)


@given(
    key=st.binary(min_size=32, max_size=32),
    ops=st.lists(
        st.tuples(st.sampled_from(("take", "peek", "skip")), st.integers(0, 600)), max_size=12
    ),
)
@example(key=bytes(32), ops=[("peek", 256), ("skip", 256), ("take", 257), ("peek", 600)])
@example(key=bytes(32), ops=[("take", 0), ("peek", 0), ("skip", 0), ("take", 256)])
def test_drawn_bits_are_checked_values_of_the_hashed_stream(key, ops):
    """Every draw of n bits is an int in [0, 2**n) holding the bits the
    stream's blocks hold at that position, across the 256-bit block edges."""
    prng = Prng(key)
    position = 0
    for op, n in ops:
        if op == "skip":
            prng.skip_bits(n)
            position += n
            continue
        value = prng.take_bits(n) if op == "take" else prng.peek_bits(n)
        assert 0 <= value < 1 << n
        assert value == _reference_bits(key, position, n)
        if op == "take":
            position += n


def test_a_fresh_stream_peeks_what_it_takes():
    key = derive(seed_root(5), "fresh")
    for n in range(1025):
        assert Prng(key).peek_bits(n) == Prng(key).take_bits(n)


@pytest.mark.parametrize("op", ["skip_bits", "take_bits", "peek_bits"])
def test_a_stream_refuses_to_run_past_its_last_block(op):
    """A stream holds 2**64 blocks of 256 bits. A draw or skip past them is
    a ParameterError naming that length, and leaves the stream as it was;
    the last block itself is read."""
    key = derive(seed_root(2), "end")
    prng = Prng(key)
    prng.take_bits(100)
    with pytest.raises(ParameterError, match=r"a stream holds 2\*\*72 bits"):
        getattr(prng, op)(STREAM_BITS - 99)
    assert prng.take_bits(300) == _reference_bits(key, 100, 300)
    prng.skip_bits(STREAM_BITS - 400 - 8)
    assert prng.peek_bits(8) == _reference_bits(key, STREAM_BITS - 8, 8)
    with pytest.raises(ParameterError, match=f"and {STREAM_BITS - 8} of them are drawn"):
        getattr(prng, op)(9)
    assert prng.take_bits(8) == _reference_bits(key, STREAM_BITS - 8, 8)
    assert prng.take_bits(0) == 0
    with pytest.raises(ParameterError):
        getattr(prng, op)(1)



@given(
    consumed=st.integers(min_value=0, max_value=700),
    n=st.integers(min_value=0, max_value=700),
    prefix=st.integers(min_value=0, max_value=700),
)
@example(consumed=0, n=0, prefix=0)
@example(consumed=100, n=412, prefix=156)
def test_peek_bits_leaves_the_stream_where_it_was(consumed, n, prefix):
    """A peek returns the bits `take_bits` draws next, and skipping a prefix
    of them lands where taking that prefix does."""
    prefix = min(prefix, n)
    key = derive(seed_root(3), "peek")
    peeked, taken = Prng(key), Prng(key)
    peeked.take_bits(consumed)
    taken.take_bits(consumed)
    ahead = peeked.peek_bits(n)
    assert peeked.peek_bits(n) == ahead
    assert taken.take_bits(prefix) == ahead >> (n - prefix)
    peeked.skip_bits(prefix)
    assert peeked.take_bits(n) == taken.take_bits(n)


def test_peek_bits_rejects_negative():
    with pytest.raises(ParameterError):
        Prng(seed_root(1)).peek_bits(-1)


@given(
    key=st.binary(max_size=64),
    parts=st.lists(st.one_of(st.text(max_size=16), st.integers(0, 2**64 - 1)), max_size=4),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
)
@example(key=b"", parts=[], indices=[0])
@example(key=bytes(32), parts=["accept:optimal", 0], indices=[0, 1, 0, 999])
def test_derive_stem_keys_are_the_derived_keys(key, parts, indices):
    """The stem's i-th key is `derive(key, *parts, i)`, whatever keys were
    asked for before it."""
    trial_key = derive_stem(key, *parts)
    for i in indices:
        assert trial_key(i) == derive(key, *parts, i)


def test_derive_stem_rejects_negative_index():
    with pytest.raises(ParameterError):
        derive_stem(seed_root(1), "trial")(-1)
