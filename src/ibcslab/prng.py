"""Deterministic randomness: stream derivation and uniform draws.

Every random choice in the package flows through a `Prng` keyed by a
32-byte value derived from the master seed and a label path, e.g.
``derive(root, "session", 0)`` or ``derive(root, "trial", 1234)``.
Derivation is SHA-256 over length-prefixed parts, so streams are
independent and reproducible across platforms and processes.

A run of streams that differ only in a last integer part, such as one
key per trial, comes from `derive_stem(root, label, ...)`: it hashes the
shared parts once and returns the function i -> `derive(root, label, ...,
i)`, which copies that hash state and adds only the part for i.

A stream is SHA-256 in counter mode with an 8-byte block counter, so it
holds 2**72 bits; a draw or skip past them is a ParameterError, raised
before the stream moves. A fresh stream's first read of up to 256 bits
hashes block 0 straight into its buffer. A draw of n bits is an int in
[0, 2**n), its bits MSB first in stream order.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from .errors import ParameterError

_DERIVE_PREFIX = b"ibcslab/derive/v1"
_STREAM_PREFIX = b"ibcslab/stream/v1"
# The length prefix `_encode_part` gives an integer part's 8 bytes.
_INT_PART_LENGTH = (8).to_bytes(4, "big")

# The counter of stream block 0, and the bits a stream holds: 2**64 blocks
# of 256 bits, as many as an 8-byte block counter numbers.
_BLOCK_0 = bytes(8)
STREAM_BITS = 256 << 64

# Extra bits drawn beyond ceil(log2 m) when mapping a uniform draw onto a
# set of size m by reduction mod m; keeps the residual bias below 2**-64.
RANGE_SLACK_BITS = 64


def _encode_part(part) -> bytes:
    if isinstance(part, bytes):
        body = part
    elif isinstance(part, str):
        body = part.encode("utf-8")
    elif isinstance(part, int):
        if part < 0:
            raise ParameterError("derivation labels must be non-negative integers")
        body = part.to_bytes(8, "big")
    else:
        raise ParameterError(f"unsupported derivation label type: {type(part)!r}")
    return len(body).to_bytes(4, "big") + body


def _absorb(key: bytes, parts):
    """A SHA-256 state that has hashed the derivation prefix, `key` and `parts`."""
    h = hashlib.sha256()
    h.update(_DERIVE_PREFIX)
    h.update(_encode_part(key))
    for part in parts:
        h.update(_encode_part(part))
    return h


def derive(key: bytes, *parts) -> bytes:
    """Derive an independent 32-byte stream key from `key` and a label path."""
    return _absorb(key, parts).digest()


def derive_stem(key: bytes, *parts) -> Callable[[int], bytes]:
    """The keys `derive(key, *parts, i)` for integers i >= 0, as one function.

    The prefix, `key` and `parts` are hashed once; each key copies that
    SHA-256 state and adds the encoded `i`, so it costs one part, not the
    whole path.
    """
    stem = _absorb(key, parts)

    def child(i: int) -> bytes:
        if i < 0:
            raise ParameterError("derivation labels must be non-negative integers")
        h = stem.copy()
        h.update(_INT_PART_LENGTH + i.to_bytes(8, "big"))  # `_encode_part(i)`
        return h.digest()

    return child


def seed_root(seed: int) -> bytes:
    """Map an integer master seed in [0, 2**128) to the root derivation key."""
    if not 0 <= seed < 1 << 128:
        raise ParameterError(f"seed {seed} is outside [0, 2**128)")
    return hashlib.sha256(b"ibcslab/seed/v1" + seed.to_bytes(16, "big")).digest()


class Prng:
    """SHA-256 counter-mode bit stream. Bits are consumed MSB first.

    Block j is SHA-256(prefix || key || BE64(j)), so a stream holds
    `STREAM_BITS` bits; a draw or skip past them is refused before the
    stream moves.
    """

    __slots__ = ("_key", "_block_prefix", "_counter", "_buf", "_buf_bits")

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ParameterError("stream key must be 32 bytes")
        self._key = key
        self._block_prefix = _STREAM_PREFIX + key
        self._counter = 0
        self._buf = 0
        self._buf_bits = 0

    @property
    def key(self) -> bytes:
        """The stream key: `Prng(key)` restarts the stream from its first bit."""
        return self._key

    def _refill(self):
        block = hashlib.sha256(
            self._block_prefix + self._counter.to_bytes(8, "big")
        ).digest()
        self._counter += 1
        self._buf = (self._buf << 256) | int.from_bytes(block, "big")
        self._buf_bits += 256

    def _refuse_past_end(self, nbits: int, verb: str):
        used = (self._counter << 8) - self._buf_bits
        if used + nbits > STREAM_BITS:
            raise ParameterError(
                f"cannot {verb} {nbits} bits: a stream holds 2**72 bits "
                f"(2**64 blocks of 256), and {used} of them are drawn"
            )

    def _fill(self, nbits: int):
        """Buffer at least `nbits` bits, or refuse a negative count or one
        that runs past the stream's end, leaving the stream as it was."""
        if not self._counter and 0 <= nbits <= 256:
            # A fresh stream's first read: block 0 is the whole buffer.
            self._buf = int.from_bytes(
                hashlib.sha256(self._block_prefix + _BLOCK_0).digest(), "big"
            )
            self._buf_bits = 256
            self._counter = 1
            return
        if nbits < 0:
            raise ParameterError("cannot draw a negative number of bits")
        self._refuse_past_end(nbits, "draw")
        while self._buf_bits < nbits:
            self._refill()

    def take_bits(self, nbits: int) -> int:
        """The next `nbits` bits, as an int in [0, 2**nbits)."""
        if self._buf_bits < nbits or nbits < 0:
            self._fill(nbits)
        shift = self._buf_bits - nbits
        value = self._buf >> shift
        self._buf &= (1 << shift) - 1
        self._buf_bits = shift
        return value

    def peek_bits(self, nbits: int) -> int:
        """The next `nbits` bits, left in the stream: `take_bits(nbits)`
        returns them next, and `skip_bits` moves past any prefix of them.

        A fresh stream reads up to 256 bits from its first block alone.
        """
        if self._buf_bits < nbits or nbits < 0:
            self._fill(nbits)
        return self._buf >> (self._buf_bits - nbits)

    def skip_bits(self, nbits: int):
        """Advance the stream past `nbits` bits without producing them.

        Leaves the stream exactly where `take_bits(nbits)` would, at the
        cost of at most one block: inside the buffer it drops the bits;
        past it the buffered bits go first, whole 256-bit blocks are
        skipped by moving the counter, and the rest is dropped from the
        next block. A skip past the stream's end is refused before the
        stream moves.
        """
        if nbits < 0:
            raise ParameterError("cannot skip a negative number of bits")
        rest = self._buf_bits - nbits
        if rest >= 0:
            self._buf_bits = rest
            self._buf &= (1 << rest) - 1
            return
        self._refuse_past_end(nbits, "skip")
        nbits = -rest
        self._buf, self._buf_bits = 0, 0
        self._counter += nbits >> 8
        nbits &= 255
        if nbits:
            self._refill()
            self._buf_bits = 256 - nbits
            self._buf &= (1 << self._buf_bits) - 1

    def take_below(self, m: int) -> int:
        """Uniform draw from [0, m) up to a bias below 2**-64."""
        if m < 1:
            raise ParameterError("range must be positive")
        if m == 1:
            return 0
        return self.take_bits((m - 1).bit_length() + RANGE_SLACK_BITS) % m


def randomness_length(space_size: int) -> int:
    """Verifier randomness length (bits) for a structured space of `space_size`.

    ceil(log2 m) plus 64 slack bits, rounded up to a whole byte so that
    challenge frames carry no padding on the wire.
    """
    if space_size < 1:
        raise ParameterError("challenge space must be nonempty")
    raw = (space_size - 1).bit_length() + RANGE_SLACK_BITS
    return ((raw + 7) // 8) * 8
