"""Deterministic randomness: bit strings, stream derivation, range mapping.

Every random choice in the package flows through a `Prng` keyed by a
32-byte value derived from the master seed and a label path, e.g.
``derive(root, "session", 0)`` or ``derive(root, "trial", 1234)``.
Derivation is SHA-256 over length-prefixed parts, so streams are
independent and reproducible across platforms and processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import DecodeError, ParameterError

_DERIVE_PREFIX = b"ibcslab/derive/v1"
_STREAM_PREFIX = b"ibcslab/stream/v1"

# Extra bits drawn beyond ceil(log2 m) when mapping a uniform bit string
# onto a set of size m; keeps the residual bias of the modular reduction
# below 2**-64.
RANGE_SLACK_BITS = 64


@dataclass(frozen=True)
class Bits:
    """An immutable bit string: `value` holds the bits, MSB first."""

    nbits: int
    value: int

    def __post_init__(self):
        if self.nbits < 0:
            raise ParameterError("negative bit length")
        if self.value < 0 or self.value >> self.nbits:
            raise ParameterError("bit value out of range for declared length")

    def to_bytes(self) -> bytes:
        """Pack MSB-first; the final partial byte is zero-padded."""
        nbytes = (self.nbits + 7) // 8
        pad = 8 * nbytes - self.nbits
        return (self.value << pad).to_bytes(nbytes, "big")

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "Bits":
        nbytes = (nbits + 7) // 8
        if len(data) != nbytes:
            raise DecodeError(f"expected {nbytes} bytes for {nbits} bits, got {len(data)}")
        raw = int.from_bytes(data, "big")
        pad = 8 * nbytes - nbits
        if raw & ((1 << pad) - 1):
            raise DecodeError("nonzero padding bits in packed bit string")
        return cls(nbits, raw >> pad)


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


def derive(key: bytes, *parts) -> bytes:
    """Derive an independent 32-byte stream key from `key` and a label path."""
    h = hashlib.sha256()
    h.update(_DERIVE_PREFIX)
    h.update(_encode_part(key))
    for part in parts:
        h.update(_encode_part(part))
    return h.digest()


def seed_root(seed: int) -> bytes:
    """Map an integer master seed to the root derivation key."""
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    return hashlib.sha256(b"ibcslab/seed/v1" + seed.to_bytes(16, "big")).digest()


class Prng:
    """SHA-256 counter-mode bit stream. Bits are consumed MSB first."""

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ParameterError("stream key must be 32 bytes")
        self._key = key
        self._counter = 0
        self._buf = 0
        self._buf_bits = 0

    @property
    def key(self) -> bytes:
        """The stream key: `Prng(key)` restarts the stream from its first bit."""
        return self._key

    def _refill(self):
        block = hashlib.sha256(
            _STREAM_PREFIX + self._key + self._counter.to_bytes(8, "big")
        ).digest()
        self._counter += 1
        self._buf = (self._buf << 256) | int.from_bytes(block, "big")
        self._buf_bits += 256

    def take_bits(self, nbits: int) -> Bits:
        if nbits < 0:
            raise ParameterError("cannot draw a negative number of bits")
        while self._buf_bits < nbits:
            self._refill()
        shift = self._buf_bits - nbits
        value = self._buf >> shift
        self._buf &= (1 << shift) - 1
        self._buf_bits = shift
        return Bits(nbits, value)

    def skip_bits(self, nbits: int):
        """Advance the stream past `nbits` bits without producing them.

        Leaves the stream exactly where `take_bits(nbits)` would, at the
        cost of at most one block: the buffered bits go first, whole
        256-bit blocks are skipped by moving the counter, and the rest is
        dropped from the next block.
        """
        if nbits < 0:
            raise ParameterError("cannot skip a negative number of bits")
        if nbits > self._buf_bits:
            nbits -= self._buf_bits
            self._buf, self._buf_bits = 0, 0
            self._counter += nbits // 256
            nbits %= 256
            if nbits:
                self._refill()
        self._buf_bits -= nbits
        self._buf &= (1 << self._buf_bits) - 1

    def take_below(self, m: int) -> int:
        """Uniform draw from [0, m) up to a bias below 2**-64."""
        if m < 1:
            raise ParameterError("range must be positive")
        if m == 1:
            return 0
        bits = self.take_bits((m - 1).bit_length() + RANGE_SLACK_BITS)
        return bits.value % m


def randomness_length(space_size: int) -> int:
    """Verifier randomness length (bits) for a structured space of `space_size`.

    ceil(log2 m) plus 64 slack bits, rounded up to a whole byte so that
    challenge frames carry no padding on the wire.
    """
    if space_size < 1:
        raise ParameterError("challenge space must be nonempty")
    raw = (space_size - 1).bit_length() + RANGE_SLACK_BITS
    return ((raw + 7) // 8) * 8


def map_to_range(bits: Bits, space_size: int) -> int:
    """Map a uniform bit string onto [0, space_size).

    Oversampled reduction: with nbits >= ceil(log2 m) + 64 the output
    distribution is within 2**-64 total variation of uniform. The map is a
    pure function of the bit string, so prover and verifier agree on the
    structured challenge without further interaction.
    """
    if space_size < 1:
        raise ParameterError("challenge space must be nonempty")
    if space_size == 1:
        return 0
    need = (space_size - 1).bit_length() + RANGE_SLACK_BITS
    if bits.nbits < need:
        raise ParameterError(
            f"bit string too short to map onto {space_size} values: "
            f"{bits.nbits} < {need}"
        )
    return bits.value % space_size
