"""Merkle-tree vector commitment with batched, deduplicated multi-openings.

The scheme commits to a sequence of alphabet symbols and later opens any
set of positions with a single proof. Hash inputs are domain separated:

    data leaf j   : H(tag || 0x00 || BE64(j) || symbol block)
    internal node : H(tag || 0x01 || left || right)
    padding leaf j: H(tag || 0x02 || BE64(j) || zero block)

Positions are 1-based. The tree width is the least power of two at or
above the capacity; leaves past the committed length hash a reserved
all-zero block so the tree shape is independent of the message length.
Padding leaves are recomputable by the verifier, so they never appear in
proofs, and a padding position opens to the reserved symbol 0.

Multi-proofs list the sibling digests that cannot be derived from the
opened leaves (or from padding), in bottom-up, left-to-right order with
duplicates removed. The proof length is therefore forced: verification
fails on any extra or missing digest.

Padding leaves and all-padding subtrees depend only on the parameters and
the committed length, so their digests are computed once per
(params, length) pair, level by level, and kept in a bounded LRU cache
(`PADDING_CACHE_SIZE` entries). Only the ancestors of the opened leaves
and of the first padding leaf can lack a sibling, so with the cache warm:

    vc_check, vc_open, proof_digest_count : O(q log width) work for q positions;
                                            check hashes at most (q+1)(levels+1)
    vc_commit                              : hashes the data leaves and the
                                            nodes above them, about 2 * length

A cold cache costs one pass of about 2 * (width - length) hashes.

`vc_check` first looks its full input (parameters, root, committed length,
positions, answers and proof) up in a process-wide `memo.BoundedMemo`, so a
repeated check costs one lookup; verifiers in the laboratory check the same
few openings thousands of times per report. Only a miss runs the shape
checks (positions, answers, proof length and digest sizes) and the root
reconstruction, and only an input that passes the shape checks is kept.
An entry counts 32 bytes per proof digest and per opened position; the
memo holds at most `CHECK_MEMO_BYTES` of them, and so at most
`CHECK_MEMO_BYTES // 32` entries, whatever a peer sends.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DecodeError, MessageError, ParameterError, QueryError
from .memo import BoundedMemo

DIGEST_BYTES = 32
DEFAULT_DOMAIN_TAG = b"ibcslab/vc/1"

_LEAF_MARK = b"\x00"
_NODE_MARK = b"\x01"
_PAD_MARK = b"\x02"

_SUPPORTED_SECURITY = (128, 256)
_SUPPORTED_HASHES = ("sha256",)

# Parameter sets (with committed lengths) whose padding digests stay cached.
PADDING_CACHE_SIZE = 16

# Bytes of the `vc_check` memo, counted as one digest per proof digest and
# per opened position.
CHECK_MEMO_BYTES = 4 << 10


def _next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class VcParams:
    security_bits: int
    capacity: int
    symbol_bits: int
    hash_name: str = "sha256"
    domain_tag: bytes = DEFAULT_DOMAIN_TAG

    def __post_init__(self):
        if self.security_bits not in _SUPPORTED_SECURITY:
            raise ParameterError(f"security level must be one of {_SUPPORTED_SECURITY}")
        if self.capacity < 1:
            raise ParameterError("capacity must be at least 1")
        if self.symbol_bits < 1:
            raise ParameterError("symbol width must be at least 1 bit")
        if self.hash_name not in _SUPPORTED_HASHES:
            raise ParameterError(f"unknown hash identifier {self.hash_name!r}")
        if not self.domain_tag or len(self.domain_tag) > 255:
            raise ParameterError("domain tag must be 1..255 bytes")

    @property
    def width(self) -> int:
        return _next_pow2(self.capacity)

    @property
    def symbol_bytes(self) -> int:
        return (self.symbol_bits + 7) // 8

    @property
    def levels(self) -> int:
        """Number of tree layers above the leaves."""
        return (self.width - 1).bit_length()

    def to_bytes(self) -> bytes:
        """Canonical serialization; `params_from_bytes` inverts it."""
        return b"".join(
            [
                self.security_bits.to_bytes(2, "big"),
                self.capacity.to_bytes(8, "big"),
                self.symbol_bits.to_bytes(2, "big"),
                len(self.hash_name).to_bytes(1, "big"),
                self.hash_name.encode("ascii"),
                len(self.domain_tag).to_bytes(1, "big"),
                self.domain_tag,
            ]
        )


def params_from_bytes(data: bytes) -> VcParams:
    try:
        sec = int.from_bytes(data[0:2], "big")
        cap = int.from_bytes(data[2:10], "big")
        sym = int.from_bytes(data[10:12], "big")
        off = 12
        hlen = data[off]
        name = data[off + 1 : off + 1 + hlen].decode("ascii")
        off += 1 + hlen
        tlen = data[off]
        tag = data[off + 1 : off + 1 + tlen]
        off += 1 + tlen
    except (IndexError, UnicodeDecodeError) as exc:
        raise DecodeError(f"truncated parameter encoding: {exc}") from exc
    if off != len(data):
        raise DecodeError("trailing bytes after parameter encoding", offset=off)
    return VcParams(sec, cap, sym, name, tag)


@dataclass(frozen=True)
class Commitment:
    root: bytes
    length: int

    def __post_init__(self):
        if len(self.root) != DIGEST_BYTES:
            raise ParameterError("root digest must be 32 bytes")
        if self.length < 0:
            raise ParameterError("negative committed length")


@dataclass(frozen=True)
class CommitAux:
    layers: tuple[tuple[bytes, ...], ...]
    message: tuple[int, ...]


@dataclass(frozen=True)
class Opening:
    positions: tuple[int, ...]
    answers: tuple[int, ...]
    proof: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.answers):
            raise ParameterError("one answer required per opened position")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ParameterError("positions must be strictly increasing")


def vc_gen(
    security_bits: int,
    capacity: int,
    symbol_bits: int = 8,
    domain_tag: bytes = DEFAULT_DOMAIN_TAG,
) -> VcParams:
    """Deterministic parameter generation for the given capacity."""
    return VcParams(security_bits, capacity, symbol_bits, "sha256", domain_tag)


def _leaf_digest(params: VcParams, position: int, symbol: int) -> bytes:
    block = symbol.to_bytes(params.symbol_bytes, "big")
    return hashlib.sha256(
        params.domain_tag + _LEAF_MARK + position.to_bytes(8, "big") + block
    ).digest()


def _pad_digest(params: VcParams, position: int) -> bytes:
    return hashlib.sha256(
        params.domain_tag + _PAD_MARK + position.to_bytes(8, "big") + bytes(params.symbol_bytes)
    ).digest()


def _node_digest(params: VcParams, left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(params.domain_tag + _NODE_MARK + left + right).digest()


@functools.lru_cache(maxsize=PADDING_CACHE_SIZE)
def _padding_layers(params: VcParams, length: int) -> tuple[tuple[bytes, ...], ...]:
    """Digests of the all-padding nodes past a committed length, per level.

    Level h holds the nodes from ceil(length / 2**h) to the level's end,
    the ones whose every leaf lies past `length`. They depend only on
    (params, length), never on the message. Callers pass a validated
    1 <= length <= capacity, so an entry is at most two digests per leaf
    of a tree the public parameters already size.
    """
    layer = tuple(_pad_digest(params, j) for j in range(length + 1, params.width + 1))
    layers = [layer]
    first = length
    for level in range(1, params.levels + 1):
        # Node i of this level has children 2i and 2i + 1 of the last one,
        # which starts at index `first`.
        start, first = first, (first + 1) // 2
        layer = tuple(
            _node_digest(params, layer[2 * i - start], layer[2 * i + 1 - start])
            for i in range(first, params.width >> level)
        )
        layers.append(layer)
    return tuple(layers)


def vc_commit(params: VcParams, message: Sequence[int]) -> tuple[Commitment, CommitAux]:
    if len(message) > params.capacity:
        raise MessageError(
            f"message length {len(message)} exceeds capacity {params.capacity}"
        )
    if len(message) < 1:
        raise MessageError("cannot commit to an empty message")
    bound = 1 << params.symbol_bits
    for j, symbol in enumerate(message, start=1):
        if not 0 <= symbol < bound:
            raise MessageError(f"symbol at position {j} outside alphabet range")

    length = len(message)
    padding = _padding_layers(params, length)
    layer = [_leaf_digest(params, j, s) for j, s in enumerate(message, start=1)]
    layer += padding[0]
    layers = [tuple(layer)]
    first = length
    for level in range(1, len(padding)):
        # Nodes below `first` hold a data leaf; the rest come from the cache.
        first = (first + 1) // 2
        prev = layers[-1]
        layer = [_node_digest(params, prev[2 * i], prev[2 * i + 1]) for i in range(first)]
        layer += padding[level]
        layers.append(tuple(layer))
    aux = CommitAux(layers=tuple(layers), message=tuple(message))
    return Commitment(root=layers[-1][0], length=len(message)), aux


# Every kept input opens at least one position, so it weighs at least one digest.
_check_memo = BoundedMemo(CHECK_MEMO_BYTES // DIGEST_BYTES, CHECK_MEMO_BYTES)


def _canonical_positions(params: VcParams, positions: Sequence[int]) -> tuple[int, ...]:
    pos = tuple(positions)
    if not pos:
        raise QueryError("query set must be nonempty")
    if len(set(pos)) != len(pos):
        raise QueryError("query set contains duplicate positions")
    for q in pos:
        if not 1 <= q <= params.capacity:
            raise QueryError(f"position {q} outside [1, {params.capacity}]")
    return tuple(sorted(pos))


def _proof_slots(params: VcParams, length: int, known: Iterable[int]) -> list[tuple[int, int]]:
    """(level, index) of each supplied sibling, bottom-up and left-to-right.

    `known` holds the 0-based indices of the opened leaves. A node is
    derivable when it is an ancestor of an opened leaf or of a padding leaf;
    the padding ancestors on level h are the indices from `length >> h` on.
    A slot is a sibling of a derivable node that is not derivable itself.
    """
    slots: list[tuple[int, int]] = []
    opened = set(known)
    width = params.width
    for level in range(width.bit_length() - 1):
        pad_start = length >> level
        # Slots lie below pad_start: siblings of the opened nodes, which come
        # out in increasing order, then the left sibling of pad_start when
        # that first padding ancestor is a right child.
        frontier = sorted(opened)
        if length < width and pad_start & 1 and pad_start not in opened:
            frontier.append(pad_start)
        for i in frontier:
            sibling = i ^ 1
            if sibling < pad_start and sibling not in opened:
                slots.append((level, sibling))
        opened = {i >> 1 for i in opened}
    return slots


def proof_digest_count(params: VcParams, length: int, positions: Sequence[int]) -> int:
    """Canonical multi-proof length for a query set; used by codecs and accounting."""
    return len(_proof_slots(params, length, (q - 1 for q in positions)))


def vc_open(params: VcParams, aux: CommitAux, positions: Sequence[int]) -> Opening:
    pos = _canonical_positions(params, positions)
    length = len(aux.message)
    answers = tuple(aux.message[q - 1] if q <= length else 0 for q in pos)
    slots = _proof_slots(params, length, (q - 1 for q in pos))
    proof = tuple(aux.layers[level][index] for level, index in slots)
    return Opening(positions=pos, answers=answers, proof=proof)


def vc_check(
    params: VcParams,
    cm: Commitment,
    positions: Sequence[int],
    answers: Sequence[int],
    proof: Sequence[bytes],
) -> int:
    """1 iff (positions, answers, proof) reconstructs exactly cm's root.

    Malformed inputs yield 0 rather than raising: a bad proof is a
    verification failure, not a fault.
    """
    pos = tuple(positions)
    ans = tuple(answers)
    pf = tuple(proof)
    key = (params, cm.root, cm.length, pos, ans, pf)
    h = hash(key)
    result = _check_memo.get(h, key)
    if result is None:
        slots = _shape_slots(params, cm.length, pos, ans, pf)
        if slots is None:
            return 0
        result = 1 if _reconstruct_root(params, cm.length, pos, ans, pf, slots) == cm.root else 0
        _check_memo.put(h, key, result, DIGEST_BYTES * (len(pf) + len(pos)))
    return result


def _shape_slots(params, length, pos, ans, pf) -> list[tuple[int, int]] | None:
    """The proof slots of a well-formed opening, None for a malformed one."""
    if not pos or len(pos) != len(ans):
        return None
    if len(set(pos)) != len(pos) or list(pos) != sorted(pos):
        return None
    if not 1 <= length <= params.capacity:
        return None
    bound = 1 << params.symbol_bits
    for q, a in zip(pos, ans):
        if not 1 <= q <= params.capacity or not 0 <= a < bound:
            return None
        # Padding position: only the reserved symbol is openable.
        if q > length and a != 0:
            return None
    slots = _proof_slots(params, length, (q - 1 for q in pos))
    if len(pf) != len(slots) or any(len(d) != DIGEST_BYTES for d in pf):
        return None
    return slots


def _reconstruct_root(params, length, pos, ans, pf, slots) -> bytes | None:
    """The root a shape-checked opening derives, from its leaves, the
    supplied siblings and the cached padding digests."""
    supplied = dict(zip(slots, pf))
    padding = _padding_layers(params, length)
    values = {
        q - 1: _leaf_digest(params, q, a) if q <= length else padding[0][q - 1 - length]
        for q, a in zip(pos, ans)
    }
    first = length  # the first all-padding node on the current level
    for level in range(len(padding) - 1):
        pad_layer = padding[level]
        parents = {i >> 1 for i in values}
        next_first = (first + 1) // 2
        boundary = length >> (level + 1)
        if boundary < next_first:
            # Holds both data and padding leaves: neither opened nor cached.
            parents.add(boundary)
        next_values: dict[int, bytes] = {}
        for parent in parents:
            children = []
            for i in (2 * parent, 2 * parent + 1):
                if i in values:
                    children.append(values[i])
                elif i >= first:
                    children.append(pad_layer[i - first])
                else:
                    children.append(supplied[(level, i)])
            next_values[parent] = _node_digest(params, children[0], children[1])
        values, first = next_values, next_first
    return values.get(0)
