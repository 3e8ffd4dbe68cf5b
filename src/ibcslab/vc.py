"""Merkle-tree vector commitment with batched, deduplicated multi-openings.

The scheme commits to a sequence of alphabet symbols and later opens any
set of positions with a single proof. A symbol is an int in
[0, 2**symbol_bits): `vc_commit` refuses any other with MessageError and
`vc_check` answers 0 for one, both by `first_bad_symbol`, the library's
one symbol rule. Hash inputs are domain separated:

    data leaf j   : H(tag || 0x00 || BE64(j) || symbol block)
    internal node : H(tag || 0x01 || left || right)
    padding leaf  : H(tag || 0x02 || zero block)

A call builds one SHA-256 state per layout it hashes, that has absorbed
tag || mark, and hashes each leaf or node from a `copy()` of it: a warm
`vc_commit` or a `vc_check` miss builds two states (leaf and node) at any
width. States are never kept across calls or shared between threads.

Positions are 1-based. The tree width is the least power of two at or
above the capacity; leaves past the committed length are padding leaves,
so the tree shape is independent of the message length. A padding leaf
hashes no position, so every all-padding node on level h has one digest
Z_h = H(tag || 0x01 || Z_{h-1} || Z_{h-1}): the "default hashes" of sparse
Merkle trees (Dahlberg, Pulls and Peeters, "Efficient Sparse Merkle
Trees", NordSec 2016). Padding is recomputable by the verifier, so it
never appears in proofs, and a padding position opens to the reserved
symbol 0. Data leaves keep their position, which is what binds a symbol
to its place.

Open, check and `proof_digest_count` share one walk that folds a query
set's opened data leaves up to the root. On level h the frontier node
`length >> h` holds the first padding leaf and every node right of it is
Z_h, so padding never appears in proofs. A multi-proof lists every other
sibling of a derived node, bottom-up and left to right; the check takes
them as the walk asks, so a missing or extra digest fails.

Z_0, ..., Z_levels depend only on the parameters: they cost levels + 1
hashes once per parameter set and stay in a bounded LRU cache
(`PADDING_CACHE_SIZE` parameter sets), whatever length a peer claims.
The walk derives at most q + 1 nodes per level for q positions, so:

    vc_check, vc_open, proof_digest_count : O(q log width) work for q positions;
                                            check hashes at most q + (q+1) levels,
                                            plus levels + 1 for a cold cache
    vc_commit                              : hashes the data leaves and the
                                            nodes above them, about 2 * length

`vc_check` runs the symbol rule on its answers and positions (ints, in
range) and checks that the committed length is an int and the root and
each proof digest 32 bytes of `bytes`. Then it looks its full input
(parameters, root, committed length, positions, answers and proof) up in a
process-wide `memo.BoundedMemo`, so a repeated check costs these checks
and one lookup; verifiers in the laboratory check the same few openings
thousands of times per report. Only a miss runs the shape checks (position
order, answer count, committed length in range) and the walk, and only an
input whose proof is exactly as long as the walk asks is kept.
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
DEFAULT_DOMAIN_TAG = b"ibcslab/vc/2"

_LEAF_MARK = b"\x00"
_NODE_MARK = b"\x01"
_PAD_MARK = b"\x02"

_SUPPORTED_SECURITY = (128, 256)
_SUPPORTED_HASHES = ("sha256",)

# Parameter sets whose padding digests stay cached.
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


# The longest sequence `first_bad_symbol` walks without the C pass.
SHORT_SYMBOLS = 32


def first_bad_symbol(values: Sequence, bound: int) -> int:
    """The 1-based position of the first element of `values` that is not an
    int in [0, bound), or 0 when every element is one; a bool is an int.

    This is the one symbol rule: the commitment's messages, answers and
    positions, an IOP's proof strings and the toy protocols' witnesses,
    coefficient tables and answer tables are all checked by it. A sequence
    of at most `SHORT_SYMBOLS` values, such as a toy protocol's 2- or
    3-symbol answer table, is walked: that costs less than the C pass. A
    longer clean sequence is checked in C: a sum of ints is an int, while a
    sum with any other built-in type is not or raises, and then only the
    least and greatest distinct values are compared with the bounds. Only a
    sequence that fails there is walked, to name the position.
    """
    if len(values) > SHORT_SYMBOLS:
        try:
            distinct = sorted(set(values))
            if type(sum(values)) is int and distinct[0] >= 0 and distinct[-1] < bound:
                return 0
        except TypeError:  # a str, None or unhashable element
            pass
    for j, value in enumerate(values, 1):
        if not isinstance(value, int) or not 0 <= value < bound:
            return j
    return 0


def vc_gen(
    security_bits: int,
    capacity: int,
    symbol_bits: int = 8,
    domain_tag: bytes = DEFAULT_DOMAIN_TAG,
) -> VcParams:
    """Deterministic parameter generation for the given capacity."""
    return VcParams(security_bits, capacity, symbol_bits, "sha256", domain_tag)


def _leaf_layer(params: VcParams, positions: Iterable[int], symbols: Iterable[int]) -> list[bytes]:
    """H(tag || 0x00 || BE64(j) || symbol block) for each (j, symbol) pair."""
    copy = hashlib.sha256(params.domain_tag + _LEAF_MARK).copy
    shift = 8 * params.symbol_bytes
    size = 8 + params.symbol_bytes
    out = []
    for j, s in zip(positions, symbols):
        h = copy()
        h.update((j << shift | s).to_bytes(size, "big"))  # BE64(j) || symbol block
        out.append(h.digest())
    return out


def _node_hasher(params: VcParams):
    """The function that maps a level's children, in pairs, to their parents
    H(tag || 0x01 || left || right); every call to it hashes from one state."""
    copy = hashlib.sha256(params.domain_tag + _NODE_MARK).copy

    def layer(children: Iterable[bytes]) -> list[bytes]:
        out = []
        it = iter(children)
        for left, right in zip(it, it):
            h = copy()
            h.update(left + right)
            out.append(h.digest())
        return out

    return layer


@functools.lru_cache(maxsize=PADDING_CACHE_SIZE)
def _padding_digests(params: VcParams) -> tuple[bytes, ...]:
    """(Z_0, ..., Z_levels): the digest of an all-padding node on each level."""
    z = hashlib.sha256(params.domain_tag + _PAD_MARK + bytes(params.symbol_bytes)).digest()
    digests = [z]
    layer = _node_hasher(params)
    for _ in range(params.levels):
        z = layer((z, z))[0]
        digests.append(z)
    return tuple(digests)


def vc_commit(params: VcParams, message: Sequence[int]) -> tuple[Commitment, CommitAux]:
    if len(message) > params.capacity:
        raise MessageError(
            f"message length {len(message)} exceeds capacity {params.capacity}"
        )
    if len(message) < 1:
        raise MessageError("cannot commit to an empty message")
    width = params.symbol_bits
    bad = first_bad_symbol(message, 1 << width)
    if bad:
        raise MessageError(f"symbol at position {bad} is not an int in [0, 2**{width})")

    # `layer` holds the nodes of a level that cover a data leaf; the rest are Z_h.
    layer = _leaf_layer(params, range(1, len(message) + 1), message)
    node_layer = _node_hasher(params)
    layers = []
    for level, z in enumerate(_padding_digests(params)):
        layers.append(tuple(layer) + (z,) * ((params.width >> level) - len(layer)))
        # An odd data part pairs its last node with Z_h; an even one drops it.
        layer = node_layer(layers[-1][: len(layer) + 1])
    aux = CommitAux(layers=tuple(layers), message=tuple(message))
    return Commitment(root=layers[-1][0], length=len(message)), aux


# Every kept input opens at least one position, so it weighs at least one digest.
_check_memo = BoundedMemo(CHECK_MEMO_BYTES // DIGEST_BYTES, CHECK_MEMO_BYTES)


def _canonical_positions(params: VcParams, positions: Sequence[int]) -> tuple[int, ...]:
    pos = tuple(positions)
    if not pos:
        raise QueryError("query set must be nonempty")
    bad = first_bad_symbol(pos, params.capacity + 1)  # an int in [0, capacity]
    if bad or 0 in pos:
        q = pos[bad - 1] if bad else 0
        raise QueryError(f"position {q!r} is not an int in [1, {params.capacity}]")
    if len(set(pos)) != len(pos):
        raise QueryError("query set contains duplicate positions")
    return tuple(sorted(pos))


def _walk(params: VcParams, length: int, leaves: list, sibling, layer):
    """Fold the opened data leaves up to the root and return its value.

    `leaves` lists the (index, value) pairs of the opened data leaves in
    increasing index order. On level h the frontier node `length >> h` holds
    the first padding leaf and every node to its right is Z_h. The frontier
    joins the walk as Z_h on the lowest level where it is odd (below that,
    it and its sibling are both Z_h), so no all-padding node is hashed and
    opened padding leaves add nothing. Any other sibling of a derived node is
    a proof slot: `sibling(level, index)` supplies it, bottom-up and left to
    right. `layer(children)` turns a level's children, in pairs, into the
    values of their parents.
    """
    padding = _padding_digests(params)
    length = min(length, params.width)  # a codec may size a proof for any claimed length
    entry = (length & -length).bit_length() - 1  # levels when length is the width
    nodes = leaves
    for level in range(params.levels):
        frontier = length >> level
        if level == entry:
            nodes = nodes + [(frontier, padding[level])]
        parents, children = [], []
        k, n = 0, len(nodes)
        while k < n:
            i, value = nodes[k]
            k += 1
            if i & 1:
                children += (sibling(level, i - 1), value)
            elif k < n and nodes[k][0] == i + 1:
                children += (value, nodes[k][1])
                k += 1
            else:
                children += (value, padding[level] if i == frontier else sibling(level, i + 1))
            parents.append(i >> 1)
        nodes = list(zip(parents, layer(children)))
    return nodes[0][1] if nodes else None


def _walk_shape(params: VcParams, length: int, positions: Iterable[int], sibling) -> None:
    """The walk without values: `sibling(level, index)` sees each proof slot."""
    leaves = [(q - 1, None) for q in sorted(set(positions)) if q <= length]
    _walk(params, length, leaves, sibling, lambda children: [None] * (len(children) >> 1))


def proof_digest_count(params: VcParams, length: int, positions: Sequence[int]) -> int:
    """Canonical multi-proof length for a query set; used by codecs and accounting."""
    slots = []
    _walk_shape(params, length, positions, lambda level, index: slots.append(index))
    return len(slots)


def vc_open(params: VcParams, aux: CommitAux, positions: Sequence[int]) -> Opening:
    pos = _canonical_positions(params, positions)
    length = len(aux.message)
    answers = tuple(aux.message[q - 1] if q <= length else 0 for q in pos)
    proof = []
    _walk_shape(params, length, pos, lambda level, index: proof.append(aux.layers[level][index]))
    return Opening(positions=pos, answers=answers, proof=tuple(proof))


def vc_check(
    params: VcParams,
    cm: Commitment,
    positions: Sequence[int],
    answers: Sequence[int],
    proof: Sequence[bytes],
) -> int:
    """1 iff (positions, answers, proof) reconstructs exactly cm's root.

    Malformed inputs yield 0 rather than raising: a bad proof is a
    verification failure, not a fault. Answers and positions pass the
    symbol rule, the committed length must be an int, and the root and
    every proof digest must be 32 bytes of `bytes`, all before the memo is
    read, so the memo, whose keys compare with `==` (2.0 == 2), only ever
    skips the walk of a well-typed input.
    """
    pos = tuple(positions)
    ans = tuple(answers)
    pf = tuple(proof)
    if (
        first_bad_symbol(ans, 1 << params.symbol_bits)
        or first_bad_symbol(pos, params.capacity + 1)
        or not isinstance(cm.length, int)
        or type(cm.root) is not bytes
        or not all(type(d) is bytes and len(d) == DIGEST_BYTES for d in pf)
    ):
        return 0
    key = (params, cm.root, cm.length, pos, ans, pf)
    h = hash(key)
    result = _check_memo.get(h, key)
    if result is None:
        leaves = _opened_leaves(params, cm.length, pos, ans)
        if leaves is None:
            return 0
        digests = iter(pf)
        layer = _node_hasher(params)
        try:
            root = _walk(params, cm.length, leaves, lambda level, index: next(digests), layer)
        except StopIteration:  # the proof is short
            return 0
        if next(digests, None) is not None:  # the proof is long
            return 0
        result = 1 if root == cm.root else 0
        _check_memo.put(h, key, result, DIGEST_BYTES * (len(pf) + len(pos)))
    return result


def _opened_leaves(params, length, pos, ans) -> list[tuple[int, bytes]] | None:
    """(index, digest) of each opened data leaf, None for a malformed opening;
    `pos` and `ans` hold only ints, as `vc_check` has checked."""
    if not pos or len(pos) != len(ans) or not 1 <= length <= params.capacity:
        return None
    data = []
    last = 0
    for q, a in zip(pos, ans):
        if not last < q <= params.capacity:
            return None
        last = q
        if q <= length:
            data.append(q)
        # Padding position: only the reserved symbol is openable.
        elif a != 0:
            return None
    return list(zip((q - 1 for q in data), _leaf_layer(params, data, ans)))
