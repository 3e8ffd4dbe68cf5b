"""Reference Θ(width) vector commitment, the oracle for differential tests.

This is the straightforward form of the scheme in `ibcslab.vc`: it hashes
every padding leaf and walks the full frontier of derivable nodes on every
call, where the library reads one cached digest per level for all-padding
nodes. A padding leaf hashes the reserved zero block and no position, so
all padding leaves are equal. Roots, proofs, proof lengths and check
results of the library must equal the ones computed here.
"""

from __future__ import annotations

import hashlib

from ibcslab.vc import DIGEST_BYTES, VcParams


def leaf_digest(params: VcParams, position: int, symbol: int) -> bytes:
    block = symbol.to_bytes(params.symbol_bytes, "big")
    return hashlib.sha256(
        params.domain_tag + b"\x00" + position.to_bytes(8, "big") + block
    ).digest()


def pad_digest(params: VcParams) -> bytes:
    return hashlib.sha256(params.domain_tag + b"\x02" + bytes(params.symbol_bytes)).digest()


def node_digest(params: VcParams, left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(params.domain_tag + b"\x01" + left + right).digest()


def commit_layers(params: VcParams, message) -> tuple[tuple[bytes, ...], ...]:
    leaves = [leaf_digest(params, j, s) for j, s in enumerate(message, start=1)]
    leaves += [pad_digest(params) for _ in range(len(message) + 1, params.width + 1)]
    layers = [tuple(leaves)]
    while len(layers[-1]) > 1:
        prev = layers[-1]
        layers.append(
            tuple(node_digest(params, prev[2 * i], prev[2 * i + 1]) for i in range(len(prev) // 2))
        )
    return tuple(layers)


def known_leaf_indices(params: VcParams, length: int, positions) -> set[int]:
    return {q - 1 for q in positions} | set(range(length, params.width))


def proof_slots(params: VcParams, known: set[int]) -> list[tuple[int, int]]:
    slots: list[tuple[int, int]] = []
    frontier = known
    for level in range(params.levels):
        parents = {i // 2 for i in frontier}
        for parent in sorted(parents):
            for child in (2 * parent, 2 * parent + 1):
                if child not in frontier:
                    slots.append((level, child))
        frontier = parents
    return slots


def proof_digest_count(params: VcParams, length: int, positions) -> int:
    return len(proof_slots(params, known_leaf_indices(params, length, positions)))


def open_proof(params: VcParams, layers, length: int, positions) -> tuple[bytes, ...]:
    known = known_leaf_indices(params, length, positions)
    return tuple(layers[level][index] for level, index in proof_slots(params, known))


def check(params: VcParams, root: bytes, length: int, positions, answers, proof) -> int:
    pos, ans, pf = tuple(positions), tuple(answers), tuple(proof)
    if not pos or len(pos) != len(ans):
        return 0
    if len(set(pos)) != len(pos) or list(pos) != sorted(pos):
        return 0
    if not 1 <= length <= params.capacity:
        return 0
    bound = 1 << params.symbol_bits
    values: dict[int, bytes] = {}
    for q, a in zip(pos, ans):
        if not 1 <= q <= params.capacity or not 0 <= a < bound:
            return 0
        if q > length:
            if a != 0:
                return 0
            values[q - 1] = pad_digest(params)
        else:
            values[q - 1] = leaf_digest(params, q, a)
    for j in range(length, params.width):
        values.setdefault(j, pad_digest(params))

    known = known_leaf_indices(params, length, pos)
    slots = proof_slots(params, known)
    if len(pf) != len(slots) or any(len(d) != DIGEST_BYTES for d in pf):
        return 0
    supplied = dict(zip(slots, pf))
    level_values = values
    frontier = known
    for level in range(params.levels):
        parents = sorted({i // 2 for i in frontier})
        next_values: dict[int, bytes] = {}
        for parent in parents:
            children = [
                level_values[child] if child in frontier else supplied[(level, child)]
                for child in (2 * parent, 2 * parent + 1)
            ]
            next_values[parent] = node_digest(params, children[0], children[1])
        level_values = next_values
        frontier = set(parents)
    return 1 if level_values.get(0) == root else 0
