from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ibcslab import vc as vc_module
from ibcslab.errors import MessageError, ParameterError, QueryError
from ibcslab.memo import BoundedMemo
from ibcslab.vc import (
    DEFAULT_DOMAIN_TAG,
    DIGEST_BYTES,
    Commitment,
    Opening,
    params_from_bytes,
    proof_digest_count,
    vc_check,
    vc_commit,
    vc_gen,
    vc_open,
)

import vc_reference
from helpers import CountingHashlib


def test_tree_width_rounds_up():
    assert vc_gen(128, 1).width == 1
    assert vc_gen(128, 5).width == 8
    assert vc_gen(128, 64).width == 64


def test_gen_validates():
    with pytest.raises(ParameterError):
        vc_gen(128, 0)
    with pytest.raises(ParameterError):
        vc_gen(100, 4)


def test_params_serialization_roundtrip():
    # serialize-then-parse oracle: byte-identical after a round trip
    params = vc_gen(128, 64, symbol_bits=7, domain_tag=b"roundtrip")
    blob = params.to_bytes()
    again = params_from_bytes(blob)
    assert again == params
    assert again.to_bytes() == blob


def test_commit_is_deterministic():
    params = vc_gen(128, 6, symbol_bits=4)
    m = [1, 5, 2, 9]
    cm1, _ = vc_commit(params, m)
    cm2, _ = vc_commit(params, m)
    assert cm1 == cm2


def test_single_symbol_change_changes_root():
    params = vc_gen(128, 8, symbol_bits=4)
    m = [3, 1, 4, 1, 5]
    cm, _ = vc_commit(params, m)
    for i in range(len(m)):
        altered = list(m)
        altered[i] = (altered[i] + 1) % 16
        cm2, _ = vc_commit(params, altered)
        assert cm2.root != cm.root


def test_single_leaf_root_matches_hand_evaluation():
    # one-leaf tree: the root is the leaf hash of the padded symbol block
    params = vc_gen(128, 1, symbol_bits=8)
    cm, _ = vc_commit(params, [0xAB])
    expected = hashlib.sha256(
        DEFAULT_DOMAIN_TAG + b"\x00" + (1).to_bytes(8, "big") + b"\xab"
    ).digest()
    assert cm.root == expected


def test_commit_rejects_bad_messages():
    params = vc_gen(128, 2, symbol_bits=2)
    with pytest.raises(MessageError):
        vc_commit(params, [0, 1, 2])  # too long
    with pytest.raises(MessageError):
        vc_commit(params, [4])  # out of range
    with pytest.raises(MessageError):
        vc_commit(params, [])
    # Each symbol that is not an int in [0, 2**2) is named by its position.
    params = vc_gen(128, 5, symbol_bits=2)
    for bad in (-1, 2.5, "a", 4):
        for position in (1, 3, 5):
            message = [1] * 5
            message[position - 1] = bad
            named = rf"^symbol at position {position} is not an int in \[0, 2\*\*2\)$"
            with pytest.raises(MessageError, match=named):
                vc_commit(params, message)
    for message in ((1, 2.5, 3), (1, "a", 2), (1, 1.0, 2)):
        with pytest.raises(MessageError, match="^symbol at position 2 "):
            vc_commit(params, message)
    assert vc_commit(params, (True, 0)) == vc_commit(params, (1, 0))  # a bool is an int


def test_single_leaf_opening_has_empty_proof():
    params = vc_gen(128, 1, symbol_bits=4)
    cm, aux = vc_commit(params, [7])
    opening = vc_open(params, aux, [1])
    assert opening.proof == ()
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1


def test_depth_two_shared_sibling():
    # c=4, Q={1,2}: both leaves share one missing subtree, the right root
    params = vc_gen(128, 4, symbol_bits=4)
    cm, aux = vc_commit(params, [1, 2, 3, 4])
    opening = vc_open(params, aux, [1, 2])
    assert len(opening.proof) == 1
    assert opening.proof[0] == aux.layers[1][1]  # right-subtree root
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1


def test_full_opening_has_empty_proof():
    params = vc_gen(128, 5, symbol_bits=4)
    cm, aux = vc_commit(params, [1, 2, 3, 4, 5])
    opening = vc_open(params, aux, range(1, 6))
    assert opening.proof == ()
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1


def test_open_rejects_bad_queries():
    params = vc_gen(128, 4, symbol_bits=4)
    _, aux = vc_commit(params, [1, 2, 3, 4])
    with pytest.raises(QueryError):
        vc_open(params, aux, [])
    with pytest.raises(QueryError):
        vc_open(params, aux, [0])
    with pytest.raises(QueryError):
        vc_open(params, aux, [5])
    with pytest.raises(QueryError):
        vc_open(params, aux, [2, 2])
    for position in (2.0, "2", None, 1.5):
        with pytest.raises(QueryError, match=r"is not an int in \[1, 4\]"):
            vc_open(params, aux, [1, position])


def test_check_rejects_flipped_answer():
    # recompute the root by hand on a 2-leaf tree: flipping one answer
    # changes the leaf hash, hence the root
    params = vc_gen(128, 2, symbol_bits=4)
    cm, aux = vc_commit(params, [6, 9])
    opening = vc_open(params, aux, [1, 2])
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1
    assert vc_check(params, cm, opening.positions, (7, 9), opening.proof) == 0


def test_check_rejects_extra_digest():
    params = vc_gen(128, 4, symbol_bits=4)
    cm, aux = vc_commit(params, [1, 2, 3, 4])
    opening = vc_open(params, aux, [2])
    padded = opening.proof + (b"\x00" * 32,)
    assert vc_check(params, cm, opening.positions, opening.answers, padded) == 0
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof[:-1]) == 0


def test_check_never_raises_on_malformed_input():
    params = vc_gen(128, 4, symbol_bits=4)
    cm, aux = vc_commit(params, [1, 2, 3, 4])
    assert vc_check(params, cm, (), (), ()) == 0
    assert vc_check(params, cm, (2, 1), (1, 2), ()) == 0
    assert vc_check(params, cm, (1,), (1, 2), ()) == 0
    assert vc_check(params, cm, (9,), (1,), ()) == 0
    # An answer that is not an int in [0, 2**4), in the first or last place.
    o = vc_open(params, aux, [2, 3])
    for bad in ("a", None, 2.5, -1, 16):
        assert vc_check(params, cm, o.positions, (bad, o.answers[1]), o.proof) == 0
        assert vc_check(params, cm, o.positions, (o.answers[0], bad), o.proof) == 0
    assert vc_check(params, cm, o.positions, o.answers, o.proof) == 1


@pytest.mark.parametrize("good_first", [False, True], ids=["cold", "warm"])
def test_check_answers_a_float_position_or_answer_with_0_cold_and_warm(monkeypatch, good_first):
    """2.0 == 2 and they hash alike, so a memo keyed on the input would
    answer a float position or answer from a well-formed check; the symbol
    rule runs first, so both are 0 before and after that check, and a
    cold float position does not reach the leaf hashing."""
    monkeypatch.setattr(vc_module, "_check_memo", BoundedMemo(64, 1 << 12))
    params = vc_gen(128, 4, symbol_bits=4)
    cm, aux = vc_commit(params, [1, 2, 3, 4])
    o = vc_open(params, aux, [2])
    if good_first:
        assert vc_check(params, cm, (2,), (2,), o.proof) == 1
    assert vc_check(params, cm, (2.0,), (2,), o.proof) == 0
    assert vc_check(params, cm, (2,), (2.0,), o.proof) == 0
    assert vc_check(params, cm, (2.0,), (2.0,), o.proof) == 0
    assert vc_check(params, cm, (2,), (2,), o.proof) == 1


def _malformed_commitment_or_proof(case, cm, proof):
    """(commitment, proof) with one field of the wrong type."""
    if case == "float length":
        return Commitment(cm.root, float(cm.length)), proof
    if case == "bytearray root":
        return Commitment(bytearray(cm.root), cm.length), proof
    if case == "int digest":
        return cm, (int.from_bytes(proof[0], "big"),) + proof[1:]
    return cm, (bytearray(proof[0]),) + proof[1:]


@pytest.mark.parametrize("case", ["float length", "bytearray root", "int digest", "bytearray digest"])
@pytest.mark.parametrize("good_first", [False, True], ids=["cold", "warm"])
def test_check_answers_a_malformed_commitment_or_proof_with_0_cold_and_warm(
    monkeypatch, case, good_first
):
    """A float committed length would reach the walk's bit arithmetic on a
    cold memo and, as 4.0 == 4, hit a well-formed check's entry on a warm
    one; an int or `bytearray` digest (or root) would fail `len` or the key
    hash. Each is 0 before and after the well-formed check, which stays 1."""
    monkeypatch.setattr(vc_module, "_check_memo", BoundedMemo(64, 1 << 12))
    params = vc_gen(128, 4, symbol_bits=4)
    cm, aux = vc_commit(params, [1, 2, 3, 4])
    o = vc_open(params, aux, [2])
    bad_cm, bad_proof = _malformed_commitment_or_proof(case, cm, o.proof)
    if good_first:
        assert vc_check(params, cm, o.positions, o.answers, o.proof) == 1
    assert vc_check(params, bad_cm, o.positions, o.answers, bad_proof) == 0
    assert vc_check(params, cm, o.positions, o.answers, o.proof) == 1
    assert vc_check(params, bad_cm, o.positions, o.answers, bad_proof) == 0


def _first_bad_symbol_by_walk(values, bound):
    return next(
        (j for j, v in enumerate(values, 1) if not isinstance(v, int) or not 0 <= v < bound), 0
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-2, max_value=9),
            st.booleans(),
            st.sampled_from([2.0, 2.5, "a", None, b"\x01", (1,), [1]]),
        ),
        max_size=2 * vc_module.SHORT_SYMBOLS + 2,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_first_bad_symbol_agrees_with_a_walk_on_either_side_of_the_cut_off(values, bound):
    """Short sequences are walked and long ones take the C pass; both name
    the same first bad position, for a list or a tuple."""
    expected = _first_bad_symbol_by_walk(values, bound)
    assert vc_module.first_bad_symbol(values, bound) == expected
    assert vc_module.first_bad_symbol(tuple(values), bound) == expected
    clean = [v % bound for v in range(len(values))]
    assert vc_module.first_bad_symbol(clean, bound) == 0
    mixed = clean + values
    assert vc_module.first_bad_symbol(mixed, bound) == _first_bad_symbol_by_walk(mixed, bound)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_completeness_property(data):
    capacity = data.draw(st.integers(min_value=1, max_value=24))
    symbol_bits = data.draw(st.sampled_from([1, 2, 5, 8]))
    message = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << symbol_bits) - 1),
            min_size=1,
            max_size=capacity,
        )
    )
    queries = data.draw(
        st.sets(st.integers(min_value=1, max_value=capacity), min_size=1)
    )
    params = vc_gen(128, capacity, symbol_bits=symbol_bits)
    cm, aux = vc_commit(params, message)
    opening = vc_open(params, aux, sorted(queries))
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1


def _oracle_digest_count(width: int, known: set[int]) -> int:
    """Independent sibling count: a digest is supplied iff its subtree holds
    no known leaf while its sibling's subtree holds at least one."""

    def leaves_under(level: int, index: int):
        span = 1 << level
        return set(range(index * span, (index + 1) * span))

    count = 0
    level_width = width
    level = 0
    while level_width > 1:
        for idx in range(level_width):
            mine = leaves_under(level, idx) & known
            sibling = leaves_under(level, idx ^ 1) & known
            if not mine and sibling:
                count += 1
        level_width //= 2
        level += 1
    return count


def test_proof_minimality_against_oracle():
    rng = random.Random(1234)
    for _ in range(300):
        capacity = rng.randint(1, 16)
        length = rng.randint(1, capacity)
        params = vc_gen(128, capacity, symbol_bits=4)
        message = [rng.randrange(16) for _ in range(length)]
        _, aux = vc_commit(params, message)
        q = rng.randint(1, capacity)
        queries = sorted(rng.sample(range(1, capacity + 1), q))
        opening = vc_open(params, aux, queries)
        known = {p - 1 for p in queries} | set(range(length, params.width))
        assert len(opening.proof) == _oracle_digest_count(params.width, known)
        assert len(opening.proof) == proof_digest_count(params, length, queries)


def test_padding_positions_open_to_reserved_symbol():
    params = vc_gen(128, 6, symbol_bits=4)
    cm, aux = vc_commit(params, [9, 9, 9])
    opening = vc_open(params, aux, [2, 5])
    assert opening.answers == (9, 0)
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1
    # claiming a different symbol at the padding position must fail
    assert vc_check(params, cm, opening.positions, (9, 1), opening.proof) == 0


def test_opening_invariants():
    with pytest.raises(ParameterError):
        Opening(positions=(2, 1), answers=(0, 0), proof=())
    with pytest.raises(ParameterError):
        Opening(positions=(1,), answers=(0, 0), proof=())


def test_binding_fuzz_small():
    # bounded-budget randomized search for conflicting valid openings
    rng = random.Random(99)
    params = vc_gen(128, 8, symbol_bits=3)
    for _ in range(2000):
        length = rng.randint(1, 8)
        message = [rng.randrange(8) for _ in range(length)]
        cm, aux = vc_commit(params, message)
        queries = sorted(rng.sample(range(1, length + 1), rng.randint(1, length)))
        opening = vc_open(params, aux, queries)
        mutated = list(opening.answers)
        idx = rng.randrange(len(mutated))
        mutated[idx] = (mutated[idx] + rng.randint(1, 7)) % 8
        assert vc_check(params, cm, opening.positions, tuple(mutated), opening.proof) == 0


def test_aux_layers_are_internally_consistent():
    # recomputing layer j+1 from layer j reproduces the stored digests
    import hashlib as _hashlib

    params = vc_gen(128, 6, symbol_bits=4)
    _, aux = vc_commit(params, [1, 2, 3, 4, 5])
    for lower, upper in zip(aux.layers, aux.layers[1:]):
        assert len(upper) == len(lower) // 2
        for i, digest in enumerate(upper):
            recomputed = _hashlib.sha256(
                params.domain_tag + b"\x01" + lower[2 * i] + lower[2 * i + 1]
            ).digest()
            assert digest == recomputed
    assert all(
        len(layer) == (params.width + (1 << j) - 1) // (1 << j)
        for j, layer in enumerate(aux.layers)
    )


# ---------------------------------------------------------------------------
# differential tests against the Θ(width) reference in vc_reference.py
# ---------------------------------------------------------------------------


def _tampered(rng, params, length, opening):
    """A batch of inputs near an honest opening, most of them invalid."""
    pos, ans, pf = opening.positions, opening.answers, opening.proof
    bound = 1 << params.symbol_bits
    out = [(length, pos, ans, pf)]
    i = rng.randrange(len(pos))
    flipped = list(ans)
    flipped[i] = (flipped[i] + 1) % bound
    out.append((length, pos, tuple(flipped), pf))
    if pf:
        j = rng.randrange(len(pf))
        digest = bytearray(pf[j])
        digest[rng.randrange(DIGEST_BYTES)] ^= 1
        out.append((length, pos, ans, pf[:j] + (bytes(digest),) + pf[j + 1 :]))
        out.append((length, pos, ans, pf[:-1]))
    if len(pf) > 1:
        j, k = sorted(rng.sample(range(len(pf)), 2))
        swapped = pf[:j] + (pf[k],) + pf[j + 1 : k] + (pf[j],) + pf[k + 1 :]
        out.append((length, pos, ans, swapped))
    out.append((length, pos, ans, pf + (bytes(DIGEST_BYTES),)))
    shifted = sorted({min(q + 1, params.capacity) for q in pos})
    out.append((length, tuple(shifted), ans[: len(shifted)], pf))
    out.append((rng.randint(1, params.capacity), pos, ans, pf))
    return out


def _assert_matches_reference(rng, params, message, queries, tampered=None):
    length = len(message)
    cm, aux = vc_commit(params, message)
    layers = vc_reference.commit_layers(params, message)
    assert aux.layers == layers
    assert cm.root == layers[-1][0]
    opening = vc_open(params, aux, queries)
    assert opening.proof == vc_reference.open_proof(params, layers, length, queries)
    assert proof_digest_count(params, length, queries) == vc_reference.proof_digest_count(
        params, length, queries
    )
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1
    variants = _tampered(rng, params, length, opening)
    for claimed, pos, ans, pf in variants if tampered is None else rng.sample(variants, tampered):
        claimed_cm = Commitment(cm.root, claimed)
        assert vc_check(params, claimed_cm, pos, ans, pf) == vc_reference.check(
            params, cm.root, claimed, pos, ans, pf
        )


def test_every_capacity_and_length_matches_reference():
    rng = random.Random(2024)
    for capacity in range(1, 81):
        params = vc_gen(128, capacity, symbol_bits=rng.choice([1, 3, 8]))
        for length in range(1, capacity + 1):
            message = [rng.randrange(1 << params.symbol_bits) for _ in range(length)]
            queries = sorted(rng.sample(range(1, capacity + 1), rng.randint(1, min(capacity, 4))))
            _assert_matches_reference(rng, params, message, queries, tampered=2)


# Tag lengths that put tag || mark, the prefix a copied state has absorbed,
# next to SHA-256's 56-byte padding limit (54-56, 119-120) or its 64-byte
# block edge (63-65), and the longest tag allowed; None is the default tag.
_TAG_LENGTHS = [None, 1, 54, 55, 56, 63, 64, 65, 119, 120, 255]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_paths_match_reference(data):
    capacity = data.draw(
        st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32, 64]), st.integers(1, 80)), label="capacity"
    )
    symbol_bits = data.draw(st.sampled_from([1, 2, 5, 8, 9, 16]), label="symbol_bits")
    tag_length = data.draw(st.sampled_from(_TAG_LENGTHS), label="tag length")
    tag = DEFAULT_DOMAIN_TAG if tag_length is None else data.draw(
        st.binary(min_size=tag_length, max_size=tag_length), label="tag"
    )
    length = data.draw(st.integers(1, capacity), label="length")
    message = data.draw(
        st.lists(
            st.integers(0, (1 << symbol_bits) - 1), min_size=length, max_size=length
        ),
        label="message",
    )
    pool = range(1, capacity + 1)
    if length < capacity and data.draw(st.booleans(), label="padding only"):
        pool = range(length + 1, capacity + 1)
    queries = sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1), label="queries"))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="tamper seed"))
    params = vc_gen(128, capacity, symbol_bits=symbol_bits, domain_tag=tag)
    _assert_matches_reference(rng, params, message, queries)


def test_proof_digest_count_matches_reference_for_any_declared_length():
    # Decoders size proofs from a peer's committed length, which may be 0
    # or past the capacity; the count must still follow the same rule.
    params = vc_gen(128, 21, symbol_bits=4)
    for length in (0, 1, 20, 21, 22, 31, 32, 33, 1 << 20):
        for queries in ([1], [5, 21], [2, 3, 17], list(range(1, 22))):
            assert proof_digest_count(params, length, queries) == (
                vc_reference.proof_digest_count(params, length, queries)
            )


@pytest.mark.parametrize("k", range(4, 17))
def test_check_hashes_grow_with_queries_times_depth(monkeypatch, k):
    capacity = (1 << k) + 1
    params = vc_gen(128, capacity, symbol_bits=2)
    message = [j % 4 for j in range(capacity)]
    cm, aux = vc_commit(params, message)
    for queries in ([1], [capacity], [2, capacity - 1], [1, 2, 3, 1 << (k - 1), capacity]):
        opening = vc_open(params, aux, queries)
        counter = CountingHashlib()
        monkeypatch.setattr(vc_module, "hashlib", counter)
        assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1
        monkeypatch.undo()
        assert counter.calls <= (len(queries) + 1) * (params.levels + 1)


def test_short_message_check_reads_padding_from_cache(monkeypatch):
    params = vc_gen(128, 1 << 12, symbol_bits=8)
    cm, aux = vc_commit(params, [7, 8, 9])
    opening = vc_open(params, aux, [2, 4000])
    counter = CountingHashlib()
    monkeypatch.setattr(vc_module, "hashlib", counter)
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1
    assert counter.calls <= 3 * (params.levels + 1)


@pytest.mark.parametrize("length", [1, 5, 13, 16])
def test_commit_hashes_each_node_once_through_the_module_hashlib(monkeypatch, length):
    """A warm commit hashes only the data leaves and their ancestors, and a
    cold one adds the levels + 1 padding digests: one digest per node, taken
    from states built through `vc.hashlib`."""
    params = vc_gen(128, 16, symbol_bits=3, domain_tag=b"count/%d" % length)
    message = [j % 8 for j in range(length)]
    warm_calls = sum(-(-length >> h) for h in range(params.levels + 1))
    counter = CountingHashlib()
    monkeypatch.setattr(vc_module, "hashlib", counter)
    cold, _ = vc_commit(params, message)
    assert counter.calls == warm_calls + params.levels + 1
    counter.calls = 0
    warm, _ = vc_commit(params, message)
    assert counter.calls == warm_calls
    monkeypatch.undo()
    assert cold == warm
    assert cold.root == vc_reference.commit_layers(params, message)[-1][0]


@pytest.mark.parametrize("capacity", [1, 2, 5, 16, 33, 4097])
def test_a_call_hashes_from_at_most_two_states(monkeypatch, capacity):
    """Each leaf and node is hashed from a copy of a state that has absorbed
    its tag and mark, so the states a call builds do not grow with the tree."""
    params = vc_gen(128, capacity, symbol_bits=3, domain_tag=b"states/%d" % capacity)
    message = [j % 8 for j in range(max(1, capacity - capacity // 3))]
    vc_module._padding_digests.cache_clear()
    counter = CountingHashlib()
    monkeypatch.setattr(vc_module, "hashlib", counter)
    vc_module._padding_digests(params)
    assert counter.states <= 2
    assert counter.calls == params.levels + 1
    counter.states = 0
    cm, aux = vc_commit(params, message)
    assert counter.states == 2
    opening = vc_open(params, aux, sorted({1, len(message), capacity}))
    _fresh_memo(monkeypatch)
    counter.states = 0
    assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1
    assert counter.states <= 2


def test_padding_digests_are_keyed_by_params_alone(monkeypatch):
    assert vc_module._padding_digests.cache_info().maxsize == vc_module.PADDING_CACHE_SIZE
    params = vc_gen(128, 9, symbol_bits=4, domain_tag=b"keyed by params")
    _fresh_memo(monkeypatch)
    vc_module._padding_digests.cache_clear()
    for length in range(1, params.capacity + 1):
        cm, aux = vc_commit(params, [1] * length)
        opening = vc_open(params, aux, [1, params.capacity])
        assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1
    info = vc_module._padding_digests.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # Z_h is the digest of every all-padding node on level h.
    padding = vc_module._padding_digests(params)
    assert len(padding) == params.levels + 1
    layers = vc_reference.commit_layers(params, [1])
    assert padding[:-1] == tuple(layer[-1] for layer in layers[:-1])
    cm, aux = vc_commit(params, [1, 2, 3])
    opening = vc_open(params, aux, [1])
    before = vc_module._padding_digests.cache_info()
    for length in (0, 10, 16, 1 << 31):
        claimed = Commitment(cm.root, length)
        assert vc_check(params, claimed, opening.positions, opening.answers, opening.proof) == 0
    after = vc_module._padding_digests.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize
    )


def test_cold_check_costs_queries_times_depth_whatever_the_claimed_width(monkeypatch):
    """The padding a peer's capacity implies costs levels + 1 hashes, not
    about 2 * (width - length)."""
    params = vc_gen(128, (1 << 20) + 1, symbol_bits=2)
    cm, aux = vc_commit(params, [3])
    for queries in ([1], [2], [params.capacity], [1, 2, 1 << 19, params.capacity]):
        opening = vc_open(params, aux, queries)
        _fresh_memo(monkeypatch)
        vc_module._padding_digests.cache_clear()
        counter = CountingHashlib()
        monkeypatch.setattr(vc_module, "hashlib", counter)
        assert vc_check(params, cm, opening.positions, opening.answers, opening.proof) == 1
        monkeypatch.undo()
        bound = (len(queries) + 1) * (params.levels + 1) + params.levels + 1
        assert counter.calls <= bound, queries


def _fresh_memo(mp: pytest.MonkeyPatch, max_entries: int | None = None):
    production = vc_module._check_memo
    memo = BoundedMemo(max_entries or production.max_entries, production.max_bytes)
    mp.setattr(vc_module, "_check_memo", memo)
    return memo


def _count_walks(mp: pytest.MonkeyPatch) -> list:
    """Record (length, opened data positions) for each walk up the tree."""
    calls = []
    real = vc_module._walk

    def walk(params, length, leaves, *rest):
        calls.append((length, tuple(i + 1 for i, _ in leaves)))
        return real(params, length, leaves, *rest)

    mp.setattr(vc_module, "_walk", walk)
    return calls


_CHANGED_FIELDS = ("domain tag", "root", "length", "positions", "answers", "proof")


def _change_one_field(data, args, capacity, symbol_bits):
    field = data.draw(st.sampled_from(_CHANGED_FIELDS), label="field")
    if field == "domain tag":
        tag = data.draw(st.binary(min_size=1, max_size=8).filter(lambda t: t != DEFAULT_DOMAIN_TAG))
        args["params"] = vc_gen(128, capacity, symbol_bits=symbol_bits, domain_tag=tag)
    elif field == "root":
        root = bytearray(args["root"])
        root[data.draw(st.integers(0, DIGEST_BYTES - 1))] ^= data.draw(st.integers(1, 255))
        args["root"] = bytes(root)
    elif field == "length":
        length = args["length"]
        args["length"] = data.draw(st.integers(0, capacity + 2).filter(lambda n: n != length))
    elif field in ("positions", "answers"):
        values = args[field]
        j = data.draw(st.integers(0, len(values) - 1))
        top = capacity + 1 if field == "positions" else 1 << symbol_bits
        values[j] = data.draw(st.integers(0, top).filter(lambda v: v != values[j]))
    else:
        proof = args["proof"]
        if proof and data.draw(st.booleans(), label="flip a byte"):
            j = data.draw(st.integers(0, len(proof) - 1))
            digest = bytearray(proof[j])
            digest[data.draw(st.integers(0, DIGEST_BYTES - 1))] ^= 1
            proof[j] = bytes(digest)
        else:
            proof.append(bytes(DIGEST_BYTES))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_memoized_opening_with_one_field_changed_matches_reference(data):
    """The check memo is exact: once an honest opening is memoized, the same
    input with any one field changed is checked as the reference checks it,
    on its first call (a miss) and its second (a hit, if it was kept)."""
    capacity = data.draw(st.integers(1, 40), label="capacity")
    symbol_bits = data.draw(st.sampled_from([1, 2, 8]), label="symbol_bits")
    length = data.draw(st.integers(1, capacity), label="length")
    message = data.draw(
        st.lists(st.integers(0, (1 << symbol_bits) - 1), min_size=length, max_size=length),
        label="message",
    )
    queries = data.draw(st.sets(st.integers(1, capacity), min_size=1, max_size=4), label="queries")
    params = vc_gen(128, capacity, symbol_bits=symbol_bits)
    cm, aux = vc_commit(params, message)
    opening = vc_open(params, aux, queries)
    args = {
        "params": params,
        "root": cm.root,
        "length": cm.length,
        "positions": list(opening.positions),
        "answers": list(opening.answers),
        "proof": list(opening.proof),
    }

    def check(a):
        cm = Commitment(a["root"], a["length"])
        return vc_check(a["params"], cm, a["positions"], a["answers"], a["proof"])

    with pytest.MonkeyPatch.context() as mp:
        _fresh_memo(mp)
        calls = _count_walks(mp)
        assert check(args) == check(args) == 1
        assert len(calls) == 1
        _change_one_field(data, args, capacity, symbol_bits)
        assert check(args) == check(args) == vc_reference.check(*args.values())


def test_check_memo_holds_its_entry_and_byte_bounds(monkeypatch):
    """An entry weighs one digest per proof digest and per opened position,
    so the entry bound derived from the byte bound never binds first, and
    an opening heavier than the byte bound is never kept."""
    production = vc_module._check_memo
    assert production.max_bytes == vc_module.CHECK_MEMO_BYTES
    assert production.max_entries == vc_module.CHECK_MEMO_BYTES // DIGEST_BYTES
    params = vc_gen(128, 256, symbol_bits=4)
    cm, aux = vc_commit(params, [j % 16 for j in range(256)])
    memo = _fresh_memo(monkeypatch)
    for j in range(1, 200):
        o = vc_open(params, aux, [j])
        assert vc_check(params, cm, o.positions, o.answers, o.proof) == 1
        key, _, weight = memo.entries[next(reversed(memo.entries))]
        assert key[3] == o.positions
        assert weight == DIGEST_BYTES * (len(o.proof) + 1)
        assert memo.bytes == sum(w for _, _, w in memo.entries.values()) <= memo.max_bytes
    # Every position, no proof digest: 256 digests, twice the byte bound.
    everything = vc_open(params, aux, range(1, 257))
    assert everything.proof == ()
    before = dict(memo.entries)
    for _ in range(2):
        e = everything
        assert vc_check(params, cm, e.positions, e.answers, e.proof) == 1
    assert memo.entries == before


def test_check_memo_keeps_the_recently_used_and_no_malformed_input(monkeypatch):
    params = vc_gen(128, 16, symbol_bits=4)
    cm, aux = vc_commit(params, list(range(16)))
    a, b, c = (vc_open(params, aux, [j]) for j in (1, 2, 3))
    memo = _fresh_memo(monkeypatch, max_entries=2)
    calls = _count_walks(monkeypatch)
    for o in (a, b, a, c, a, b):  # c drops b, the least recently used
        assert vc_check(params, cm, o.positions, o.answers, o.proof) == 1
    assert calls == [(cm.length, o.positions) for o in (a, b, c, b)]
    # A proof one digest short or long is a miss: walked, refused and never kept.
    before = dict(memo.entries)
    for proof in (a.proof[:-1], a.proof + (bytes(DIGEST_BYTES),)):
        assert vc_check(params, cm, a.positions, a.answers, proof) == 0
    assert memo.entries == before
    assert len(calls) == 6


def test_check_memo_hit_skips_the_shape_work(monkeypatch):
    params = vc_gen(128, 16, symbol_bits=4)
    cm, aux = vc_commit(params, list(range(16)))
    o = vc_open(params, aux, [3, 9])
    _fresh_memo(monkeypatch)
    calls = _count_walks(monkeypatch)
    assert vc_check(params, cm, o.positions, o.answers, o.proof) == 1
    assert len(calls) == 1
    for _ in range(3):
        assert vc_check(params, cm, list(o.positions), list(o.answers), list(o.proof)) == 1
    assert len(calls) == 1
