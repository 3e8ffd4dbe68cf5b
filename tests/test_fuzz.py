"""Hypothesis fuzz of stored transcripts and live verifier frames.

Honest K3 and sumcheck transcripts are mutated by bit flips, truncations,
rewritten length fields and swapped frames. The mutated file goes to
`parse_transcript` and `arg_verify`; the mutated prover frames go to a live
verifier through a scripted channel. Whatever the bytes, only `IbcsError`
subclasses escape, a decision is 0 or 1, and no payload read exceeds the
cap of its frame. A mutation may still be accepted (a flipped challenge can
map onto the same queries), so the decision itself is not asserted; a parsed
transcript must only get the same decision with a check memo that keeps
nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ibcslab import transport, vc
from ibcslab.errors import IbcsError, TransportError
from ibcslab.ibcs import ArgumentProver, arg_setup, arg_verify
from ibcslab.memo import BoundedMemo
from ibcslab.prng import Prng, derive, seed_root

from helpers import run_memory_session

SEED = 6


def _caps(params, protocol) -> dict[int, int]:
    """Largest payload a verifier may read, by frame tag."""
    return {
        transport.TAG_COMMIT: 36,
        transport.TAG_CHALLENGE: max((n + 7) // 8 for n in protocol.spec.randomness_bits),
        transport.TAG_FINAL: transport.final_response_max_bytes(params),
    }


class _CapCheck:
    """Follows the frame headers handed to a reader and asserts that each
    payload read stays within `cap(tag)`; `saw` returns the tag of a
    payload it checked, None for a header."""

    def __init__(self, cap):
        self.cap = cap
        self._pending = None  # tag of a header whose payload is due

    def saw(self, out: bytes) -> int | None:
        tag = self._pending
        if tag is None:
            assert len(out) == transport.FRAME_HEADER_BYTES
            length = int.from_bytes(out[:4], "big")
            self._pending = out[4] if length else None
        else:
            assert len(out) <= self.cap(tag)
            self._pending = None
        return tag


class _ScriptedChannel:
    def __init__(self, data: bytes, check: _CapCheck):
        self._data = data
        self._check = check

    def send_bytes(self, data: bytes):
        pass

    def recv_exact(self, n: int) -> bytes:
        if n > len(self._data):
            raise TransportError("scripted channel ran dry")
        out, self._data = self._data[:n], self._data[n:]
        self._check.saw(out)
        return out


def _case(protocol, witness):
    params = arg_setup(128, len(transport.encode_instance(protocol.instance)), protocol.spec)
    prover = ArgumentProver(protocol, params, witness)
    _, v_res = run_memory_session(protocol, params, prover, seed=SEED)
    transcript = v_res.transcript
    sent = [
        transport.encode_frame(transport.TAG_COMMIT, transport.encode_commitment(cm))
        for cm in transcript.commitments
    ]
    sent.append(
        transport.encode_frame(
            transport.TAG_FINAL, transport.encode_final_response(params, transcript.response)
        )
    )
    return params, protocol, transport.serialize_transcript(params, transcript), sent


@pytest.fixture(scope="module", params=["k3", "sumcheck"])
def case(request, k3_setup, sumcheck_true_setup):
    if request.param == "k3":
        protocol, _, witness = k3_setup
    else:
        protocol, _ = sumcheck_true_setup
        witness = ()
    return _case(protocol, witness)


def _frames(data: bytes, start: int) -> list[bytes]:
    frames = []
    while start < len(data):
        _, _, end = transport.decode_frame(data, start)
        frames.append(data[start:end])
        start = end
    return frames


def _mutate(draw, head: bytes, frames: list[bytes]) -> bytes:
    """One of: bit flips, a truncation, a rewritten length field, two frames swapped."""
    data = bytearray(head + b"".join(frames))
    kind = draw(st.sampled_from(["flip", "truncate", "length", "swap"]))
    if kind == "flip":
        for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=4)):
            data[bit // 8] ^= 0x80 >> (bit % 8)
    elif kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif kind == "length":
        index = draw(st.integers(0, len(frames) - 1))
        at = len(head) + sum(len(f) for f in frames[:index])
        length = int.from_bytes(data[at : at + 4], "big")
        value = draw(
            st.one_of(
                st.integers(0, 0xFFFFFFFF),
                st.integers(max(0, length - 8), length + 8),
            )
        )
        data[at : at + 4] = value.to_bytes(4, "big")
    else:
        i, j = draw(st.lists(st.integers(0, len(frames) - 1), min_size=2, max_size=2, unique=True))
        swapped = list(frames)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        data = bytearray(head + b"".join(swapped))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_transcript_replay_is_total(case, data):
    params, protocol, blob, _ = case
    magic = transport.TRANSCRIPT_MAGIC
    mutated = _mutate(data.draw, magic, _frames(blob, len(magic)))
    setup = {}

    def cap(tag):
        if tag == transport.TAG_PARAMS:
            return transport._PARAMS_MAX_BYTES
        if tag == transport.TAG_INSTANCE:
            return setup["bound"]
        return _caps(*setup["accepted"])[tag]

    def accepted(bound, vc_params, instance):
        setup["accepted"] = real_setup(bound, vc_params, instance)
        return setup["accepted"]

    def read(cursor, n):
        out = real_read(cursor, n)
        if check.saw(out) == transport.TAG_PARAMS:
            setup["bound"] = int.from_bytes(out[:4], "big")
        return out

    check = _CapCheck(cap)
    real_setup = transport.verifier_setup
    real_read = transport._ByteCursor.recv_exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "verifier_setup", accepted)
        mp.setattr(transport._ByteCursor, "recv_exact", read)
        try:
            parsed = transport.parse_transcript(mutated)
        except IbcsError:
            return
    decision = arg_verify(*parsed)
    assert decision in (0, 1)
    # The check memo is exact: a memo that keeps nothing decides the same.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vc, "_check_memo", BoundedMemo(0, 0))
        assert arg_verify(*parsed) == decision


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_frames_to_a_live_verifier_are_total(case, data):
    params, protocol, _, sent = case
    mutated = _mutate(data.draw, b"", sent)
    check = _CapCheck(_caps(params, protocol).__getitem__)
    channel = _ScriptedChannel(mutated, check)
    prng = Prng(derive(seed_root(SEED), "session", 0))
    try:
        result = transport.run_session("verifier", channel, params, protocol, prng=prng)
    except IbcsError:
        return
    assert result.decision in (0, 1)


def test_unmutated_inputs_accept(case):
    """The fuzz starts from transcripts and frames that verify."""
    params, protocol, blob, sent = case
    assert arg_verify(*transport.parse_transcript(blob)) == 1
    channel = _ScriptedChannel(b"".join(sent), _CapCheck(_caps(params, protocol).__getitem__))
    prng = Prng(derive(seed_root(SEED), "session", 0))
    assert transport.run_session("verifier", channel, params, protocol, prng=prng).decision == 1
