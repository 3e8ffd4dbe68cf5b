from __future__ import annotations

import dataclasses
import gc
import random
import re
import socket
import threading
import time
import tracemalloc
import types
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ibcslab import transport, vc
from ibcslab.errors import (
    DecodeError,
    IbcsError,
    InstanceError,
    ParameterError,
    ProtocolViolation,
    TransportError,
)
from ibcslab.ibcs import ArgumentProver, arg_setup, arg_verify
from ibcslab.memo import BoundedMemo
from ibcslab.prng import Prng, derive, seed_root
from ibcslab.toys import (
    GRAPH_KIND,
    GraphColoringInstance,
    SumcheckInstance,
    canonical_graph,
    dump_graph_text,
    dump_sumcheck_text,
    gc_pcp,
    load_graph_text,
    load_sumcheck_text,
    sumcheck_iop,
)
from ibcslab.vc import Commitment, proof_digest_count

from helpers import CountingHashlib, make_sumcheck, run_memory_session


def test_frame_roundtrip_and_errors():
    frame = transport.encode_frame(transport.TAG_COMMIT, b"abc")
    tag, payload, offset = transport.decode_frame(frame)
    assert (tag, payload, offset) == (transport.TAG_COMMIT, b"abc", len(frame))
    with pytest.raises(DecodeError):
        transport.decode_frame(frame[:-1])  # truncated payload
    with pytest.raises(DecodeError):
        transport.decode_frame(frame[:3])  # truncated header
    with pytest.raises(DecodeError):
        transport.decode_frame(b"\x00\x00\x00\x00\x7f")  # unknown tag


def test_challenge_payload_length():
    # an 8-bit challenge packs into exactly one payload byte
    assert transport.encode_challenge(0xA5, 8) == b"\xa5"
    assert transport.decode_challenge(b"\xa5", 8) == 0xA5


def test_commitment_codec_roundtrip():
    cm = Commitment(root=bytes(range(32)), length=7)
    payload = transport.encode_commitment(cm)
    assert len(payload) == 36
    assert transport.decode_commitment(payload) == cm
    with pytest.raises(DecodeError):
        transport.decode_commitment(payload + b"x")


def test_codec_fuzz_roundtrip(k3_setup, sumcheck_true_setup):
    """Randomized encode-decode identity across every protocol payload."""
    rng = random.Random(2024)
    for protocol, params, witness in ((*k3_setup,), (*sumcheck_true_setup, ())):
        spec = protocol.spec
        prover = ArgumentProver(protocol, params, witness)
        for trial in range(300):
            state = prover.start()
            challenges = []
            commitments = []
            prev = None
            for i in range(spec.rounds):
                cm, state = prover.next_commitment(state, prev)
                commitments.append(cm)
                payload = transport.encode_commitment(cm)
                assert transport.decode_commitment(payload) == cm
                prev = rng.getrandbits(spec.randomness_bits[i])
                challenges.append(prev)
                payload = transport.encode_challenge(prev, spec.randomness_bits[i])
                assert transport.decode_challenge(payload, spec.randomness_bits[i]) == prev
            response = prover.final_response(state, protocol.verifier_query(challenges))
            payload = transport.encode_final_response(params, response)
            decoded = transport.decode_final_response(
                params, [cm.length for cm in commitments], payload
            )
            assert decoded == response
            # semantic bits never exceed payload bytes, padding under one byte
            bits = transport.final_response_bits(params, response)
            assert 0 <= 8 * len(payload) - bits < 8


def test_final_response_decode_rejects_trailing_garbage(k3_setup):
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    state = prover.start()
    cm, state = prover.next_commitment(state, None)
    response = prover.final_response(state, protocol.verifier_query([11]))
    payload = transport.encode_final_response(params, response)
    with pytest.raises(DecodeError):
        transport.decode_final_response(params, [cm.length], payload + b"\x00")


def test_instance_codec_roundtrip(k3, petersen, sumcheck_true):
    for instance in (k3, petersen, sumcheck_true):
        payload = transport.encode_instance(instance)
        assert transport.decode_instance(payload) == instance
    # A graph is its kind byte, BE32 vertex and edge counts, then BE32 (u, v) per edge.
    assert transport.encode_instance(petersen) == b"".join(
        [b"\x01", (10).to_bytes(4, "big"), (15).to_bytes(4, "big")]
        + [u.to_bytes(4, "big") + v.to_bytes(4, "big") for u, v in petersen.edges]
    )
    with pytest.raises(DecodeError):
        transport.decode_instance(b"")
    with pytest.raises(DecodeError):
        transport.decode_instance(b"\x7f")


@st.composite
def _graph_instances(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    return canonical_graph(n, draw(st.lists(pairs, min_size=1, max_size=60)))


@st.composite
def _sumcheck_instances(draw):
    p = draw(st.sampled_from([2, 3, 17, 65537, (1 << 61) - 1]))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    field = st.integers(0, p - 1)
    coeffs = tuple(draw(st.lists(field, min_size=(d + 1) ** n, max_size=(d + 1) ** n)))
    return SumcheckInstance(p, n, d, coeffs, draw(field))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_graph_instances(), _sumcheck_instances()), st.data())
def test_instance_codec_property(instance, data):
    """Round trip, one encoding however an instance was built, and a
    decoded instance keeps exactly the payload it was read from, also for
    byte-flipped and cut payloads that still decode."""
    payload = transport.encode_instance(instance)
    assert payload == instance.layout()
    decoded = transport.decode_instance(payload)
    assert decoded == instance and instance == decoded
    assert hash(decoded) == hash(instance)
    assert decoded.encoding == payload
    if isinstance(instance, GraphColoringInstance):
        # A decoded graph keeps its ends packed; it yields the same pairs,
        # and its protocol plans every edge index as the tuple-built one's.
        assert tuple(decoded.edges) == instance.edges
        assert [decoded.edges[i] for i in range(len(instance.edges))] == list(instance.edges)
        built, read = gc_pcp(instance), gc_pcp(decoded)
        assert all(
            read.query_plan((i,)) == built.query_plan((i,)) for i in range(len(instance.edges))
        )
        from_text = load_graph_text(dump_graph_text(instance))[0]
        from_tuples = GraphColoringInstance(instance.vertex_count, instance.edges)
    else:
        from_text = load_sumcheck_text(dump_sumcheck_text(instance))
        from_tuples = SumcheckInstance(*dataclasses.astuple(instance))
    for built in (from_text, from_tuples, decoded):
        assert transport.encode_instance(built) == payload

    at = data.draw(st.integers(0, len(payload) - 1))
    flipped = bytearray(payload)
    flipped[at] ^= data.draw(st.integers(1, 255))
    for variant in (bytes(flipped), payload[:at]):
        try:
            kept = transport.decode_instance(variant)
        except DecodeError:
            continue
        assert transport.encode_instance(kept) == variant
        assert kept.layout() == variant


def _wide_graph() -> GraphColoringInstance:
    """4097 vertices, each joined to the next three: 12,285 edges."""
    n = 4097
    return canonical_graph(n, [(u, w) for u in range(1, n) for w in range(u + 1, min(u + 4, n + 1))])


@pytest.mark.parametrize(
    "mutation", ["u-zero", "v-past-n", "self-loop", "u-after-v", "duplicate", "swapped"]
)
def test_a_mutated_edge_body_is_refused_with_the_constructors_message(mutation):
    """Edge records mutated in place, the payload length kept: the decode
    refuses each with exactly the message the constructor gives the same
    pairs, after "invalid instance: "."""
    graph = _wide_graph()
    n, pairs = graph.vertex_count, list(graph.edges)
    header = len(graph.encoding) - 8 * len(pairs)
    i = len(pairs) // 2
    u, v = pairs[i]
    if mutation == "u-zero":
        pairs[i] = (0, v)
    elif mutation == "v-past-n":
        pairs[i] = (u, n + 1)
    elif mutation == "self-loop":
        pairs[i] = (u, u)
    elif mutation == "u-after-v":
        pairs[i] = (v, u)
    elif mutation == "duplicate":
        pairs[i] = pairs[i - 1]
    else:
        pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
    body = b"".join(a.to_bytes(4, "big") + b.to_bytes(4, "big") for a, b in pairs)
    payload = graph.encoding[:header] + body
    assert len(payload) == len(graph.encoding)
    with pytest.raises(InstanceError) as refused:
        GraphColoringInstance(n, tuple(pairs))
    with pytest.raises(DecodeError) as exc:
        transport.decode_instance(payload)
    assert str(exc.value) == f"invalid instance: {refused.value}"


def test_a_decoded_graph_keeps_no_object_per_edge():
    """Decoding a graph of 12k edges allocates about its payload, the packed
    ends, at its peak: a tuple per edge would take over ten times that."""
    payload = _wide_graph().encoding
    assert len(payload) > 12_000 * 8
    tracemalloc.start()
    try:
        decoded = transport.decode_instance(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decoded.encoding is payload
    assert peak < 2 * len(payload)


def test_a_sumcheck_header_claiming_a_huge_table_is_refused_in_small_memory(sumcheck_true):
    """n = 65535 and d = 65534 in a 29-byte payload: the length check refuses
    it without building (d+1)**n, a 1-Mbit integer."""
    header = transport.encode_instance(sumcheck_true)[:21]
    payload = header[:9] + (65535).to_bytes(2, "big") + (65534).to_bytes(2, "big")
    payload += header[13:21] + bytes(8)
    assert len(payload) == 29
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match="sumcheck instance length mismatch"):
            transport.decode_instance(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_memory_session_accepts(k3_setup):
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    p_res, v_res = run_memory_session(protocol, params, prover, seed=5)
    assert p_res.decision == v_res.decision == 1
    assert p_res.transcript == v_res.transcript
    assert p_res.frame_bytes == v_res.frame_bytes


class _ExtraDigest(ArgumentProver):
    """Opens like the honest prover, with `extra` digests too many per round."""

    extra = 1

    def final_response(self, state, plan):
        return tuple(
            dataclasses.replace(o, proof=o.proof + (bytes(32),) * self.extra)
            for o in super().final_response(state, plan)
        )


class _Aborting(ArgumentProver):
    """Commits like the honest prover, then refuses to open."""

    def final_response(self, state, plan):
        return None


def test_memory_session_raises_the_verifiers_error_at_once(k3_setup):
    """A verifier that fails raises its error where it fails, so the
    session stops at once, with the verifier's error."""
    protocol, params, witness = k3_setup
    threads = threading.active_count()
    start = time.monotonic()
    with pytest.raises(ProtocolViolation, match="undecodable final response"):
        run_memory_session(protocol, params, _ExtraDigest(protocol, params, witness), seed=5)
    assert time.monotonic() - start < 2
    assert threading.active_count() == threads


def test_a_memory_session_starts_no_thread_and_never_waits(
    k3_setup, sumcheck_true_setup, monkeypatch
):
    """Both ends step in the calling thread and each frame goes straight
    from one end to the other: with threads and channels refused and a zero
    read timeout, sessions run as before, and each end's error is raised as
    it is."""
    setups = [k3_setup, (*sumcheck_true_setup, ())]
    unpatched = [
        run_memory_session(protocol, params, ArgumentProver(protocol, params, witness), seed=5)
        for protocol, params, witness in setups
    ]

    def no_thread(*args, **kwargs):
        raise AssertionError("an in-memory session started a thread")

    def no_channel(*args, **kwargs):
        raise AssertionError("an in-memory session built a channel")

    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(transport, "memory_channel_pair", no_channel)
    monkeypatch.setattr(transport, "RECV_TIMEOUT_S", 0)
    for (protocol, params, witness), (_, v_ref) in zip(setups, unpatched):
        prover = ArgumentProver(protocol, params, witness)
        p_res, v_res = run_memory_session(protocol, params, prover, seed=5)
        assert p_res.decision == v_res.decision == 1
        assert p_res.frame_bytes == v_res.frame_bytes == v_ref.frame_bytes

    protocol, params, witness = k3_setup
    with pytest.raises(ProtocolViolation, match="undecodable final response"):
        run_memory_session(protocol, params, _ExtraDigest(protocol, params, witness), seed=5)
    with pytest.raises(ProtocolViolation, match="prover aborted instead of opening"):
        run_memory_session(protocol, params, _Aborting(protocol, params, witness), seed=5)


def test_an_oversized_final_response_is_refused_alike_in_memory_and_over_a_channel(k3_setup):
    """A final response with more digests than any opening needs declares
    more payload bytes than the verifier's cap: an in-memory session and a
    threaded session over a channel pair raise the same ProtocolViolation."""
    protocol, params, witness = k3_setup
    cap = transport.final_response_max_bytes(params)
    prover = _ExtraDigest(protocol, params, witness)
    prover.extra = cap // 32 + 1
    refused = f"declares \\d+ payload bytes, at most {cap} allowed"
    with pytest.raises(ProtocolViolation, match=refused) as in_memory:
        run_memory_session(protocol, params, prover, seed=5)

    chan_p, chan_v = transport.memory_channel_pair()
    box = {}

    def prove():
        box["result"] = transport.run_session("prover", chan_p, params, protocol, prover=prover)

    thread = threading.Thread(target=prove)
    thread.start()
    try:
        prng = Prng(derive(seed_root(5), "session", 0))
        with pytest.raises(ProtocolViolation, match=refused) as threaded:
            transport.run_session("verifier", chan_v, params, protocol, prng=prng)
    finally:
        # The prover end waits for a decision: a rejection ends its session.
        chan_v.send_bytes(transport.encode_frame(transport.TAG_DECISION, b"\x00"))
        thread.join()
    assert str(threaded.value) == str(in_memory.value)
    assert box["result"].decision == 0


def test_session_frame_count(k3_setup, sumcheck_true_setup):
    for protocol, params, witness in ((*k3_setup,), (*sumcheck_true_setup, ())):
        prover = ArgumentProver(protocol, params, witness)
        _, v_res = run_memory_session(protocol, params, prover, seed=2)
        k = protocol.spec.rounds
        # 2k+1 protocol frames observed, plus the decision echo sent back
        assert v_res.counters.recv_frames == k + 1
        assert v_res.counters.sent_frames == k + 1
        assert v_res.transcript.message_count == 2 * k + 1


def _tcp_pair():
    listener = transport.tcp_listen("127.0.0.1", 0)
    port = listener.getsockname()[1]
    result = {}

    def accept():
        result["chan"] = transport.tcp_accept(listener)

    thread = threading.Thread(target=accept)
    thread.start()
    client = transport.tcp_connect("127.0.0.1", port)
    thread.join()
    listener.close()
    return client, result["chan"]


@pytest.mark.parametrize("case", ["port-out-of-range", "port-in-use"])
def test_a_failed_listen_closes_its_socket(case):
    """A bind that fails (a port past 65535, or one another socket listens
    on) is a TransportError, and the socket it opened is closed."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = 1 << 16 if case == "port-out-of-range" else server.getsockname()[1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TransportError, match=f"listen on 127.0.0.1:{port} failed"):
                transport.tcp_listen("127.0.0.1", port)
            gc.collect()  # a socket left open warns when it is collected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("offset", [1 << 16, -(1 << 16), None], ids=["above", "below", "minus-one"])
def test_connect_refuses_a_port_outside_the_range(offset):
    """A port past 65535 or below 0 is a TransportError before any
    connection: the listener on the port it names modulo 2**16 gets none."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
        bad = -1 if offset is None else port + offset
        with pytest.raises(TransportError, match=f"connect to 127.0.0.1:{bad} failed"):
            transport.tcp_connect("127.0.0.1", bad)
        server.setblocking(False)
        with pytest.raises(BlockingIOError):
            server.accept()


def test_tcp_matches_memory_byte_for_byte(k3_setup):
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    _, mem_res = run_memory_session(protocol, params, prover, seed=77)

    chan_p, chan_v = _tcp_pair()
    prng = Prng(derive(seed_root(77), "session", 0))
    box = {}

    def verifier():
        box["v"] = transport.run_session("verifier", chan_v, params, protocol, prng=prng)

    thread = threading.Thread(target=verifier)
    thread.start()
    p_res = transport.run_session("prover", chan_p, params, protocol, prover=prover)
    thread.join()
    chan_p.close()
    chan_v.close()

    assert box["v"].decision == 1
    assert box["v"].frame_bytes == mem_res.frame_bytes
    assert box["v"].transcript == mem_res.transcript
    assert transport.serialize_transcript(params, box["v"].transcript) == \
        transport.serialize_transcript(params, mem_res.transcript)


def test_tcp_channels_disable_nagle_on_both_ends():
    client, server = _tcp_pair()
    try:
        for chan in (client, server):
            assert chan._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        client.close()
        server.close()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_memory_channel_delivers_bytes_whole_and_in_order(data):
    payload = data.draw(st.binary(max_size=300), label="payload")
    cuts = sorted(data.draw(st.lists(st.integers(0, len(payload)), max_size=8), label="cuts"))
    reads = data.draw(st.lists(st.integers(0, 80), max_size=12), label="reads")
    sender, receiver = transport.memory_channel_pair()
    for lo, hi in zip([0, *cuts], [*cuts, len(payload)]):
        sender.send_bytes(payload[lo:hi])
    got = b""
    for size in reads:
        got += receiver.recv_exact(min(size, len(payload) - len(got)))
    got += receiver.recv_exact(len(payload) - len(got))
    assert got == payload


def test_memory_channel_times_out_on_an_empty_inbox(monkeypatch):
    monkeypatch.setattr(transport, "RECV_TIMEOUT_S", 0.05)
    _, receiver = transport.memory_channel_pair()
    with pytest.raises(TransportError, match=r"peer sent nothing for 0\.05 s"):
        receiver.recv_exact(1)


def test_frame_reorder_aborts_without_accepting(k3_setup):
    """Replaying a valid session's frames out of order must abort instantly."""
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    _, v_res = run_memory_session(protocol, params, prover, seed=3)
    commit_frame = transport.encode_frame(
        transport.TAG_COMMIT, transport.encode_commitment(v_res.transcript.commitments[0])
    )
    final_frame = transport.encode_frame(
        transport.TAG_FINAL,
        transport.encode_final_response(params, v_res.transcript.response),
    )
    chan_attacker, chan_verifier = transport.memory_channel_pair()
    # final response delivered where the commitment belongs
    chan_attacker.send_bytes(final_frame)
    chan_attacker.send_bytes(commit_frame)
    prng = Prng(derive(seed_root(3), "session", 0))
    with pytest.raises(ProtocolViolation):
        transport.run_session("verifier", chan_verifier, params, protocol, prng=prng)


def test_prover_aborts_on_reordered_verifier_frames(k3_setup):
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    chan_attacker, chan_prover = transport.memory_channel_pair()
    # a decision frame where the challenge belongs
    chan_attacker.send_bytes(transport.encode_frame(transport.TAG_DECISION, b"\x01"))
    with pytest.raises(ProtocolViolation):
        transport.run_session("prover", chan_prover, params, protocol, prover=prover)


@pytest.mark.parametrize("payload", [b"", b"\x07", b"\x02"])
def test_prover_refuses_a_decision_that_is_not_one_byte_0_or_1(k3_setup, payload):
    """A scripted verifier answers the commitment with a valid challenge,
    then ends the session with a decision frame the prover must refuse."""
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    chan_verifier, chan_prover = transport.memory_channel_pair()
    challenge = transport.encode_challenge(0, protocol.spec.randomness_bits[0])
    chan_verifier.send_bytes(transport.encode_frame(transport.TAG_CHALLENGE, challenge))
    chan_verifier.send_bytes(transport.encode_frame(transport.TAG_DECISION, payload))
    with pytest.raises(ProtocolViolation, match="decision frame"):
        transport.run_session("prover", chan_prover, params, protocol, prover=prover)


def test_public_coin_challenges_independent_of_prover(k4_setup, k4):
    """Same seed, different provers: the verifier's coins are identical."""
    from ibcslab.adversaries import optimal_gc_cheater

    protocol, params = k4_setup
    cheat = optimal_gc_cheater(protocol, params)
    from ibcslab.toys import best_coloring

    other = ArgumentProver(protocol, params, best_coloring(k4)[0])
    _, res_a = run_memory_session(protocol, params, cheat, seed=31)
    _, res_b = run_memory_session(protocol, params, other, seed=31)
    assert res_a.transcript.challenges == res_b.transcript.challenges


def test_setup_handshake_roundtrip(k3_setup):
    protocol, params, _ = k3_setup
    chan_a, chan_b = transport.memory_channel_pair()
    transport.send_public_setup(chan_a, params, protocol.instance)
    bound, vc_params, instance = transport.recv_public_setup(chan_b)
    assert bound == params.instance_bound
    assert vc_params == params.vc
    assert instance == protocol.instance


def test_transcript_file_roundtrip(k3_setup):
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    _, v_res = run_memory_session(protocol, params, prover, seed=8)
    blob = transport.serialize_transcript(params, v_res.transcript)
    params2, protocol2, transcript2 = transport.parse_transcript(blob)
    assert params2 == params
    assert transcript2 == v_res.transcript
    assert protocol2.instance == protocol.instance
    with pytest.raises(DecodeError):
        transport.parse_transcript(b"junk" + blob)
    with pytest.raises(DecodeError):
        transport.parse_transcript(blob + b"\x00")


def test_transcript_rejects_instance_longer_than_its_bound(k3_setup):
    protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    short = dataclasses.replace(params, instance_bound=4)
    blob = transport.serialize_transcript(short, v_res.transcript)
    with pytest.raises(DecodeError, match="at most 4 allowed"):
        transport.parse_transcript(blob)


def test_codec_identity_large_fuzz(k3_setup):
    """Round-trip identity over 10^5 randomly drawn protocol payloads."""
    protocol, params, witness = k3_setup
    spec = protocol.spec
    rng = random.Random(0xF00D)
    prover = ArgumentProver(protocol, params, witness)
    state = prover.start()
    cm, state = prover.next_commitment(state, None)
    samples = 0
    while samples < 100_000:
        nbits = spec.randomness_bits[0]
        challenge = rng.getrandbits(nbits)
        assert transport.decode_challenge(
            transport.encode_challenge(challenge, nbits), nbits
        ) == challenge
        samples += 1
        if samples % 10 == 0:
            assert transport.decode_commitment(transport.encode_commitment(cm)) == cm
            samples += 1
        if samples % 100 == 0:
            response = prover.final_response(state, protocol.verifier_query([challenge]))
            payload = transport.encode_final_response(params, response)
            assert transport.decode_final_response(params, [cm.length], payload) == response
            samples += 1


class _ScriptedChannel:
    """A channel that feeds fixed bytes and records every read size."""

    def __init__(self, data: bytes):
        self._data = data
        self.reads: list[int] = []

    def send_bytes(self, data: bytes):
        pass

    def recv_exact(self, n: int) -> bytes:
        self.reads.append(n)
        if n > len(self._data):
            raise TransportError("scripted channel ran dry")
        out, self._data = self._data[:n], self._data[n:]
        return out


def _header(length: int, tag: int) -> bytes:
    return length.to_bytes(4, "big") + bytes([tag])


def _session_prefixes(params, protocol, witness):
    """Valid frames a role reads before the frame under test, keyed by (role, its tag)."""
    prover = ArgumentProver(protocol, params, witness)
    cm, _ = prover.next_commitment(prover.start(), None)
    commit = transport.encode_frame(transport.TAG_COMMIT, transport.encode_commitment(cm))
    nbits = protocol.spec.randomness_bits[0]
    challenge = transport.encode_frame(
        transport.TAG_CHALLENGE, transport.encode_challenge(1, nbits)
    )
    return {
        ("verifier", transport.TAG_COMMIT): b"",
        ("verifier", transport.TAG_FINAL): commit,
        ("prover", transport.TAG_CHALLENGE): b"",
        ("prover", transport.TAG_DECISION): challenge,
    }


@pytest.mark.parametrize("length", [0xFFFFFFFF, "limit+1"])
def test_oversized_frame_rejected_before_its_payload_is_read(k3_setup, length):
    protocol, params, witness = k3_setup
    nbits = protocol.spec.randomness_bits[0]
    limits = {
        transport.TAG_COMMIT: 36,
        transport.TAG_CHALLENGE: (nbits + 7) // 8,
        transport.TAG_FINAL: transport.final_response_max_bytes(params),
        transport.TAG_DECISION: 1,
    }
    for (role, tag), prefix in _session_prefixes(params, protocol, witness).items():
        declared = limits[tag] + 1 if length == "limit+1" else length
        channel = _ScriptedChannel(prefix + _header(declared, tag) + bytes(64))
        kwargs = (
            {"prover": ArgumentProver(protocol, params, witness)}
            if role == "prover"
            else {"prng": Prng(derive(seed_root(0), "session", 0))}
        )
        with pytest.raises(IbcsError, match="payload bytes"):
            transport.run_session(role, channel, params, protocol, **kwargs)
        assert sum(channel.reads) == len(prefix) + transport.FRAME_HEADER_BYTES


def test_final_response_limit_covers_every_committed_length(k3_setup):
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    _, v_res = run_memory_session(protocol, params, prover, seed=5)
    honest = transport.encode_final_response(params, v_res.transcript.response)
    assert len(honest) <= transport.final_response_max_bytes(params)
    q = protocol.spec.query_counts[0]
    for length in (0, 1, params.vc.capacity, params.vc.width, 0xFFFFFFFF):
        for positions in ([1], [2, 3], [1, params.vc.capacity]):
            count = proof_digest_count(params.vc, length, positions[:q])
            assert count <= (q + 1) * params.vc.levels


class _DripSocket:
    """Socket stand-in that returns what it holds, then end of stream."""

    def __init__(self, data: bytes):
        self._data = data
        self.sizes: list[int] = []

    def settimeout(self, _seconds):
        pass

    def setsockopt(self, *_option):
        pass

    def recv(self, n: int) -> bytes:
        self.sizes.append(n)
        out, self._data = self._data[:n], self._data[n:]
        return out


def test_tcp_reads_in_bounded_chunks():
    sock = _DripSocket(bytes(200_000))
    channel = transport.TcpChannel(sock)
    with pytest.raises(TransportError, match="closed mid-frame"):
        channel.recv_exact(0xFFFFFFFF)
    assert max(sock.sizes) <= 1 << 16
    assert sum(sock.sizes[:-1]) >= 200_000


def test_setup_rejects_instance_longer_than_its_bound(k3_setup):
    protocol, params, _ = k3_setup
    blob = params.vc.to_bytes()
    short_bound = (4).to_bytes(4, "big") + len(blob).to_bytes(2, "big") + blob
    payload = transport.encode_instance(protocol.instance)
    channel = _ScriptedChannel(
        transport.encode_frame(transport.TAG_PARAMS, short_bound)
        + transport.encode_frame(transport.TAG_INSTANCE, payload)
    )
    with pytest.raises(ProtocolViolation, match="at most 4 allowed"):
        transport.recv_public_setup(channel)
    assert channel.reads == [5, len(short_bound), 5]


def _frame_offsets(blob: bytes) -> list[tuple[int, int]]:
    """(tag, start offset) of every frame after the transcript magic."""
    out = []
    offset = len(transport.TRANSCRIPT_MAGIC)
    while offset < len(blob):
        tag, _, end = transport.decode_frame(blob, offset)
        out.append((tag, offset))
        offset = end
    return out


@pytest.mark.parametrize("length", [0xFFFFFFFF, "limit+1"])
def test_stored_oversized_frame_rejected_at_its_offset(sumcheck_true_setup, length):
    """Replay caps commitment, challenge and final-response frames like a
    live verifier, and names the offset of the offending length field."""
    protocol, _ = sumcheck_true_setup
    params = arg_setup(128, len(transport.encode_instance(protocol.instance)), protocol.spec)
    prover = ArgumentProver(protocol, params, ())
    _, v_res = run_memory_session(protocol, params, prover, seed=4)
    blob = transport.serialize_transcript(params, v_res.transcript)
    limits = {
        transport.TAG_COMMIT: 36,
        transport.TAG_CHALLENGE: (protocol.spec.randomness_bits[0] + 7) // 8,
        transport.TAG_FINAL: transport.final_response_max_bytes(params),
    }
    checked = set()
    for tag, start in _frame_offsets(blob):
        if tag not in limits:
            continue
        declared = limits[tag] + 1 if length == "limit+1" else length
        bad = blob[:start] + declared.to_bytes(4, "big") + blob[start + 4 :]
        with pytest.raises(DecodeError, match="payload bytes") as info:
            transport.parse_transcript(bad)
        assert info.value.offset == start
        checked.add(tag)
    assert checked == set(limits)


def test_stored_parameters_must_match_the_derived_ones(k3_setup):
    protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    other = dataclasses.replace(params, vc=dataclasses.replace(params.vc, domain_tag=b"other"))
    blob = transport.serialize_transcript(other, v_res.transcript)
    with pytest.raises(ParameterError, match="do not match the derived parameters"):
        transport.parse_transcript(blob)


def test_stored_transcript_under_the_old_padding_rule_is_refused(k3_setup):
    # "ibcslab/vc/1" hashed each padding leaf's position; its digests never
    # meet the ones of the current rule.
    protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    old = dataclasses.replace(params, vc=dataclasses.replace(params.vc, domain_tag=b"ibcslab/vc/1"))
    blob = transport.serialize_transcript(old, v_res.transcript)
    with pytest.raises(ParameterError, match="do not match the derived parameters"):
        transport.parse_transcript(blob)


def test_stored_claim_of_a_wide_graph_costs_queries_times_depth(monkeypatch):
    """A one-edge graph on 65537 vertices pads its width-2**17 tree with
    65535 leaves; verifying its stored transcript hashes O(q log width)."""
    protocol = gc_pcp(canonical_graph(65537, [(1, 2)]))
    params = arg_setup(128, 64, protocol.spec)
    witness = (1, 2) + (1,) * 65535
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    blob = transport.serialize_transcript(params, v_res.transcript)
    production = vc._check_memo
    monkeypatch.setattr(vc, "_check_memo", BoundedMemo(production.max_entries, production.max_bytes))
    vc._padding_digests.cache_clear()
    counter = CountingHashlib()
    monkeypatch.setattr(vc, "hashlib", counter)
    stored_params, stored_protocol, transcript = transport.parse_transcript(blob)
    assert arg_verify(stored_params, stored_protocol, transcript) == 1
    monkeypatch.undo()
    levels = params.vc.levels
    checks = sum((len(opening.positions) + 1) * (levels + 1) for opening in transcript.response)
    assert counter.calls <= checks + levels + 1


def test_stored_frame_with_the_wrong_tag_names_its_offset(k3_setup):
    protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    blob = transport.serialize_transcript(params, v_res.transcript)
    (_, start), = [(t, s) for t, s in _frame_offsets(blob) if t == transport.TAG_CHALLENGE]
    bad = blob[: start + 4] + bytes([transport.TAG_COMMIT]) + blob[start + 5 :]
    with pytest.raises(DecodeError, match="expected frame tag 0x2, received 0x1") as info:
        transport.parse_transcript(bad)
    assert info.value.offset == start + 4


def _shortened(blob: bytes, start: int) -> bytes:
    """`blob` with the frame at `start` one payload byte shorter."""
    tag, payload, end = transport.decode_frame(blob, start)
    return blob[:start] + transport.encode_frame(tag, payload[:-1]) + blob[end:]


@pytest.mark.parametrize(
    "tag, what", [(transport.TAG_COMMIT, "commitment"), (transport.TAG_CHALLENGE, "challenge")]
)
def test_short_payload_is_a_typed_error(k3_setup, tag, what):
    """A 35-byte commitment or a short challenge is a ProtocolViolation on a
    live channel and a DecodeError at the payload's offset in a stored file."""
    protocol, params, witness = k3_setup
    nbytes = 36 if tag == transport.TAG_COMMIT else (protocol.spec.randomness_bits[0] + 7) // 8
    role, kwargs = (
        ("verifier", {"prng": Prng(derive(seed_root(0), "session", 0))})
        if tag == transport.TAG_COMMIT
        else ("prover", {"prover": ArgumentProver(protocol, params, witness)})
    )
    channel = _ScriptedChannel(transport.encode_frame(tag, bytes(nbytes - 1)))
    with pytest.raises(ProtocolViolation, match=f"undecodable {what}"):
        transport.run_session(role, channel, params, protocol, **kwargs)

    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    blob = transport.serialize_transcript(params, v_res.transcript)
    (start,) = [s for t, s in _frame_offsets(blob) if t == tag]
    with pytest.raises(DecodeError, match=f"undecodable {what}") as info:
        transport.parse_transcript(_shortened(blob, start))
    assert info.value.offset == start + transport.FRAME_HEADER_BYTES


@pytest.mark.parametrize(
    "tag, what", [(transport.TAG_PARAMS, "parameters"), (transport.TAG_INSTANCE, "instance")]
)
def test_undecodable_setup_payload_is_a_typed_error(k3_setup, tag, what):
    """A parameter frame whose blob is a byte short of its declared length,
    or an instance frame a byte short of its edge list, is a ProtocolViolation
    live and a DecodeError at the payload's offset in a stored file."""
    protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    blob = transport.serialize_transcript(params, v_res.transcript)
    (start,) = [s for t, s in _frame_offsets(blob) if t == tag]
    bad = _shortened(blob, start)
    channel = _ScriptedChannel(bad[len(transport.TRANSCRIPT_MAGIC) :])
    with pytest.raises(ProtocolViolation, match=f"undecodable {what}"):
        transport.recv_public_setup(channel)

    with pytest.raises(DecodeError, match=f"undecodable {what}") as info:
        transport.parse_transcript(bad)
    assert info.value.offset == start + transport.FRAME_HEADER_BYTES


@pytest.mark.parametrize(
    "tag, what, fault",
    [
        (transport.TAG_PARAMS, "parameters", "trailing"),
        (transport.TAG_INSTANCE, "instance", "short"),
        (transport.TAG_COMMIT, "commitment", "short"),
        (transport.TAG_CHALLENGE, "challenge", "short"),
        (transport.TAG_FINAL, "final response", "short"),
        (transport.TAG_FINAL, "final response", "trailing"),
    ],
)
def test_undecodable_stored_payload_names_one_file_offset(k3_setup, tag, what, fault):
    """The error names one offset, the failing byte's file position, in its
    message and in `.offset`: a decoder's offset within its payload is
    moved to the file, and a payload that fails as a whole is located at
    its start."""
    protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    blob = transport.serialize_transcript(params, v_res.transcript)
    (start,) = [s for t, s in _frame_offsets(blob) if t == tag]
    if fault == "short":
        bad = _shortened(blob, start)
        _, payload, end = transport.decode_frame(bad, start)
        # A short final response runs out of bits at its end; the other
        # payloads fail as a whole.
        offset = end if tag == transport.TAG_FINAL else end - len(payload)
    else:
        # One zero byte past what the decoder reads: for the parameters,
        # inside the VcParams encoding, whose declared length covers it.
        _, payload, end = transport.decode_frame(blob, start)
        if tag == transport.TAG_PARAMS:
            vc_blob = payload[6:] + b"\x00"
            payload = payload[:4] + len(vc_blob).to_bytes(2, "big") + vc_blob
        else:
            payload += b"\x00"
        bad = blob[:start] + transport.encode_frame(tag, payload) + blob[end:]
        offset = start + transport.FRAME_HEADER_BYTES + len(payload) - 1
    with pytest.raises(DecodeError, match=f"undecodable {what}: ") as info:
        transport.parse_transcript(bad)
    assert info.value.offset == offset
    assert str(info.value).count("(offset") == 1
    assert str(info.value).endswith(f"(offset {offset})")


def test_swapped_positions_are_refused_live_and_at_the_final_payload_offset(k3_setup):
    """A final response whose round-1 positions are in decreasing order is
    a DecodeError at the final-response payload's offset in a stored file,
    and a ProtocolViolation for a live verifier reading the same frames."""
    protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    (opening,) = v_res.transcript.response
    swapped = types.SimpleNamespace(
        positions=opening.positions[::-1], answers=opening.answers[::-1], proof=opening.proof
    )
    blob = transport.serialize_transcript(params, v_res.transcript)
    (start,) = [s for t, s in _frame_offsets(blob) if t == transport.TAG_FINAL]
    _, _, end = transport.decode_frame(blob, start)
    final = transport.encode_frame(
        transport.TAG_FINAL, transport.encode_final_response(params, (swapped,))
    )
    bad = blob[:start] + final + blob[end:]
    refused = "undecodable final response: round 1 positions not strictly increasing"
    with pytest.raises(DecodeError, match=refused) as info:
        transport.parse_transcript(bad)
    assert info.value.offset == start + transport.FRAME_HEADER_BYTES

    (commit,) = [s for t, s in _frame_offsets(blob) if t == transport.TAG_COMMIT]
    _, _, commit_end = transport.decode_frame(blob, commit)
    channel = _ScriptedChannel(blob[commit:commit_end] + final)
    with pytest.raises(ProtocolViolation, match=refused):
        transport.run_session(
            "verifier", channel, params, protocol, prng=Prng(derive(seed_root(0), "session", 0))
        )


@pytest.mark.parametrize("own_instance", [False, True])
def test_setup_never_reads_a_declared_huge_instance(k3_setup, own_instance):
    """A peer declares a 2**31-byte instance: the verifier's cap, its own
    instance's bound when it has one and `INSTANCE_MAX_BYTES` otherwise,
    rejects the frame before any payload byte is read."""
    protocol, params, _ = k3_setup
    declared = 1 << 31
    cap = len(transport.encode_instance(protocol.instance))
    if own_instance:
        own = arg_setup(128, cap, protocol.spec), protocol.instance
        fields = transport.encode_params(own[0])
    else:
        own, cap = None, transport.INSTANCE_MAX_BYTES
        blob = params.vc.to_bytes()
        fields = declared.to_bytes(4, "big") + len(blob).to_bytes(2, "big") + blob
    channel = _ScriptedChannel(
        transport.encode_frame(transport.TAG_PARAMS, fields)
        + _header(declared, transport.TAG_INSTANCE)
        + bytes(64)
    )
    with pytest.raises(ProtocolViolation, match=f"at most {cap} allowed"):
        transport.recv_public_setup(channel, own=own)
    assert channel.reads == [5, len(fields), 5]


def test_setup_with_own_parameters_refuses_other_bytes_before_the_instance(k3_setup):
    """A verifier that passes its own parameters reads the peer's parameter
    frame and refuses any other bytes there, before the instance frame; the
    same VcParams under another instance bound are other bytes."""
    protocol, _, _ = k3_setup
    bound = len(transport.encode_instance(protocol.instance))
    own = arg_setup(128, bound, protocol.spec)
    other = arg_setup(128, bound + 1, protocol.spec)
    assert other.vc == own.vc
    instance_frame = transport.encode_frame(
        transport.TAG_INSTANCE, transport.encode_instance(protocol.instance)
    )
    fields = transport.encode_params(other)
    channel = _ScriptedChannel(transport.encode_frame(transport.TAG_PARAMS, fields) + instance_frame)
    with pytest.raises(ParameterError, match="differ from the verifier's own at payload byte 3"):
        transport.recv_public_setup(channel, own=(own, protocol.instance))
    assert channel.reads == [5, len(fields)]
    channel = _ScriptedChannel(
        transport.encode_frame(transport.TAG_PARAMS, transport.encode_params(own)) + instance_frame
    )
    setup = transport.recv_public_setup(channel, own=(own, protocol.instance))
    assert setup == (bound, own.vc, protocol.instance)


def test_stored_setup_with_own_parameters_refuses_other_bytes_before_the_instance(k3_setup):
    """A stored transcript checked against the verifier's own parameters is
    refused at its parameter frame, as a live peer is: under another
    instance bound, an undecodable instance frame after it is never read."""
    protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    other = arg_setup(128, params.instance_bound + 1, protocol.spec)
    blob = transport.serialize_transcript(other, v_res.transcript)
    (start,) = [s for t, s in _frame_offsets(blob) if t == transport.TAG_INSTANCE]
    bad = _shortened(blob, start)
    with pytest.raises(DecodeError, match="undecodable instance"):
        transport.parse_transcript(bad)
    with pytest.raises(ParameterError, match="differ from the verifier's own at payload byte 3"):
        transport.parse_transcript(bad, own=(params, protocol.instance))


def _graph_payload(vertex_count: int, edges) -> bytes:
    """A graph instance payload, written field by field so that it may
    carry an edge list the instance constructor refuses."""
    body = vertex_count.to_bytes(4, "big") + len(edges).to_bytes(4, "big")
    body += b"".join(u.to_bytes(4, "big") + v.to_bytes(4, "big") for u, v in edges)
    return bytes([GRAPH_KIND]) + body


@pytest.mark.parametrize(
    "payload, reason",
    [
        (_graph_payload(3, ((1, 2), (2, 2), (2, 3))), "self-loop at vertex 2"),
        (_graph_payload(3, ((1, 2), (1, 2), (2, 3))), "duplicate edge (1, 2)"),
        (_graph_payload(3, ((1, 2), (1, 3), (1, 2))), "edge (1, 2) not lexicographically"),
        (None, "21 is not prime"),
    ],
)
def test_invalid_decoded_instance_is_a_located_decode_error(k3_setup, payload, reason):
    """An instance payload that decodes into an instance its constructor
    refuses is a ProtocolViolation live and a DecodeError at the instance
    payload's offset in a stored file."""
    if payload is None:
        protocol = sumcheck_iop(make_sumcheck(p=17, n=1, d=1))
        params, witness = arg_setup(128, 64, protocol.spec), ()
    else:
        protocol, params, witness = k3_setup
    _, v_res = run_memory_session(protocol, params, ArgumentProver(protocol, params, witness))
    blob = transport.serialize_transcript(params, v_res.transcript)
    (start,) = [s for t, s in _frame_offsets(blob) if t == transport.TAG_INSTANCE]
    _, good, end = transport.decode_frame(blob, start)
    if payload is None:
        # The composite 21 in place of the prime 17: every field stays in range.
        payload = good[:1] + (21).to_bytes(8, "big") + good[9:]
    assert len(payload) == len(good)
    bad = blob[:start] + transport.encode_frame(transport.TAG_INSTANCE, payload) + blob[end:]
    message = f"undecodable instance: invalid instance: {re.escape(reason)}"

    channel = _ScriptedChannel(bad[len(transport.TRANSCRIPT_MAGIC) :])
    with pytest.raises(ProtocolViolation, match=message):
        transport.recv_public_setup(channel)

    with pytest.raises(DecodeError, match=message) as info:
        transport.parse_transcript(bad)
    assert info.value.offset == start + transport.FRAME_HEADER_BYTES


def test_hostile_prime_decodes_in_bounded_time():
    """A 2**61 - 1 sumcheck prime, which trial division would take minutes
    to confirm, decodes at once."""
    instance = SumcheckInstance((1 << 61) - 1, 1, 1, (0, 1), 1)
    payload = transport.encode_instance(instance)
    start = time.perf_counter()
    assert transport.decode_instance(payload) == instance
    assert time.perf_counter() - start < 1
