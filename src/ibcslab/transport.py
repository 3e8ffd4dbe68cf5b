"""Bit-exact wire protocol: framing, payload codecs, channels, sessions.

This module owns frames, the protocol messages' payloads, channels and
sessions. An instance's payload is its binary layout, which lives in
`toys` with the instance's text format and validation; each instance
encodes itself once and keeps the bytes, so `encode_instance` reads them
and `decode_instance` frames a refused payload as a DecodeError.

Frame layout: 4-byte big-endian payload length, 1-byte tag, payload.
Tags: 0x01 commitment, 0x02 challenge, 0x03 final response, 0x04 decision,
0x10 instance, 0x11 public parameters.

Payload conventions are big-endian throughout; bit fields are packed MSB
first with the final partial byte zero-padded. A challenge payload packs
the challenge int at its round's width, `IopSpec.randomness_bits`, the
one place a challenge is a bit string. The final-response payload
is the bit-exact realization of the communication formula: for each round,
the queried positions at ceil(log2 l_i) bits each (0-based, ascending),
the answers at the symbol width, then the opening digests. No counts are
transmitted: the query count comes from the protocol shape and the digest
count is forced by the canonical multi-proof, so the semantic payload
carries exactly the bits the accounting formula charges. Frame headers and
the final byte-alignment padding are transport overhead, counted
separately from protocol bits.

Sessions drive the mandated message order (commit, challenge, repeated,
then one batched response) over any reliable ordered channel; in-memory
queues and TCP sockets are provided and produce identical frame bytes
under identical seeds.

The session ends and the setup reader do no I/O. Each is a generator: it
yields each frame it sends (bytes) and the (tag, payload cap) of each
frame it reads, and is sent that frame whole. A frame it refuses, by its
header or by a payload that does not decode, is raised with its position
and no channel. Three drivers run the same ends, and each turns a refusal
into its error in one place. `_drive` reads frames off a channel (a TCP
socket, or a memory channel whose peer runs in another thread), where a
refusal is a ProtocolViolation, or off a stored transcript's byte cursor,
where it is a DecodeError at the file offset (`run_session`,
`recv_public_setup`, `parse_transcript`). `memory_session` steps the
prover end and the verifier end in turn in the calling thread and hands
each frame straight from one to the other, after the reader's header
check; a refusal is a ProtocolViolation.

An in-memory channel carries each direction on one `queue.SimpleQueue`,
the cheapest cross-thread handoff, for callers that run the two ends in
threads (see `MemoryChannel`). TCP channels set `TCP_NODELAY`: the prover
writes three small frames (parameters, instance, first commitment) before
its first read, and Nagle's algorithm could hold each one after the first
until the previous one is acknowledged.
"""

from __future__ import annotations

import queue
import socket
from dataclasses import dataclass
from typing import Any

from .errors import (
    DecodeError,
    InstanceError,
    ParameterError,
    ProtocolViolation,
    TransportError,
)
from .ibcs import (
    COMMITMENT_WIRE_BITS,
    COMMITMENT_WIRE_BYTES,
    ArgParams,
    Transcript,
    arg_setup,
    arg_verify,
    position_bits,
)
from .iop import IopProtocol
from .prng import Prng
from .toys import (
    GraphColoringInstance,
    SumcheckInstance,
    gc_pcp,
    instance_from_bytes,
    sumcheck_iop,
)
from .vc import DIGEST_BYTES, Commitment, Opening, VcParams, params_from_bytes, proof_digest_count

TAG_COMMIT = 0x01
TAG_CHALLENGE = 0x02
TAG_FINAL = 0x03
TAG_DECISION = 0x04
TAG_INSTANCE = 0x10
TAG_PARAMS = 0x11

_KNOWN_TAGS = {TAG_COMMIT, TAG_CHALLENGE, TAG_FINAL, TAG_DECISION, TAG_INSTANCE, TAG_PARAMS}

FRAME_HEADER_BYTES = 5

TRANSCRIPT_MAGIC = b"IBCSTR01"


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def encode_frame(tag: int, payload: bytes) -> bytes:
    if tag not in _KNOWN_TAGS:
        raise ProtocolViolation(f"unknown frame tag {tag:#x}")
    return len(payload).to_bytes(4, "big") + bytes([tag]) + payload


class _ByteCursor:
    """A stored transcript read like a channel; `offset` is the next byte."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self.offset = offset

    def recv_exact(self, n: int) -> bytes:
        left = len(self._data) - self.offset
        if n > left:
            raise DecodeError(f"truncated: {n} bytes needed, {left} left", offset=self.offset)
        self.offset += n
        return self._data[self.offset - n : self.offset]


class _Refusal(Exception):
    """A frame a reader refuses, raised with no channel attached; `back`
    places the fault that many bytes before the reader's position, the end
    of what it has read. A driver turns it into its own error."""

    def __init__(self, message: str, back: int):
        super().__init__(message)
        self.back = back


def _check_header(header: bytes, expected_tag: int | None, max_payload: int) -> int:
    """The payload length a frame header declares, once its tag (any known
    tag when `expected_tag` is None) and its length, at most `max_payload`,
    pass; `header` may run on into the payload."""
    length = int.from_bytes(header[:4], "big")
    tag = header[4]
    if expected_tag is None:
        if tag not in _KNOWN_TAGS:
            raise _Refusal(f"unknown frame tag {tag:#x}", back=1)
    elif tag != expected_tag:
        raise _Refusal(f"expected frame tag {expected_tag:#x}, received {tag:#x}", back=1)
    if length > max_payload:
        raise _Refusal(
            f"frame tag {tag:#x} declares {length} payload bytes, at most {max_payload} allowed",
            back=FRAME_HEADER_BYTES,
        )
    return length


def _recv_frame(channel, expected_tag: int | None, max_payload: int) -> bytes:
    """Read one whole frame, header and payload, off a channel or a cursor;
    the header is checked before any payload byte is read, so a length
    field never sizes a read past `max_payload`."""
    header = channel.recv_exact(FRAME_HEADER_BYTES)
    length = _check_header(header, expected_tag, max_payload)
    return header + channel.recv_exact(length) if length else header


def _decoded(what: str, decode, payload: bytes, *args):
    """`decode(payload, *args)`; a payload that does not decode is refused
    at the decoder's offset in it, or at its start when it fails as a whole."""
    try:
        return decode(payload, *args)
    except DecodeError as exc:
        back = len(payload) - (exc.offset or 0)
        raise _Refusal(f"undecodable {what}: {exc.reason}", back) from exc


def decode_frame(data: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """Decode one frame of any known tag at `offset`; returns (tag, payload, next offset)."""
    cursor = _ByteCursor(data, offset)
    payload = _drive(_FrameLink().recv(None, len(data)), cursor)
    return data[offset + 4], payload, cursor.offset


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------


class _BitWriter:
    def __init__(self):
        self._acc = 0
        self._nbits = 0

    def put(self, value: int, nbits: int):
        if value < 0 or value >> nbits:
            raise ProtocolViolation("bit field value exceeds its declared width")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits

    def put_bytes(self, data: bytes):
        self.put(int.from_bytes(data, "big"), 8 * len(data))

    def to_bytes(self) -> bytes:
        pad = (-self._nbits) % 8
        total = self._nbits + pad
        return (self._acc << pad).to_bytes(total // 8, "big")


class _BitReader:
    """Reads bit fields off a payload; errors name their payload offset."""

    def __init__(self, data: bytes):
        self._value = int.from_bytes(data, "big")
        self._nbytes = len(data)
        self._remaining = 8 * len(data)

    def take(self, nbits: int) -> int:
        if nbits > self._remaining:
            raise DecodeError("bit field extends past the payload end", offset=self._nbytes)
        self._remaining -= nbits
        out = self._value >> self._remaining
        self._value &= (1 << self._remaining) - 1
        return out

    def take_bytes(self, nbytes: int) -> bytes:
        return self.take(8 * nbytes).to_bytes(nbytes, "big")

    def finish(self):
        if self._remaining >= 8:
            raise DecodeError(
                f"{self._remaining} trailing bits after payload",
                offset=self._nbytes - self._remaining // 8,
            )
        if self._value:
            raise DecodeError("nonzero padding bits at payload end", offset=self._nbytes - 1)


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------


def encode_commitment(cm: Commitment) -> bytes:
    return cm.root + cm.length.to_bytes(4, "big")


def decode_commitment(payload: bytes) -> Commitment:
    if len(payload) != DIGEST_BYTES + 4:
        raise DecodeError(f"commitment payload must be {DIGEST_BYTES + 4} bytes")
    return Commitment(root=payload[:DIGEST_BYTES], length=int.from_bytes(payload[DIGEST_BYTES:], "big"))


def encode_challenge(value: int, nbits: int) -> bytes:
    """A challenge in [0, 2**nbits), packed MSB first at its round's width."""
    writer = _BitWriter()
    writer.put(value, nbits)
    return writer.to_bytes()


def decode_challenge(payload: bytes, nbits: int) -> int:
    """The challenge an `nbits`-wide payload packs; a payload of the wrong
    length or with nonzero padding fails as a whole."""
    nbytes = (nbits + 7) // 8
    if len(payload) != nbytes:
        raise DecodeError(f"expected {nbytes} bytes for {nbits} bits, got {len(payload)}")
    raw = int.from_bytes(payload, "big")
    pad = 8 * nbytes - nbits
    if raw & ((1 << pad) - 1):
        raise DecodeError("nonzero padding bits in packed bit string")
    return raw >> pad


def final_response_bits(params: ArgParams, response) -> int:
    """Semantic bit length of the batched response payload."""
    spec = params.iop_spec
    total = 0
    for i, opening in enumerate(response):
        width = position_bits(spec.proof_lengths[i])
        total += len(opening.positions) * (width + spec.symbol_bits)
        total += 8 * DIGEST_BYTES * len(opening.proof)
    return total


def final_response_max_bytes(params: ArgParams) -> int:
    """Longest final-response payload a decoder can accept.

    Per round: the q_i positions and answers, and at most (q_i + 1) digests
    per tree level, since only the opened leaves' ancestors and the first
    padding leaf's ancestor can lack a sibling.
    """
    spec = params.iop_spec
    bits = sum(
        q * (position_bits(length) + spec.symbol_bits)
        + (q + 1) * params.vc.levels * 8 * DIGEST_BYTES
        for q, length in zip(spec.query_counts, spec.proof_lengths)
    )
    return (bits + 7) // 8


def encode_final_response(params: ArgParams, response) -> bytes:
    spec = params.iop_spec
    writer = _BitWriter()
    for i, opening in enumerate(response):
        width = position_bits(spec.proof_lengths[i])
        for q in opening.positions:
            writer.put(q - 1, width)
        for a in opening.answers:
            writer.put(a, spec.symbol_bits)
        for digest in opening.proof:
            writer.put_bytes(digest)
    return writer.to_bytes()


def decode_final_response(
    params: ArgParams, committed_lengths, payload: bytes
) -> tuple[Opening, ...]:
    spec = params.iop_spec
    reader = _BitReader(payload)
    openings = []
    for i in range(spec.rounds):
        width = position_bits(spec.proof_lengths[i])
        q = spec.query_counts[i]
        positions = tuple(reader.take(width) + 1 for _ in range(q))
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise DecodeError(f"round {i + 1} positions not strictly increasing")
        if positions[-1] > spec.proof_lengths[i]:
            raise DecodeError(f"round {i + 1} position outside the proof string")
        answers = tuple(reader.take(spec.symbol_bits) for _ in range(q))
        count = proof_digest_count(params.vc, committed_lengths[i], positions)
        proof = tuple(reader.take_bytes(DIGEST_BYTES) for _ in range(count))
        openings.append(Opening(positions=positions, answers=answers, proof=proof))
    reader.finish()
    return tuple(openings)


def encode_instance(instance) -> bytes:
    """The instance's payload: the binary layout it keeps (`toys`)."""
    encoding = getattr(instance, "encoding", None)
    if type(encoding) is not bytes:
        raise ProtocolViolation(f"cannot encode instance of type {type(instance)!r}")
    return encoding


def decode_instance(payload: bytes):
    """The instance a payload encodes (`toys.instance_from_bytes`), which
    keeps the payload as its encoding. A payload that is malformed, or
    that decodes into an instance its constructor refuses, raises
    DecodeError with no offset: the payload fails as a whole."""
    try:
        return instance_from_bytes(payload)
    except InstanceError as exc:
        raise DecodeError(f"invalid instance: {exc}") from exc


def protocol_for_instance(instance) -> IopProtocol:
    if isinstance(instance, GraphColoringInstance):
        return gc_pcp(instance)
    if isinstance(instance, SumcheckInstance):
        return sumcheck_iop(instance)
    raise ProtocolViolation(f"no protocol registered for {type(instance)!r}")


def encode_params(params: ArgParams) -> bytes:
    blob = params.vc.to_bytes()
    return params.instance_bound.to_bytes(4, "big") + len(blob).to_bytes(2, "big") + blob


# Parameter payload: bound, blob length, and a VcParams encoding whose hash
# name and domain tag are at most 255 bytes each.
_PARAMS_MAX_BYTES = 6 + 14 + 2 * 255


def decode_params_fields(payload: bytes) -> tuple[int, VcParams]:
    if len(payload) < 6:
        raise DecodeError("truncated parameter payload")
    bound = int.from_bytes(payload[0:4], "big")
    blob_len = int.from_bytes(payload[4:6], "big")
    if len(payload) != 6 + blob_len:
        raise DecodeError("parameter payload length mismatch")
    try:
        return bound, params_from_bytes(payload[6:])
    except DecodeError as exc:
        raise DecodeError(exc.reason, None if exc.offset is None else 6 + exc.offset) from exc


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

# How long any channel read, accept or connect waits before it fails with
# TransportError.
RECV_TIMEOUT_S = 30.0


class MemoryChannel:
    """One endpoint of an in-process duplex byte stream.

    Each direction is one `queue.SimpleQueue`: it hands a frame over under
    one lock in C, where a `queue.Queue` builds a mutex and three
    `Condition`s per queue and counts unfinished tasks on every put. It
    serves only callers that run the two ends in threads, such as a
    benchmark driver, and tests that queue a peer's bytes up front;
    `memory_session` hands each frame from one end to the other and uses
    no channel.
    """

    def __init__(self, inbox: "queue.SimpleQueue[bytes]", outbox: "queue.SimpleQueue[bytes]"):
        self._inbox = inbox
        self._outbox = outbox
        self._buffer = b""

    def send_bytes(self, data: bytes):
        self._outbox.put(data)

    def recv_exact(self, n: int) -> bytes:
        while len(self._buffer) < n:
            try:
                self._buffer += self._inbox.get(timeout=RECV_TIMEOUT_S)
            except queue.Empty as exc:
                raise TransportError(f"peer sent nothing for {RECV_TIMEOUT_S:g} s") from exc
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


def memory_channel_pair() -> tuple[MemoryChannel, MemoryChannel]:
    a_to_b: queue.SimpleQueue[bytes] = queue.SimpleQueue()
    b_to_a: queue.SimpleQueue[bytes] = queue.SimpleQueue()
    return MemoryChannel(b_to_a, a_to_b), MemoryChannel(a_to_b, b_to_a)


# Largest single socket read: buffers grow with the bytes that arrive, not
# with the length a peer declares.
_RECV_CHUNK_BYTES = 1 << 16


class TcpChannel:
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._sock.settimeout(RECV_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def send_bytes(self, data: bytes):
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def recv_exact(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(min(n - got, _RECV_CHUNK_BYTES))
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed mid-frame")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def tcp_listen(host: str, port: int) -> socket.socket:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(1)
    except (OSError, OverflowError) as exc:
        listener.close()
        raise TransportError(f"listen on {host}:{port} failed: {exc}") from exc
    return listener


def tcp_accept(listener: socket.socket) -> TcpChannel:
    listener.settimeout(RECV_TIMEOUT_S)
    try:
        conn, _ = listener.accept()
    except OSError as exc:
        raise TransportError(f"accept failed: {exc}") from exc
    return TcpChannel(conn)


def tcp_connect(host: str, port: int) -> TcpChannel:
    # The socket layer would connect to `port % 65536`.
    if not 0 <= port <= 65535:
        raise TransportError(f"connect to {host}:{port} failed: port must be 0-65535")
    try:
        return TcpChannel(socket.create_connection((host, port), timeout=RECV_TIMEOUT_S))
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


@dataclass
class SessionCounters:
    """Exact wire accounting for one session, split by direction.

    `*_protocol_bits` count the semantic content of the 2k+1 protocol
    messages (the quantities the communication formula charges); frame
    headers, byte-alignment padding, and the decision echo are overhead.
    """

    sent_frames: int = 0
    recv_frames: int = 0
    sent_protocol_bits: int = 0
    recv_protocol_bits: int = 0
    sent_payload_bytes: int = 0
    recv_payload_bytes: int = 0
    overhead_bytes: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SessionResult:
    decision: int
    transcript: Transcript
    counters: SessionCounters
    frame_bytes: bytes


class _FrameLink:
    """Orders a session end's frames and keeps the running byte tallies.

    `send` returns the frame for its end to yield; `recv` yields the (tag,
    payload cap) of the frame it reads and is sent that frame whole.
    """

    def __init__(self):
        self.counters = SessionCounters()
        self.log = bytearray()

    def send(self, tag: int, payload: bytes, protocol_bits: int | None) -> bytes:
        frame = encode_frame(tag, payload)
        self.log += frame
        self.counters.sent_frames += 1
        if protocol_bits is None:
            self.counters.overhead_bytes += len(frame)
        else:
            self.counters.sent_protocol_bits += protocol_bits
            self.counters.sent_payload_bytes += len(payload)
            self.counters.overhead_bytes += FRAME_HEADER_BYTES
        return frame

    def recv(self, expected_tag: int | None, max_payload: int, is_protocol: bool = False):
        frame = yield expected_tag, max_payload
        self.log += frame
        self.counters.recv_frames += 1
        payload = frame[FRAME_HEADER_BYTES:]
        if is_protocol:
            self.counters.recv_payload_bytes += len(payload)
            self.counters.overhead_bytes += FRAME_HEADER_BYTES
        else:
            self.counters.overhead_bytes += len(frame)
        return payload


def _recv_challenge(link: _FrameLink, nbits: int):
    payload = yield from link.recv(TAG_CHALLENGE, (nbits + 7) // 8, is_protocol=True)
    link.counters.recv_protocol_bits += nbits
    return _decoded("challenge", decode_challenge, payload, nbits)


def _read_rounds(link: _FrameLink, params: ArgParams, protocol: IopProtocol, prng: Prng | None):
    """Read the k commitment/challenge pairs and the final response, each
    frame capped by its exact maximum: the verifier's round reader.

    A live verifier draws each challenge from `prng` and sends it; a
    stored transcript (`prng` None) reads the challenge's frame.
    """
    commitments = []
    challenges = []
    for nbits in protocol.spec.randomness_bits:
        payload = yield from link.recv(TAG_COMMIT, COMMITMENT_WIRE_BYTES, is_protocol=True)
        commitments.append(_decoded("commitment", decode_commitment, payload))
        link.counters.recv_protocol_bits += COMMITMENT_WIRE_BITS
        if prng is None:
            challenges.append((yield from _recv_challenge(link, nbits)))
        else:
            # Public coin: the challenge is read straight off the stream,
            # before anything of the commitment is interpreted.
            challenges.append(prng.take_bits(nbits))
            yield link.send(TAG_CHALLENGE, encode_challenge(challenges[-1], nbits), nbits)
    payload = yield from link.recv(TAG_FINAL, final_response_max_bytes(params), is_protocol=True)
    lengths = [cm.length for cm in commitments]
    response = _decoded(
        "final response", lambda p: decode_final_response(params, lengths, p), payload
    )
    link.counters.recv_protocol_bits += final_response_bits(params, response)
    return Transcript(protocol.instance, tuple(commitments), tuple(challenges), response)


def _session_end(role: str, params: ArgParams, protocol: IopProtocol, prover, prng):
    """One end of an argument session, as a generator (see the module
    docstring); it returns the end's SessionResult."""
    link = _FrameLink()
    if role == "prover":
        if prover is None:
            raise ProtocolViolation("prover role requires a session prover")
        state = prover.start()
        commitments = []
        challenges: list[int] = []
        for nbits in protocol.spec.randomness_bits:
            cm, state = prover.next_commitment(state, challenges[-1] if challenges else None)
            commitments.append(cm)
            yield link.send(TAG_COMMIT, encode_commitment(cm), COMMITMENT_WIRE_BITS)
            challenges.append((yield from _recv_challenge(link, nbits)))
        response = prover.final_response(state, protocol.verifier_query(challenges))
        if response is None:
            raise ProtocolViolation("prover aborted instead of opening")
        yield link.send(
            TAG_FINAL,
            encode_final_response(params, response),
            final_response_bits(params, response),
        )
        transcript = Transcript(
            protocol.instance, tuple(commitments), tuple(challenges), tuple(response)
        )
        decision_payload = yield from link.recv(TAG_DECISION, 1)
        if decision_payload not in (b"\x00", b"\x01"):
            raise ProtocolViolation(
                f"decision frame must carry one byte, 0 or 1; got {decision_payload.hex()!r}"
            )
        decision = decision_payload[0]
    elif role == "verifier":
        if prng is None:
            raise ProtocolViolation("verifier role requires a challenge stream")
        transcript = yield from _read_rounds(link, params, protocol, prng)
        decision = arg_verify(params, protocol, transcript)
        yield link.send(TAG_DECISION, bytes([decision]), None)
    else:
        raise ProtocolViolation(f"unknown session role {role!r}")
    return SessionResult(decision, transcript, link.counters, bytes(link.log))


def _drive(end, channel):
    """Run a generator `end` to its return value over `channel`: send each
    frame it yields, and hand it each frame it asks for, read off `channel`.
    A refused frame is a DecodeError at its file offset when `channel` is
    a stored transcript's cursor, else a ProtocolViolation."""
    try:
        step = next(end)
        while True:
            if type(step) is bytes:
                channel.send_bytes(step)
                step = next(end)
            else:
                step = end.send(_recv_frame(channel, *step))
    except StopIteration as stop:
        return stop.value
    except _Refusal as refusal:
        if isinstance(channel, _ByteCursor):
            raise DecodeError(str(refusal), channel.offset - refusal.back) from refusal.__cause__
        raise ProtocolViolation(str(refusal)) from refusal.__cause__


def run_session(
    role: str,
    channel,
    params: ArgParams,
    protocol: IopProtocol,
    *,
    prover=None,
    prng: Prng | None = None,
) -> SessionResult:
    """Drive one argument session end to end over `channel`.

    The prover role needs a session prover (honest or scripted); the
    verifier role needs the challenge stream. Both ends return the
    decision, their transcript view, and exact wire counters. Any
    unexpected frame aborts with ProtocolViolation before a decision is
    reached: a reordered or malformed session can never accept.
    """
    return _drive(_session_end(role, params, protocol, prover, prng), channel)


def memory_session(params: ArgParams, protocol: IopProtocol, prover, prng: Prng):
    """One in-process session in the calling thread: (prover, verifier) results.

    The ends alternate strictly, one frame each way: each frame one end
    yields is checked against the other end's ask (`_check_header`) and
    handed to it as it is, and the sender then steps on to its next ask.
    An error of either end is raised where it happens.
    """
    ends = [
        _session_end("prover", params, protocol, prover, None),
        _session_end("verifier", params, protocol, None, prng),
    ]
    # The prover's first step is its first commitment, the verifier's its ask for it.
    steps = [next(end) for end in ends]
    results = [None, None]
    sender = 0
    try:
        # The prover reads last: the decision.
        while results[0] is None:
            reader, frame = sender ^ 1, steps[sender]
            _check_header(frame, *steps[reader])
            for i, value in ((reader, frame), (sender, None)):
                try:
                    steps[i] = ends[i].send(value)
                except StopIteration as stop:
                    results[i] = stop.value
            sender = reader
    except _Refusal as refusal:
        raise ProtocolViolation(str(refusal)) from refusal.__cause__
    return tuple(results)


# ---------------------------------------------------------------------------
# setup handshake and transcript files
# ---------------------------------------------------------------------------


def send_public_setup(channel, params: ArgParams, instance):
    for tag, payload in (
        (TAG_PARAMS, encode_params(params)),
        (TAG_INSTANCE, encode_instance(instance)),
    ):
        channel.send_bytes(encode_frame(tag, payload))


# Largest instance frame a verifier reads when it has no instance of its
# own to size the read: the peer's bound field allows up to 4 GiB.
INSTANCE_MAX_BYTES = 1 << 24


def _read_setup(own: ArgParams | None):
    """Read the parameter frame, then an instance frame of at most
    min(the peer's bound, `INSTANCE_MAX_BYTES`) bytes, or with `own` its
    bound; returns (bound, vc_params, instance).

    A verifier that holds the instance passes `own`, the parameters it
    derives for that instance: the parameter payload must then equal
    `encode_params(own)` byte for byte, or a ParameterError is raised
    before the instance frame is read, and the instance frame is read up
    to own's bound, its instance's encoding length, so a peer's length
    field never sizes its memory past what the verifier expects.
    """
    payload = (yield TAG_PARAMS, _PARAMS_MAX_BYTES)[FRAME_HEADER_BYTES:]
    bound, vc_params = _decoded("parameters", decode_params_fields, payload)
    if own is not None and payload != (expected := encode_params(own)):
        at = next(
            (j for j, (x, y) in enumerate(zip(payload, expected)) if x != y),
            min(len(payload), len(expected)),
        )
        raise ParameterError(
            f"parameters differ from the verifier's own at payload byte {at}: "
            f"instance bound {bound}, lambda={vc_params.security_bits} proposed; "
            f"instance bound {own.instance_bound}, lambda={own.vc.security_bits} expected"
        )
    cap = bound if own is not None else min(bound, INSTANCE_MAX_BYTES)
    payload = (yield TAG_INSTANCE, cap)[FRAME_HEADER_BYTES:]
    return bound, vc_params, _decoded("instance", decode_instance, payload)


def recv_public_setup(channel, own: ArgParams | None = None) -> tuple[int, VcParams, Any]:
    """The setup frames read off `channel` by `_read_setup`: (bound,
    vc_params, instance)."""
    return _drive(_read_setup(own), channel)


def verifier_setup(bound: int, vc_params: VcParams, instance) -> tuple[ArgParams, IopProtocol]:
    """The argument parameters and protocol of a proposed public setup.

    The parameters must be exactly those `arg_setup` derives for the
    instance at the proposed security level and bound.
    """
    protocol = protocol_for_instance(instance)
    params = arg_setup(vc_params.security_bits, bound, protocol.spec)
    if params.vc != vc_params:
        raise ParameterError("peer parameters do not match the derived parameters")
    return params, protocol


def protocol_frames(params: ArgParams, transcript: Transcript) -> bytes:
    """The 2k+1 protocol frames of a transcript, in the mandated order."""
    out = bytearray()
    widths = params.iop_spec.randomness_bits
    for cm, r, nbits in zip(transcript.commitments, transcript.challenges, widths, strict=True):
        out += encode_frame(TAG_COMMIT, encode_commitment(cm))
        out += encode_frame(TAG_CHALLENGE, encode_challenge(r, nbits))
    out += encode_frame(TAG_FINAL, encode_final_response(params, transcript.response))
    return bytes(out)


def serialize_transcript(params: ArgParams, transcript: Transcript) -> bytes:
    return (
        TRANSCRIPT_MAGIC
        + encode_frame(TAG_PARAMS, encode_params(params))
        + encode_frame(TAG_INSTANCE, encode_instance(transcript.instance))
        + protocol_frames(params, transcript)
    )


def parse_transcript(
    data: bytes, own: ArgParams | None = None
) -> tuple[ArgParams, IopProtocol, Transcript]:
    """Read a stored transcript with the live verifier's setup, frame and
    round readers, the setup checked against `own` as a live one is
    (`_read_setup`); a malformed file raises DecodeError naming its
    offset."""
    if not data.startswith(TRANSCRIPT_MAGIC):
        raise DecodeError("not a transcript file (bad magic)", offset=0)
    cursor = _ByteCursor(data, len(TRANSCRIPT_MAGIC))
    params, protocol = verifier_setup(*recv_public_setup(cursor, own=own))
    transcript = _drive(_read_rounds(_FrameLink(), params, protocol, None), cursor)
    if cursor.offset != len(data):
        raise DecodeError("trailing bytes after transcript", offset=cursor.offset)
    return params, protocol, transcript
