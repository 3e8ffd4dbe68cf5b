"""Bit-exact wire protocol: framing, payload codecs, channels, sessions.

Frame layout: 4-byte big-endian payload length, 1-byte tag, payload.
Tags: 0x01 commitment, 0x02 challenge, 0x03 final response, 0x04 decision,
0x10 instance, 0x11 public parameters.

Payload conventions are big-endian throughout; bit fields are packed MSB
first with the final partial byte zero-padded. The final-response payload
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

Each session end is a generator: it yields the (tag, payload cap) of each
frame it reads, is sent that frame whole, and sends its own frames itself.
Three drivers run the same ends. `run_session` reads their frames off a
channel: a TCP socket, or a memory channel whose peer runs in another
thread. `memory_session` steps the verifier end and the prover end in
turn in the calling thread; the exchange alternates strictly, so every
read finds its frame already queued. `parse_transcript` drives the
verifier's round reader over a stored transcript, after the live
verifier's setup check, through a byte cursor.

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
import struct
from dataclasses import dataclass
from typing import Any

from .errors import (
    DecodeError,
    IbcsError,
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
from .prng import Bits, Prng
from .toys import (
    GraphColoringInstance,
    SumcheckInstance,
    gc_pcp,
    sumcheck_iop,
    table_entries,
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


def _violation(channel, message: str, back: int) -> IbcsError:
    """A ProtocolViolation on a live channel; on a stored transcript, a
    DecodeError naming the offset `back` bytes before the cursor."""
    if isinstance(channel, _ByteCursor):
        return DecodeError(message, offset=channel.offset - back)
    return ProtocolViolation(message)


def _recv_frame(channel, expected_tag: int | None, max_payload: int) -> bytes:
    """Read one whole frame, header and payload, off a channel or a cursor.

    The tag (any known tag when `expected_tag` is None) and the declared
    length are checked before any payload byte is read, so a length field
    never sizes a read past `max_payload`.
    """
    header = channel.recv_exact(FRAME_HEADER_BYTES)
    length = int.from_bytes(header[:4], "big")
    tag = header[4]
    if expected_tag is None:
        if tag not in _KNOWN_TAGS:
            raise _violation(channel, f"unknown frame tag {tag:#x}", back=1)
    elif tag != expected_tag:
        raise _violation(
            channel, f"expected frame tag {expected_tag:#x}, received {tag:#x}", back=1
        )
    if length > max_payload:
        raise _violation(
            channel,
            f"frame tag {tag:#x} declares {length} payload bytes, at most {max_payload} allowed",
            back=FRAME_HEADER_BYTES,
        )
    return header + channel.recv_exact(length) if length else header


def decode_frame(data: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """Decode one frame of any known tag at `offset`; returns (tag, payload, next offset)."""
    cursor = _ByteCursor(data, offset)
    frame = _recv_frame(cursor, None, len(data))
    return frame[4], frame[FRAME_HEADER_BYTES:], cursor.offset


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


def encode_challenge(bits: Bits) -> bytes:
    return bits.to_bytes()


def decode_challenge(payload: bytes, nbits: int) -> Bits:
    return Bits.from_bytes(payload, nbits)


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


_GC_KIND = 0x01
_SC_KIND = 0x02


def encode_instance(instance) -> bytes:
    if isinstance(instance, GraphColoringInstance):
        body = [instance.vertex_count.to_bytes(4, "big"), len(instance.edges).to_bytes(4, "big")]
        body += [u.to_bytes(4, "big") + v.to_bytes(4, "big") for u, v in instance.edges]
        return bytes([_GC_KIND]) + b"".join(body)
    if isinstance(instance, SumcheckInstance):
        body = [
            instance.prime.to_bytes(8, "big"),
            instance.variables.to_bytes(2, "big"),
            instance.degree.to_bytes(2, "big"),
            instance.claimed_sum.to_bytes(8, "big"),
        ]
        body += [c.to_bytes(8, "big") for c in instance.coefficients]
        return bytes([_SC_KIND]) + b"".join(body)
    raise ProtocolViolation(f"cannot encode instance of type {type(instance)!r}")


def decode_instance(payload: bytes):
    """The instance a payload encodes. A payload that is malformed, or that
    decodes into an instance its constructor refuses (a self-loop, a
    duplicate edge, a composite prime), raises DecodeError with no offset:
    the payload fails as a whole."""
    if not payload:
        raise DecodeError("empty instance payload")
    kind, body = payload[0], payload[1:]
    if kind == _GC_KIND:
        if len(body) < 8:
            raise DecodeError("truncated graph instance")
        n = int.from_bytes(body[0:4], "big")
        m = int.from_bytes(body[4:8], "big")
        if len(body) != 8 + 8 * m:
            raise DecodeError("graph instance length mismatch")
        edges = tuple(struct.iter_unpack(">II", body[8:]))
        make, fields = GraphColoringInstance, (n, edges)
    elif kind == _SC_KIND:
        if len(body) < 20:
            raise DecodeError("truncated sumcheck instance")
        p = int.from_bytes(body[0:8], "big")
        n = int.from_bytes(body[8:10], "big")
        d = int.from_bytes(body[10:12], "big")
        s = int.from_bytes(body[12:20], "big")
        count = table_entries(n, d, (len(body) - 20) // 8)
        if count is None or len(body) != 20 + 8 * count:
            raise DecodeError("sumcheck instance length mismatch")
        coeffs = tuple(
            int.from_bytes(body[20 + 8 * j : 28 + 8 * j], "big") for j in range(count)
        )
        make, fields = SumcheckInstance, (p, n, d, coeffs, s)
    else:
        raise DecodeError(f"unknown instance kind {kind:#x}")
    try:
        return make(*fields)
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
    `Condition`s per queue and counts unfinished tasks on every put. The
    handoff serves callers that run the two ends in threads, such as a
    benchmark driver or a test; `memory_session` queues every frame before
    it is read, so its reads never wait.
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

    It sends over `channel`; `recv` yields the (tag, payload cap) of the
    frame it reads to the end's driver and is sent that frame whole.
    """

    def __init__(self, channel):
        self.channel = channel
        self.counters = SessionCounters()
        self.log = bytearray()

    def send(self, tag: int, payload: bytes, protocol_bits: int | None):
        frame = encode_frame(tag, payload)
        self.channel.send_bytes(frame)
        self.log += frame
        self.counters.sent_frames += 1
        if protocol_bits is None:
            self.counters.overhead_bytes += len(frame)
        else:
            self.counters.sent_protocol_bits += protocol_bits
            self.counters.sent_payload_bytes += len(payload)
            self.counters.overhead_bytes += FRAME_HEADER_BYTES

    def recv(self, expected_tag: int, max_payload: int, is_protocol: bool = False):
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


def _undecodable(channel, what: str, payload: bytes, exc: DecodeError) -> IbcsError:
    """The error for a payload just read that does not decode.

    Decoders name offsets within their payload, or none when the payload
    fails as a whole; a stored transcript's error names one file offset,
    the payload's start plus the decoder's offset.
    """
    back = len(payload) - (exc.offset or 0)
    return _violation(channel, f"undecodable {what}: {exc.reason}", back)


def _recv_challenge(link: _FrameLink, nbits: int):
    payload = yield from link.recv(TAG_CHALLENGE, (nbits + 7) // 8, is_protocol=True)
    link.counters.recv_protocol_bits += nbits
    try:
        return decode_challenge(payload, nbits)
    except DecodeError as exc:
        raise _undecodable(link.channel, "challenge", payload, exc) from exc


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
        try:
            commitments.append(decode_commitment(payload))
        except DecodeError as exc:
            raise _undecodable(link.channel, "commitment", payload, exc) from exc
        link.counters.recv_protocol_bits += COMMITMENT_WIRE_BITS
        if prng is None:
            challenges.append((yield from _recv_challenge(link, nbits)))
        else:
            # Public coin: the challenge is read straight off the stream,
            # before anything of the commitment is interpreted.
            challenges.append(prng.take_bits(nbits))
            link.send(TAG_CHALLENGE, encode_challenge(challenges[-1]), nbits)
    payload = yield from link.recv(TAG_FINAL, final_response_max_bytes(params), is_protocol=True)
    try:
        response = decode_final_response(params, [cm.length for cm in commitments], payload)
    except DecodeError as exc:
        raise _undecodable(link.channel, "final response", payload, exc) from exc
    link.counters.recv_protocol_bits += final_response_bits(params, response)
    return Transcript(protocol.instance, tuple(commitments), tuple(challenges), response)


def _session_end(role: str, channel, params: ArgParams, protocol: IopProtocol, prover, prng):
    """One end of an argument session, as a generator (see the module
    docstring); it returns the end's SessionResult."""
    link = _FrameLink(channel)
    if role == "prover":
        if prover is None:
            raise ProtocolViolation("prover role requires a session prover")
        state = prover.start()
        commitments = []
        challenges: list[Bits] = []
        for nbits in protocol.spec.randomness_bits:
            cm, state = prover.next_commitment(state, challenges[-1] if challenges else None)
            commitments.append(cm)
            link.send(TAG_COMMIT, encode_commitment(cm), COMMITMENT_WIRE_BITS)
            challenges.append((yield from _recv_challenge(link, nbits)))
        response = prover.final_response(state, protocol.verifier_query(challenges))
        if response is None:
            raise ProtocolViolation("prover aborted instead of opening")
        link.send(
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
        link.send(TAG_DECISION, bytes([decision]), None)
    else:
        raise ProtocolViolation(f"unknown session role {role!r}")
    return SessionResult(decision, transcript, link.counters, bytes(link.log))


def _drive(end, channel):
    """Run a session end to its return value, reading each frame it asks
    for off `channel` (a live channel or a byte cursor)."""
    try:
        asked = next(end)
        while True:
            asked = end.send(_recv_frame(channel, *asked))
    except StopIteration as stop:
        return stop.value


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
    return _drive(_session_end(role, channel, params, protocol, prover, prng), channel)


def memory_session(params: ArgParams, protocol: IopProtocol, prover, prng: Prng):
    """One in-process session in the calling thread: (prover, verifier) results.

    The verifier end and the prover end step in turn, each up to its next
    read, whose frame the other end has just queued; an error of either
    end is raised where it happens.
    """
    channels = memory_channel_pair()
    ends = [
        _session_end("prover", channels[0], params, protocol, prover, None),
        _session_end("verifier", channels[1], params, protocol, None, prng),
    ]
    asked = [next(end) for end in ends]
    results = [None, None]
    turn = 1
    # The prover commits first and reads last: the decision.
    while results[0] is None:
        try:
            asked[turn] = ends[turn].send(_recv_frame(channels[turn], *asked[turn]))
        except StopIteration as stop:
            results[turn] = stop.value
        turn ^= 1
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


def recv_public_setup(
    channel, max_instance_bytes: int = INSTANCE_MAX_BYTES, own: ArgParams | None = None
) -> tuple[int, VcParams, Any]:
    """Read the parameter frame, then an instance frame of at most
    min(the peer's bound, `max_instance_bytes`) bytes.

    A verifier that holds the instance passes its encoding's length, so a
    peer's length field never sizes its memory past what it expects, and
    `own`, the parameters it derives for that instance: the peer's
    parameter payload must then equal `encode_params(own)` byte for byte,
    or a ParameterError is raised before the instance frame is read.
    """
    payload = _recv_frame(channel, TAG_PARAMS, _PARAMS_MAX_BYTES)[FRAME_HEADER_BYTES:]
    try:
        bound, vc_params = decode_params_fields(payload)
    except DecodeError as exc:
        raise _undecodable(channel, "parameters", payload, exc) from exc
    if own is not None and payload != (expected := encode_params(own)):
        at = next(
            (j for j, (x, y) in enumerate(zip(payload, expected)) if x != y),
            min(len(payload), len(expected)),
        )
        raise ParameterError(
            f"peer parameters differ from the verifier's own at payload byte {at}: "
            f"instance bound {bound}, lambda={vc_params.security_bits} proposed; "
            f"instance bound {own.instance_bound}, lambda={own.vc.security_bits} expected"
        )
    payload = _recv_frame(channel, TAG_INSTANCE, min(bound, max_instance_bytes))[FRAME_HEADER_BYTES:]
    try:
        instance = decode_instance(payload)
    except DecodeError as exc:
        raise _undecodable(channel, "instance", payload, exc) from exc
    return bound, vc_params, instance


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
    for cm, r in zip(transcript.commitments, transcript.challenges):
        out += encode_frame(TAG_COMMIT, encode_commitment(cm))
        out += encode_frame(TAG_CHALLENGE, encode_challenge(r))
    out += encode_frame(TAG_FINAL, encode_final_response(params, transcript.response))
    return bytes(out)


def serialize_transcript(params: ArgParams, transcript: Transcript) -> bytes:
    return (
        TRANSCRIPT_MAGIC
        + encode_frame(TAG_PARAMS, encode_params(params))
        + encode_frame(TAG_INSTANCE, encode_instance(transcript.instance))
        + protocol_frames(params, transcript)
    )


def parse_transcript(data: bytes) -> tuple[ArgParams, IopProtocol, Transcript]:
    """Read a stored transcript with the live verifier's setup, frame and
    round readers; a malformed file raises DecodeError naming its offset."""
    if not data.startswith(TRANSCRIPT_MAGIC):
        raise DecodeError("not a transcript file (bad magic)", offset=0)
    cursor = _ByteCursor(data, len(TRANSCRIPT_MAGIC))
    params, protocol = verifier_setup(*recv_public_setup(cursor))
    transcript = _drive(_read_rounds(_FrameLink(cursor), params, protocol, None), cursor)
    if cursor.offset != len(data):
        raise DecodeError("trailing bytes after transcript", offset=cursor.offset)
    return params, protocol, transcript
