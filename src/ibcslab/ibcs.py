"""Commit-and-open compiler from a public-coin IOP to a succinct argument.

Per round the prover commits to its proof string (padded to the longest
round length with the reserved symbol), the verifier answers with fresh
randomness, and after the last challenge the prover opens exactly the
positions the IOP verifier queries. The argument verifier accepts iff the
IOP decision accepts on the opened answers, every opening verifies against
its commitment, and opened padding positions carry the reserved symbol.

`ArgumentProver` is that compilation, written once: it turns any IOP
prover (an object with `first()` and `next_round(state, challenge)`, each
returning a `ProofString` and the next state) into a session prover with
`start()`, `next_commitment(state, challenge)` and `final_response(state,
plan)`. The honest prover compiles `iop.HonestIopProver`; the scripted
adversaries compile their strategies. The caller that drew the challenges
owns `plan`, the `verifier_query` result for the full challenge vector,
and the prover only opens it.

The rewind contract: prover states are values. Each call returns a new
state and never changes the one it was given, so a rewind reuses a state
as it is, and the rewinding lab keys a rewind by the state itself. A value
is built only of ints, bools, strs, bytes and None, in tuples, frozensets
and frozen dataclasses that compare every field (`adversaries.rewind_point`
is the rule); the lab refuses any other state with a TypeError before it
rewinds from it. The library's provers build values.

Each prover commits through its own `CommitMemo`, a `memo.BoundedMemo`
that lives as long as the prover object: one session for the CLI's and the
benchmark's session provers, which are built per session, and one report
for the adversaries the CLI builds per report, whose trials and rewinds
commit the same padded strings again and again. A memo holds at most
`COMMIT_MEMO_ENTRIES` commitments and at most `COMMIT_MEMO_BYTES` of
commitment trees, counted as 2 * width digests per tree (512 KiB at width
8192). Its openings go through an `OpeningMemo` of the same lifetime, so a
(commitment tree, query set) pair that the trials and rewinds open again
is opened once; it holds at most `OPENING_MEMO_ENTRIES` openings and
`OPENING_MEMO_BYTES`, counting each entry as the tree it keeps alive plus
its proof digests.

A session prover may also declare a view: `view(randomness)` returns the
hashable part of a raw challenge vector (r_1, ..., r_k), of the spec's
widths, that its behaviour reads. Two vectors with equal views must make
the prover, started from the same state, send the same commitments and
the same openings for their plans, and must map to the same structured
challenges, which is all the verifier reads of them. The rewinding lab in
`extraction` relies on that to run each (rewind point, view) once. A
prover that declares a view keeps its outcomes in `outcomes`, a
`memo.BoundedMemo` built with the prover and bounded by
`OUTCOME_MEMO_ENTRIES` entries and `OUTCOME_MEMO_BYTES` bytes. A prover
without a view has `view = None` and is never replayed. `ArgumentProver`
declares `structured_view(protocol)`, the vector of structured challenges,
when it compiles the honest prover, which reads each challenge only
through `map_to_range` onto its round's challenge space; a compiled
strategy declares a view only when its caller passes one, since a
strategy is handed the raw bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .errors import ParameterError, ProtocolViolation
from .iop import HonestIopProver, IopProtocol, IopSpec, QueryPlan
from .memo import BoundedMemo
from .prng import Bits
from .vc import (
    Commitment,
    CommitAux,
    Opening,
    VcParams,
    vc_commit,
    vc_gen,
    vc_open,
)
from . import vc as _vc

PAD_SYMBOL = 0

# Wire size of a commitment: 32-byte root plus 4-byte committed length.
COMMITMENT_WIRE_BYTES = _vc.DIGEST_BYTES + 4
COMMITMENT_WIRE_BITS = 8 * COMMITMENT_WIRE_BYTES
DIGEST_BITS = 8 * _vc.DIGEST_BYTES

FinalResponse = tuple  # tuple[Opening, ...], one opening per round


@dataclass(frozen=True)
class ArgParams:
    vc: VcParams
    instance_bound: int
    iop_spec: IopSpec

    def __post_init__(self):
        if self.instance_bound < 1:
            raise ParameterError("instance size bound must be at least 1")
        if self.vc.capacity != self.iop_spec.max_proof_length:
            raise ParameterError("commitment capacity must equal the longest round")
        if self.vc.symbol_bits != self.iop_spec.symbol_bits:
            raise ParameterError("commitment symbol width must match the alphabet")


def arg_setup(security_bits: int, instance_bound: int, iop_spec: IopSpec) -> ArgParams:
    """One commitment parameter set sized for the longest round."""
    params = vc_gen(
        security_bits, capacity=iop_spec.max_proof_length, symbol_bits=iop_spec.symbol_bits
    )
    return ArgParams(vc=params, instance_bound=instance_bound, iop_spec=iop_spec)


def pad_proof_string(spec: IopSpec, symbols: Sequence[int]) -> tuple[int, ...]:
    return tuple(symbols) + (PAD_SYMBOL,) * (spec.max_proof_length - len(symbols))


@dataclass(frozen=True)
class Transcript:
    instance: Any
    commitments: tuple[Commitment, ...]
    challenges: tuple[Bits, ...]
    response: tuple[Opening, ...]

    @property
    def rounds(self) -> int:
        return len(self.commitments)

    @property
    def message_count(self) -> int:
        # k commitments, k challenges, one batched final response.
        return 2 * self.rounds + 1


# Bounds of one prover's commit memo: entries, and bytes of commitment trees.
COMMIT_MEMO_ENTRIES = 64
COMMIT_MEMO_BYTES = 4 << 20
# Bounds of one prover's opening memo: entries, and bytes of the commitment
# trees its entries keep plus their proof digests.
OPENING_MEMO_ENTRIES = 64
OPENING_MEMO_BYTES = 4 << 20
# Bounds of one prover's memo of rewind and trial outcomes, `outcomes`:
# entries, and bytes as `extraction` weighs an outcome.
OUTCOME_MEMO_ENTRIES = 1 << 12
OUTCOME_MEMO_BYTES = 1 << 20


class CommitMemo(BoundedMemo):
    """One prover's commitments, keyed by the padded message it committed.

    A hit returns the very (commitment, aux) pair of the first commit; a
    parameter set whose single tree exceeds the byte bound is never cached.
    Misses call the module's `vc_commit`, looked up at call time. The
    message is hashed once per commit.
    """

    def __init__(self, params: VcParams):
        super().__init__(COMMIT_MEMO_ENTRIES, COMMIT_MEMO_BYTES)
        self.params = params
        self.entry_bytes = 2 * params.width * _vc.DIGEST_BYTES

    def commit(self, message: tuple[int, ...]) -> tuple[Commitment, CommitAux]:
        h = hash(message)
        pair = self.get(h, message)
        if pair is None:
            pair = vc_commit(self.params, message)
            self.put(h, message, pair, self.entry_bytes)
        return pair


class OpeningMemo(BoundedMemo):
    """One prover's openings, keyed by (commitment tree, queried positions).

    The key holds the tree by identity, so a lookup hashes the q positions,
    not the width-sized tree; each entry keeps its tree, so that identity
    cannot pass to another tree while the entry lives. Misses call the
    module's `vc_open`, looked up at call time.
    """

    def __init__(self, params: VcParams):
        super().__init__(OPENING_MEMO_ENTRIES, OPENING_MEMO_BYTES)
        self.params = params
        self.tree_bytes = 2 * params.width * _vc.DIGEST_BYTES

    def open(self, aux: CommitAux, positions: Sequence[int]) -> Opening:
        key = (id(aux), tuple(positions))
        h = hash(key)
        entry = self.get(h, key)
        if entry is None:
            entry = (aux, vc_open(self.params, aux, key[1]))
            self.put(h, key, entry, self.tree_bytes + _vc.DIGEST_BYTES * len(entry[1].proof))
        return entry[1]


@dataclass(frozen=True)
class _ProverState:
    next_round: int
    iop_state: Any
    auxes: tuple[CommitAux, ...]


def structured_view(protocol: IopProtocol):
    """The view of a prover that reads each challenge only as its structured
    value: the vector of `map_to_range(r_i, challenge_space(i))`.

    Bits of the spec's widths always have the slack `map_to_range` checks
    for, so the view reduces them without that check.
    """
    spaces = tuple(protocol.challenge_space(i) for i in range(1, protocol.spec.rounds + 1))

    def view(randomness: Sequence[Bits]) -> tuple[int, ...]:
        structured = ()
        for bits, m in zip(randomness, spaces):
            structured += (bits.value % m,)
        return structured

    return view


class ArgumentProver:
    """The compiled prover: commit to each round's string, then open the plan.

    It compiles `iop_prover`, by default the protocol's honest prover on
    `witness`, whose view is `structured_view(protocol)`; a caller that
    passes its own `iop_prover` passes its `view`, if it has one. Every
    compiled prover gets the same checks: the parameters fit the protocol's
    shape, a challenge arrives exactly from round 2 on, and each round's
    string has the round's length l_i.
    """

    def __init__(
        self, protocol: IopProtocol, params: ArgParams, witness=None, *, iop_prover=None, view=None
    ):
        if params.iop_spec != protocol.spec:
            raise ParameterError("parameters were generated for a different IOP shape")
        if iop_prover is None:
            iop_prover, view = HonestIopProver(protocol, witness), structured_view(protocol)
        self.protocol = protocol
        self.params = params
        self.iop_prover = iop_prover
        self.view = view
        self.commits = CommitMemo(params.vc)
        self.openings = OpeningMemo(params.vc)
        self.outcomes = BoundedMemo(OUTCOME_MEMO_ENTRIES, OUTCOME_MEMO_BYTES)

    def start(self) -> _ProverState:
        return _ProverState(1, None, ())

    def next_commitment(self, state: _ProverState, challenge: Bits | None):
        spec = self.protocol.spec
        i = state.next_round
        if i > spec.rounds:
            raise ProtocolViolation("all commitment rounds already sent")
        if (challenge is None) != (i == 1):
            raise ProtocolViolation("challenge expected exactly from round 2 on")
        if i == 1:
            proof, iop_state = self.iop_prover.first()
        else:
            proof, iop_state = self.iop_prover.next_round(state.iop_state, challenge)
        if len(proof.symbols) != spec.proof_lengths[i - 1]:
            raise ProtocolViolation(
                f"round {i} string has length {len(proof.symbols)}, "
                f"expected {spec.proof_lengths[i - 1]}"
            )
        cm, aux = self.commits.commit(pad_proof_string(spec, proof.symbols))
        return cm, _ProverState(i + 1, iop_state, state.auxes + (aux,))

    def final_response(self, state: _ProverState, plan: QueryPlan):
        spec = self.protocol.spec
        if state.next_round != spec.rounds + 1:
            raise ProtocolViolation("final response requested before all commitments")
        return tuple(
            self.openings.open(state.auxes[i], plan.per_round[i]) for i in range(spec.rounds)
        )


def check_openings(params: ArgParams, commitments, plan: QueryPlan, response, rounds) -> bool:
    """Commitment-side checks of the openings for the given 1-based rounds.

    Each commitment covers the full capacity, each opening answers exactly
    the planned positions, opened padding carries the reserved symbol, and
    the opening verifies against its commitment.
    """
    spec = params.iop_spec
    for j in rounds:
        cm = commitments[j - 1]
        opening = response[j - 1]
        if cm.length != params.vc.capacity:
            return False
        if opening.positions != plan.per_round[j - 1]:
            return False
        # Queried positions past the round's own length must open to the
        # padding symbol; the honest query function never emits them.
        for q, a in zip(opening.positions, opening.answers):
            if q > spec.proof_lengths[j - 1] and a != PAD_SYMBOL:
                return False
        if not _vc.vc_check(params.vc, cm, opening.positions, opening.answers, opening.proof):
            return False
    return True


def arg_verify(params: ArgParams, protocol: IopProtocol, transcript: Transcript) -> int:
    """1 iff the transcript is accepting; malformed shapes yield 0."""
    k = protocol.spec.rounds
    if transcript.instance != protocol.instance:
        return 0
    if len(transcript.commitments) != k or len(transcript.challenges) != k:
        return 0
    if len(transcript.response) != k:
        return 0
    try:
        plan = protocol.verifier_query(transcript.challenges)
    except ProtocolViolation:
        return 0
    response = transcript.response
    if not check_openings(params, transcript.commitments, plan, response, range(1, k + 1)):
        return 0
    return protocol.verifier_decide(plan, [opening.answers for opening in response])


def position_bits(proof_length: int) -> int:
    """Bits to index one position of a length-l round: ceil(log2 l)."""
    return (proof_length - 1).bit_length()


@dataclass(frozen=True)
class RoundCost:
    commitment_bits: int
    position_bits: int
    answer_bits: int
    proof_bits: int

    @property
    def prover_bits(self) -> int:
        return self.commitment_bits + self.position_bits + self.answer_bits + self.proof_bits


@dataclass(frozen=True)
class CommStats:
    """Exact per-direction protocol bit counts for one transcript."""

    rounds: tuple[RoundCost, ...]
    challenge_bits: tuple[int, ...]
    generator_bits: int

    @property
    def prover_to_verifier_bits(self) -> int:
        return sum(r.prover_bits for r in self.rounds)

    @property
    def verifier_to_prover_bits(self) -> int:
        return sum(self.challenge_bits)

    @property
    def message_count(self) -> int:
        return 2 * len(self.rounds) + 1

    def to_dict(self) -> dict:
        return {
            "prover_to_verifier_bits": self.prover_to_verifier_bits,
            "verifier_to_prover_bits": self.verifier_to_prover_bits,
            "generator_bits": self.generator_bits,
            "message_count": self.message_count,
            "challenge_bits": list(self.challenge_bits),
            "rounds": [
                {
                    "commitment_bits": r.commitment_bits,
                    "position_bits": r.position_bits,
                    "answer_bits": r.answer_bits,
                    "proof_bits": r.proof_bits,
                }
                for r in self.rounds
            ],
        }


def comm_stats(params: ArgParams, transcript: Transcript) -> CommStats:
    """Evaluate the communication formula on a transcript.

    Prover-to-verifier: sum over rounds of |cm_i| plus q_i times
    (ceil(log2 l_i) plus the symbol width) plus the opening proof digests.
    Verifier-to-prover: the challenge widths. The transport layer counts
    the same quantities on the wire; sessions assert they agree exactly.
    """
    spec = params.iop_spec
    rounds = []
    for i in range(spec.rounds):
        opening = transcript.response[i]
        q = spec.query_counts[i]
        rounds.append(
            RoundCost(
                commitment_bits=COMMITMENT_WIRE_BITS,
                position_bits=q * position_bits(spec.proof_lengths[i]),
                answer_bits=q * spec.symbol_bits,
                proof_bits=DIGEST_BITS * len(opening.proof),
            )
        )
    return CommStats(
        rounds=tuple(rounds),
        challenge_bits=tuple(bits.nbits for bits in transcript.challenges),
        generator_bits=8 * len(params.vc.to_bytes()),
    )
