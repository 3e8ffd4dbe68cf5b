from __future__ import annotations

import copy

import pytest

from ibcslab import ibcs
from ibcslab.errors import ParameterError, ProtocolViolation
from ibcslab.ibcs import (
    ArgumentProver,
    CommitMemo,
    PAD_SYMBOL,
    Transcript,
    arg_setup,
    arg_verify,
    comm_stats,
    pad_proof_string,
    position_bits,
)
from ibcslab.iop import IopProtocol, IopSpec, ProofString, QueryPlan
from ibcslab.prng import Bits, Prng, derive, seed_root
from ibcslab.toys import gc_pcp, sumcheck_iop
from ibcslab.vc import vc_commit, vc_open

from helpers import run_memory_session


class MixedLengthIop(IopProtocol):
    """Two rounds with l = (3, 5); fixed queries; accepts fixed strings."""

    def __init__(self):
        self.instance = "mixed"
        self.spec = IopSpec(
            rounds=2,
            alphabet_size=4,
            symbol_bits=2,
            proof_lengths=(3, 5),
            randomness_bits=(72, 72),
            query_counts=(2, 2),
            relation_id="mixed",
        )
        self.strings = ((1, 2, 3), (3, 1, 2, 1, 3))

    def prover_init(self, witness):
        return ProofString(1, self.strings[0]), 2

    def prover_next(self, state, challenge):
        return ProofString(2, self.strings[1]), 3

    def challenge_space(self, round_index):
        return 4

    def query_plan(self, structured):
        return QueryPlan(((1, 3), (2, 5)))

    def decide(self, structured, answers):
        return int(answers[0] == (1, 3) and answers[1] == (1, 3))

    def check_witness(self, witness):
        return True


class PaddingProbeIop(MixedLengthIop):
    """Round-1 query deliberately lands in the padding range (position > l_1).

    Models a malformed query function so the padding-symbol check in the
    argument verifier is exercised; the standard plan validation would
    reject such a plan, so it is disabled here.
    """

    def __init__(self):
        super().__init__()
        self.instance = "padding-probe"

    def query_plan(self, structured):
        return QueryPlan(((1, 4), (2, 5)))

    def decide(self, structured, answers):
        return 1

    def _validate_plan(self, plan):
        pass


def test_setup_capacity_is_longest_round():
    params = arg_setup(128, 10, MixedLengthIop().spec)
    assert params.vc.capacity == 5


def test_setup_capacity_single_round(k3):
    protocol = gc_pcp(k3)
    params = arg_setup(128, 4, protocol.spec)
    assert params.vc.capacity == 3


def test_setup_is_deterministic(k3):
    protocol = gc_pcp(k3)
    assert arg_setup(128, 4, protocol.spec) == arg_setup(128, 4, protocol.spec)


def test_padding_rule_fills_reserved_symbol():
    protocol = MixedLengthIop()
    assert pad_proof_string(protocol.spec, (1, 2, 3)) == (1, 2, 3, PAD_SYMBOL, PAD_SYMBOL)
    params = arg_setup(128, 8, protocol.spec)
    # no padding when l_i == l_max
    assert pad_proof_string(protocol.spec, protocol.strings[1]) == protocol.strings[1]
    prover = ArgumentProver(protocol, params, None)
    state = prover.start()
    for symbols, challenge in zip(protocol.strings, (None, Bits(72, 5))):
        cm, state = prover.next_commitment(state, challenge)
        assert cm == vc_commit(params.vc, pad_proof_string(protocol.spec, symbols))[0]


def test_commit_deterministic_under_snapshot(sumcheck_true):
    protocol = sumcheck_iop(sumcheck_true)
    params = arg_setup(128, 8, protocol.spec)
    prover = ArgumentProver(protocol, params, ())
    _, state = prover.next_commitment(prover.start(), None)
    snap = copy.deepcopy(state)
    challenge = Bits(72, 999)
    cm_a, _ = prover.next_commitment(state, challenge)
    cm_b, _ = prover.next_commitment(snap, challenge)
    assert cm_a == cm_b


def _honest_transcript(protocol, params, witness, seed=0):
    prover = ArgumentProver(protocol, params, witness)
    state = prover.start()
    prng = Prng(derive(seed_root(seed), "direct"))
    commitments = []
    challenges = []
    prev = None
    for i in range(protocol.spec.rounds):
        cm, state = prover.next_commitment(state, prev)
        commitments.append(cm)
        prev = prng.take_bits(protocol.spec.randomness_bits[i])
        challenges.append(prev)
    response = prover.final_response(state, protocol.verifier_query(challenges))
    return Transcript(
        instance=protocol.instance,
        commitments=tuple(commitments),
        challenges=tuple(challenges),
        response=response,
    )


def test_honest_transcript_verifies(k3_setup):
    protocol, params, witness = k3_setup
    for seed in range(25):
        transcript = _honest_transcript(protocol, params, witness, seed)
        assert arg_verify(params, protocol, transcript) == 1
        assert transcript.message_count == 2 * protocol.spec.rounds + 1
        # the opened answers are the witness colors at the challenged edge
        opening = transcript.response[0]
        assert opening.answers == tuple(witness[q - 1] for q in opening.positions)


def test_tampered_answer_rejected(k3_setup):
    protocol, params, witness = k3_setup
    transcript = _honest_transcript(protocol, params, witness, 3)
    opening = transcript.response[0]
    mutated = opening.__class__(
        positions=opening.positions,
        answers=((opening.answers[0] + 1) % 3, opening.answers[1]),
        proof=opening.proof,
    )
    bad = Transcript(
        instance=transcript.instance,
        commitments=transcript.commitments,
        challenges=transcript.challenges,
        response=(mutated,),
    )
    assert arg_verify(params, protocol, bad) == 0


def test_wrong_instance_rejected(k3_setup, k4):
    protocol, params, witness = k3_setup
    transcript = _honest_transcript(protocol, params, witness, 1)
    moved = Transcript(
        instance=k4,
        commitments=transcript.commitments,
        challenges=transcript.challenges,
        response=transcript.response,
    )
    assert arg_verify(params, protocol, moved) == 0


def test_padding_violation_rejected():
    protocol = PaddingProbeIop()
    params = arg_setup(128, 8, protocol.spec)
    prng = Prng(derive(seed_root(9), "padding"))
    challenges = [prng.take_bits(72), prng.take_bits(72)]

    def transcript_with_round1_padding(padding_symbol):
        full1 = (1, 2, 3, padding_symbol, 0)
        full2 = pad_proof_string(protocol.spec, protocol.strings[1])
        cm1, aux1 = vc_commit(params.vc, full1)
        cm2, aux2 = vc_commit(params.vc, full2)
        plan = protocol.verifier_query(challenges)
        return Transcript(
            instance=protocol.instance,
            commitments=(cm1, cm2),
            challenges=tuple(challenges),
            response=(
                vc_open(params.vc, aux1, plan.per_round[0]),
                vc_open(params.vc, aux2, plan.per_round[1]),
            ),
        )

    # honest padding at the queried padding position: accepted
    assert arg_verify(params, protocol, transcript_with_round1_padding(PAD_SYMBOL)) == 1
    # committed non-reserved symbol there: the opening verifies but the
    # padding rule rejects
    assert arg_verify(params, protocol, transcript_with_round1_padding(2)) == 0


def test_malformed_query_plan_is_rejected(k3_setup):
    protocol, params, witness = k3_setup

    class BadPlanProtocol(type(protocol)):
        def query_plan(self, structured):
            return QueryPlan(((1, 5),))  # position outside the proof string

    bad = BadPlanProtocol(protocol.instance)
    transcript = _honest_transcript(protocol, params, witness, 2)
    assert arg_verify(params, bad, transcript) == 0


def test_position_bits():
    assert position_bits(1) == 0
    assert position_bits(2) == 1
    assert position_bits(3) == 2
    assert position_bits(4) == 2
    assert position_bits(5) == 3


def test_comm_stats_formula(k3_setup):
    protocol, params, witness = k3_setup
    transcript = _honest_transcript(protocol, params, witness, 11)
    stats = comm_stats(params, transcript)
    spec = protocol.spec
    expected_p2v = 0
    for i in range(spec.rounds):
        expected_p2v += 288  # 36-byte commitment encoding
        expected_p2v += spec.query_counts[i] * (
            position_bits(spec.proof_lengths[i]) + spec.symbol_bits
        )
        expected_p2v += 256 * len(transcript.response[i].proof)
    assert stats.prover_to_verifier_bits == expected_p2v
    assert stats.verifier_to_prover_bits == sum(spec.randomness_bits)
    assert stats.message_count == 3


def test_comm_stats_matches_session_counters(k3_setup, sumcheck_true_setup):
    for protocol, params, witness in (
        (*k3_setup,),
        (*sumcheck_true_setup, ()),
    ):
        prover = ArgumentProver(protocol, params, witness)
        p_res, v_res = run_memory_session(protocol, params, prover, seed=13)
        stats = comm_stats(params, v_res.transcript)
        assert stats.prover_to_verifier_bits == v_res.counters.recv_protocol_bits
        assert stats.prover_to_verifier_bits == p_res.counters.sent_protocol_bits
        assert stats.verifier_to_prover_bits == v_res.counters.sent_protocol_bits
        assert stats.verifier_to_prover_bits == p_res.counters.recv_protocol_bits


def test_params_shape_validation(k3):
    protocol = gc_pcp(k3)
    other = MixedLengthIop()
    params = arg_setup(128, 4, protocol.spec)
    with pytest.raises(ParameterError):
        ArgumentProver(other, params, None)


def test_prover_state_machine(k3_setup):
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    state = prover.start()
    with pytest.raises(ProtocolViolation):
        prover.final_response(state, protocol.verifier_query([Bits(72, 0)]))
    cm, state = prover.next_commitment(state, None)
    with pytest.raises(ProtocolViolation):
        prover.next_commitment(state, Bits(72, 0))


def test_commit_memo_holds_its_entry_and_byte_bounds(k3_setup, monkeypatch):
    """A prover's memo has the module's bounds and counts a tree as 2 * width
    digests; a tree heavier than the byte bound is never kept."""
    _, params, _ = k3_setup
    vc = params.vc
    entry = 2 * vc.width * 32
    messages = [(j % 3, j // 3 % 3, j // 9 % 3) for j in range(12)]
    memo = CommitMemo(vc)
    assert (memo.max_entries, memo.max_bytes) == (ibcs.COMMIT_MEMO_ENTRIES, ibcs.COMMIT_MEMO_BYTES)
    for message in messages:
        assert memo.commit(message) == vc_commit(vc, message)
    assert [w for _, _, w in memo.entries.values()] == [entry] * len(messages)
    monkeypatch.setattr(ibcs, "COMMIT_MEMO_BYTES", entry - 1)
    memo = CommitMemo(vc)
    for message in messages:
        assert memo.commit(message) == vc_commit(vc, message)
    assert len(memo.entries) == 0


def test_commit_memo_hits_and_drops_the_least_recently_used(k3_setup, monkeypatch):
    _, params, _ = k3_setup
    calls = []
    real = ibcs.vc_commit
    monkeypatch.setattr(ibcs, "vc_commit", lambda p, m: calls.append(m) or real(p, m))
    a, b, c = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    monkeypatch.setattr(ibcs, "COMMIT_MEMO_ENTRIES", 2)
    memo = CommitMemo(params.vc)
    first = memo.commit(a)
    memo.commit(b)
    assert memo.commit(a) is first  # a hit is the very pair first committed
    memo.commit(c)  # drops b, the least recently used
    assert memo.commit(a) is first
    memo.commit(b)
    assert calls == [a, b, c, b]


def test_commit_memo_hashes_each_message_once(k3_setup):
    _, params, _ = k3_setup
    hashes = []

    class CountingTuple(tuple):
        def __hash__(self):
            hashes.append(self)
            return super().__hash__()

    memo = CommitMemo(params.vc)
    message = CountingTuple((0, 1, 2))
    for _ in range(3):  # a miss, then two hits
        assert memo.commit(message) == vc_commit(params.vc, message)
    assert len(hashes) == 3


def test_honest_prover_state_holds_the_memo_pair(k3_setup):
    protocol, params, witness = k3_setup
    prover = ArgumentProver(protocol, params, witness)
    cm, state = prover.next_commitment(prover.start(), None)
    proof, _ = protocol.prover_init(witness)
    memo_cm, memo_aux = prover.commits.commit(pad_proof_string(protocol.spec, proof.symbols))
    assert memo_cm is cm
    assert memo_aux is state.auxes[0]
