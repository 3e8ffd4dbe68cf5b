from __future__ import annotations

from fractions import Fraction

import pytest

from ibcslab.adversaries import make_adversary
from ibcslab.errors import InfeasibleError, ParameterError, ProtocolViolation
from ibcslab.ibcs import arg_setup
from ibcslab.iop import (
    HonestIopProver,
    IopSpec,
    ProofString,
    QueryPlan,
    brute_force_soundness,
    iop_interact,
    oracle_cost,
)
from ibcslab.prng import Bits, Prng, derive, map_to_range, seed_root
from ibcslab.toys import GraphColoringIop, find_coloring, gc_pcp, sumcheck_iop
from helpers import make_sumcheck


def test_spec_validation():
    with pytest.raises(ParameterError):
        IopSpec(0, 3, 2, (), (), (), "x")
    with pytest.raises(ParameterError):
        IopSpec(1, 3, 2, (2,), (72,), (3,), "x")  # q > l
    with pytest.raises(ParameterError):
        IopSpec(1, 3, 3, (2,), (72,), (1,), "x")  # wrong symbol width
    spec = IopSpec(2, 17, 5, (3, 3), (72, 72), (3, 3), "x")
    assert spec.max_proof_length == 3


def test_honest_completeness_all_seeds(k3):
    protocol = gc_pcp(k3)
    witness = find_coloring(k3)
    for seed in range(200):
        prng = Prng(derive(seed_root(seed), "complete"))
        result = iop_interact(protocol, HonestIopProver(protocol, witness), prng)
        assert result.accept == 1


def test_wrong_length_proof_rejected(k3):
    protocol = gc_pcp(k3)

    class ShortProver:
        def first(self):
            return ProofString(1, (0, 1)), None

    result = iop_interact(protocol, ShortProver(), Prng(seed_root(0)))
    assert result.accept == 0
    assert result.violation is not None


def test_fixed_seed_fixed_transcript(k3):
    protocol = gc_pcp(k3)
    witness = find_coloring(k3)
    runs = [
        iop_interact(protocol, HonestIopProver(protocol, witness), Prng(seed_root(5)))
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_snapshot_replay_is_deterministic(sumcheck_true):
    protocol = sumcheck_iop(sumcheck_true)
    proof, state = protocol.prover_init(())
    challenge = Bits(protocol.spec.randomness_bits[0], 12345)
    first = protocol.prover_next(state, challenge)
    # states are immutable values: replaying from the same state is a rewind
    second = protocol.prover_next(state, challenge)
    assert first[0] == second[0]


def test_brute_force_exact_values(k3, k4, sumcheck_false_n1=None):
    assert brute_force_soundness(gc_pcp(k4)) == Fraction(5, 6)
    assert brute_force_soundness(gc_pcp(k3)) == Fraction(1)
    false_n1 = make_sumcheck(p=5, n=1, d=1, coeffs=(0, 1), false_claim=True)
    assert brute_force_soundness(sumcheck_iop(false_n1)) == Fraction(1, 5)


def test_brute_force_budget_is_enforced(sumcheck_false):
    protocol = sumcheck_iop(sumcheck_false)
    assert oracle_cost(protocol) > 1 << 24
    with pytest.raises(InfeasibleError):
        brute_force_soundness(protocol)


def test_verifier_rejects_malformed_randomness(k3):
    protocol = gc_pcp(k3)
    with pytest.raises(ProtocolViolation):
        protocol.verifier_query([Bits(8, 0)])
    with pytest.raises(ProtocolViolation):
        protocol.verifier_query([])


def test_decide_shape_mismatch_returns_zero(k3):
    protocol = gc_pcp(k3)
    plan = protocol.verifier_query([Bits(protocol.spec.randomness_bits[0], 0)])
    assert protocol.verifier_decide(plan, [(0,)]) == 0
    assert protocol.verifier_decide(plan, [(0, 1), (2,)]) == 0


def test_scripted_cheater_never_beats_oracle(k4):
    # Monte-Carlo acceptance of the best fixed proof string stays below the
    # exhaustive optimum plus statistical slack
    from ibcslab.extraction import hoeffding_radius
    from ibcslab.toys import best_coloring

    protocol = gc_pcp(k4)
    coloring, _ = best_coloring(k4)

    class FixedProver:
        def first(self):
            return ProofString(1, coloring), None

    oracle = brute_force_soundness(protocol)
    trials = 4000
    accepted = 0
    for seed in range(trials):
        prng = Prng(derive(seed_root(seed), "mc-oracle"))
        accepted += iop_interact(protocol, FixedProver(), prng).accept
    assert accepted / trials <= float(oracle) + 3 * hoeffding_radius(trials)


def test_invalid_plan_raises_on_every_call(k3):
    planned = []

    class BadPlanIop(GraphColoringIop):
        def query_plan(self, structured):
            planned.append(structured)
            return QueryPlan(((2, 1),))  # not increasing

    protocol = BadPlanIop(k3)
    challenge = [Bits(protocol.spec.randomness_bits[0], 0)]
    for _ in range(3):
        with pytest.raises(ProtocolViolation, match="not increasing"):
            protocol.verifier_query(challenge)
    assert len(planned) == 3


def test_cached_plan_carries_the_callers_randomness(k3):
    """Two challenge bit strings that map to one edge share its cached plan,
    but each plan carries its own bit string, which the grinder reads."""
    planned = []

    class CountingIop(GraphColoringIop):
        def query_plan(self, structured):
            planned.append(structured)
            return super().query_plan(structured)

    protocol = CountingIop(k3)
    params = arg_setup(128, 64, protocol.spec)
    nbits = protocol.spec.randomness_bits[0]
    edges = protocol.challenge_space(1)
    low = Bits(nbits, 0)  # leading bit 0: grinder:1 opens
    high = next(  # leading bit 1: grinder:1 aborts
        bits
        for bits in (Bits(nbits, (1 << (nbits - 1)) + j) for j in range(64))
        if map_to_range(bits, edges) == map_to_range(low, edges)
    )
    grinder = make_adversary("grinder:1", protocol, params, find_coloring(k3))
    _, state = grinder.next_commitment(grinder.start(), None)
    for bits, opens in ((low, True), (high, False), (low, True)):
        plan = protocol.verifier_query([bits])
        assert plan.randomness == (bits,)
        assert plan == gc_pcp(k3).verifier_query([bits])
        assert (grinder.final_response(state, plan) is not None) == opens
    assert len(planned) == 1
