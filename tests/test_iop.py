from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ibcslab import iop
from ibcslab.adversaries import make_adversary
from ibcslab.errors import InfeasibleError, ParameterError, ProtocolViolation
from ibcslab.ibcs import ArgumentProver, arg_setup
from ibcslab.iop import (
    HonestIopProver,
    IopSpec,
    QueryPlan,
    brute_force_soundness,
    oracle_cost,
)
from ibcslab.prng import Prng, derive, seed_root
from ibcslab.toys import (
    GraphColoringIop,
    canonical_graph,
    complete_graph,
    find_coloring,
    gc_pcp,
    sumcheck_iop,
)
from helpers import make_sumcheck
from iop_reference import fraction_soundness, iop_interact


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
            return (0, 1), None

    result = iop_interact(protocol, ShortProver(), Prng(seed_root(0)))
    assert result.accept == 0
    assert result.violation is not None


@pytest.mark.parametrize(
    "symbols, fault",
    [
        ((0, 1), "has length 2, expected 3"),
        ((0, 1, 2, 0), "has length 4, expected 3"),
        ((0, 3, 1), "has an out-of-alphabet symbol at position 2"),  # 3 < 2**2, outside {0, 1, 2}
        ((0, 1, 1.5), "has an out-of-alphabet symbol at position 3"),
        (("a", 1, 2), "has an out-of-alphabet symbol at position 1"),
    ],
)
def test_compiled_prover_and_interaction_refuse_a_misshapen_string_alike(k3, symbols, fault):
    """One rule, `iop.check_proof_string`, refuses the string in the
    argument prover's commit step and in the IOP interaction loop."""
    protocol = gc_pcp(k3)

    class FixedProver:
        def first(self):
            return symbols, None

    prover = ArgumentProver(protocol, arg_setup(128, 64, protocol.spec), iop_prover=FixedProver())
    with pytest.raises(ProtocolViolation, match=f"^round 1 proof string {fault}$") as refused:
        prover.next_commitment(prover.start(), None)
    result = iop_interact(protocol, FixedProver(), Prng(seed_root(0)))
    assert result.accept == 0 and result.proofs == ()
    assert isinstance(result.violation, ProtocolViolation)
    assert str(result.violation) == str(refused.value)


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
    challenge = 12345
    first = protocol.prover_next(state, challenge)
    # states are immutable values: replaying from the same state is a rewind
    second = protocol.prover_next(state, challenge)
    assert first[0] == second[0]


def test_brute_force_exact_values(k3, k4, sumcheck_false_n1=None):
    assert brute_force_soundness(gc_pcp(k4)) == Fraction(5, 6)
    assert brute_force_soundness(gc_pcp(k3)) == Fraction(1)
    false_n1 = make_sumcheck(p=5, n=1, d=1, coeffs=(0, 1), false_claim=True)
    assert brute_force_soundness(sumcheck_iop(false_n1)) == Fraction(1, 5)


class _OneEndpointIop(GraphColoringIop):
    """Reads one position: edge j accepts iff its first endpoint has color
    j mod 3, so the answer to a one-position plan must be a 1-tuple."""

    def __init__(self, instance):
        super().__init__(instance)
        self.spec = dataclasses.replace(self.spec, query_counts=(1,))

    def query_plan(self, structured):
        u, _ = self.instance.edges[structured[0]]
        return QueryPlan(((u,),))

    def decide(self, structured, answers):
        return int(tuple(answers[0]) == (structured[0] % 3,))


@pytest.mark.parametrize(
    "make",
    [
        lambda: _OneEndpointIop(complete_graph(4)),
        lambda: gc_pcp(complete_graph(3)),
        lambda: gc_pcp(complete_graph(4)),
        lambda: sumcheck_iop(make_sumcheck(p=5, n=1, d=1, coeffs=(0, 1), false_claim=True)),
        lambda: sumcheck_iop(make_sumcheck(p=5, n=2, d=1, false_claim=True)),
        lambda: sumcheck_iop(make_sumcheck(p=5, n=2, d=1)),
    ],
    ids=["one-position", "k3", "k4", "sumcheck-p5-n1-false", "sumcheck-p5-n2-false", "sumcheck-p5-n2-true"],
)
def test_brute_force_counts_equal_the_fraction_recursion(make):
    """Integer leaf counts over the product of the challenge spaces give
    exactly the node-by-node `Fraction` value, with one plan per vector."""
    protocol = make()
    planned = []
    real_plan = protocol.query_plan
    protocol.query_plan = lambda structured: planned.append(structured) or real_plan(structured)
    value = brute_force_soundness(protocol)
    assert len(planned) == len(set(planned))
    del protocol.query_plan
    assert value == fraction_soundness(protocol)


@st.composite
def _small_graphs(draw):
    vertices = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(1, vertices + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return gc_pcp(canonical_graph(vertices, edges))


@st.composite
def _small_sumchecks(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([1, 2]))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=2**n, max_size=2**n))
    false_claim = draw(st.booleans())
    return sumcheck_iop(make_sumcheck(p=p, n=n, d=1, coeffs=coeffs, false_claim=false_claim))


@settings(max_examples=60, deadline=None)
@given(protocol=st.one_of(_small_graphs(), _small_sumchecks()))
def test_brute_force_equals_the_fraction_recursion_on_random_instances(protocol):
    """On graphs of at most 5 vertices and on d = 1 sumchecks with p in
    {2, 3, 5} and n in {1, 2}, true claims and false, the table walk
    gives the node-by-node `Fraction` value."""
    assert oracle_cost(protocol) <= iop.DEFAULT_ORACLE_BUDGET
    assert brute_force_soundness(protocol) == fraction_soundness(protocol)


def test_brute_force_decides_each_answer_pattern_once():
    """K4's tree has 81 strings under each of 6 edges, but an edge reads 2
    positions of a 3-color alphabet: 6 plans and 9 decisions per edge."""
    protocol = gc_pcp(complete_graph(4))
    calls = Counter()
    real_plan, real_decide = protocol.query_plan, protocol.decide
    protocol.query_plan = lambda s: calls.update(["plan"]) or real_plan(s)
    protocol.decide = lambda s, a: calls.update(["decide"]) or real_decide(s, a)
    assert brute_force_soundness(protocol) == Fraction(5, 6)
    assert calls == {"plan": 6, "decide": 54}


def test_brute_force_budget_is_enforced(sumcheck_false):
    protocol = sumcheck_iop(sumcheck_false)
    assert oracle_cost(protocol) > 1 << 24
    with pytest.raises(InfeasibleError):
        brute_force_soundness(protocol)


def test_verifier_rejects_malformed_randomness(k3):
    """A vector of the wrong length, or a challenge outside [0, 2**w_1), is
    refused by name."""
    protocol = gc_pcp(k3)
    width = protocol.spec.randomness_bits[0]
    for r in (-1, 1 << width):
        message = rf"round 1 challenge lies outside \[0, 2\*\*{width}\)"
        with pytest.raises(ProtocolViolation, match=message):
            protocol.verifier_query([r])
    protocol.verifier_query([(1 << width) - 1])
    with pytest.raises(ProtocolViolation, match="expected 1 challenges, got 0"):
        protocol.verifier_query([])


def test_a_round_width_without_slack_is_refused(k3):
    """A round's width must hold 64 bits beyond ceil(log2 m) for its reduction
    mod m to be near uniform; a shorter one is refused when the protocol
    first maps a challenge, whatever the challenge."""

    class ShortIop(GraphColoringIop):
        def __init__(self, instance):
            super().__init__(instance)
            self.spec = dataclasses.replace(self.spec, randomness_bits=(65,))

    with pytest.raises(ParameterError, match="too short to map onto 3 values: 65 < 66 bits"):
        ShortIop(k3).verifier_query([5])
    assert ShortIop(complete_graph(2)).verifier_query([5]).structured == (0,)


def test_decide_shape_mismatch_returns_zero(k3):
    protocol = gc_pcp(k3)
    plan = protocol.verifier_query([0])
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
            return coloring, None

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
    challenge = [0]
    for _ in range(3):
        with pytest.raises(ProtocolViolation, match="not increasing"):
            protocol.verifier_query(challenge)
    assert len(planned) == 3


def test_cached_plan_carries_the_callers_randomness(k3):
    """Two challenges that map to one edge share its cached plan, but each
    plan carries its own challenge, which the grinder reads."""
    planned = []

    class CountingIop(GraphColoringIop):
        def query_plan(self, structured):
            planned.append(structured)
            return super().query_plan(structured)

    protocol = CountingIop(k3)
    params = arg_setup(128, 64, protocol.spec)
    nbits = protocol.spec.randomness_bits[0]
    edges = protocol.challenge_space(1)
    low = 0  # leading bit 0: grinder:1 opens
    high = next(  # leading bit 1: grinder:1 aborts
        r for r in ((1 << (nbits - 1)) + j for j in range(64)) if r % edges == low % edges
    )
    grinder = make_adversary("grinder:1", protocol, params, find_coloring(k3))
    _, state = grinder.next_commitment(grinder.start(), None)
    for r, opens in ((low, True), (high, False), (low, True)):
        plan = protocol.verifier_query([r])
        assert plan.randomness == (r,)
        assert plan == gc_pcp(k3).verifier_query([r])
        assert (grinder.final_response(state, plan) is not None) == opens
    assert len(planned) == 1


def test_each_distinct_query_tuple_is_validated_once(sumcheck_true_setup, monkeypatch):
    """Every sumcheck vector plans the same per-round tuple, which is
    validated once; a graph's plans differ per edge, each validated once;
    both are still planned once per vector."""
    validated, planned = [], []
    real_validate = iop.IopProtocol._validate_plan
    monkeypatch.setattr(
        iop.IopProtocol, "_validate_plan", lambda self, p: validated.append(p) or real_validate(self, p)
    )
    sc, _ = sumcheck_true_setup
    protocol = sumcheck_iop(sc.instance)
    real_plan = type(protocol).query_plan
    monkeypatch.setattr(
        type(protocol), "query_plan", lambda self, s: planned.append(s) or real_plan(self, s)
    )
    prng = Prng(derive(seed_root(30), "plans"))
    vectors = [[prng.take_bits(w) for w in protocol.spec.randomness_bits] for _ in range(40)]
    for vector in vectors + vectors:
        assert protocol.verifier_query(vector).per_round == real_plan(protocol, ()).per_round
    assert len(validated) == 1
    assert len(planned) == len({protocol.map_challenges(v) for v in vectors})

    validated.clear()
    protocol = gc_pcp(complete_graph(5))
    nbits = protocol.spec.randomness_bits[0]
    for value in range(200):
        protocol.verifier_query([value])
    assert len(validated) == protocol.challenge_space(1)


def test_plan_checks_with_the_plan_cache_off(sumcheck_true_setup, monkeypatch):
    """With a plan cache that keeps nothing, every vector is planned and
    validated again, and the plans are the same."""
    validated = []
    real_validate = iop.IopProtocol._validate_plan
    monkeypatch.setattr(
        iop.IopProtocol, "_validate_plan", lambda self, p: validated.append(p) or real_validate(self, p)
    )
    sc, _ = sumcheck_true_setup
    on = sumcheck_iop(sc.instance)
    assert on._plans.max_entries == iop.PLAN_CACHE_ENTRIES  # built with the bound in force
    monkeypatch.setattr(iop, "PLAN_CACHE_ENTRIES", 0)
    off = sumcheck_iop(sc.instance)
    prng = Prng(derive(seed_root(31), "plans"))
    vectors = [[prng.take_bits(w) for w in on.spec.randomness_bits] for _ in range(10)]
    for vector in vectors:
        assert off.verifier_query(vector) == on.verifier_query(vector)
    assert len(validated) == 1 + len(vectors)
    assert len(off._plans.entries) == 0


def test_brute_force_refuses_an_invalid_plan_as_the_verifier_does(k3):
    """The oracle plans through the verifier's validated plans, so a plan
    that fails validation raises rather than being decided on."""

    class BadPlanIop(GraphColoringIop):
        def query_plan(self, structured):
            return QueryPlan(((2, 1),))  # not increasing

    protocol = BadPlanIop(k3)
    with pytest.raises(ProtocolViolation, match="not increasing"):
        brute_force_soundness(protocol)
    with pytest.raises(ProtocolViolation, match="not increasing"):
        protocol.verifier_query([0])


def test_verifier_finds_the_oracles_plans_in_the_memo(k4):
    """After the exact oracle runs on K4, the verifier plans none of its 6
    edge vectors again."""
    planned = []

    class CountingIop(GraphColoringIop):
        def query_plan(self, structured):
            planned.append(structured)
            return super().query_plan(structured)

    protocol = CountingIop(k4)
    assert brute_force_soundness(protocol) == Fraction(5, 6)
    assert len(planned) == 6
    edges = {value % 6 for value in range(64)}
    assert len(edges) == 6
    for value in range(64):
        protocol.verifier_query([value])
    assert len(planned) == 6
