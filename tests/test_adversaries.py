from __future__ import annotations

from fractions import Fraction

import pytest

from ibcslab import ibcs
from ibcslab.adversaries import (
    Equivocator,
    ScriptedProver,
    Withholder,
    always_abort,
    fixed_string_prover,
    grinder_on_leading_bits,
    honest_wrapper,
    make_adversary,
    optimal_gc_cheater,
    optimal_sumcheck_cheater,
    snapshot,
    state_digest,
)
from ibcslab.errors import InstanceError, ParameterError
from ibcslab.extraction import hoeffding_radius, measure_acceptance
from ibcslab.ibcs import arg_verify, Transcript
from ibcslab.prng import Bits, Prng, derive, seed_root
from ibcslab.toys import best_coloring, sumcheck_exact_cheat_value
from ibcslab.vc import vc_check


def _drive_full_run(protocol, adversary, prng):
    """One complete scripted run; returns (state trace, commitments, response)."""
    spec = protocol.spec
    state = adversary.start()
    challenges = []
    commitments = []
    prev = None
    for i in range(spec.rounds):
        cm, state = adversary.next_commitment(state, prev)
        commitments.append(cm)
        prev = prng.take_bits(spec.randomness_bits[i])
        challenges.append(prev)
    response = adversary.final_response(state, protocol.verifier_query(challenges))
    return challenges, commitments, response


@pytest.fixture
def all_adversaries(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    return {
        "honest": honest,
        "withholder": Withholder(protocol, honest, lambda r, q: q == 1),
        "grinder": grinder_on_leading_bits(protocol, honest, 1),
        "abort": always_abort(protocol, honest),
        "equivocator": Equivocator(protocol, params, [witness], [witness]),
        "optimal": optimal_gc_cheater(protocol, params),
    }


def test_snapshot_fidelity(k3_setup, all_adversaries):
    protocol, params, _ = k3_setup
    for name, adversary in all_adversaries.items():
        state = adversary.start()
        cm, state = adversary.next_commitment(state, None)
        before = state_digest(state)
        copy_ = snapshot(state)
        plan = protocol.verifier_query([Bits(72, 77)])
        response = adversary.final_response(copy_, plan)
        assert state_digest(state) == before, name
        # replaying from the untouched state gives identical output
        assert adversary.final_response(snapshot(state), plan) == response


@pytest.mark.parametrize("setup", ["k3_setup", "sumcheck_true_setup"])
def test_adversary_states_are_hashable(request, setup):
    """Rewinding reuses states as they are, so every state a built-in prover
    hands out, from `start` through each round, is an immutable value."""
    protocol, params = request.getfixturevalue(setup)[:2]
    for name in ("honest", "optimal", "abort", "equivocator", "withholder", "grinder"):
        adversary = make_adversary(name, protocol, params)
        prng = Prng(derive(seed_root(0), "hashable", name))
        states = [adversary.start()]
        prev = None
        for i in range(protocol.spec.rounds):
            _, state = adversary.next_commitment(states[-1], prev)
            states.append(state)
            prev = prng.take_bits(protocol.spec.randomness_bits[i])
        for i, state in enumerate(states):
            try:
                hash(state)
            except TypeError as exc:
                pytest.fail(f"{name} state after round {i} is not hashable: {exc}")


def test_honest_wrapper_accepts_always(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    estimate = measure_acceptance(protocol, params, honest, 300, seed=1)
    assert estimate.value == 1.0
    with pytest.raises(InstanceError):
        honest_wrapper(protocol, params, (0, 0, 0))


def test_withholder_acceptance_drop_matches_enumeration(k3_setup):
    # refusing vertex 1 removes exactly the edges incident to it
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    withholder = Withholder(protocol, honest, lambda r, q: q == 1)
    edges = protocol.instance.edges
    expected = Fraction(sum(1 for u, v in edges if 1 not in (u, v)), len(edges))
    estimate = measure_acceptance(protocol, params, withholder, 3000, seed=7)
    slack = 3 * hoeffding_radius(3000)
    assert abs(estimate.value - float(expected)) <= slack


def test_withholder_refusing_nothing_is_honest(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    lax = Withholder(protocol, honest, lambda r, q: False)
    estimate = measure_acceptance(protocol, params, lax, 200, seed=3)
    assert estimate.value == 1.0


def test_withholder_refusing_everything_never_accepts(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    strict = Withholder(protocol, honest, lambda r, q: True)
    estimate = measure_acceptance(protocol, params, strict, 200, seed=4)
    assert estimate.value == 0.0


def test_refusing_withholder_opens_nothing(k3_setup, monkeypatch):
    """The withholder refuses on the plan it is handed, before its inner
    prover opens anything, and plans nothing itself."""
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    withholder = Withholder(protocol, honest, lambda r, q: q == 1)
    prng = Prng(derive(seed_root(21), "withholder"))
    plans = [
        protocol.verifier_query([prng.take_bits(protocol.spec.randomness_bits[0])])
        for _ in range(40)
    ]
    _, state = withholder.next_commitment(withholder.start(), None)
    opened = []
    real_open = ibcs.vc_open
    monkeypatch.setattr(ibcs, "vc_open", lambda *a: opened.append(a) or real_open(*a))
    monkeypatch.setattr(
        type(protocol), "verifier_query", lambda *a: pytest.fail("the withholder planned")
    )
    outcomes = set()
    for plan in plans:
        opened.clear()
        response = withholder.final_response(state, plan)
        assert (response is None) == (1 in plan.per_round[0])
        assert len(opened) == (0 if response is None else protocol.spec.rounds)
        outcomes.add(response is None)
    assert outcomes == {True, False}


def test_grinder_measure(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    for zero_bits in (0, 1, 2):
        grinder = grinder_on_leading_bits(protocol, honest, zero_bits)
        assert grinder.measure == Fraction(1, 2**zero_bits)
        estimate = measure_acceptance(protocol, params, grinder, 4000, seed=9 + zero_bits)
        assert abs(estimate.value - float(grinder.measure)) <= 3 * hoeffding_radius(4000)


def test_always_abort(k3_setup):
    protocol, params, witness = k3_setup
    adv = always_abort(protocol, honest_wrapper(protocol, params, witness))
    estimate = measure_acceptance(protocol, params, adv, 100, seed=6)
    assert estimate.value == 0.0


def test_equivocator_degenerate_case_is_honest(k3_setup):
    protocol, params, witness = k3_setup
    adv = Equivocator(protocol, params, [witness], [witness])
    estimate = measure_acceptance(protocol, params, adv, 200, seed=8)
    assert estimate.value == 1.0


def test_equivocator_openings_fail_commitment_check(k3_setup):
    protocol, params, witness = k3_setup
    altered = list(witness)
    altered[0] = (altered[0] + 1) % 3
    adv = Equivocator(protocol, params, [witness], [tuple(altered)])
    hits = 0
    for seed in range(200):
        prng = Prng(derive(seed_root(seed), "equiv"))
        challenges, commitments, response = _drive_full_run(protocol, adv, prng)
        opening = response[0]
        if 1 in opening.positions:
            hits += 1
            assert (
                vc_check(
                    params.vc, commitments[0], opening.positions, opening.answers, opening.proof
                )
                == 0
            )
            transcript = Transcript(
                instance=protocol.instance,
                commitments=tuple(commitments),
                challenges=tuple(challenges),
                response=response,
            )
            assert arg_verify(params, protocol, transcript) == 0
    assert hits > 0


def test_optimal_gc_cheater_matches_oracle(k4_setup):
    protocol, params = k4_setup
    cheat = optimal_gc_cheater(protocol, params)
    estimate = measure_acceptance(protocol, params, cheat, 4000, seed=10)
    oracle = float(best_coloring(protocol.instance)[1])
    assert abs(estimate.value - oracle) <= 3 * hoeffding_radius(4000)


def test_optimal_sumcheck_cheater_matches_cheat_program(sumcheck_false):
    from ibcslab.ibcs import arg_setup
    from ibcslab.toys import sumcheck_iop

    protocol = sumcheck_iop(sumcheck_false)
    params = arg_setup(128, 64, protocol.spec)
    cheat = optimal_sumcheck_cheater(protocol, params)
    value = float(sumcheck_exact_cheat_value(sumcheck_false))
    estimate = measure_acceptance(protocol, params, cheat, 3000, seed=12)
    assert abs(estimate.value - value) <= 3 * hoeffding_radius(3000)


def test_scripted_prover_validates_lengths(k3_setup):
    protocol, params, _ = k3_setup
    with pytest.raises(ParameterError):
        fixed_string_prover(protocol, params, [(0, 1, 2), (0, 1, 2)])
    bad = ScriptedProver(protocol, params, lambda i, c, s: (0,))
    from ibcslab.errors import ProtocolViolation

    with pytest.raises(ProtocolViolation):
        bad.next_commitment(bad.start(), None)


def test_make_adversary_selector(k3_setup, k4_setup):
    protocol, params, witness = k3_setup
    for name in ("honest", "optimal", "abort", "withholder:2", "grinder:3", "equivocator"):
        adversary = make_adversary(name, protocol, params, witness)
        assert adversary is not None
    k4_protocol, k4_params = k4_setup
    # false instance: the default base strategy is the optimal cheat
    adv = make_adversary("withholder", k4_protocol, k4_params, None)
    assert adv is not None
    with pytest.raises(ParameterError):
        make_adversary("nonsense", protocol, params, witness)
    with pytest.raises(InstanceError):
        make_adversary("honest", k4_protocol, k4_params, None)


def test_provers_never_share_a_commit_memo(k3_setup, monkeypatch):
    """Each prover object commits through its own memo: a second object
    commits a message again, its first object does not."""
    protocol, params, witness = k3_setup
    calls = []
    real = ibcs.vc_commit
    monkeypatch.setattr(ibcs, "vc_commit", lambda p, m: calls.append(m) or real(p, m))
    for name in ("honest", "optimal", "equivocator"):
        provers = [make_adversary(name, protocol, params, witness) for _ in range(2)]
        assert provers[0].commits is not provers[1].commits
        calls.clear()
        for prover in (provers[0], provers[0], provers[1]):
            prover.next_commitment(prover.start(), None)
        assert len(calls) == 2, name
        assert len(provers[0].commits.entries) == len(provers[1].commits.entries) == 1
