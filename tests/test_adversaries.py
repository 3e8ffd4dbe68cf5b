from __future__ import annotations

import collections
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from ibcslab import adversaries, ibcs, transport
from ibcslab.adversaries import (
    Equivocator,
    ScriptedProver,
    Withholder,
    always_abort,
    fixed_string_prover,
    grinder_on_leading_bits,
    honest_wrapper,
    make_adversaries,
    make_adversary,
    optimal_gc_cheater,
    optimal_sumcheck_cheater,
    rewind_point,
    snapshot,
    state_digest,
)
from ibcslab.cli import DEFAULT_ADVERSARIES
from ibcslab.errors import InstanceError, ParameterError, ProtocolViolation
from ibcslab.extraction import hoeffding_radius, measure_acceptance
from ibcslab.ibcs import ArgumentProver, arg_setup, arg_verify, Transcript
from ibcslab.prng import Bits, Prng, derive, map_to_range, seed_root
from ibcslab.toys import best_coloring, sumcheck_exact_cheat_value, sumcheck_iop
from ibcslab.vc import vc_check

from helpers import make_sumcheck, run_memory_session


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
            rewind_point(state)  # a value: no TypeError


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


@dataclass(frozen=True)
class _Uncompared:
    shown: int
    hidden: tuple = field(compare=False)


@dataclass
class _Open:
    cell: int


class _PairChild(_Pair):
    pass


_Named = collections.namedtuple("_Named", "a b")


def test_a_value_is_its_own_rewind_point_and_weighs_its_bytes():
    value = _Pair((b"\x00" * 32, "ab", 7, True, None), frozenset({b"xyz", 1}))
    assert rewind_point(value) == 32 + 2 + 8 + 8 + 8 + 3 + 8


@pytest.mark.parametrize(
    "state, kind",
    [
        ((0.0,), "float"),  # 0.0 == -0.0, so a float could file two states as one
        ([1], "list"),
        ((1, [2]), "list"),
        (_Pair(1, object()), "object"),
        (_Pair(1, [2]), "list"),
        (_Uncompared(1, (2,)), "_Uncompared"),  # `==` would not see `hidden`
        (_Open(1), "_Open"),
        (_PairChild(1, 2), "_PairChild"),  # a plain subclass may carry attributes `==` does not see
        (_Named(1, 2), "_Named"),
    ],
    ids=[
        "float", "list", "tuple-of-a-list", "frozen-of-an-object", "frozen-of-a-list",
        "uncompared-field", "unfrozen-dataclass", "subclass", "namedtuple",
    ],
)
def test_any_other_state_is_keyed_by_its_digest(state, kind):
    """Only a value has a rewind point, by a digest or otherwise: any other
    state is refused, naming the type that is no value."""
    with pytest.raises(TypeError, match=f"must be a value; {kind} is not$"):
        rewind_point(state)


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
    prover opens anything, and plans nothing itself. Each plan goes to a
    fresh withholder, so no opening is served from an earlier plan's memo
    entry and an accepted plan opens every round."""
    protocol, params, witness = k3_setup
    prng = Prng(derive(seed_root(21), "withholder"))
    plans = [
        protocol.verifier_query([prng.take_bits(protocol.spec.randomness_bits[0])])
        for _ in range(40)
    ]
    opened = []
    real_open = ibcs.vc_open
    monkeypatch.setattr(ibcs, "vc_open", lambda *a: opened.append(a) or real_open(*a))
    monkeypatch.setattr(
        type(protocol), "verifier_query", lambda *a: pytest.fail("the withholder planned")
    )
    outcomes = set()
    for plan in plans:
        honest = honest_wrapper(protocol, params, witness)
        withholder = Withholder(protocol, honest, lambda r, q: q == 1)
        _, state = withholder.next_commitment(withholder.start(), None)
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


def test_equivocator_answers_from_b_when_a_is_served_from_the_memo(k3_setup, monkeypatch):
    """The equivocator's A openings come from its opening memo on a repeated
    plan, and it still swaps in the B answers, each time anew."""
    protocol, params, witness = k3_setup
    altered = list(witness)
    altered[0] = (altered[0] + 1) % 3
    adv = Equivocator(protocol, params, [witness], [tuple(altered)])
    opened = []
    real_open = ibcs.vc_open
    monkeypatch.setattr(ibcs, "vc_open", lambda *a: opened.append(a) or real_open(*a))
    _, state = adv.next_commitment(adv.start(), None)
    edge = next(j for j, e in enumerate(protocol.instance.edges) if 1 in e)
    nbits = protocol.spec.randomness_bits[0]
    bits = next(
        Bits(nbits, v)
        for v in range(1 << 12)
        if map_to_range(Bits(nbits, v), protocol.challenge_space(1)) == edge
    )
    plan = protocol.verifier_query([bits])
    responses = [adv.final_response(state, plan) for _ in range(3)]
    assert len(opened) == 1
    honest = adv._open_a(state, plan)[0]
    for response in responses:
        (opening,) = response
        assert opening.proof == honest.proof
        assert opening.answers == tuple(altered[q - 1] for q in opening.positions)
        assert opening.answers != honest.answers
    assert responses[0] == responses[1] == responses[2]


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
    with pytest.raises(ProtocolViolation):
        bad.next_commitment(bad.start(), None)


@pytest.mark.parametrize("name", ["honest", "optimal", "equivocator"])
def test_compiled_provers_share_the_round_checks(sumcheck_true_setup, name):
    """Honest, scripted and equivocating play all take a challenge exactly
    from round 2 on and open only after the last commitment."""
    protocol, params = sumcheck_true_setup
    prover = make_adversary(name, protocol, params, ())
    challenge = Bits(protocol.spec.randomness_bits[0], 0)
    with pytest.raises(ProtocolViolation):
        prover.next_commitment(prover.start(), challenge)
    _, state = prover.next_commitment(prover.start(), None)
    with pytest.raises(ProtocolViolation):
        prover.next_commitment(state, None)
    plan = protocol.verifier_query([challenge] * protocol.spec.rounds)
    with pytest.raises(ProtocolViolation):
        prover.final_response(state, plan)


def _honest_strategy_cases(k3_setup):
    protocol, params, witness = k3_setup
    yield protocol, params, witness, lambda _i, _c, _s: witness
    protocol = sumcheck_iop(make_sumcheck(n=3))
    params = arg_setup(128, len(transport.encode_instance(protocol.instance)), protocol.spec)
    p = protocol.instance.prime
    yield protocol, params, (), lambda _i, c, _s: protocol.round_polynomial(
        tuple(map_to_range(r, p) for r in c)
    )


def test_scripted_honest_strategy_is_the_honest_prover(k3_setup):
    """A strategy that computes the honest round strings from the challenges
    compiles to the honest prover: memory sessions on K3 and on the n=3
    sumcheck give byte-identical transcripts."""
    for protocol, params, witness, strategy in _honest_strategy_cases(k3_setup):
        for seed in range(3):
            blobs = []
            for prover in (
                ArgumentProver(protocol, params, witness),
                ScriptedProver(protocol, params, strategy),
            ):
                _, v_res = run_memory_session(protocol, params, prover, seed=seed)
                assert v_res.decision == 1
                blobs.append(transport.serialize_transcript(params, v_res.transcript))
            assert blobs[0] == blobs[1]


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


def test_make_adversaries_builds_one_cheat_base(monkeypatch):
    """The default selectors on a false sumcheck share one optimal cheat, so
    one `SumcheckCheatPlan` serves them all; each selector is its own
    object (with its own outcome memo) and the wrappers decorate that cheat.
    Every selector is checked before anything is built."""
    protocol = sumcheck_iop(make_sumcheck(p=5, n=2, d=1, false_claim=True))
    params = arg_setup(128, 64, protocol.spec)
    plans = []

    class CountingPlan(adversaries.SumcheckCheatPlan):
        def __init__(self, *args):
            plans.append(1)
            super().__init__(*args)

    monkeypatch.setattr(adversaries, "SumcheckCheatPlan", CountingPlan)
    names = DEFAULT_ADVERSARIES.split(",")
    with pytest.raises(ParameterError):
        make_adversaries(names + ["nonsense"], protocol, params)
    assert not plans
    built = dict(zip(names, make_adversaries(names, protocol, params)))
    assert len(plans) == 1
    assert len({id(a) for a in built.values()}) == len(names)
    for name in ("withholder", "grinder:1", "abort"):
        assert built[name].inner is built["optimal"]


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


def test_each_adversary_owns_its_outcomes(k3_setup, monkeypatch):
    """Every adversary object keeps its own outcome memo: two objects built
    from one selector, and each wrapper over one cheat base, which the
    wrappers all commit through."""
    protocol, params, witness = k3_setup
    for name in ("honest", "optimal", "equivocator", "abort", "withholder", "grinder"):
        first, second = (make_adversary(name, protocol, params, witness) for _ in range(2))
        assert first.outcomes is not second.outcomes, name
    calls = []
    real = ibcs.vc_commit
    monkeypatch.setattr(ibcs, "vc_commit", lambda p, m: calls.append(m) or real(p, m))
    base, *wrappers = make_adversaries(
        ["honest", "abort", "withholder", "grinder"], protocol, params, witness
    )
    memos = [base.outcomes] + [wrapper.outcomes for wrapper in wrappers]
    assert len({id(memo) for memo in memos}) == len(memos)
    for wrapper in wrappers:
        assert wrapper.inner is base
        wrapper.next_commitment(wrapper.start(), None)
    assert len(calls) == 1 and len(base.commits.entries) == 1
    # The lab files a wrapper's outcomes in its own memo only.
    measure_acceptance(protocol, params, wrappers[-1], 5, seed=1)
    assert [len(memo.entries) > 0 for memo in memos] == [False, False, False, True]


def test_views_follow_what_each_adversary_reads(sumcheck_true_setup):
    """The compiled honest prover and the scripted cheats that map their
    challenges declare the structured vector; a wrapper passes its inner
    view through, and a grinder adds its predicate bit; a general strategy,
    handed raw bits, declares none, and so does any wrapper of it."""
    protocol, params = sumcheck_true_setup
    spec = protocol.spec
    prng = Prng(derive(seed_root(12), "views"))
    vectors = [tuple(prng.take_bits(w) for w in spec.randomness_bits) for _ in range(20)]
    for name in ("honest", "optimal", "abort", "equivocator", "withholder:2", "grinder:3"):
        adversary = make_adversary(name, protocol, params, ())
        for r in vectors:
            structured = protocol.map_challenges(r)
            if name.startswith(("abort", "grinder")):
                assert adversary.view(r) == (structured, adversary.predicate(r))
            else:
                assert adversary.view(r) == structured
    scripted = ScriptedProver(protocol, params, lambda i, _c, _s: (0,) * spec.proof_lengths[i - 1])
    assert scripted.view is None
    assert Withholder(protocol, scripted, lambda _r, _q: False).view is None
    assert grinder_on_leading_bits(protocol, scripted, 1).view is None
