from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from ibcslab import cli
from ibcslab.adversaries import (
    Withholder,
    always_abort,
    grinder_on_leading_bits,
    honest_wrapper,
    make_adversary,
)
from ibcslab.errors import ParameterError, ProtocolViolation
from ibcslab.extraction import (
    ArgContext,
    ExtractorIopProver,
    KnowledgeSet,
    RewindBudget,
    end_to_end_knowledge,
    error_share,
    fill_oracle,
    hoeffding_radius,
    hybrid_value,
    measure_acceptance,
    reductor,
    rewind_budget_limit,
    run_events_experiment,
    run_hybrid_trial,
    sampler,
    theorem_bounds,
)
from ibcslab.ibcs import OUTCOME_MEMO_BYTES, OUTCOME_MEMO_ENTRIES
from ibcslab.iop import IopSpec, iop_interact
from ibcslab.memo import BoundedMemo
from ibcslab.prng import Bits, Prng, derive, seed_root
from ibcslab.toys import is_proper_coloring

from helpers import run_memory_session
from sampler_reference import full_sampler


def test_hoeffding_radius_formula():
    assert math.isclose(
        hoeffding_radius(10_000), math.sqrt(math.log(2 / 1e-6) / 20_000)
    )
    with pytest.raises(ParameterError):
        hoeffding_radius(0)


def test_rewind_budget_example():
    # l_max = 64, epsilon = 0.5, k = 2: T = 64 / 0.125 = 512
    assert rewind_budget_limit(64, error_share(0.5, 2)) == 512
    assert rewind_budget_limit(3, error_share(0.5, 1)) == 12
    with pytest.raises(ParameterError):
        RewindBudget(max_rewinds=4, stop_time=5)


@pytest.mark.parametrize(
    "epsilon, limit",
    [(0.3, 20), (0.6, 10), (0.15, 40), (0.5, 12), (0.25, 24), (0.1, 60), (0.05, 120)],
)
def test_a_float_epsilon_is_its_shortest_decimal(epsilon, limit):
    # 0.3, 0.6 and 0.15 lie just below their decimals as binary floats, so
    # reading the float's exact value would give one rewind more than the CLI.
    assert rewind_budget_limit(3, error_share(epsilon, 1)) == limit
    assert rewind_budget_limit(3, error_share(cli.epsilon_arg(repr(epsilon)), 1)) == limit
    assert error_share(epsilon, 2) == Fraction(repr(epsilon)) / 4


def test_knowledge_set_invariants():
    kset = KnowledgeSet(proof_length=3)
    kset.add((1, 2), (5, 6), ())
    assert kset.coverage == {1, 2}
    with pytest.raises(ParameterError):
        kset.add((1, 2), (5, 6), ())  # no new coverage
    with pytest.raises(ParameterError):
        kset.add((7,), (1,), ())  # outside the proof string
    kset.add((2, 3), (9, 9), ())
    assert kset.coverage == {1, 2, 3}
    assert len(kset.triples) == 2


def test_fill_oracle_first_write_wins():
    kset = KnowledgeSet(proof_length=4)
    kset.add((1, 2), (5, 6), ())
    kset.add((2, 3), (9, 7), ())  # overlaps position 2 with a new answer
    oracle = fill_oracle(1, 4, kset)
    assert oracle.symbols == (5, 6, 7, 0)
    assert oracle.covered == frozenset({1, 2, 3})


def test_fill_oracle_empty_knowledge():
    oracle = fill_oracle(2, 3, KnowledgeSet(proof_length=3))
    assert oracle.symbols == (0, 0, 0)
    assert oracle.covered == frozenset()


def test_fill_oracle_single_triple():
    kset = KnowledgeSet(proof_length=3)
    kset.add((2,), (1,), ())
    oracle = fill_oracle(1, 3, kset)
    assert oracle.symbols == (0, 1, 0)


def _round1_context(protocol, params, adversary):
    state = adversary.start()
    cm, rho = adversary.next_commitment(state, None)
    ctx = ArgContext(
        params=params,
        protocol=protocol,
        round_index=1,
        commitments=(cm,),
        challenges=(),
        oracles=(),
    )
    return ctx, rho


def test_sampler_zero_iterations(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    ctx, rho = _round1_context(protocol, params, honest)
    kset, stats = sampler(honest, rho, ctx, 0, Prng(seed_root(1)))
    assert kset.coverage == set()
    assert stats.rewinds == 0


def test_sampler_covers_all_queryable_positions(k3_setup):
    # enumeration oracle: the positions the query function can ever emit
    protocol, params, witness = k3_setup
    queryable = set()
    for edge_index in range(len(protocol.instance.edges)):
        queryable.update(protocol.query_plan((edge_index,)).per_round[0])
    honest = honest_wrapper(protocol, params, witness)
    ctx, rho = _round1_context(protocol, params, honest)
    kset, stats = sampler(honest, rho, ctx, 100, Prng(derive(seed_root(2), "cover")))
    assert kset.coverage == queryable
    assert stats.accepted == stats.rewinds
    assert stats.rewinds + stats.skipped == 100
    assert len(kset.triples) <= protocol.spec.proof_lengths[0]


def _context_at(protocol, params, adversary, round_index):
    """The adversary at the start of round `round_index`'s continuation, under
    fixed earlier challenges, with the lower rounds' oracles fully extracted."""
    spec = protocol.spec
    share = error_share(0.5, spec.rounds)
    state = adversary.start()
    commitments, challenges, oracles = (), (), ()
    for i in range(1, round_index + 1):
        cm, state = adversary.next_commitment(state, challenges[-1] if challenges else None)
        ctx = ArgContext(params, protocol, i, commitments + (cm,), challenges, oracles)
        if i == round_index:
            return ctx, state
        oracle, *_ = reductor(
            adversary, state, ctx, share, Prng(derive(seed_root(41), "lower", i)), stop="full"
        )
        commitments, oracles = ctx.commitments, oracles + (oracle,)
        challenges += (Bits(spec.randomness_bits[i - 1], 5 * i),)


class _Crashing:
    """Commits like `inner`, then crashes instead of opening."""

    def __init__(self, inner):
        self.inner = inner

    def start(self):
        return self.inner.start()

    def next_commitment(self, state, challenge):
        return self.inner.next_commitment(state, challenge)

    def final_response(self, state, plan):
        raise ProtocolViolation("synthetic crash")


def _sampler_case(name, k3_setup, sumcheck_true_setup):
    """(adversary, protocol, params, round index) of a differential case."""
    k3_protocol, k3_params, witness = k3_setup
    honest_k3 = honest_wrapper(k3_protocol, k3_params, witness)
    if name.startswith("honest-sumcheck"):
        protocol, params = sumcheck_true_setup
        return honest_wrapper(protocol, params, ()), protocol, params, int(name[-1])
    adversary = {
        "honest-k3": lambda: honest_k3,
        "withholder": lambda: Withholder(k3_protocol, honest_k3, lambda r, q: q == 1),
        "grinder": lambda: grinder_on_leading_bits(k3_protocol, honest_k3, 1),
        "equivocator": lambda: make_adversary("equivocator", k3_protocol, k3_params, witness),
        "crashing": lambda: _Crashing(honest_k3),
    }[name]()
    return adversary, k3_protocol, k3_params, 1


@pytest.mark.parametrize(
    "name",
    ["honest-k3", "honest-sumcheck-1", "honest-sumcheck-2", "withholder", "grinder",
     "equivocator", "crashing"],
)
def test_sampler_matches_the_full_loop(name, k3_setup, sumcheck_true_setup):
    """Stopping at saturation and replaying outcomes from the memo change
    neither the knowledge set nor where the shared stream stands afterwards.

    The same adversary object is sampled twice from the same point on the
    same stream: with a view, every rewind of the second call is replayed;
    without one (`crashing`), none is."""
    adversary, protocol, params, round_index = _sampler_case(name, k3_setup, sumcheck_true_setup)
    ctx, state = _context_at(protocol, params, adversary, round_index)
    iterations = 60
    key = derive(seed_root(40), "differential", name)
    full = Prng(key)
    expected, recorded = full_sampler(adversary, state, ctx, iterations, full)
    after = full.take_bits(512)
    for _ in range(2):
        fast = Prng(key)
        knowledge, stats = sampler(adversary, state, ctx, iterations, fast)
        assert knowledge.triples == expected.triples
        assert knowledge.coverage == expected.coverage
        assert fast.take_bits(512) == after
        assert stats.rewinds + stats.skipped == iterations
        assert stats.recorded == recorded
    if getattr(adversary, "view", None) is None:
        assert stats.replayed == 0
    else:
        assert stats.replayed == stats.rewinds > 0
    if name.startswith("honest"):
        assert stats.skipped > 0
        assert len(knowledge.coverage) == knowledge.proof_length


def test_sampler_abort_adversary_collects_nothing(k3_setup):
    protocol, params, witness = k3_setup
    adv = always_abort(protocol, honest_wrapper(protocol, params, witness))
    ctx, rho = _round1_context(protocol, params, adv)
    kset, stats = sampler(adv, rho, ctx, 50, Prng(seed_root(3)))
    assert kset.coverage == set()
    assert stats.accepted == 0


def test_sampler_counts_crashes_as_voided(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)

    class Crashing:
        def start(self):
            return honest.start()

        def next_commitment(self, state, challenge):
            return honest.next_commitment(state, challenge)

        def final_response(self, state, plan):
            raise ProtocolViolation("synthetic crash")

    adv = Crashing()
    ctx, rho = _round1_context(protocol, params, adv)
    kset, stats = sampler(adv, rho, ctx, 10, Prng(seed_root(4)))
    assert stats.voided == 10
    assert kset.coverage == set()


class _Cell:
    """A plain object: hashable by identity, so `hash` alone would take it
    for a value."""

    def __init__(self):
        self.count = 0


@dataclass(frozen=True)
class _FrozenList:
    cell: list


def _bump_list(cell):
    cell[0] += 1


def _bump_cell(cell):
    cell.count += 1


def _bump_frozen_list(frozen):
    frozen.cell.append(1)


# (make_cell, bump, the type the refusal names): states that are no values.
NO_VALUES = [
    pytest.param(lambda: [0], _bump_list, "list", id="list"),
    pytest.param(_Cell, _bump_cell, "_Cell", id="plain-object"),
    pytest.param(
        lambda: _FrozenList([0]), _bump_frozen_list, "list", id="frozen-dataclass-of-a-list"
    ),
]


def _stateful_adversary(k3_setup, make_cell, bump, with_view):
    """An honest K3 prover whose state also holds `make_cell()`, which it
    `bump`s on every final response, breaking the rewind contract;
    `final_calls` counts its final responses."""
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)

    class Stateful:
        def __init__(self):
            self.view = honest.view if with_view else None
            self.outcomes = BoundedMemo(OUTCOME_MEMO_ENTRIES, OUTCOME_MEMO_BYTES)
            self.final_calls = 0

        def start(self):
            return (honest.start(), make_cell())

        def next_commitment(self, state, challenge):
            inner, cell = state
            cm, inner = honest.next_commitment(inner, challenge)
            return cm, (inner, cell)

        def final_response(self, state, plan):
            self.final_calls += 1
            inner, cell = state
            bump(cell)  # breaks the contract: changes the state it was given
            return honest.final_response(inner, plan)

    return Stateful()


def _assert_state_is_refused(k3_setup, make_cell, bump, kind, with_view):
    """The sampler refuses the adversary's state, naming the type that is
    no value, before the adversary opens anything."""
    protocol, params, _ = k3_setup
    adv = _stateful_adversary(k3_setup, make_cell, bump, with_view)
    cm, rho = adv.next_commitment(adv.start(), None)
    ctx = ArgContext(
        params=params, protocol=protocol, round_index=1,
        commitments=(cm,), challenges=(), oracles=(),
    )
    with pytest.raises(TypeError, match=f"must be a value; {kind} is not"):
        sampler(adv, rho, ctx, 20, Prng(seed_root(5)))
    assert adv.final_calls == 0


def test_sampler_rejects_mutating_adversaries(k3_setup):
    """Prover states are values and every rewind reuses the same state, so
    a state that holds a list, which a prover could scribble on, breaks the
    rewinding contract: the sampler refuses it before any rewind."""
    _assert_state_is_refused(k3_setup, lambda: [0], _bump_list, "list", with_view=False)


@pytest.mark.parametrize("with_view", [False, True], ids=["no-view", "view"])
@pytest.mark.parametrize("make_cell, bump, kind", NO_VALUES[1:])
def test_sampler_rejects_mutation_that_hashing_would_miss(
    k3_setup, make_cell, bump, kind, with_view
):
    """A state that holds a plain object or a frozen dataclass of a list is
    no value, though it hashes: it is refused, with or without an outcome
    memo."""
    _assert_state_is_refused(k3_setup, make_cell, bump, kind, with_view)


@pytest.mark.parametrize("with_view", [False, True], ids=["no-view", "view"])
@pytest.mark.parametrize("make_cell, bump, kind", NO_VALUES)
def test_a_state_that_is_no_value_escapes_every_rewinding_experiment(
    k3_setup, make_cell, bump, kind, with_view
):
    """The refusal is a TypeError, not an `IbcsError`, so no experiment
    counts it as a voided rewind or trial: it escapes a hybrid value with
    an oracle round, an events experiment and the knowledge pipeline
    before the adversary opens anything."""
    protocol, params, _ = k3_setup
    experiments = {
        "hybrid": lambda adv: hybrid_value(protocol, params, adv, 1, 10, 3, 0.5),
        "events": lambda adv: run_events_experiment(protocol, params, adv, 1, 10, 3, 0.5),
        "knowledge": lambda adv: end_to_end_knowledge(protocol, params, adv, 0.5, 3),
    }
    for name, experiment in experiments.items():
        adv = _stateful_adversary(k3_setup, make_cell, bump, with_view)
        with pytest.raises(TypeError, match=f"must be a value; {kind} is not"):
            experiment(adv)
        assert adv.final_calls == 0, name


@pytest.mark.parametrize("make_cell, bump, kind", NO_VALUES)
def test_a_state_that_is_no_value_runs_where_nothing_rewinds(k3_setup, make_cell, bump, kind):
    """Only a rewind needs a value: without a view, such an adversary still
    runs plain acceptance trials and a memory session."""
    protocol, params, _ = k3_setup
    adv = _stateful_adversary(k3_setup, make_cell, bump, with_view=False)
    assert measure_acceptance(protocol, params, adv, 20, seed=1).value == 1.0
    assert adv.final_calls == 20
    _, verifier = run_memory_session(protocol, params, adv, seed=2)
    assert verifier.decision == 1
    assert adv.final_calls == 21


def test_reductor_budget_and_fill(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    ctx, rho = _round1_context(protocol, params, honest)
    share = error_share(0.5, 1)
    oracle, knowledge, budget, _ = reductor(
        honest, rho, ctx, share, Prng(derive(seed_root(6), "red"))
    )
    assert budget.max_rewinds == rewind_budget_limit(3, share)
    assert 0 <= budget.stop_time <= budget.max_rewinds
    for q in oracle.covered:
        assert oracle.symbols[q - 1] == witness[q - 1]
    for q in set(range(1, 4)) - oracle.covered:
        assert oracle.symbols[q - 1] == 0


def test_reductor_stop_time_spans_range(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    ctx, rho = _round1_context(protocol, params, honest)
    share = error_share(0.5, 1)
    stops = set()
    for i in range(200):
        _, _, budget, _ = reductor(
            honest, rho, ctx, share, Prng(derive(seed_root(7), "stop", i))
        )
        stops.add(budget.stop_time)
    assert min(stops) == 0
    assert max(stops) == rewind_budget_limit(3, share)


def test_extracted_prover_emits_proper_coloring_mostly(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    epsilon = 0.5
    trials = 400
    proper = 0
    for i in range(trials):
        prng = Prng(derive(seed_root(8), "build", i))
        prover = ExtractorIopProver(protocol, params, honest, epsilon, prng)
        proof, _ = prover.first()
        proper += is_proper_coloring(protocol.instance, proof.symbols)
    rate = proper / trials
    assert rate >= 1 - epsilon - 3 * hoeffding_radius(trials)


def test_extracted_prover_from_abort_is_blank_and_rejected(k3_setup):
    protocol, params, witness = k3_setup
    adv = always_abort(protocol, honest_wrapper(protocol, params, witness))
    prng = Prng(derive(seed_root(9), "blank"))
    prover = ExtractorIopProver(protocol, params, adv, 0.5, prng)
    proof, _ = prover.first()
    assert proof.symbols == (0, 0, 0)
    result = iop_interact(protocol, ExtractorIopProver(
        protocol, params, adv, 0.5, Prng(derive(seed_root(9), "blank2"))
    ), Prng(derive(seed_root(9), "verify")))
    assert result.accept == 0


def test_extracted_prover_is_deterministic_per_seed(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    outs = []
    for _ in range(2):
        prng = Prng(derive(seed_root(10), "det"))
        prover = ExtractorIopProver(protocol, params, honest, 0.5, prng)
        proof, _ = prover.first()
        outs.append(proof)
    assert outs[0] == outs[1]


def test_hybrid_zero_is_plain_acceptance(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    est = hybrid_value(protocol, params, honest, 0, 200, seed=11, epsilon=0.5)
    assert est.value == 1.0


def test_hybrid_full_abort_is_zero(k3_setup):
    protocol, params, witness = k3_setup
    adv = always_abort(protocol, honest_wrapper(protocol, params, witness))
    est = hybrid_value(protocol, params, adv, 1, 100, seed=12, epsilon=0.5)
    assert est.value == 0.0


def test_hybrid_chain_honest(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    epsilon = 0.5
    h0 = hybrid_value(protocol, params, honest, 0, 600, seed=13, epsilon=epsilon)
    h1 = hybrid_value(protocol, params, honest, 1, 600, seed=13, epsilon=epsilon)
    assert h0.value <= h1.value + epsilon + 3 * (h0.radius + h1.radius)


def test_events_honest_never_disagrees(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    counters = run_events_experiment(protocol, params, honest, 1, 500, seed=14, epsilon=0.5)
    assert counters.disagreements == 0
    assert counters.binding_pairs == []
    assert counters.trials == 500


def test_events_withholder_bound(k3_setup):
    protocol, params, witness = k3_setup
    withholder = Withholder(
        protocol, honest_wrapper(protocol, params, witness), lambda r, q: q == 1
    )
    counters = run_events_experiment(
        protocol, params, withholder, 1, 2000, seed=15, epsilon=0.5
    )
    rate = counters.missing / counters.trials
    assert rate <= float(counters.missing_bound) + 3 * hoeffding_radius(2000)
    assert counters.binding_pairs == []


def test_events_rate_nonincreasing_with_larger_budget(k3_setup):
    # halving epsilon doubles T; the missing rate should not grow beyond noise
    protocol, params, witness = k3_setup
    withholder = Withholder(
        protocol, honest_wrapper(protocol, params, witness), lambda r, q: q == 1
    )
    wide = run_events_experiment(protocol, params, withholder, 1, 3000, seed=16, epsilon=0.5)
    tight = run_events_experiment(protocol, params, withholder, 1, 3000, seed=16, epsilon=0.25)
    slack = 3 * (hoeffding_radius(3000) + hoeffding_radius(3000))
    assert tight.missing / tight.trials <= wide.missing / wide.trials + slack
    assert tight.max_rewinds == 2 * wide.max_rewinds


def test_theorem_bounds_pinned_example():
    spec = IopSpec(
        rounds=2, alphabet_size=4, symbol_bits=2, proof_lengths=(8, 8),
        randomness_bits=(72, 72), query_counts=(2, 2), relation_id="x",
    )
    bounds = theorem_bounds(
        spec, Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10), Fraction(5, 6)
    )
    assert bounds.soundness_bound == Fraction(5, 6) + 2 * (
        Fraction(1, 100) + 8 * Fraction(1, 1000)
    ) + Fraction(1, 10)
    assert bounds.knowledge_bound is None
    with_knowledge = theorem_bounds(
        spec, Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10), Fraction(5, 6),
        iop_knowledge=Fraction(1, 2),
    )
    assert with_knowledge.knowledge_bound == Fraction(1, 2) + with_knowledge.transformation_loss


def test_theorem_bounds_zero_vc_terms():
    spec = IopSpec(
        rounds=1, alphabet_size=3, symbol_bits=2, proof_lengths=(4,),
        randomness_bits=(72,), query_counts=(2,), relation_id="x",
    )
    bounds = theorem_bounds(spec, 0, 0, Fraction(1, 10), Fraction(5, 6))
    assert bounds.soundness_bound == Fraction(5, 6) + Fraction(1, 10)


def test_theorem_bounds_monotone_sweep():
    spec = IopSpec(
        rounds=2, alphabet_size=4, symbol_bits=2, proof_lengths=(8, 8),
        randomness_bits=(72, 72), query_counts=(2, 2), relation_id="x",
    )
    grid = [0.0, 0.01, 0.05, 0.2]
    base = (0.01, 0.001, 0.1, 0.5)
    for position in range(4):
        previous = None
        for value in grid:
            args = list(base)
            args[position] = value
            bound = theorem_bounds(spec, *args).soundness_bound
            if previous is not None:
                assert bound >= previous
            previous = bound


def test_theorem_bounds_rejects_out_of_range():
    spec = IopSpec(
        rounds=1, alphabet_size=3, symbol_bits=2, proof_lengths=(4,),
        randomness_bits=(72,), query_counts=(2,), relation_id="x",
    )
    with pytest.raises(ParameterError):
        theorem_bounds(spec, -0.1, 0, 0.1, 0.5)
    with pytest.raises(ParameterError):
        theorem_bounds(spec, 0, 0, 0.1, 1.5)


def test_end_to_end_knowledge_honest(k3_setup):
    protocol, params, witness = k3_setup
    honest = honest_wrapper(protocol, params, witness)
    for seed in range(30):
        outcome = end_to_end_knowledge(protocol, params, honest, epsilon=0.25, seed=seed)
        assert outcome.success
        assert is_proper_coloring(protocol.instance, outcome.witness)


def test_end_to_end_knowledge_abort_fails_loudly(k3_setup):
    protocol, params, witness = k3_setup
    adv = always_abort(protocol, honest_wrapper(protocol, params, witness))
    outcome = end_to_end_knowledge(protocol, params, adv, epsilon=0.25, seed=0)
    assert not outcome.success
    assert outcome.witness is None
    acceptance = measure_acceptance(protocol, params, adv, 200, seed=1)
    assert acceptance.value == 0.0  # the knowledge inequality holds vacuously


def test_end_to_end_knowledge_grinder(k3_setup):
    protocol, params, witness = k3_setup
    grinder = grinder_on_leading_bits(
        protocol, honest_wrapper(protocol, params, witness), 1
    )
    trials = 60
    successes = sum(
        end_to_end_knowledge(protocol, params, grinder, epsilon=0.25, seed=s).success
        for s in range(trials)
    )
    acceptance = measure_acceptance(protocol, params, grinder, 2000, seed=2)
    floor = acceptance.value - 0.25 - 3 * (acceptance.radius + hoeffding_radius(trials))
    assert successes / trials >= floor


def test_run_hybrid_trial_records_budgets(sumcheck_true_setup):
    protocol, params = sumcheck_true_setup
    honest = honest_wrapper(protocol, params, ())
    prng = Prng(derive(seed_root(20), "trial"))
    share = error_share(0.5, 2)
    record = run_hybrid_trial(protocol, params, honest, 2, share, prng)
    assert len(record.oracles) == 2
    assert len(record.budgets) == 2
    expected_limit = rewind_budget_limit(protocol.spec.max_proof_length, share)
    assert all(b.max_rewinds == expected_limit for b in record.budgets)


def test_extractor_reused_reports_each_runs_own_budgets(sumcheck_true_setup):
    """Budgets live in the extractor's returned state, so a second run from
    the same extractor object reports its own k budgets, not 2k."""
    protocol, params = sumcheck_true_setup
    honest = honest_wrapper(protocol, params, ())
    prover = ExtractorIopProver(
        protocol, params, honest, 0.5, Prng(derive(seed_root(21), "reuse")), stop="full"
    )
    runs = []
    for _ in range(2):
        _, state = prover.first()
        _, state = prover.next_round(state, Bits(protocol.spec.randomness_bits[0], 5))
        runs.append(state.budgets)
    assert len(runs[0]) == protocol.spec.rounds == 2
    assert runs[0] == runs[1]


def test_extractor_reused_draws_the_same_stopping_times(sumcheck_true_setup):
    """Each run restarts the rewind stream from its key, so a reused
    extractor with uniform stopping times repeats its budgets and oracles."""
    protocol, params = sumcheck_true_setup
    honest = honest_wrapper(protocol, params, ())
    prover = ExtractorIopProver(
        protocol, params, honest, 0.5, Prng(derive(seed_root(22), "reuse")), stop="uniform"
    )
    runs = []
    for _ in range(2):
        _, state = prover.first()
        _, state = prover.next_round(state, Bits(protocol.spec.randomness_bits[0], 5))
        runs.append((state.budgets, state.oracles))
    assert runs[0] == runs[1]
