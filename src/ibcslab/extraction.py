"""Rewinding-extraction laboratory: samplers, reductors, hybrids, bounds.

The reduction rebuilds a prover's round-i proof string by rewinding it:
take a snapshot of the adversary at the start of round i's continuation,
rerun it to the end under fresh challenges, and whenever the run wins the
round-i game and its round-i query set covers new positions, record that
opening into a knowledge set. Stopping after a uniformly random number of
rewinds caps the probability that the real verifier later queries a
position the knowledge set missed: coverage can grow at most l_i times, so
a random stop out of T rewinds is exposed with probability at most l_i/T.
The same cap means that once coverage holds all l_i positions no later
rewind can change the knowledge set, so the sampler stops there. It still
advances the shared random stream past the bits the skipped rewinds would
have drawn, so every later draw, and with it every report, is the same as
under the full loop.

Each round gets an error share of epsilon/2k: half of the per-round budget
is reserved for any degradation of the prover's behaviour under rewinding,
which exact snapshots make identically zero (prover states are immutable
values, see `adversaries.rewind_point`), and the other half caps the
missing-position probability through the rewind count
T = ceil(l_max / (epsilon/2k)), computed in integers from the exact share,
which each experiment computes once. The experiments report every estimate
with an explicit confidence radius, so the analytic bounds can be checked
against measured frequencies at desk scale.

The extractor is grey-box: it relies on each prover being deterministic
given its view (the `view(randomness)` contract in `ibcs`). A continuation
from one rewind point ends in one of three outcomes, voided (the adversary
raised an `IbcsError`), lost, or won with its round-i opening, and that
outcome depends only on the view of the challenge vector. So an
adversary with a view keeps its outcomes in its `outcomes` memo (the
contract is in `ibcs`), keyed by (rewind point, view). A round-i rewind
point is (state, ctx): the state is a value, keyed by itself, and its
entries weigh its bytes too (`adversaries.rewind_point`), since the key
keeps it alive. A zero-oracle hybrid trial starts from `start()`, which
is deterministic, so its point is (params, protocol). Either way the lab
draws exactly the bits it would draw anyway, and a repeated view is
replayed into the same counters, knowledge sets and trial records instead
of running the commit/open/plan/check path again. A zero-oracle outcome
also keeps the trial's full-opening decision, which reads only the
structured challenges (fixed by the view) and the stored commitments, plan
and response, so a replayed trial is not decided again either. An
adversary without a view, and a trial with oracles, is always run.

The per-trial stream keys of a hybrid value or an events experiment are
`derive(root, label, r, trial)`; they come from one `prng.derive_stem`,
which hashes the shared prefix once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

from .adversaries import rewind_point, snapshot
from .errors import IbcsError, ParameterError
from .ibcs import PAD_SYMBOL, ArgParams, check_openings
from .iop import IopProtocol, ProofString, QueryPlan
from .prng import Bits, Prng, derive, derive_stem, seed_root
from .vc import vc_check

CONFIDENCE_DELTA = 1e-6


def hoeffding_radius(trials: int, delta: float = CONFIDENCE_DELTA) -> float:
    """Two-sided deviation radius at confidence 1 - delta."""
    if trials < 1:
        raise ParameterError("radius needs at least one trial")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * trials))


@dataclass
class KnowledgeSet:
    """Accepted openings for one round; coverage grows strictly per entry."""

    proof_length: int
    triples: list[tuple[tuple[int, ...], tuple[int, ...], tuple[bytes, ...]]] = field(
        default_factory=list
    )
    coverage: set[int] = field(default_factory=set)

    def covers(self, positions: Sequence[int]) -> bool:
        return set(positions) <= self.coverage

    def add(self, positions, answers, proof):
        new = set(positions) - self.coverage
        if not new:
            raise ParameterError("knowledge set entries must add coverage")
        if any(not 1 <= q <= self.proof_length for q in positions):
            raise ParameterError("knowledge set position outside the proof string")
        self.triples.append((tuple(positions), tuple(answers), tuple(proof)))
        self.coverage |= new
        assert len(self.triples) <= self.proof_length


@dataclass(frozen=True)
class ExtractedOracle:
    round_index: int
    covered: frozenset
    symbols: tuple[int, ...]


@dataclass(frozen=True)
class RewindBudget:
    max_rewinds: int
    stop_time: int

    def __post_init__(self):
        if not 0 <= self.stop_time <= self.max_rewinds:
            raise ParameterError("stop time must lie in [0, T]")


def rewind_budget_limit(max_proof_length: int, error_share: Fraction) -> int:
    """T = ceil(l_max / (epsilon / 2k)), the rewind count per round."""
    if error_share.numerator <= 0:
        raise ParameterError("error share must be positive")
    return -(-max_proof_length * error_share.denominator // error_share.numerator)


def error_share(epsilon: float | Fraction, rounds: int) -> Fraction:
    """epsilon / 2k, exact: a float epsilon is read as its shortest
    decimal, as the CLI reads `--epsilon`, so 0.3 is 3/10."""
    if not 0 < epsilon <= 1:
        raise ParameterError("epsilon must be in (0, 1]")
    exact = Fraction(repr(epsilon)) if isinstance(epsilon, float) else Fraction(epsilon)
    return exact / (2 * rounds)


@dataclass(frozen=True)
class ArgContext:
    """Everything fixed when round i's continuation is rewound."""

    params: ArgParams
    protocol: IopProtocol
    round_index: int
    commitments: tuple  # cm_1 .. cm_i
    challenges: tuple[Bits, ...]  # r_1 .. r_{i-1}
    oracles: tuple[ExtractedOracle, ...]  # rounds 1 .. i-1


@dataclass
class SamplerStats:
    """Per-call sampler counts: `rewinds` drawn, of which `replayed` were
    served from the outcome memo, and `skipped` left out at saturation."""

    rewinds: int = 0
    accepted: int = 0
    recorded: int = 0
    voided: int = 0
    skipped: int = 0
    replayed: int = 0


# Outcomes of a rewind that records nothing; a won rewind's outcome is its
# round-i opening.
VOIDED = "voided"
LOST = "lost"


# An outcome weighs 32 bytes per digest and 8 per other value; a rewind's
# outcome also weighs the bytes of its rewind point.
def _opening_weight(opening) -> int:
    return 32 * len(opening.proof) + 8 * (len(opening.positions) + len(opening.answers))


def _split_bits(bits: Bits, widths: Sequence[int]) -> tuple[Bits, ...]:
    """`bits` cut into consecutive strings of `widths`, as successive
    `take_bits` calls would have drawn them."""
    if len(widths) == 1:
        return (bits,)
    out = []
    shift = bits.nbits
    for width in widths:
        shift -= width
        out.append(Bits(width, (bits.value >> shift) & ((1 << width) - 1)))
    return tuple(out)


def run_continuation(adversary, state, ctx: ArgContext, continuation: Sequence[Bits]):
    """Play rounds i+1..k and the final opening from a snapshot.

    `continuation` supplies (r_i, ..., r_k). Returns the tail commitments,
    the verifier's plan for the full challenge vector, which the adversary
    is asked to open, and the final response (None on abort).
    """
    spec = ctx.protocol.spec
    i = ctx.round_index
    tail = []
    current = state
    for m in range(i + 1, spec.rounds + 1):
        cm, current = adversary.next_commitment(current, continuation[m - 1 - i])
        tail.append(cm)
    plan = ctx.protocol.verifier_query(ctx.challenges + tuple(continuation))
    response = adversary.final_response(current, plan)
    return tuple(tail), plan, response


def routed_decision(
    params: ArgParams,
    protocol: IopProtocol,
    commitments,
    plan: QueryPlan,
    response,
    oracles: Sequence[ExtractedOracle],
    checked_rounds,
) -> int:
    """The hybrid verifier: the IOP decision with rounds 1..len(oracles)
    answered by the extracted oracles and the rest by the openings.

    It accepts only if the openings of `checked_rounds` (1-based) pass
    their commitment checks; a missing or misshapen response rejects.
    """
    if response is None or len(response) != protocol.spec.rounds:
        return 0
    if not check_openings(params, commitments, plan, response, checked_rounds):
        return 0
    m = len(oracles)
    answers = tuple(
        tuple(oracles[j].symbols[q - 1] for q in queries) if j < m else response[j].answers
        for j, queries in enumerate(plan.per_round)
    )
    return protocol.verifier_decide(plan, answers)


def game_predicate(ctx: ArgContext, plan: QueryPlan, tail_commitments, response) -> bool:
    """The round-i win predicate: decision on oracles below i plus openings,
    and commitment checks from round i on.

    `plan` is the verifier's plan for the run's full challenge vector.
    """
    checked = range(ctx.round_index, ctx.protocol.spec.rounds + 1)
    commitments = ctx.commitments + tail_commitments
    return bool(
        routed_decision(ctx.params, ctx.protocol, commitments, plan, response, ctx.oracles, checked)
    )


def _rewind(adversary, state, ctx: ArgContext, continuation: tuple[Bits, ...]):
    """One continuation's outcome: VOIDED, LOST or the won round-i opening."""
    try:
        tail, plan, response = run_continuation(adversary, snapshot(state), ctx, continuation)
    except IbcsError:
        return VOIDED
    if not game_predicate(ctx, plan, tail, response):
        return LOST
    return response[ctx.round_index - 1]


def sampler(adversary, state, ctx: ArgContext, iterations: int, prng: Prng):
    """Collect accepted round-i openings over `iterations` rewinds.

    Each rewind runs from a snapshot of the same adversary state. Prover
    states are values, so the snapshot is the state itself; a state that
    is not a value raises TypeError (`adversaries.rewind_point`) before
    any rewind runs.

    Each rewind draws its continuation (r_i, ..., r_k) with one
    `take_bits`. An adversary with a view has each outcome looked up by
    (rewind point, view) in its `outcomes` memo, and a hit is replayed
    (`stats.replayed`) rather than run; a won opening's positions are the
    planned round-i queries, which is what the knowledge set tests.

    Once coverage holds all l_i positions, every later rewind is covered,
    so it can record nothing: the remaining rewinds are skipped, and
    `skip_bits` moves the stream past the continuation bits they would
    have drawn. The stream ends where the full loop leaves it, so the
    caller's later draws are unchanged.
    """
    spec = ctx.protocol.spec
    i = ctx.round_index
    state_bytes = rewind_point(state)
    knowledge = KnowledgeSet(proof_length=spec.proof_lengths[i - 1])
    stats = SamplerStats()
    widths = spec.randomness_bits[i - 1 :]
    drawn = sum(widths)
    view = getattr(adversary, "view", None)
    if view is not None:
        memo = adversary.outcomes
        point = (state, ctx)
        # Equal points have equal states, so the state's hash files a point;
        # the key holds all of it, so unequal points never share a value.
        point_hash = hash(state)
        fixed = ctx.challenges
    for run in range(iterations):
        if len(knowledge.coverage) == knowledge.proof_length:
            stats.skipped = iterations - run
            prng.skip_bits(stats.skipped * drawn)
            break
        stats.rewinds += 1
        continuation = _split_bits(prng.take_bits(drawn), widths)
        if view is None:
            outcome = _rewind(adversary, state, ctx, continuation)
        else:
            seen = view(fixed + continuation)
            h, key = hash((point_hash, seen)), (point, seen)
            outcome = memo.get(h, key)
            if outcome is None:
                outcome = _rewind(adversary, state, ctx, continuation)
                weight = 8 if outcome is VOIDED or outcome is LOST else _opening_weight(outcome)
                memo.put(h, key, outcome, state_bytes + weight)
            else:
                stats.replayed += 1
        if outcome is VOIDED:
            stats.voided += 1
            continue
        if outcome is LOST:
            continue
        stats.accepted += 1
        if not knowledge.covers(outcome.positions):
            knowledge.add(outcome.positions, outcome.answers, outcome.proof)
            stats.recorded += 1
    return knowledge, stats


def fill_oracle(round_index: int, proof_length: int, knowledge: KnowledgeSet) -> ExtractedOracle:
    """First write wins: later triples never overwrite earlier positions."""
    symbols = [PAD_SYMBOL] * proof_length
    covered: set[int] = set()
    for positions, answers, _ in knowledge.triples:
        for q, a in zip(positions, answers):
            if q not in covered:
                covered.add(q)
                symbols[q - 1] = a
    return ExtractedOracle(round_index, frozenset(covered), tuple(symbols))


def reductor(
    adversary,
    state,
    ctx: ArgContext,
    share: Fraction,
    prng: Prng,
    stop: str = "uniform",
):
    """Rewind round i and rebuild its proof string from the knowledge set.

    `stop="uniform"` draws the stopping time uniformly from [0, T], which
    is what the missing-position bound requires; `stop="full"` always runs
    all T rewinds and is what the knowledge extractor uses, since coverage
    only grows with more rewinds.
    """
    spec = ctx.protocol.spec
    i = ctx.round_index
    limit = rewind_budget_limit(spec.max_proof_length, share)
    if stop == "uniform":
        stop_time = prng.take_below(limit + 1)
    elif stop == "full":
        stop_time = limit
    else:
        raise ParameterError(f"unknown stopping rule {stop!r}")
    budget = RewindBudget(max_rewinds=limit, stop_time=stop_time)
    knowledge, stats = sampler(adversary, state, ctx, stop_time, prng)
    oracle = fill_oracle(i, spec.proof_lengths[i - 1], knowledge)
    return oracle, knowledge, budget, stats


# ---------------------------------------------------------------------------
# the extracted IOP prover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ExtractorState:
    adversary_state: Any
    commitments: tuple
    challenges: tuple[Bits, ...]
    oracles: tuple[ExtractedOracle, ...]
    budgets: tuple[RewindBudget, ...]
    rewinds: Prng  # this run's rewind stream


class ExtractorIopProver:
    """IOP prover built from an argument adversary by per-round rewinding.

    Round i: advance the adversary one commitment, run the reductor on the
    round-i continuation, and emit the reconstructed string as the IOP
    message. Thanks to exact snapshots the adversary continues from the
    same state the reductor received.

    `rewinds` names the rewind stream by its key: each run (each `first()`)
    starts a fresh `Prng` on that key and carries it in its state, so a
    reused extractor draws the same stopping times on every run.
    """

    def __init__(
        self,
        protocol: IopProtocol,
        params: ArgParams,
        adversary,
        epsilon: float,
        rewinds: Prng,
        stop: str = "uniform",
    ):
        self.protocol = protocol
        self.params = params
        self.adversary = adversary
        self.share = error_share(epsilon, protocol.spec.rounds)
        self.rewind_key = rewinds.key
        self.stop = stop

    def _extract_round(self, adv_state, commitments, challenges, oracles, budgets, rewinds):
        i = len(commitments) + 1
        prev = challenges[-1] if challenges else None
        cm, rho = self.adversary.next_commitment(adv_state, prev)
        ctx = ArgContext(
            params=self.params,
            protocol=self.protocol,
            round_index=i,
            commitments=commitments + (cm,),
            challenges=challenges,
            oracles=oracles,
        )
        oracle, _, budget, _ = reductor(
            self.adversary, rho, ctx, self.share, rewinds, stop=self.stop
        )
        state = _ExtractorState(
            adversary_state=rho,
            commitments=commitments + (cm,),
            challenges=challenges,
            oracles=oracles + (oracle,),
            budgets=budgets + (budget,),
            rewinds=rewinds,
        )
        return ProofString(i, oracle.symbols), state

    def first(self):
        return self._extract_round(
            self.adversary.start(), (), (), (), (), Prng(self.rewind_key)
        )

    def next_round(self, state: _ExtractorState, challenge: Bits):
        return self._extract_round(
            state.adversary_state,
            state.commitments,
            state.challenges + (challenge,),
            state.oracles,
            state.budgets,
            state.rewinds,
        )


# ---------------------------------------------------------------------------
# hybrid experiments
# ---------------------------------------------------------------------------


@dataclass
class TrialRecord:
    """Everything one hybrid run produces, for any routing to be evaluated."""

    challenges: tuple[Bits, ...]
    commitments: tuple
    oracles: tuple[ExtractedOracle, ...]
    knowledge: tuple[KnowledgeSet, ...]
    budgets: tuple[RewindBudget, ...]
    plan: QueryPlan | None  # the plan of `challenges` the adversary opened
    response: tuple | None
    voided: bool = False
    # A zero-oracle trial's full-opening decision, `accept_under_routing(...,
    # 0)`, when the trial went through the outcome memo; None otherwise.
    decision: int | None = None


def run_hybrid_trial(
    protocol: IopProtocol,
    params: ArgParams,
    adversary,
    oracle_rounds: int,
    share: Fraction,
    prng: Prng,
) -> TrialRecord:
    """One execution with rounds 1..oracle_rounds rewound and extracted,
    each under the experiment's error share (`error_share`).

    A zero-oracle trial of an adversary with a view reads its challenge
    vector ahead (`peek_bits`) and looks its outcome up by that vector's
    view in the adversary's `outcomes` memo; only a miss plays the trial, on
    that vector, and decides it, and the record carries that decision
    (`TrialRecord.decision`), also when it is replayed. Either way the
    stream then moves past the challenges the trial drew, which are all k
    unless the adversary raised before the last one. The record carries
    this trial's own challenges, and its plan's `randomness` is this
    trial's vector.
    """
    spec = protocol.spec
    if not 0 <= oracle_rounds <= spec.rounds:
        raise ParameterError("oracle rounds must lie in [0, k]")
    view = getattr(adversary, "view", None)
    if oracle_rounds or view is None:
        return _play_trial(protocol, params, adversary, oracle_rounds, share, prng)
    widths = spec.randomness_bits
    raw = _split_bits(prng.peek_bits(sum(widths)), widths)
    memo = adversary.outcomes
    seen = view(raw)
    # Equal keys have equal protocols, so hashing the protocol suffices.
    h, key = hash((protocol, seen)), (params, protocol, seen)
    outcome = memo.get(h, key)
    if outcome is None:
        record = _play_trial(protocol, params, adversary, 0, share, prng, raw)
        record.decision = accept_under_routing(protocol, params, record, 0)
        outcome = (
            len(record.challenges), record.commitments, record.plan, record.response,
            record.voided, record.decision,
        )
        weight = 8 * len(raw) + 36 * len(record.commitments) + 8
        weight += sum(map(_opening_weight, record.response or ()))
        memo.put(h, key, outcome, weight)
    else:
        drawn, commitments, plan, response, voided, decision = outcome
        if plan is not None:
            plan = QueryPlan(plan.per_round, plan.structured, raw)
        record = TrialRecord(
            raw[:drawn], commitments, (), (), (), plan, response, voided, decision
        )
    prng.skip_bits(sum(widths[: len(record.challenges)]))
    return record


def _play_trial(
    protocol: IopProtocol,
    params: ArgParams,
    adversary,
    oracle_rounds: int,
    share: Fraction,
    prng: Prng,
    raw: Sequence[Bits] | None = None,
) -> TrialRecord:
    """The trial itself; it draws each challenge from `prng` as its round
    comes, or takes it from `raw`, a zero-oracle trial's read-ahead vector."""
    spec = protocol.spec
    k = spec.rounds
    challenges: list[Bits] = []
    commitments = []
    oracles: tuple[ExtractedOracle, ...] = ()
    knowledge: tuple[KnowledgeSet, ...] = ()
    budgets: tuple[RewindBudget, ...] = ()
    plan = None
    state = adversary.start()
    try:
        for i in range(1, k + 1):
            prev = challenges[-1] if challenges else None
            cm, state = adversary.next_commitment(state, prev)
            commitments.append(cm)
            if i <= oracle_rounds:
                ctx = ArgContext(
                    params=params,
                    protocol=protocol,
                    round_index=i,
                    commitments=tuple(commitments),
                    challenges=tuple(challenges),
                    oracles=oracles,
                )
                oracle, kset, budget, _ = reductor(adversary, state, ctx, share, prng)
                oracles += (oracle,)
                knowledge += (kset,)
                budgets += (budget,)
            if raw is None:
                challenges.append(prng.take_bits(spec.randomness_bits[i - 1]))
            else:
                challenges.append(raw[i - 1])
        plan = protocol.verifier_query(challenges)
        response = adversary.final_response(state, plan)
    except IbcsError:
        return TrialRecord(
            tuple(challenges), tuple(commitments), oracles, knowledge, budgets, plan,
            response=None, voided=True,
        )
    return TrialRecord(
        tuple(challenges), tuple(commitments), oracles, knowledge, budgets, plan, response
    )


def accept_under_routing(
    protocol: IopProtocol, params: ArgParams, record: TrialRecord, oracle_rounds: int
) -> int:
    """Hybrid verifier on a trial: oracles answer rounds <= oracle_rounds,
    openings the rest; commitment checks apply to every round. A record
    that carries its zero-oracle decision answers routing 0 with it."""
    if record.response is None:
        return 0
    if oracle_rounds == 0 and record.decision is not None:
        return record.decision
    if oracle_rounds > len(record.oracles):
        raise ParameterError("routing needs more oracles than the trial extracted")
    return routed_decision(
        params, protocol, record.commitments, record.plan, record.response,
        record.oracles[:oracle_rounds], range(1, protocol.spec.rounds + 1),
    )


@dataclass(frozen=True)
class Estimate:
    successes: int
    trials: int
    radius: float

    @property
    def value(self) -> float:
        return self.successes / self.trials

    def to_dict(self) -> dict:
        return {
            "successes": self.successes,
            "trials": self.trials,
            "value": self.value,
            "radius": self.radius,
        }


def hybrid_value(
    protocol: IopProtocol,
    params: ArgParams,
    adversary,
    oracle_rounds: int,
    trials: int,
    seed: int,
    epsilon: float,
    label: str = "hybrid",
) -> Estimate:
    """Monte-Carlo estimate of the hybrid's acceptance with confidence radius."""
    if trials < 1:
        raise ParameterError("at least one trial required")
    share = error_share(epsilon, protocol.spec.rounds)
    trial_key = derive_stem(seed_root(seed), label, oracle_rounds)
    successes = 0
    for trial in range(trials):
        prng = Prng(trial_key(trial))
        record = run_hybrid_trial(protocol, params, adversary, oracle_rounds, share, prng)
        successes += accept_under_routing(protocol, params, record, oracle_rounds)
    return Estimate(successes, trials, hoeffding_radius(trials))


def measure_acceptance(
    protocol: IopProtocol,
    params: ArgParams,
    adversary,
    trials: int,
    seed: int,
    label: str = "accept",
) -> Estimate:
    """Plain argument acceptance: the zero-oracle hybrid."""
    return hybrid_value(
        protocol, params, adversary, 0, trials, seed, epsilon=1, label=label
    )


# ---------------------------------------------------------------------------
# failure events
# ---------------------------------------------------------------------------


@dataclass
class EventCounters:
    """Counts from the coupled hybrid pair at one round.

    `disagreements` is the answer-conflict event: the final opening passes
    its commitment check yet contradicts the extracted string at a shared
    queried position. `missing` counts accepted final runs whose query set
    left coverage: exactly the uniform-stop event the l/T bound governs.
    `raw_missing` drops the acceptance gate (diagnostic only).
    """

    round_index: int
    max_rewinds: int
    proof_length: int
    trials: int = 0
    voided: int = 0
    disagreements: int = 0
    missing: int = 0
    raw_missing: int = 0
    accept_openings: int = 0
    accept_oracle: int = 0
    binding_pairs: list = field(default_factory=list)

    @property
    def missing_bound(self) -> Fraction:
        return Fraction(self.proof_length, self.max_rewinds)

    def to_dict(self) -> dict:
        return {
            "round_index": self.round_index,
            "max_rewinds": self.max_rewinds,
            "proof_length": self.proof_length,
            "trials": self.trials,
            "voided": self.voided,
            "disagreements": self.disagreements,
            "missing": self.missing,
            "raw_missing": self.raw_missing,
            "accept_openings": self.accept_openings,
            "accept_oracle": self.accept_oracle,
            "missing_bound": float(self.missing_bound),
            "binding_breaks": len(self.binding_pairs),
        }


def run_events_experiment(
    protocol: IopProtocol,
    params: ArgParams,
    adversary,
    round_index: int,
    trials: int,
    seed: int,
    epsilon: float,
    label: str = "events",
) -> EventCounters:
    """Couple the opening-routed and oracle-routed verifiers at one round."""
    spec = protocol.spec
    if not 1 <= round_index <= spec.rounds:
        raise ParameterError("event round must lie in [1, k]")
    share = error_share(epsilon, spec.rounds)
    counters = EventCounters(
        round_index=round_index,
        max_rewinds=rewind_budget_limit(spec.max_proof_length, share),
        proof_length=spec.proof_lengths[round_index - 1],
    )
    trial_key = derive_stem(seed_root(seed), label, round_index)
    for trial in range(trials):
        counters.trials += 1
        prng = Prng(trial_key(trial))
        record = run_hybrid_trial(protocol, params, adversary, round_index, share, prng)
        if record.voided:
            counters.voided += 1
            continue
        if record.response is None:
            continue
        i = round_index
        plan, commitments, response = record.plan, record.commitments, record.response
        opened = len(response) == spec.rounds
        checked = [
            opened and check_openings(params, commitments, plan, response, (j,))
            for j in range(1, spec.rounds + 1)
        ]
        # The round-i game: openings from round i on verify, and the
        # decision reads the rounds below i from the extracted oracles. Each
        # round was checked once above, so the hybrid verifier checks none.
        game_won = all(checked[i - 1 :]) and routed_decision(
            params, protocol, commitments, plan, response, record.oracles[: i - 1], ()
        )
        if all(checked[: i - 1]):
            counters.accept_openings += game_won
            counters.accept_oracle += all(checked) and routed_decision(
                params, protocol, commitments, plan, response, record.oracles, ()
            )
        queries = plan.per_round[i - 1]
        oracle = record.oracles[i - 1]
        opening = response[i - 1]
        new_positions = [q for q in queries if q not in oracle.covered]
        if new_positions:
            counters.raw_missing += 1
            # The bound governs the accepting-run event: an accepted rewind
            # with new positions is exactly one more coverage step.
            if game_won:
                counters.missing += 1
        cm = commitments[i - 1]
        # A conflict needs a covered position, so some rewind won the round-i
        # game against this same commitment: the round-i check then says
        # exactly that the opening verifies at the planned positions.
        if checked[i - 1]:
            conflicts = [
                q
                for q, a in zip(opening.positions, opening.answers)
                if q in oracle.covered and oracle.symbols[q - 1] != a
            ]
            if conflicts:
                counters.disagreements += 1
                pair = _binding_pair(params, record.knowledge[i - 1], cm, opening, conflicts)
                if pair is not None:
                    counters.binding_pairs.append(pair)
    return counters


def _binding_pair(params, knowledge: KnowledgeSet, cm, opening, conflicts):
    """If a conflict yields two verifying openings, surface the witness pair."""
    for q in conflicts:
        for positions, answers, proof in knowledge.triples:
            if q in positions:
                idx = positions.index(q)
                if answers[idx] == opening.answers[opening.positions.index(q)]:
                    continue
                if vc_check(params.vc, cm, positions, answers, proof):
                    return {
                        "position": q,
                        "commitment_root": cm.root.hex(),
                        "opening_a": (opening.positions, opening.answers),
                        "opening_b": (positions, answers),
                    }
    return None


# ---------------------------------------------------------------------------
# bound calculator and knowledge pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremBounds:
    soundness_bound: Any
    knowledge_bound: Any
    iop_soundness: Any
    iop_knowledge: Any
    transformation_loss: Any

    def to_dict(self) -> dict:
        out = {
            "soundness_bound": float(self.soundness_bound),
            "transformation_loss": float(self.transformation_loss),
            "iop_soundness": float(self.iop_soundness),
        }
        if self.knowledge_bound is not None:
            out["knowledge_bound"] = float(self.knowledge_bound)
            out["iop_knowledge"] = float(self.iop_knowledge)
        return out


def theorem_bounds(
    spec,
    vc_binding_error,
    vc_collapsing_error,
    epsilon,
    iop_soundness,
    iop_knowledge=None,
) -> TheoremBounds:
    """Soundness and knowledge bounds for the compiled argument.

    Loss term: k * (binding + l_max * collapsing) + epsilon, added to the
    IOP's own soundness (and knowledge) error. Exact for exact input types.
    """
    for name, value in (
        ("vc_binding_error", vc_binding_error),
        ("vc_collapsing_error", vc_collapsing_error),
        ("epsilon", epsilon),
        ("iop_soundness", iop_soundness),
    ):
        if not 0 <= value <= 1:
            raise ParameterError(f"{name} must lie in [0, 1]")
    if iop_knowledge is not None and not 0 <= iop_knowledge <= 1:
        raise ParameterError("iop_knowledge must lie in [0, 1]")
    k = spec.rounds
    l_max = spec.max_proof_length
    loss = k * (vc_binding_error + l_max * vc_collapsing_error) + epsilon
    return TheoremBounds(
        soundness_bound=iop_soundness + loss,
        knowledge_bound=None if iop_knowledge is None else iop_knowledge + loss,
        iop_soundness=iop_soundness,
        iop_knowledge=iop_knowledge,
        transformation_loss=loss,
    )


@dataclass
class KnowledgeOutcome:
    success: bool
    witness: Any
    oracles: tuple[ExtractedOracle, ...]
    budgets: tuple[RewindBudget, ...]

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "witness": list(self.witness) if self.witness is not None else None,
            "covered": [sorted(o.covered) for o in self.oracles],
            "rewinds": [b.stop_time for b in self.budgets],
        }


def end_to_end_knowledge(
    protocol: IopProtocol,
    params: ArgParams,
    adversary,
    epsilon: float,
    seed: int,
    label: str = "knowledge",
) -> KnowledgeOutcome:
    """Extract a witness from an argument adversary via the IOP extractor.

    The extractor drives the reduction's IOP prover with the full rewind
    budget per round (coverage is monotone in the number of rewinds, and
    the uniform stopping time matters only for the coupling bound), then
    hands the extracted oracles to the IOP's own extractor. Failure is
    reported, never silent.
    """
    root = seed_root(seed)
    rewinds = Prng(derive(root, label, "rewind"))
    prover = ExtractorIopProver(protocol, params, adversary, epsilon, rewinds, stop="full")
    driver = Prng(derive(root, label, "challenges"))
    proof, state = prover.first()
    for i in range(2, protocol.spec.rounds + 1):
        challenge = driver.take_bits(protocol.spec.randomness_bits[i - 2])
        proof, state = prover.next_round(state, challenge)
    oracles = state.oracles
    witness = protocol.extract_witness([(o.covered, o.symbols) for o in oracles])
    success = protocol.check_witness(witness)
    return KnowledgeOutcome(
        success=success,
        witness=witness if success else None,
        oracles=oracles,
        budgets=state.budgets,
    )
