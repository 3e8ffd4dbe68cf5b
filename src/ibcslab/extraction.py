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
given its view (the `view(randomness)` contract in `ibcs`; every adversary
declares one, the raw vector if none narrower). A continuation from one
rewind point ends in one of three outcomes, voided (the adversary raised
an `IbcsError`), lost, or won with its round-i opening, and that outcome
depends only on the view of the challenge vector. So every adversary
keeps its outcomes in its `outcomes` memo (the contract is in `ibcs`), one
table per rewind point: a plain dict from view to outcome, kept with the
bytes it weighs. A round-i rewind point is (state, ctx): the state is a
value, keyed by itself, and its table weighs its bytes once
(`adversaries.rewind_point`), since the key keeps it alive, plus each
outcome. A zero-oracle hybrid trial starts from `start()`, which is
deterministic, so its point is (params, protocol). Either way the lab
draws exactly the bits it would draw anyway, and a repeated view is
replayed into the same counters, knowledge sets and trial records instead
of running the commit/open/plan/check path again. The hybrid verifier is
`ibcs.routed_decision`, the argument verifier with oracle rounds added. A
zero-oracle outcome is the played `TrialRecord` itself, its full-opening
decision included, which reads only the structured challenges (fixed by
the view) and the stored commitments, plan and response, so a replayed
trial is not decided again either. A replay builds its own record from
the stored one: this trial's challenges, and a plan with the stored
queries and structured vector and this trial's vector as its randomness,
with no check run again; its stream skip stays inside the bits it read
ahead. No caller holds a stored record. A trial with oracles is always
run.

One round function, `_next_round`, advances the extracted IOP prover
(and so the knowledge pipeline) and every hybrid and events trial: it
takes the adversary's next commitment and, in a round the run extracts,
rewinds it on the run's stream, after commitment i and before challenge i.
What an extracted round produced is one `ExtractedOracle`: its proof
string, the knowledge set that string was filled from, and the sampler's
counts (`SamplerStats`), whose rewinds run plus skipped are the round's
stop time. A run, a trial record and the knowledge outcome each carry one
tuple of them, round by round.

The per-trial stream keys of a hybrid value or an events experiment are
`derive(root, label, r, trial)`; they come from one `prng.derive_stem`,
which hashes the shared prefix once. A rewind's continuation (r_i, ...,
r_k), like a zero-oracle trial's whole vector, is one draw of the rounds'
summed widths, cut into one int per round by shifts and masks
(`_cut_draw`), as one draw per round would have returned them.
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from typing import Any, Sequence

from .adversaries import rewind_point, snapshot
from .errors import IbcsError, InfeasibleError, ParameterError
from .ibcs import PAD_SYMBOL, ArgParams, check_openings, routed_decision
from .iop import IopProtocol, QueryPlan
from .prng import Prng, derive, derive_stem, seed_root
from .vc import vc_check

CONFIDENCE_DELTA = 1e-6


def hoeffding_radius(trials: int) -> float:
    """Two-sided deviation radius at confidence 1 - `CONFIDENCE_DELTA`."""
    if trials < 1:
        raise ParameterError("radius needs at least one trial")
    return math.sqrt(math.log(2.0 / CONFIDENCE_DELTA) / (2.0 * trials))


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


@dataclass(frozen=True)
class ExtractedOracle:
    """The one record of an extracted round: its proof string (`covered`
    positions and `symbols`), the knowledge set it was filled from, and the
    sampler's counts, whose stop time is `stats.rewinds + stats.skipped`.

    A verifier reads only (round_index, covered, symbols), so only they
    compare and hash. `knowledge` and `stats` do not: a rewind replayed
    from the outcome memo differs from the rewind it replaces only in
    `stats.replayed`, so an oracle is the same with the memo on and off.
    """

    round_index: int
    covered: frozenset
    symbols: tuple[int, ...]
    knowledge: KnowledgeSet = field(compare=False)
    stats: SamplerStats = field(compare=False)


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


# Most rewinds one `extract` report may run (`rewind_allowance`). Each
# bound below is a report's worst case, T*k*((k+1)*trials + knowledge
# trials) at T = `rewind_budget_limit`, which the rewinds it runs never
# pass: the largest acceptance configuration, criterion 7's events on the
# n=2 sumcheck at round 2 and epsilon 1/4, 960,000 (10,000 trials of 2
# rounds of T = 48); the default `extract` on that sumcheck 297,600; every
# tier-1 `extract` report at most 9,720; the bench `lab` report 1,488. The
# budget is 4.3 times the largest of them.
DEFAULT_REWIND_BUDGET = 1 << 22


# The running report's budget and the rewinds its sampler calls have run.
@dataclass
class _Allowance:
    budget: int
    used: int = 0


_ALLOWANCE: ContextVar[_Allowance | None] = ContextVar("rewind_allowance", default=None)


@contextmanager
def rewind_allowance():
    """Within the block, the sampler counts the rewinds it runs and raises
    InfeasibleError once they pass `DEFAULT_REWIND_BUDGET`.

    A rewind skipped at saturation is not run, so not counted: an
    adversary that wins stops early at any epsilon, and only one that never
    covers a round runs all T = `rewind_budget_limit` of each round.
    """
    token = _ALLOWANCE.set(_Allowance(DEFAULT_REWIND_BUDGET))
    try:
        yield
    finally:
        _ALLOWANCE.reset(token)


@dataclass(frozen=True)
class ArgContext:
    """Everything fixed when round i's continuation is rewound."""

    params: ArgParams
    protocol: IopProtocol
    round_index: int
    commitments: tuple  # cm_1 .. cm_i
    challenges: tuple[int, ...]  # r_1 .. r_{i-1}
    oracles: tuple[ExtractedOracle, ...]  # rounds 1 .. i-1


# Outcomes of a rewind that records nothing; a won rewind's outcome is its
# round-i opening.
VOIDED = "voided"
LOST = "lost"


# An outcome weighs 32 bytes per digest and 8 per other value; a rewind's
# outcome also weighs the bytes of its rewind point.
def _opening_weight(opening) -> int:
    return 32 * len(opening.proof) + 8 * (len(opening.positions) + len(opening.answers))


def _cut_draw(value: int, widths: Sequence[int]) -> tuple[int, ...]:
    """A draw of sum(`widths`) bits cut into consecutive challenges of
    `widths`, as successive `take_bits` calls would have drawn them."""
    if len(widths) == 1:
        return (value,)
    out = []
    shift = sum(widths)
    for width in widths:
        shift -= width
        out.append((value >> shift) & ((1 << width) - 1))
    return tuple(out)


def run_continuation(adversary, state, ctx: ArgContext, continuation: Sequence[int]):
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


def _rewind(adversary, state, ctx: ArgContext, continuation: tuple[int, ...]):
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

    The call looks its rewind point (state, ctx) up once in the
    adversary's `outcomes` memo, filed under the state's hash, and walks
    the state only when the point misses. Each rewind draws its
    continuation (r_i, ..., r_k) with one `take_bits` and looks its view
    up in the point's table, a plain dict; a hit is replayed
    (`stats.replayed`) rather than run. The table weighs the state once
    plus each outcome, keeps a new outcome only while that stays within
    the memo's byte bound, and is put back once, if it grew. No table is
    kept, so nothing is replayed, when the memo keeps no entry or the
    state alone outweighs its byte bound. A won opening's positions are
    the planned round-i queries, which is what the knowledge set tests.

    Once coverage holds all l_i positions, every later rewind is covered,
    so it can record nothing: the remaining rewinds are skipped, and
    `skip_bits` moves the stream past the continuation bits they would
    have drawn. The stream ends where the full loop leaves it, so the
    caller's later draws are unchanged.

    Within `rewind_allowance`, the rewinds run count against the report's
    budget, and the loop stops one past it to raise.
    """
    spec = ctx.protocol.spec
    i = ctx.round_index
    knowledge = KnowledgeSet(proof_length=spec.proof_lengths[i - 1])
    stats = SamplerStats()
    widths = spec.randomness_bits[i - 1 :]
    drawn = sum(widths)
    view, memo = adversary.view, adversary.outcomes
    point = (state, ctx)
    # Equal points have equal states, so the state's hash files a point;
    # the key holds all of it, so unequal points never share a table.
    try:
        point_hash = hash(state)
    except TypeError:
        rewind_point(state)  # raises the TypeError that names what is no value
        raise
    kept = memo.get(point_hash, point)
    if kept is None:
        weight = rewind_point(state)
        table = {} if memo.max_entries and weight <= memo.max_bytes else None
    else:
        table, weight = kept
    grown = False
    fixed = ctx.challenges
    allowance = _ALLOWANCE.get()
    runs = iterations
    if allowance is not None:
        runs = min(iterations, allowance.budget - allowance.used + 1)
    try:
        for run in range(runs):
            if len(knowledge.coverage) == knowledge.proof_length:
                stats.skipped = iterations - run
                prng.skip_bits(stats.skipped * drawn)
                break
            stats.rewinds += 1
            continuation = _cut_draw(prng.take_bits(drawn), widths)
            seen = view(fixed + continuation)
            outcome = None if table is None else table.get(seen)
            if outcome is None:
                outcome = _rewind(adversary, state, ctx, continuation)
                if table is not None:
                    cost = 8 if outcome is VOIDED or outcome is LOST else _opening_weight(outcome)
                    if weight + cost <= memo.max_bytes:
                        table[seen] = outcome
                        weight += cost
                        grown = True
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
    finally:
        # The kept table grows in place; its weight must follow, even on a raise.
        if grown:
            memo.put(point_hash, point, (table, weight), weight)
    if allowance is not None:
        allowance.used += stats.rewinds
        if allowance.used > allowance.budget:
            raise InfeasibleError(f"extract ran past its budget of {allowance.budget} rewinds")
    return knowledge, stats


def fill_oracle(round_index: int, knowledge: KnowledgeSet, stats: SamplerStats) -> ExtractedOracle:
    """First write wins: later triples never overwrite earlier positions."""
    symbols = [PAD_SYMBOL] * knowledge.proof_length
    covered: set[int] = set()
    for positions, answers, _ in knowledge.triples:
        for q, a in zip(positions, answers):
            if q not in covered:
                covered.add(q)
                symbols[q - 1] = a
    return ExtractedOracle(round_index, frozenset(covered), tuple(symbols), knowledge, stats)


def reductor(
    adversary,
    state,
    ctx: ArgContext,
    share: Fraction,
    prng: Prng,
    stop: str = "uniform",
) -> ExtractedOracle:
    """Rewind round i and rebuild its proof string from the knowledge set.

    `stop="uniform"` draws the stopping time uniformly from [0, T], which
    is what the missing-position bound requires; `stop="full"` always runs
    all T rewinds and is what the knowledge extractor uses, since coverage
    only grows with more rewinds.
    """
    limit = rewind_budget_limit(ctx.protocol.spec.max_proof_length, share)
    if stop == "uniform":
        stop_time = prng.take_below(limit + 1)
    elif stop == "full":
        stop_time = limit
    else:
        raise ParameterError(f"unknown stopping rule {stop!r}")
    knowledge, stats = sampler(adversary, state, ctx, stop_time, prng)
    return fill_oracle(ctx.round_index, knowledge, stats)


# ---------------------------------------------------------------------------
# the round function and the extracted IOP prover
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _ExtractorState:
    """One run's record, which `_next_round` advances in place."""

    adversary_state: Any
    rewinds: Prng  # this run's rewind stream
    commitments: tuple = ()
    challenges: tuple[int, ...] = ()
    oracles: tuple[ExtractedOracle, ...] = ()


def _next_round(params, protocol, adversary, run: _ExtractorState, share, oracle_rounds, stop):
    """The one round step of every run: the adversary commits on the last
    challenge, and a round up to `oracle_rounds` is rewound on the run's
    stream (`reductor`) and its oracle appended. The caller appends the
    round's challenge."""
    challenges = run.challenges
    cm, run.adversary_state = adversary.next_commitment(
        run.adversary_state, challenges[-1] if challenges else None
    )
    run.commitments += (cm,)
    i = len(run.commitments)
    if i <= oracle_rounds:
        ctx = ArgContext(params, protocol, i, run.commitments, challenges, run.oracles)
        run.oracles += (reductor(adversary, run.adversary_state, ctx, share, run.rewinds, stop),)


class ExtractorIopProver:
    """IOP prover built from an argument adversary by per-round rewinding.

    Each round is the round function every hybrid and events trial also
    uses (`_next_round`), here with every round extracted; its message is
    the round's extracted string.

    `rewinds` names the rewind stream by its key: each run (each `first()`)
    starts a fresh `Prng` on that key and carries it in its state, so a
    reused extractor draws the same stopping times on every run. A state
    is a value: `next_round` advances a copy with its own stream.
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

    def _extract(self, run: _ExtractorState):
        rounds = self.protocol.spec.rounds
        _next_round(self.params, self.protocol, self.adversary, run, self.share, rounds, self.stop)
        return run.oracles[-1].symbols, run

    def first(self):
        return self._extract(_ExtractorState(self.adversary.start(), Prng(self.rewind_key)))

    def next_round(self, state: _ExtractorState, challenge: int):
        # A copy, with its own stream at the same position, so the state
        # handed out for the last round stays as it was.
        run = replace(state, rewinds=copy.copy(state.rewinds))
        run.challenges += (challenge,)
        return self._extract(run)


# ---------------------------------------------------------------------------
# hybrid experiments
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TrialRecord:
    """Everything one hybrid run produces, for any routing to be evaluated."""

    challenges: tuple[int, ...]
    commitments: tuple
    oracles: tuple[ExtractedOracle, ...]
    plan: QueryPlan | None  # the plan of `challenges` the adversary opened
    response: tuple | None
    voided: bool = False
    # A zero-oracle trial's full-opening decision, `accept_under_routing(...,
    # 0)`, kept with its outcome; None for a trial with oracles.
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

    A zero-oracle trial reads its challenge vector ahead (`peek_bits`) and
    looks its outcome, the record a trial with that view played, up in
    the table the adversary's `outcomes` memo keeps for (params, protocol),
    filed under the protocol's hash; only a miss plays the trial, on that
    vector, and decides it (`TrialRecord.decision`), adds the record if the
    table then stays within the memo's byte bound, and puts the table back.
    Either way the caller gets a new record built from the played one, so
    no caller holds a stored record: it carries this trial's own
    challenges, and its plan's `randomness` is this trial's vector. The
    stream then moves past the challenges the trial drew, which are all k
    unless the adversary raised before the last one.

    A replay hashes only the stream blocks it reads ahead, one for a
    vector of up to 256 bits, and the skip past the read-ahead bits stays
    inside the buffer.
    """
    spec = protocol.spec
    if not 0 <= oracle_rounds <= spec.rounds:
        raise ParameterError("oracle rounds must lie in [0, k]")
    if oracle_rounds:
        return _play_trial(protocol, params, adversary, oracle_rounds, share, prng)
    widths = spec.randomness_bits
    total = sum(widths)
    raw = _cut_draw(prng.peek_bits(total), widths)
    memo = adversary.outcomes
    seen = adversary.view(raw)
    # Equal points have equal protocols, so the protocol's hash files a point.
    h, point = hash(protocol), (params, protocol)
    table, weight = memo.get(h, point) or ({}, 0)
    played = table.get(seen)
    if played is None:
        played = _play_trial(protocol, params, adversary, 0, share, prng, raw)
        played.decision = accept_under_routing(protocol, params, played, 0)
        weight += 8 * len(raw) + 36 * len(played.commitments) + 8
        weight += sum(map(_opening_weight, played.response or ()))
        if weight <= memo.max_bytes:
            table[seen] = played
            memo.put(h, point, (table, weight), weight)
    drawn = len(played.challenges)
    plan = played.plan
    if plan is not None:
        plan = QueryPlan(plan.per_round, plan.structured, raw)
    record = TrialRecord(
        raw if drawn == len(raw) else raw[:drawn],
        played.commitments, (), plan, played.response, played.voided, played.decision,
    )
    prng.skip_bits(total if drawn == len(widths) else sum(widths[:drawn]))
    return record


def _play_trial(
    protocol: IopProtocol,
    params: ArgParams,
    adversary,
    oracle_rounds: int,
    share: Fraction,
    prng: Prng,
    raw: Sequence[int] | None = None,
) -> TrialRecord:
    """The trial itself, run by `_next_round` on `prng`; it draws each
    challenge from `prng` as its round comes, or takes it from `raw`, a
    zero-oracle trial's read-ahead vector. An `IbcsError` voids it."""
    run = _ExtractorState(adversary.start(), prng)
    plan = response = None
    voided = False
    try:
        for i, width in enumerate(protocol.spec.randomness_bits):
            _next_round(params, protocol, adversary, run, share, oracle_rounds, "uniform")
            run.challenges += (prng.take_bits(width) if raw is None else raw[i],)
        plan = protocol.verifier_query(run.challenges)
        response = adversary.final_response(run.adversary_state, plan)
    except IbcsError:
        response, voided = None, True
    return TrialRecord(run.challenges, run.commitments, run.oracles, plan, response, voided)


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
        return {**asdict(self), "value": self.value}


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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "binding_pairs"}
        out.update(missing_bound=float(self.missing_bound), binding_breaks=len(self.binding_pairs))
        return out


def run_events_experiment(
    protocol: IopProtocol,
    params: ArgParams,
    adversary,
    round_index: int,
    trials: int,
    seed: int,
    epsilon: float,
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
    trial_key = derive_stem(seed_root(seed), "events", round_index)
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
            opening = response[i - 1]
            conflicts = [
                q
                for q, a in zip(opening.positions, opening.answers)
                if q in oracle.covered and oracle.symbols[q - 1] != a
            ]
            if conflicts:
                counters.disagreements += 1
                pair = _binding_pair(params, oracle.knowledge, cm, opening, conflicts)
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
    _, state = prover.first()
    for width in protocol.spec.randomness_bits[:-1]:
        _, state = prover.next_round(state, driver.take_bits(width))
    oracles = state.oracles
    witness = protocol.extract_witness([(o.covered, o.symbols) for o in oracles])
    success = protocol.check_witness(witness)
    return KnowledgeOutcome(success=success, witness=witness if success else None, oracles=oracles)
