"""Public-coin IOP interface with a non-adaptive verifier.

The verifier is split into a query function and a decision function, both
deterministic in the instance and the per-round randomness. A round's
challenge is a uniform int of the round's width in bits (the contract is
in `ibcs`); `map_challenges` reduces it mod the size of the round's
structured challenge space (an edge index, a field element), which each
round declares so that exhaustive oracles can enumerate that space
directly.

An IOP prover is any object with `first()` and `next_round(state,
challenge)`, each returning the round's proof string and the next state. A
proof string is a tuple of ints; its round is its position in the
interaction. `ibcs.ArgumentProver` compiles an IOP prover into an argument
prover; `HonestIopProver` is the protocol's own prover in that form.

A protocol answers for its own instance: `honest_witness` names the
witness the honest prover plays, `in_language` checks it, `cheat_strategy`
is the best play without one, and `exact_soundness` is the exact oracle
value with the method that produced it. The adversaries and the CLI read
only these, so a new protocol needs no edit there.

Which layer checks what: `check_proof_string` is the IOP's one shape rule
for a round's string (its length l_i, and every symbol an int in the
alphabet, by `vc.first_bad_symbol`), with ProtocolViolation; the compiled
prover calls it on every round before committing. `vc.vc_commit` checks
only the commitment's bit width, and a protocol's constructor or
`prover_init` checks its own witness or coefficient table.

`verifier_query` maps the challenges on every call; `plan_queries` plans
each structured vector once while it stays in the protocol object's plan
cache, a `memo.BoundedMemo` of the `PLAN_CACHE_ENTRIES` most recently used
entries that lives as long as the object (one report for the CLI, which
builds one protocol per report). The same memo keeps the per-round query
tuples that passed validation, so a tuple that many vectors share (every
sumcheck vector plans the same one) is validated once while it stays
there. A plan that failed validation is never kept.

`brute_force_soundness` is the exact oracle: it enumerates every adaptive
strategy in integer counts and plans through `plan_queries`, so it decides
on the verifier's validated plans and leaves them in the memo for the
report's trials. Its last round is a table walk by answer pattern: the
decision is taken once per distinct projection of the last string onto the
planned positions, not once per candidate string.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from .errors import InfeasibleError, ParameterError, ProtocolViolation
from .memo import BoundedMemo
from .prng import RANGE_SLACK_BITS
from .vc import first_bad_symbol


@dataclass(frozen=True)
class IopSpec:
    """Static shape of an IOP: lengths, query counts, randomness widths."""

    rounds: int
    alphabet_size: int
    symbol_bits: int
    proof_lengths: tuple[int, ...]
    randomness_bits: tuple[int, ...]
    query_counts: tuple[int, ...]
    relation_id: str

    def __post_init__(self):
        k = self.rounds
        if k < 1:
            raise ParameterError("an IOP has at least one round")
        if self.alphabet_size < 2:
            raise ParameterError("alphabet needs at least two symbols")
        expected_bits = max(1, (self.alphabet_size - 1).bit_length())
        if self.symbol_bits != expected_bits:
            raise ParameterError("symbol width must be ceil(log2 |alphabet|)")
        for name, seq in (
            ("proof_lengths", self.proof_lengths),
            ("randomness_bits", self.randomness_bits),
            ("query_counts", self.query_counts),
        ):
            if len(seq) != k:
                raise ParameterError(f"{name} must have one entry per round")
        if any(l < 1 for l in self.proof_lengths):
            raise ParameterError("every round sends at least one symbol")
        if any(q < 1 or q > l for q, l in zip(self.query_counts, self.proof_lengths)):
            raise ParameterError("query counts must lie in [1, l_i]")

    @property
    def max_proof_length(self) -> int:
        return max(self.proof_lengths)


# Entries of one protocol object's plan cache: structured challenge vectors
# with their validated plans, and validated per-round query tuples.
PLAN_CACHE_ENTRIES = 1 << 9


class QueryPlan(NamedTuple):
    """Per-round query sets, each a strictly increasing 1-based sequence.

    `verifier_query` fills in `randomness`, the challenge vector, and
    `structured`, its mapped challenges, which `verifier_decide` reads.

    A named tuple, so its one constructor is also the fast one: the lab
    builds a plan on every rewind, trial and session, and a frozen
    dataclass's field setters cost twice as much. A plan never sits in a
    prover state (a prover sees one only in `final_response`, which
    returns no state), so it need not be a value in the sense of
    `adversaries.rewind_point`, which a named tuple is not.
    """

    per_round: tuple[tuple[int, ...], ...]
    structured: tuple[int, ...] = ()
    randomness: tuple[int, ...] = ()


# strategy(round_index, challenges so far, previously sent unpadded strings):
# the round's string, for a prover that plays a script rather than a witness.
Strategy = Callable[[int, tuple[int, ...], tuple[tuple[int, ...], ...]], Sequence[int]]


class IopProtocol(abc.ABC):
    """An IOP bound to a concrete instance."""

    spec: IopSpec
    instance: Any

    # -- prover ----------------------------------------------------------
    @abc.abstractmethod
    def prover_init(self, witness) -> tuple[tuple[int, ...], Any]:
        """First proof string and the state carried into round 2."""

    @abc.abstractmethod
    def prover_next(self, state, challenge: int) -> tuple[tuple[int, ...], Any]:
        """Proof string for the state's round, given the previous challenge."""

    # -- verifier (structured view) ---------------------------------------
    @abc.abstractmethod
    def challenge_space(self, round_index: int) -> int:
        """Size of the structured challenge space for a 1-based round."""

    @abc.abstractmethod
    def query_plan(self, structured: Sequence[int]) -> QueryPlan:
        ...

    @abc.abstractmethod
    def decide(self, structured: Sequence[int], answers: Sequence[Sequence[int]]) -> int:
        ...

    # -- relation ----------------------------------------------------------
    @abc.abstractmethod
    def check_witness(self, witness) -> bool:
        ...

    def extract_witness(self, oracles: Sequence[tuple[frozenset, tuple[int, ...]]]):
        """IOP extractor: map per-round (covered positions, string) to a witness."""
        raise NotImplementedError

    def honest_witness(self):
        """The witness the honest prover plays on this instance, or None
        when none is known; `in_language` checks it."""
        return None

    def in_language(self) -> bool:
        """Whether `honest_witness` exists and passes `check_witness`."""
        witness = self.honest_witness()
        return witness is not None and self.check_witness(witness)

    def cheat_strategy(self) -> Strategy:
        """The best play without a witness, as a `Strategy` whose acceptance
        is `exact_soundness`; it reads each challenge only mod its round's
        challenge space, so a prover playing it declares the structured view."""
        raise ParameterError(f"no cheat strategy for {type(self).__name__}")

    def exact_soundness(self) -> tuple[Fraction | None, str]:
        """The exact best acceptance over all strategies with the method
        that produced it: `brute_force_soundness`, or (None, "infeasible")
        past its budget."""
        try:
            return brute_force_soundness(self), "strategy-enumeration"
        except InfeasibleError:
            return None, "infeasible"

    # -- verifier (raw view) ------------------------------------------------
    def map_challenges(self, randomness: Sequence[int]) -> tuple[int, ...]:
        """The structured challenges of a raw vector: each r_i mod its
        round's space size. Raises ProtocolViolation, naming the round, on a
        vector of the wrong length or an r_i outside [0, 2**w_i)."""
        shapes = self._challenge_shapes
        if len(randomness) != len(shapes):
            raise ProtocolViolation(
                f"expected {len(shapes)} challenges, got {len(randomness)}"
            )
        structured = ()
        for i, (r, (width, space)) in enumerate(zip(randomness, shapes), 1):
            if r >> width:  # nonzero for r < 0 and for r >= 2**width
                raise ProtocolViolation(f"round {i} challenge lies outside [0, 2**{width})")
            structured += (r % space,)
        return structured

    @functools.cached_property
    def _challenge_shapes(self) -> tuple[tuple[int, int], ...]:
        """Each round's (challenge width in bits, structured space size).

        Reducing a uniform w-bit int mod m is within 2**-64 total variation
        of uniform on [0, m) when w >= ceil(log2 m) + `RANGE_SLACK_BITS`; a
        round whose width falls short raises ParameterError here, once per
        protocol object.
        """
        shapes = tuple(
            (width, self.challenge_space(i))
            for i, width in enumerate(self.spec.randomness_bits, 1)
        )
        for i, (width, space) in enumerate(shapes, 1):
            if space < 1:
                raise ParameterError(f"round {i} challenge space must be nonempty")
            need = (space - 1).bit_length() + RANGE_SLACK_BITS
            if space > 1 and width < need:
                raise ParameterError(
                    f"round {i} challenge is too short to map onto {space} values: "
                    f"{width} < {need} bits"
                )
        return shapes

    def verifier_query(self, randomness: Sequence[int]) -> QueryPlan:
        """Validated query plan for one challenge vector; raises
        ProtocolViolation on malformed randomness or an invalid plan."""
        structured = self.map_challenges(randomness)
        return QueryPlan(self.plan_queries(structured), structured, tuple(randomness))

    def plan_queries(self, structured: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Validated per-round queries for one structured challenge vector.

        Raises ProtocolViolation on an invalid plan. The queries are looked
        up by structured vector in `_plans`, and a planned query tuple is
        validated unless `_plans` keeps it under itself as one already
        validated. A plan that fails validation is never kept.
        """
        h = hash(structured)
        per_round = self._plans.get(h, structured)
        if per_round is None:
            plan = self.query_plan(structured)
            per_round = plan.per_round
            weight = 8 * sum(map(len, per_round))
            hq = hash(per_round)
            if self._plans.get(hq, per_round) is None:
                self._validate_plan(plan)
                self._plans.put(hq, per_round, per_round, weight)
            self._plans.put(h, structured, per_round, weight + 8 * len(structured))
        return per_round

    @functools.cached_property
    def _plans(self) -> BoundedMemo:
        """Validated queries by structured vector, and validated query
        tuples by themselves, counted as 8 bytes per challenge and per
        query; every validated plan has the spec's shape, so the byte bound
        is what `PLAN_CACHE_ENTRIES` plans weigh. A vector and a query tuple
        never compare equal, so neither is ever taken for the other."""
        plan_bytes = 8 * (self.spec.rounds + sum(self.spec.query_counts))
        return BoundedMemo(PLAN_CACHE_ENTRIES, PLAN_CACHE_ENTRIES * plan_bytes)

    def verifier_decide(self, plan: QueryPlan, answers: Sequence[Sequence[int]]) -> int:
        """Decision on the answers to a plan from `verifier_query`; 0 on a shape mismatch."""
        if len(answers) != self.spec.rounds:
            return 0
        for ans, queries in zip(answers, plan.per_round):
            if len(ans) != len(queries):
                return 0
        return self.decide(plan.structured, answers)

    def _validate_plan(self, plan: QueryPlan):
        if len(plan.per_round) != self.spec.rounds:
            raise ProtocolViolation("query plan has wrong round count")
        for i, queries in enumerate(plan.per_round):
            if len(queries) != self.spec.query_counts[i]:
                raise ProtocolViolation(f"round {i + 1} query count mismatch")
            if any(b <= a for a, b in zip(queries, queries[1:])):
                raise ProtocolViolation(f"round {i + 1} queries not increasing")
            if any(not 1 <= q <= self.spec.proof_lengths[i] for q in queries):
                raise ProtocolViolation(f"round {i + 1} query outside proof string")


def check_proof_string(spec: IopSpec, round_index: int, symbols: Sequence[int]) -> None:
    """Raise ProtocolViolation unless `symbols` is a round `round_index`
    string of `spec`: l_i symbols, each an int in [0, |alphabet|)."""
    length = spec.proof_lengths[round_index - 1]
    if len(symbols) != length:
        raise ProtocolViolation(
            f"round {round_index} proof string has length {len(symbols)}, expected {length}"
        )
    bad = first_bad_symbol(symbols, spec.alphabet_size)
    if bad:
        raise ProtocolViolation(
            f"round {round_index} proof string has an out-of-alphabet symbol at position {bad}"
        )


class HonestIopProver:
    """The protocol's honest prover as an IOP prover, on a fixed witness."""

    def __init__(self, protocol: IopProtocol, witness):
        self.protocol = protocol
        self.witness = witness

    def first(self) -> tuple[tuple[int, ...], Any]:
        return self.protocol.prover_init(self.witness)

    def next_round(self, state, challenge: int) -> tuple[tuple[int, ...], Any]:
        return self.protocol.prover_next(state, challenge)


DEFAULT_ORACLE_BUDGET = 1 << 24


def bounded_count(terms, budget: int) -> int:
    """The sum over `terms` of each term's product of factors, counted only
    while it stays within `budget`: past it, the first partial sum or
    product that passes it is returned as it stands. A count far past the
    budget so costs a few steps, never a huge integer; every factor is at
    least 1."""
    total = 0
    for factors in terms:
        product = 1
        for factor in factors:
            product *= factor
            if total + product > budget:
                return total + product
        total += product
    return total


def oracle_cost(protocol: IopProtocol) -> int:
    """Decision evaluations a full strategy-tree enumeration would need,
    counted up to `DEFAULT_ORACLE_BUDGET` (`bounded_count`)."""
    spec = protocol.spec
    factors = itertools.chain.from_iterable(
        itertools.chain(itertools.repeat(spec.alphabet_size, l), (protocol.challenge_space(i),))
        for i, l in enumerate(spec.proof_lengths, 1)
    )
    return bounded_count((factors,), DEFAULT_ORACLE_BUDGET)


def brute_force_soundness(protocol: IopProtocol) -> Fraction:
    """Exact best acceptance probability over all adaptive proof strategies.

    Maximizes round by round: the strategy may pick each proof string as a
    function of all previous structured challenges. Raises InfeasibleError
    rather than returning an approximation when the tree needs more than
    `DEFAULT_ORACLE_BUDGET` decisions.

    The enumeration counts in integers: a node's count is the best, over
    its proof strings, of the summed counts below it, and a leaf counts the
    decision. Each round's challenge space has the same size at every
    node, so the best acceptance is the root count over the product of the
    challenge-space sizes, one `Fraction` at the end. Each structured
    vector is planned as the verifier plans it (`plan_queries`).

    The last round is a table walk. The decision at a leaf reads only the
    planned positions of the last string, so under each structured vector
    every last-round candidate is projected onto those positions, the
    decision is taken once per distinct answer pattern, and each candidate
    adds its pattern's decision to its running total; the node's count is
    the best total. K4's tree has 486 leaves but 54 decisions: each of 6
    edges reads 2 of 4 positions, 9 patterns of 3 colors.
    """
    if oracle_cost(protocol) > DEFAULT_ORACLE_BUDGET:
        raise InfeasibleError(
            "strategy tree needs more decision evaluations than its budget; "
            f"budget is {DEFAULT_ORACLE_BUDGET}"
        )
    spec = protocol.spec
    spaces = [protocol.challenge_space(i) for i in range(1, spec.rounds + 1)]
    candidates = [
        tuple(itertools.product(range(spec.alphabet_size), repeat=length))
        for length in spec.proof_lengths
    ]
    last = candidates[-1]

    def last_round(structured: tuple[int, ...], proofs: tuple[tuple[int, ...], ...]) -> int:
        totals = [0] * len(last)
        for challenge in range(spaces[-1]):
            vector = structured + (challenge,)
            per_round = protocol.plan_queries(vector)
            earlier = tuple(
                tuple(proof[q - 1] for q in queries)
                for proof, queries in zip(proofs, per_round)
            )
            positions = [q - 1 for q in per_round[-1]]
            patterns = list(map(operator.itemgetter(*positions), last))
            if len(positions) == 1:  # a one-position getter returns the symbol
                patterns = [(symbol,) for symbol in patterns]
            decisions = {
                pattern: protocol.decide(vector, earlier + (pattern,))
                for pattern in dict.fromkeys(patterns)
            }
            totals = list(map(operator.add, totals, map(decisions.__getitem__, patterns)))
        return max(totals)

    def best(i: int, structured: tuple[int, ...], proofs: tuple[tuple[int, ...], ...]) -> int:
        if i == spec.rounds - 1:
            return last_round(structured, proofs)
        return max(
            sum(
                best(i + 1, structured + (challenge,), proofs + (candidate,))
                for challenge in range(spaces[i])
            )
            for candidate in candidates[i]
        )

    return Fraction(best(0, (), ()), math.prod(spaces))
