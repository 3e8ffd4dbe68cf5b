"""Public-coin IOP interface with a non-adaptive verifier.

The verifier is split into a query function and a decision function, both
deterministic in the instance and the per-round randomness. Challenges are
uniform bit strings; protocols map them onto structured spaces (an edge
index, a field element) with `map_to_range`, which is why each round also
declares the size of its structured challenge space: exhaustive oracles
enumerate that space directly.

An IOP prover is any object with `first()` and `next_round(state,
challenge)`, each returning the round's `ProofString` and the next state.
`iop_interact` runs one against the verifier, and `ibcs.ArgumentProver`
compiles one into an argument prover; `HonestIopProver` is the protocol's
own prover in that form.

`verifier_query` maps the challenges on every call but plans and validates
each structured challenge vector once while it stays in the protocol
object's plan cache, a `memo.BoundedMemo` of the `PLAN_CACHE_ENTRIES` most
recently used vectors that lives as long as the object (one report for the
CLI, which builds one protocol per report). A plan that failed validation
is never kept.
"""

from __future__ import annotations

import abc
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .errors import InfeasibleError, ParameterError, ProtocolViolation
from .memo import BoundedMemo
from .prng import Bits, Prng, map_to_range


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


@dataclass(frozen=True)
class ProofString:
    round_index: int
    symbols: tuple[int, ...]


# Structured challenge vectors whose validated plans one protocol object keeps.
PLAN_CACHE_ENTRIES = 1 << 9


@dataclass(frozen=True)
class QueryPlan:
    """Per-round query sets, each a strictly increasing 1-based sequence.

    `verifier_query` fills in `randomness`, the challenge vector, and
    `structured`, its mapped challenges, which `verifier_decide` reads.
    """

    per_round: tuple[tuple[int, ...], ...]
    structured: tuple[int, ...] = ()
    randomness: tuple[Bits, ...] = ()


class IopProtocol(abc.ABC):
    """An IOP bound to a concrete instance."""

    spec: IopSpec
    instance: Any

    # -- prover ----------------------------------------------------------
    @abc.abstractmethod
    def prover_init(self, witness) -> tuple[ProofString, Any]:
        """First proof string and the state carried into round 2."""

    @abc.abstractmethod
    def prover_next(self, state, challenge: Bits) -> tuple[ProofString, Any]:
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

    # -- verifier (bit-string view) ----------------------------------------
    def map_challenges(self, randomness: Sequence[Bits]) -> tuple[int, ...]:
        if len(randomness) != self.spec.rounds:
            raise ProtocolViolation(
                f"expected {self.spec.rounds} challenges, got {len(randomness)}"
            )
        out = []
        for i, bits in enumerate(randomness):
            want = self.spec.randomness_bits[i]
            if bits.nbits != want:
                raise ProtocolViolation(
                    f"round {i + 1} challenge is {bits.nbits} bits, expected {want}"
                )
            out.append(map_to_range(bits, self.challenge_space(i + 1)))
        return tuple(out)

    def verifier_query(self, randomness: Sequence[Bits]) -> QueryPlan:
        """Validated query plan for one challenge vector.

        Raises ProtocolViolation on malformed randomness or an invalid plan.
        The challenges are mapped on every call; the validated per-round
        queries are looked up by structured vector in `_plans`. A plan that
        fails validation is never kept.
        """
        structured = self.map_challenges(randomness)
        h = hash(structured)
        per_round = self._plans.get(h, structured)
        if per_round is None:
            plan = self.query_plan(structured)
            self._validate_plan(plan)
            per_round = plan.per_round
            weight = 8 * (len(structured) + sum(map(len, per_round)))
            self._plans.put(h, structured, per_round, weight)
        return QueryPlan(per_round, structured, tuple(randomness))

    @functools.cached_property
    def _plans(self) -> BoundedMemo:
        """Validated queries by structured vector, counted as 8 bytes per
        challenge and per query; every validated plan has the spec's shape,
        so the byte bound is what `PLAN_CACHE_ENTRIES` plans weigh."""
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


class HonestIopProver:
    """The protocol's honest prover as an IOP prover, on a fixed witness."""

    def __init__(self, protocol: IopProtocol, witness):
        self.protocol = protocol
        self.witness = witness

    def first(self) -> tuple[ProofString, Any]:
        return self.protocol.prover_init(self.witness)

    def next_round(self, state, challenge: Bits) -> tuple[ProofString, Any]:
        return self.protocol.prover_next(state, challenge)


@dataclass(frozen=True)
class InteractionResult:
    accept: int
    proofs: tuple[ProofString, ...]
    challenges: tuple[Bits, ...]
    violation: str | None = None


def _collect_round(protocol: IopProtocol, prover, state, i: int, prev: Bits | None):
    if i == 1:
        proof, state = prover.first()
    else:
        proof, state = prover.next_round(state, prev)
    if proof.round_index != i:
        raise ProtocolViolation(f"prover answered round {proof.round_index} during round {i}")
    if len(proof.symbols) != protocol.spec.proof_lengths[i - 1]:
        raise ProtocolViolation(
            f"round {i} proof string has length {len(proof.symbols)}, "
            f"expected {protocol.spec.proof_lengths[i - 1]}"
        )
    if any(not 0 <= s < protocol.spec.alphabet_size for s in proof.symbols):
        raise ProtocolViolation(f"round {i} proof string has out-of-alphabet symbol")
    return proof, state


def _read_answers(plan: QueryPlan, proofs: Sequence[ProofString]):
    return tuple(
        tuple(proof.symbols[q - 1] for q in queries)
        for proof, queries in zip(proofs, plan.per_round)
    )


def iop_interact(protocol: IopProtocol, prover, prng: Prng) -> InteractionResult:
    """Canonical execution: all proof strings collected, queries postponed."""
    spec = protocol.spec
    proofs: list[ProofString] = []
    challenges: list[Bits] = []
    state = None
    try:
        for i in range(1, spec.rounds + 1):
            prev = challenges[-1] if challenges else None
            proof, state = _collect_round(protocol, prover, state, i, prev)
            proofs.append(proof)
            challenges.append(prng.take_bits(spec.randomness_bits[i - 1]))
    except ProtocolViolation as exc:
        return InteractionResult(0, tuple(proofs), tuple(challenges), violation=str(exc))
    plan = protocol.verifier_query(challenges)
    accept = protocol.verifier_decide(plan, _read_answers(plan, proofs))
    return InteractionResult(accept, tuple(proofs), tuple(challenges))


DEFAULT_ORACLE_BUDGET = 1 << 24


def oracle_cost(protocol: IopProtocol) -> int:
    """Decision evaluations a full strategy-tree enumeration would need."""
    spec = protocol.spec
    cost = 1
    for i in range(spec.rounds):
        cost *= spec.alphabet_size ** spec.proof_lengths[i]
        cost *= protocol.challenge_space(i + 1)
    return cost


def brute_force_soundness(
    protocol: IopProtocol, budget: int = DEFAULT_ORACLE_BUDGET
) -> Fraction:
    """Exact best acceptance probability over all adaptive proof strategies.

    Maximizes round by round: the strategy may pick each proof string as a
    function of all previous structured challenges. Raises InfeasibleError
    rather than returning an approximation when the tree exceeds `budget`.
    """
    cost = oracle_cost(protocol)
    if cost > budget:
        raise InfeasibleError(
            f"strategy tree needs {cost} decision evaluations, budget is {budget}"
        )
    spec = protocol.spec
    alphabet = range(spec.alphabet_size)

    def best(i: int, structured: tuple[int, ...], proofs: tuple[tuple[int, ...], ...]):
        if i > spec.rounds:
            plan = protocol.query_plan(structured)
            answers = tuple(
                tuple(proof[q - 1] for q in queries)
                for proof, queries in zip(proofs, plan.per_round)
            )
            return Fraction(protocol.decide(structured, answers))
        space = protocol.challenge_space(i)
        value = Fraction(0)
        for candidate in itertools.product(alphabet, repeat=spec.proof_lengths[i - 1]):
            total = Fraction(0)
            for challenge in range(space):
                total += best(i + 1, structured + (challenge,), proofs + (candidate,))
            value = max(value, total / space)
        return value

    return best(1, (), ())
