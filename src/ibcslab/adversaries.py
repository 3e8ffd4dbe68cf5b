"""Scripted, rewindable argument provers for the extraction experiments.

Every adversary follows the session-prover contract (`start`,
`next_commitment(state, challenge)`, `final_response(state, plan)`), keeps
its whole state in the value passed through those calls, and is
deterministic given (state, challenge) and (state, plan). The caller owns
the query plan: whoever drew the challenges computes it once and passes it
in, and the adversary only decides what to open. States are immutable
values (frozen dataclasses and tuples), so a snapshot is the state itself,
and `state_digest` certifies that a rewind left the adversary untouched.

The adversaries that commit (`ScriptedProver`, `Equivocator`, and the
honest `ArgumentProver` the wrappers decorate) each commit through their
own `ibcs.CommitMemo`. The CLI builds one adversary per report, so the
report's trials and rewinds share it, and a message committed before is
not hashed again. The memo is bounded by `ibcs.COMMIT_MEMO_ENTRIES` entries
and `ibcs.COMMIT_MEMO_BYTES` bytes of commitment trees; no two adversary
objects share one.

Returning None from `final_response` models an abort: the adversary walks
away instead of opening, and the verifier rejects.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InstanceError, ParameterError, ProtocolViolation
from .ibcs import ArgParams, ArgumentProver, CommitMemo, pad_proof_string
from .iop import IopProtocol, QueryPlan
from .prng import Bits, map_to_range
from .toys import (
    GraphColoringIop,
    SumcheckCheatPlan,
    SumcheckIop,
    best_coloring,
    find_coloring,
    poly_eval,
)
from .vc import CommitAux, Opening, vc_open


def state_digest(state) -> bytes:
    """Canonical fingerprint of a prover state for snapshot-fidelity checks."""
    return hashlib.sha256(pickle.dumps(state, protocol=4)).digest()


def snapshot(state):
    """The rewind point: prover states are immutable, so the state itself."""
    return state


def honest_wrapper(protocol: IopProtocol, params: ArgParams, witness) -> ArgumentProver:
    """The honest argument prover, usable wherever an adversary is expected."""
    if not protocol.check_witness(witness):
        raise InstanceError("honest wrapper needs a valid witness")
    return ArgumentProver(protocol, params, witness)


# strategy(round_index, challenges so far, previously sent unpadded strings)
Strategy = Callable[[int, tuple[Bits, ...], tuple[tuple[int, ...], ...]], Sequence[int]]


@dataclass(frozen=True)
class _ScriptState:
    next_round: int
    challenges: tuple[Bits, ...]
    strings: tuple[tuple[int, ...], ...]
    auxes: tuple[CommitAux, ...]


class ScriptedProver:
    """Commits whatever a strategy dictates, then opens those strings honestly."""

    def __init__(self, protocol: IopProtocol, params: ArgParams, strategy: Strategy):
        self.protocol = protocol
        self.params = params
        self.strategy = strategy
        self.commits = CommitMemo(params.vc)

    def start(self) -> _ScriptState:
        return _ScriptState(1, (), (), ())

    def next_commitment(self, state: _ScriptState, challenge: Bits | None):
        spec = self.protocol.spec
        i = state.next_round
        if i > spec.rounds:
            raise ProtocolViolation("all commitment rounds already sent")
        if (challenge is None) != (i == 1):
            raise ProtocolViolation("challenge expected exactly from round 2 on")
        challenges = state.challenges if challenge is None else state.challenges + (challenge,)
        symbols = tuple(self.strategy(i, challenges, state.strings))
        if len(symbols) != spec.proof_lengths[i - 1]:
            raise ProtocolViolation(f"strategy emitted a wrong-length round {i} string")
        cm, aux = self.commits.commit(pad_proof_string(spec, symbols))
        return cm, _ScriptState(
            i + 1, challenges, state.strings + (symbols,), state.auxes + (aux,)
        )

    def final_response(self, state: _ScriptState, plan: QueryPlan):
        spec = self.protocol.spec
        if state.next_round != spec.rounds + 1:
            raise ProtocolViolation("final response requested before all commitments")
        return tuple(
            vc_open(self.params.vc, state.auxes[i], plan.per_round[i])
            for i in range(spec.rounds)
        )


def fixed_string_prover(
    protocol: IopProtocol, params: ArgParams, strings: Sequence[Sequence[int]]
) -> ScriptedProver:
    frozen = tuple(tuple(s) for s in strings)
    if len(frozen) != protocol.spec.rounds:
        raise ParameterError("one scripted string required per round")
    return ScriptedProver(protocol, params, lambda i, _c, _s: frozen[i - 1])


def optimal_gc_cheater(protocol: GraphColoringIop, params: ArgParams) -> ScriptedProver:
    """Commits the coloring maximizing satisfied edges; acceptance is the oracle value."""
    coloring, _ = best_coloring(protocol.instance)
    return fixed_string_prover(protocol, params, (coloring,))


def optimal_sumcheck_cheater(
    protocol: SumcheckIop, params: ArgParams, plan: SumcheckCheatPlan | None = None
) -> ScriptedProver:
    """Plays the exact maximizing strategy of the cheat program."""
    plan = plan or SumcheckCheatPlan(protocol.instance)
    p = protocol.instance.prime

    def strategy(i, challenges, strings):
        structured = tuple(map_to_range(c, p) for c in challenges)
        if i == 1:
            required = protocol.instance.claimed_sum
        else:
            required = poly_eval(strings[i - 2], structured[i - 2], p)
        return plan.table_for(structured, required)

    return ScriptedProver(protocol, params, strategy)


class _WrapperProver:
    """Shared plumbing for adversaries that decorate an inner prover; the
    states and commitments are the inner prover's own."""

    def __init__(self, protocol: IopProtocol, inner):
        self.protocol = protocol
        self.inner = inner

    def start(self):
        return self.inner.start()

    def next_commitment(self, state, challenge: Bits | None):
        return self.inner.next_commitment(state, challenge)


class Withholder(_WrapperProver):
    """Commits like the inner prover but refuses to open certain positions.

    Runs where a refused position is queried end in an abort, so those
    positions can never enter a knowledge set: the extracted oracle stays
    blind there, which is exactly the missing-position stress case. The
    refusal is read off the plan, before the inner prover opens anything.
    """

    def __init__(self, protocol: IopProtocol, inner, refuses: Callable[[int, int], bool]):
        super().__init__(protocol, inner)
        self.refuses = refuses

    def final_response(self, state, plan: QueryPlan):
        for round_index, queries in enumerate(plan.per_round, start=1):
            if any(self.refuses(round_index, q) for q in queries):
                return None
        return self.inner.final_response(state, plan)


class Grinder(_WrapperProver):
    """Finishes the protocol only on challenge vectors in its accept set."""

    def __init__(
        self,
        protocol: IopProtocol,
        inner,
        predicate: Callable[[tuple[Bits, ...]], bool],
        measure: Fraction | None = None,
    ):
        super().__init__(protocol, inner)
        self.predicate = predicate
        self.measure = measure

    def final_response(self, state, plan: QueryPlan):
        if not self.predicate(plan.randomness):
            return None
        return self.inner.final_response(state, plan)


def grinder_on_leading_bits(
    protocol: IopProtocol, inner, zero_bits: int
) -> Grinder:
    """Accept set: the first `zero_bits` bits of r_1 are all zero (measure 2**-n)."""
    if not 0 <= zero_bits <= protocol.spec.randomness_bits[0]:
        raise ParameterError("zero-bit count exceeds the round-1 randomness")

    def predicate(challenges: tuple[Bits, ...]) -> bool:
        first = challenges[0]
        return first.value >> (first.nbits - zero_bits) == 0 if zero_bits else True

    return Grinder(protocol, inner, predicate, measure=Fraction(1, 2**zero_bits))


def always_abort(protocol: IopProtocol, inner) -> Grinder:
    return Grinder(protocol, inner, lambda _c: False, measure=Fraction(0))


@dataclass(frozen=True)
class _EquivState:
    next_round: int
    auxes: tuple[CommitAux, ...]


class Equivocator:
    """Commits to the A strings but answers from B, reusing A's proofs.

    Wherever A and B differ at a queried position the opening carries a
    digest chain for the A symbol with the B answer attached, so the
    commitment check must fail; a success would be a position-binding break.
    """

    def __init__(
        self,
        protocol: IopProtocol,
        params: ArgParams,
        strings_a: Sequence[Sequence[int]],
        strings_b: Sequence[Sequence[int]],
    ):
        spec = protocol.spec
        self.protocol = protocol
        self.params = params
        self.a = tuple(pad_proof_string(spec, s) for s in strings_a)
        self.b = tuple(pad_proof_string(spec, s) for s in strings_b)
        if len(self.a) != spec.rounds or len(self.b) != spec.rounds:
            raise ParameterError("one A and one B string required per round")
        self.commits = CommitMemo(params.vc)

    def start(self) -> _EquivState:
        return _EquivState(1, ())

    def next_commitment(self, state: _EquivState, challenge: Bits | None):
        i = state.next_round
        if i > self.protocol.spec.rounds:
            raise ProtocolViolation("all commitment rounds already sent")
        if (challenge is None) != (i == 1):
            raise ProtocolViolation("challenge expected exactly from round 2 on")
        cm, aux = self.commits.commit(self.a[i - 1])
        return cm, _EquivState(i + 1, state.auxes + (aux,))

    def final_response(self, state: _EquivState, plan: QueryPlan):
        openings = []
        for i, queries in enumerate(plan.per_round):
            honest = vc_open(self.params.vc, state.auxes[i], queries)
            answers = tuple(self.b[i][q - 1] for q in queries)
            openings.append(Opening(positions=honest.positions, answers=answers, proof=honest.proof))
        return tuple(openings)


def default_cheat_base(protocol: IopProtocol, params: ArgParams, witness=None):
    """Honest play when a witness exists, otherwise the optimal scripted cheat."""
    if witness is not None:
        return honest_wrapper(protocol, params, witness)
    if isinstance(protocol, GraphColoringIop):
        w = find_coloring(protocol.instance)
        if w is not None:
            return honest_wrapper(protocol, params, w)
        return optimal_gc_cheater(protocol, params)
    if isinstance(protocol, SumcheckIop):
        if protocol.in_language():
            return honest_wrapper(protocol, params, ())
        return optimal_sumcheck_cheater(protocol, params)
    raise ParameterError(f"no default strategy for {type(protocol)!r}")


def make_adversary(name: str, protocol: IopProtocol, params: ArgParams, witness=None):
    """CLI selector: honest | optimal | abort | equivocator | withholder[:pos] | grinder[:bits]."""
    base_name, _, option = name.partition(":")
    if base_name == "honest":
        if witness is None:
            witness = _find_witness(protocol)
        return honest_wrapper(protocol, params, witness)
    if base_name == "optimal":
        if isinstance(protocol, GraphColoringIop):
            return optimal_gc_cheater(protocol, params)
        if isinstance(protocol, SumcheckIop):
            return optimal_sumcheck_cheater(protocol, params)
        raise ParameterError(f"no optimal cheat for {type(protocol)!r}")
    base = default_cheat_base(protocol, params, witness)
    if base_name == "abort":
        return always_abort(protocol, base)
    if base_name == "withholder":
        refused = int(option) if option else 1
        return Withholder(protocol, base, lambda _r, q: q == refused)
    if base_name == "grinder":
        bits = int(option) if option else 1
        return grinder_on_leading_bits(protocol, base, bits)
    if base_name == "equivocator":
        strings = _honest_strings(protocol, witness)
        altered = [list(s) for s in strings]
        altered[0][0] = (altered[0][0] + 1) % protocol.spec.alphabet_size
        return Equivocator(protocol, params, strings, [tuple(s) for s in altered])
    raise ParameterError(f"unknown adversary {name!r}")


def _find_witness(protocol: IopProtocol):
    if isinstance(protocol, GraphColoringIop):
        w = find_coloring(protocol.instance)
        if w is None:
            raise InstanceError("instance is not 3-colorable; no honest witness exists")
        return w
    if isinstance(protocol, SumcheckIop):
        if not protocol.in_language():
            raise InstanceError("claimed sum is false; no honest witness exists")
        return ()
    raise ParameterError(f"cannot derive a witness for {type(protocol)!r}")


def _honest_strings(protocol: IopProtocol, witness=None):
    """Round strings the honest prover sends under all-zero challenges.

    Falls back to the best available coloring (or the empty sumcheck
    witness) when no valid witness exists; the equivocator only needs some
    fixed strings to commit to.
    """
    if witness is None:
        if isinstance(protocol, GraphColoringIop):
            found = find_coloring(protocol.instance)
            witness = found if found is not None else best_coloring(protocol.instance)[0]
        elif isinstance(protocol, SumcheckIop):
            witness = ()
        else:
            raise ParameterError(f"cannot derive strings for {type(protocol)!r}")
    strings = []
    proof, state = protocol.prover_init(witness)
    strings.append(proof.symbols)
    for i in range(2, protocol.spec.rounds + 1):
        zero = Bits(protocol.spec.randomness_bits[i - 2], 0)
        proof, state = protocol.prover_next(state, zero)
        strings.append(proof.symbols)
    return strings
