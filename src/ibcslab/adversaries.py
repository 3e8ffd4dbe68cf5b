"""Scripted, rewindable argument provers for the extraction experiments.

Every adversary follows the session-prover contract (`start`,
`next_commitment(state, challenge)`, `final_response(state, plan)`), keeps
its whole state in the value passed through those calls, and is
deterministic given (state, challenge) and (state, plan). The caller owns
the query plan: whoever drew the challenges computes it once and passes it
in, and the adversary only decides what to open. States are immutable
values (frozen dataclasses and tuples), so a snapshot is the state itself,
and `state_digest` certifies that a rewind left the adversary untouched.

A scripted adversary is a compiled strategy: `ScriptedProver` is the
`ibcs.ArgumentProver` of an IOP prover that plays the strategy, so it
commits and opens exactly as the honest prover does, and `Equivocator` is
a `ScriptedProver` over its A strings that answers from B. The wrappers
(`Withholder`, `Grinder`) decorate another prover's openings.

Every compiled prover commits through its own `ibcs.CommitMemo`, a
`memo.BoundedMemo`. The CLI builds one adversary per report, so the
report's trials and rewinds share it, and a message committed before is
not hashed again. The memo is bounded by `ibcs.COMMIT_MEMO_ENTRIES` entries
and `ibcs.COMMIT_MEMO_BYTES` bytes of commitment trees; no two adversary
objects share one. The wrappers hold no memo of their own: they commit
through the prover they wrap.

Returning None from `final_response` models an abort: the adversary walks
away instead of opening, and the verifier rejects.
"""

from __future__ import annotations

import hashlib
import pickle
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InstanceError, ParameterError
from .ibcs import ArgParams, ArgumentProver, pad_proof_string
from .iop import IopProtocol, ProofString, QueryPlan
from .prng import Bits, map_to_range
from .toys import (
    GraphColoringIop,
    SumcheckCheatPlan,
    SumcheckIop,
    best_coloring,
    find_coloring,
    poly_eval,
)
from .vc import Opening


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


class _StrategyIopProver:
    """An IOP prover that plays a strategy; its state is (challenges, strings)."""

    def __init__(self, strategy: Strategy):
        self.strategy = strategy

    def first(self):
        symbols = tuple(self.strategy(1, (), ()))
        return ProofString(1, symbols), ((), (symbols,))

    def next_round(self, state, challenge: Bits):
        challenges, strings = state
        challenges += (challenge,)
        i = len(strings) + 1
        symbols = tuple(self.strategy(i, challenges, strings))
        return ProofString(i, symbols), (challenges, strings + (symbols,))


class ScriptedProver(ArgumentProver):
    """The compiled strategy: commits whatever it dictates, then opens those strings."""

    # Bound here rather than inherited: bench/tracing.py wraps methods by
    # `vars(cls)[name]`, and times the adversaries apart from honest provers.
    next_commitment = ArgumentProver.next_commitment
    final_response = ArgumentProver.final_response

    def __init__(self, protocol: IopProtocol, params: ArgParams, strategy: Strategy):
        super().__init__(protocol, params, iop_prover=_StrategyIopProver(strategy))


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


class Equivocator(ScriptedProver):
    """Commits to the A strings but answers from B, reusing A's proofs.

    Wherever A and B differ at a queried position the opening carries a
    digest chain for the A symbol with the B answer attached, so the
    commitment check must fail; a success would be a position-binding break.
    """

    # Bound here rather than inherited, as in `ScriptedProver`; `_open_a` is
    # the honest opening under a name the tracer does not wrap.
    next_commitment = ArgumentProver.next_commitment
    _open_a = ArgumentProver.final_response

    def __init__(
        self,
        protocol: IopProtocol,
        params: ArgParams,
        strings_a: Sequence[Sequence[int]],
        strings_b: Sequence[Sequence[int]],
    ):
        spec = protocol.spec
        a = tuple(tuple(s) for s in strings_a)
        self.b = tuple(pad_proof_string(spec, s) for s in strings_b)
        if len(a) != spec.rounds or len(self.b) != spec.rounds:
            raise ParameterError("one A and one B string required per round")
        super().__init__(protocol, params, lambda i, _c, _s: a[i - 1])

    def final_response(self, state, plan: QueryPlan):
        return tuple(
            Opening(opening.positions, tuple(b[q - 1] for q in opening.positions), opening.proof)
            for opening, b in zip(self._open_a(state, plan), self.b)
        )


def _optimal_cheater(protocol: IopProtocol, params: ArgParams) -> ScriptedProver:
    """The protocol's optimal scripted cheat."""
    if isinstance(protocol, GraphColoringIop):
        return optimal_gc_cheater(protocol, params)
    if isinstance(protocol, SumcheckIop):
        return optimal_sumcheck_cheater(protocol, params)
    raise ParameterError(f"no optimal cheat for {type(protocol)!r}")


def default_cheat_base(protocol: IopProtocol, params: ArgParams, witness=None):
    """Honest play when a witness exists, otherwise the optimal scripted cheat."""
    if witness is None:
        try:
            witness = _find_witness(protocol)
        except InstanceError:
            return _optimal_cheater(protocol, params)
    return honest_wrapper(protocol, params, witness)


def make_adversary(name: str, protocol: IopProtocol, params: ArgParams, witness=None):
    """CLI selector: honest | optimal | abort | equivocator | withholder[:pos] | grinder[:bits]."""
    base_name, _, option = name.partition(":")
    if base_name == "honest":
        if witness is None:
            witness = _find_witness(protocol)
        return honest_wrapper(protocol, params, witness)
    if base_name == "optimal":
        return _optimal_cheater(protocol, params)
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
