"""Reference IOP execution and exact soundness oracle, for differential tests.

`iop_interact` is the canonical IOP execution: it collects every proof
string, checking each with `iop.check_proof_string` as the compiled prover
does, draws each round's challenge, and asks the verifier only at the end.

`fraction_soundness` is the straightforward form of
`ibcslab.iop.brute_force_soundness`: it recurses over the strategy tree in
`Fraction`s, dividing by each round's challenge-space size at its own node,
and plans the structured vector afresh at every leaf. The library's value
must equal the one computed here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from ibcslab.errors import ProtocolViolation
from ibcslab.iop import check_proof_string


class InteractionResult(NamedTuple):
    accept: int
    proofs: tuple[tuple[int, ...], ...]
    challenges: tuple[int, ...]
    violation: ProtocolViolation | None = None


def iop_interact(protocol, prover, prng) -> InteractionResult:
    """Run an IOP prover against the verifier; round i's string is the i-th
    the prover returns. A string that breaks `check_proof_string` ends the
    run rejected, with the violation."""
    spec = protocol.spec
    proofs, challenges = (), ()
    state = None
    try:
        for i, width in enumerate(spec.randomness_bits, 1):
            if i == 1:
                symbols, state = prover.first()
            else:
                symbols, state = prover.next_round(state, challenges[-1])
            check_proof_string(spec, i, symbols)
            proofs += (tuple(symbols),)
            challenges += (prng.take_bits(width),)
    except ProtocolViolation as exc:
        return InteractionResult(0, proofs, challenges, exc)
    plan = protocol.verifier_query(challenges)
    answers = tuple(
        tuple(proof[q - 1] for q in queries) for proof, queries in zip(proofs, plan.per_round)
    )
    return InteractionResult(protocol.verifier_decide(plan, answers), proofs, challenges)


def fraction_soundness(protocol) -> Fraction:
    """Best acceptance over all adaptive proof strategies, node by node."""
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
