"""Reference exact soundness oracle, the oracle for differential tests.

This is the straightforward form of `ibcslab.iop.brute_force_soundness`:
it recurses over the strategy tree in `Fraction`s, dividing by each round's
challenge-space size at its own node, and plans the structured vector
afresh at every leaf. The library's value must equal the one computed here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


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
