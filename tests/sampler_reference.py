"""Reference sampler that runs every rewind, the oracle for differential tests.

This is the straightforward form of `ibcslab.extraction.sampler`: it draws
and runs all `iterations` rewinds, even after coverage is full and no rewind
can record anything more. The library's knowledge sets and its stream
position after the call must equal the ones computed here.
"""

from __future__ import annotations

from ibcslab.errors import IbcsError
from ibcslab.extraction import KnowledgeSet, game_predicate, run_continuation


def full_sampler(adversary, state, ctx, iterations: int, prng) -> tuple[KnowledgeSet, int]:
    """The knowledge set after all rewinds, and how many rewinds recorded."""
    spec = ctx.protocol.spec
    i = ctx.round_index
    knowledge = KnowledgeSet(proof_length=spec.proof_lengths[i - 1])
    recorded = 0
    for _ in range(iterations):
        continuation = tuple(
            prng.take_bits(spec.randomness_bits[m]) for m in range(i - 1, spec.rounds)
        )
        try:
            tail, plan, response = run_continuation(adversary, state, ctx, continuation)
        except IbcsError:
            continue
        if not game_predicate(ctx, plan, tail, response):
            continue
        if not knowledge.covers(plan.per_round[i - 1]):
            opening = response[i - 1]
            knowledge.add(opening.positions, opening.answers, opening.proof)
            recorded += 1
    return knowledge, recorded
