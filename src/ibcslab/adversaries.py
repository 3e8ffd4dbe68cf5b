"""Scripted, rewindable argument provers for the extraction experiments.

Every adversary follows the session-prover contract (`start`,
`next_commitment(state, challenge)`, `final_response(state, plan)`), keeps
its whole state in the value passed through those calls, and is
deterministic given (state, challenge) and (state, plan). The caller owns
the query plan: whoever drew the challenges computes it once and passes it
in, and the adversary only decides what to open. States are immutable
values (the contract is in `ibcs`), so a snapshot is the state itself, and
`rewind_point` is the one rule for what counts as a value.

A scripted adversary is a compiled strategy: `ScriptedProver` is the
`ibcs.ArgumentProver` of an IOP prover that plays the strategy, so it
commits and opens exactly as the honest prover does, and `Equivocator` is
a `ScriptedProver` over its A strings that answers from B. The wrappers
(`Withholder`, `Grinder`) decorate another prover's openings.

Every compiled prover commits through its own `ibcs.CommitMemo`, a
`memo.BoundedMemo`. The CLI builds its adversaries once per report, so
the report's trials and rewinds share it, and a message committed before
is not hashed again. The memo is bounded by `ibcs.COMMIT_MEMO_ENTRIES`
entries and `ibcs.COMMIT_MEMO_BYTES` bytes of commitment trees; no two
adversary objects share one. The wrappers commit through the prover they
wrap, and `make_adversaries` builds one cheat base for all the selectors
of a report, so every wrapper among them commits through that one base.
Every adversary, wrapper or not, keeps its own `outcomes` memo.

Returning None from `final_response` models an abort: the adversary walks
away instead of opening, and the verifier rejects.

An adversary may declare `view(randomness)`, the hashable part of a raw
challenge vector that its behaviour reads (the contract is in `ibcs`), and
`extraction` then runs each continuation from one rewind point once per
view. The honest prover, `fixed_string_prover`, `optimal_sumcheck_cheater`
and `Equivocator` declare the structured vector: they ignore their
challenges or read them through `map_to_range`. A general
`ScriptedProver(strategy)` declares none, since its strategy is handed the
raw bits. `Withholder` passes its inner prover's view through, since it
reads only the plan; `Grinder` adds its predicate bit to the inner view,
since the predicate reads the raw bits of the challenges. A wrapper of a
prover without a view has none.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import pickle
from fractions import Fraction
from typing import Callable, Sequence

from . import ibcs
from .errors import InstanceError, ParameterError
from .ibcs import ArgParams, ArgumentProver, pad_proof_string, structured_view
from .iop import IopProtocol, ProofString, QueryPlan
from .memo import BoundedMemo
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


# Exact types of the atoms of a value other than byte and text strings;
# float is left out, as 0.0 == -0.0.
_SCALARS = frozenset((int, bool, type(None)))


def rewind_point(state) -> int:
    """The bytes a rewind from `state` keeps; `state` must be a value.

    A value is an `int`, `bool`, `str`, `bytes` or None, a tuple or
    frozenset of values, or a frozen dataclass whose fields are values and
    are all compared. A value cannot change, so it is its own rewind point:
    keys built from it hash and compare the state itself, and it weighs the
    lengths of its byte and text strings plus 8 bytes per other atom. Every
    state the library's provers build is a value. Any other state raises
    TypeError, naming the type that is not a value, since a rewind could
    change it.
    """
    kind = type(state)
    if kind is tuple or kind is frozenset:
        members = state
    elif kind is bytes or kind is str:
        return len(state)
    elif kind in _SCALARS:
        return 8
    else:
        # The class must itself be a frozen dataclass that compares every
        # field, so `==` and `hash` read all of its state.
        declared = vars(kind).get("__dataclass_params__")
        fields = () if declared is None else dataclasses.fields(state)
        if declared is None or not (
            declared.frozen and declared.eq and all(f.compare for f in fields)
        ):
            raise TypeError(f"a rewound prover state must be a value; {kind.__name__} is not")
        members = [getattr(state, f.name) for f in fields]
    total = 0
    for member in members:
        # Atoms inline: most members of a prover state are digests and ints.
        kind = type(member)
        if kind is bytes or kind is str:
            total += len(member)
        elif kind in _SCALARS:
            total += 8
        else:
            total += rewind_point(member)
    return total


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

    def __init__(self, protocol: IopProtocol, params: ArgParams, strategy: Strategy, view=None):
        super().__init__(protocol, params, iop_prover=_StrategyIopProver(strategy), view=view)


def fixed_string_prover(
    protocol: IopProtocol, params: ArgParams, strings: Sequence[Sequence[int]]
) -> ScriptedProver:
    frozen = tuple(tuple(s) for s in strings)
    if len(frozen) != protocol.spec.rounds:
        raise ParameterError("one scripted string required per round")
    return ScriptedProver(
        protocol, params, lambda i, _c, _s: frozen[i - 1], view=structured_view(protocol)
    )


def optimal_gc_cheater(
    protocol: GraphColoringIop, params: ArgParams, coloring: Sequence[int] | None = None
) -> ScriptedProver:
    """Commits the coloring maximizing satisfied edges (`best_coloring`'s
    unless given); acceptance is the oracle value."""
    if coloring is None:
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

    return ScriptedProver(protocol, params, strategy, view=structured_view(protocol))


class _WrapperProver:
    """Shared plumbing for adversaries that decorate an inner prover; the
    states and commitments are the inner prover's own, and so is the view
    unless the wrapper reads more. Its outcomes are its own."""

    def __init__(self, protocol: IopProtocol, inner):
        self.protocol = protocol
        self.inner = inner
        self.view = getattr(inner, "view", None)
        self.outcomes = BoundedMemo(ibcs.OUTCOME_MEMO_ENTRIES, ibcs.OUTCOME_MEMO_BYTES)

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
        inner_view = self.view
        if inner_view is not None:
            self.view = lambda randomness: (inner_view(randomness), bool(predicate(randomness)))

    def final_response(self, state, plan: QueryPlan):
        if not self.predicate(plan.randomness):
            return None
        return self.inner.final_response(state, plan)


def grinder_on_leading_bits(
    protocol: IopProtocol, inner, zero_bits: int
) -> Grinder:
    """Accept set: the first `zero_bits` bits of r_1 are all zero (measure 2**-n)."""
    width = protocol.spec.randomness_bits[0]
    if not 0 <= zero_bits <= width:
        raise ParameterError(f"zero-bit count must lie in [0, {width}], got {zero_bits}")

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
        super().__init__(
            protocol, params, lambda i, _c, _s: a[i - 1], view=structured_view(protocol)
        )

    def final_response(self, state, plan: QueryPlan):
        return tuple(
            Opening(opening.positions, tuple(b[q - 1] for q in opening.positions), opening.proof)
            for opening, b in zip(self._open_a(state, plan), self.b)
        )


def _int_option(name: str, option: str, low: int, high: int, what: str) -> int:
    """The selector's integer option within [low, high]; 1 when absent."""
    if not option:
        return 1
    try:
        value = int(option)
    except ValueError:
        raise ParameterError(f"adversary {name!r}: {what} {option!r} is not an integer") from None
    if not low <= value <= high:
        raise ParameterError(f"adversary {name!r}: {what} must lie in [{low}, {high}], got {value}")
    return value


def _parse_selector(name: str, spec) -> tuple[str, int | None]:
    """A selector's kind and its integer option (None for kinds without one)."""
    kind, _, option = name.partition(":")
    if kind == "withholder":
        return kind, _int_option(name, option, 1, spec.max_proof_length, "position")
    if kind == "grinder":
        return kind, _int_option(name, option, 0, spec.randomness_bits[0], "zero-bit count")
    if kind not in ("honest", "optimal", "abort", "equivocator"):
        raise ParameterError(f"unknown adversary {name!r}")
    if option:
        raise ParameterError(f"adversary {name!r}: {kind} takes no option")
    return kind, None


def make_adversary(name: str, protocol: IopProtocol, params: ArgParams, witness=None):
    """CLI selector: honest | optimal | abort | equivocator | withholder[:pos] | grinder[:bits].

    A withholder refuses one position in [1, l_max]; a grinder wants that
    many leading zero bits of r_1, in [0, |r_1|]; both default to 1. The
    other selectors take no option.
    """
    return make_adversaries([name], protocol, params, witness)[0]


def make_adversaries(names: Sequence[str], protocol: IopProtocol, params: ArgParams, witness=None):
    """One adversary per selector of `make_adversary`, for one report.

    Every selector is validated before anything is built. The wrappers
    (abort, withholder, grinder) decorate one cheat base: honest play when
    a witness is given or found, otherwise the optimal scripted cheat,
    which the optimal selector also returns. The witness search, the best
    coloring and the cheat base are each built at most once for all the
    selectors, so a report builds one `SumcheckCheatPlan` at most. Each
    wrapper is its own object, with its own outcome memo; the base's
    commit memo serves them all.
    """
    selectors = [_parse_selector(name, protocol.spec) for name in names]
    missing = None  # why the instance has no witness
    if any(kind != "optimal" for kind, _ in selectors):
        if witness is None:
            try:
                witness = _find_witness(protocol)
            except InstanceError as exc:
                missing = exc
        elif not protocol.check_witness(witness):
            raise InstanceError("honest wrapper needs a valid witness")

    @functools.cache
    def coloring():
        return best_coloring(protocol.instance)[0]

    @functools.cache
    def optimal():
        if isinstance(protocol, GraphColoringIop):
            return optimal_gc_cheater(protocol, params, coloring())
        if isinstance(protocol, SumcheckIop):
            return optimal_sumcheck_cheater(protocol, params)
        raise ParameterError(f"no optimal cheat for {type(protocol)!r}")

    @functools.cache
    def base():
        return optimal() if witness is None else honest_wrapper(protocol, params, witness)

    adversaries = []
    for kind, option in selectors:
        if kind == "honest":
            if witness is None:
                raise missing
            adversary = base()
        elif kind == "optimal":
            adversary = optimal()
        elif kind == "abort":
            adversary = always_abort(protocol, base())
        elif kind == "withholder":
            adversary = Withholder(protocol, base(), lambda _r, q, refused=option: q == refused)
        elif kind == "grinder":
            adversary = grinder_on_leading_bits(protocol, base(), option)
        else:
            strings = _honest_strings(protocol, witness, coloring)
            altered = [list(s) for s in strings]
            altered[0][0] = (altered[0][0] + 1) % protocol.spec.alphabet_size
            adversary = Equivocator(protocol, params, strings, [tuple(s) for s in altered])
        adversaries.append(adversary)
    return adversaries


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


def _honest_strings(protocol: IopProtocol, witness, coloring):
    """Round strings the honest prover sends under all-zero challenges.

    Falls back to `coloring()`, the best coloring (or to the empty
    sumcheck witness), when no valid witness exists; the equivocator only
    needs some fixed strings to commit to.
    """
    if witness is None:
        if isinstance(protocol, GraphColoringIop):
            witness = coloring()
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
