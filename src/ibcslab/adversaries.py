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

The module knows no protocol by name: the honest witness and the cheat
strategy are the protocol's own (`IopProtocol.honest_witness` and
`cheat_strategy`).

Every adversary declares `view(randomness)`, the hashable part of a raw
challenge vector that its behaviour reads (the contract is in `ibcs`), and
`extraction` runs each continuation from one rewind point once per view.
The honest prover, `optimal_cheater` and `Equivocator` declare the
structured vector: they ignore their challenges or read them only mod
their rounds' challenge spaces. A general `ScriptedProver(strategy)`
declares the raw vector, since its strategy is handed the raw challenges.
`Withholder` passes its inner prover's view through, since it reads only
the plan; `Grinder` adds its predicate bit to the inner view, since the
predicate reads the raw challenges.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import pickle
from typing import Callable, Sequence

from . import ibcs
from .errors import InstanceError, ParameterError
from .ibcs import ArgParams, ArgumentProver, pad_proof_string, structured_view
from .iop import HonestIopProver, IopProtocol, QueryPlan, Strategy
from .memo import BoundedMemo
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


@functools.lru_cache(maxsize=64)
def _value_fields(kind: type) -> tuple[str, ...] | None:
    """The field names of `kind` when the class itself is declared a frozen
    dataclass that compares every field, so `==` and `hash` read all of its
    state; None for any other class. One verdict per class, since a rewind
    rule runs at every node of every state."""
    declared = vars(kind).get("__dataclass_params__")
    if declared is None or not (declared.frozen and declared.eq):
        return None
    fields = dataclasses.fields(kind)
    if not all(f.compare for f in fields):
        return None
    return tuple(f.name for f in fields)


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
        names = _value_fields(kind)
        if names is None:
            raise TypeError(f"a rewound prover state must be a value; {kind.__name__} is not")
        members = [getattr(state, name) for name in names]
    return sum(map(rewind_point, members))


def honest_wrapper(protocol: IopProtocol, params: ArgParams, witness) -> ArgumentProver:
    """The honest argument prover, usable wherever an adversary is expected."""
    if not protocol.check_witness(witness):
        raise InstanceError("honest wrapper needs a valid witness")
    return ArgumentProver(protocol, params, witness)


class _StrategyIopProver:
    """An IOP prover that plays a strategy; its state is (challenges, strings)."""

    def __init__(self, strategy: Strategy):
        self.strategy = strategy

    def first(self):
        symbols = tuple(self.strategy(1, (), ()))
        return symbols, ((), (symbols,))

    def next_round(self, state, challenge: int):
        challenges, strings = state
        challenges += (challenge,)
        symbols = tuple(self.strategy(len(strings) + 1, challenges, strings))
        return symbols, (challenges, strings + (symbols,))


class ScriptedProver(ArgumentProver):
    """The compiled strategy: commits whatever it dictates, then opens those strings."""

    # Bound here rather than inherited: bench/tracing.py wraps methods by
    # `vars(cls)[name]`, and times the adversaries apart from honest provers.
    next_commitment = ArgumentProver.next_commitment
    final_response = ArgumentProver.final_response

    def __init__(self, protocol: IopProtocol, params: ArgParams, strategy: Strategy, view=tuple):
        super().__init__(protocol, params, iop_prover=_StrategyIopProver(strategy), view=view)


def optimal_cheater(protocol: IopProtocol, params: ArgParams) -> ScriptedProver:
    """Plays the protocol's `cheat_strategy`; acceptance is the oracle value."""
    return ScriptedProver(
        protocol, params, protocol.cheat_strategy(), view=structured_view(protocol)
    )


# Its names for the graph-coloring and sumcheck protocols.
optimal_gc_cheater = optimal_sumcheck_cheater = optimal_cheater


class _WrapperProver:
    """Shared plumbing for adversaries that decorate an inner prover; the
    states and commitments are the inner prover's own, and so is the view
    unless the wrapper reads more. Its outcomes are its own."""

    def __init__(self, protocol: IopProtocol, inner):
        self.protocol = protocol
        self.inner = inner
        self.view = inner.view
        self.outcomes = BoundedMemo(ibcs.OUTCOME_MEMO_ENTRIES, ibcs.OUTCOME_MEMO_BYTES)

    def start(self):
        return self.inner.start()

    def next_commitment(self, state, challenge: int | None):
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

    def __init__(self, protocol: IopProtocol, inner, predicate: Callable[[tuple[int, ...]], bool]):
        super().__init__(protocol, inner)
        self.predicate = predicate
        inner_view = self.view
        self.view = lambda randomness: (inner_view(randomness), bool(predicate(randomness)))

    def final_response(self, state, plan: QueryPlan):
        if not self.predicate(plan.randomness):
            return None
        return self.inner.final_response(state, plan)


def grinder_on_leading_bits(
    protocol: IopProtocol, inner, zero_bits: int
) -> Grinder:
    """Accept set: the first `zero_bits` of r_1's w_1 bits are all zero
    (measure 2**-n), that is r_1 >> (w_1 - n) == 0."""
    width = protocol.spec.randomness_bits[0]
    if not 0 <= zero_bits <= width:
        raise ParameterError(f"zero-bit count must lie in [0, {width}], got {zero_bits}")
    shift = width - zero_bits
    return Grinder(protocol, inner, lambda challenges: challenges[0] >> shift == 0)


def always_abort(protocol: IopProtocol, inner) -> Grinder:
    return Grinder(protocol, inner, lambda _c: False)


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
    a witness is given or the protocol's `honest_witness` is in the
    language, otherwise `optimal_cheater`, which the optimal selector also
    returns. The cheat base is built at most once for all the selectors,
    and the protocol object builds its cheat strategy's data once (the
    best coloring, or the sumcheck `cheat_plan` that the report's exact
    oracle also reads). Each wrapper is its own object, with its own
    outcome memo; the base's commit memo serves them all.
    """
    selectors = [_parse_selector(name, protocol.spec) for name in names]
    if any(kind != "optimal" for kind, _ in selectors):
        if witness is None:
            if protocol.in_language():
                witness = protocol.honest_witness()
        elif not protocol.check_witness(witness):
            raise InstanceError("honest wrapper needs a valid witness")

    @functools.cache
    def optimal():
        return optimal_cheater(protocol, params)

    @functools.cache
    def base():
        return optimal() if witness is None else honest_wrapper(protocol, params, witness)

    adversaries = []
    for kind, option in selectors:
        if kind == "honest":
            if witness is None:
                raise InstanceError(
                    f"the {protocol.spec.relation_id} instance has no honest witness"
                )
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
            strings = _honest_strings(protocol, witness)
            altered = [list(s) for s in strings]
            altered[0][0] = (altered[0][0] + 1) % protocol.spec.alphabet_size
            adversary = Equivocator(protocol, params, strings, [tuple(s) for s in altered])
        adversaries.append(adversary)
    return adversaries


def _honest_strings(protocol: IopProtocol, witness):
    """Round strings sent under all-zero challenges: the honest prover's on
    `witness`, or on `honest_witness` when none is given, else the cheat
    strategy's; the equivocator only needs some fixed strings to commit to."""
    if witness is None:
        witness = protocol.honest_witness()
    if witness is None:
        prover = _StrategyIopProver(protocol.cheat_strategy())
    else:
        prover = HonestIopProver(protocol, witness)
    symbols, state = prover.first()
    strings = [symbols]
    for _ in range(2, protocol.spec.rounds + 1):
        symbols, state = prover.next_round(state, 0)
        strings.append(symbols)
    return strings
