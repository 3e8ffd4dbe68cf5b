"""Concrete IOP instantiations small enough for exhaustive oracles.

Two protocols drive every end-to-end experiment:

* graph 3-coloring, a one-round PCP-style protocol: the proof string is a
  coloring, the verifier checks one uniformly random edge;
* sumcheck over a prime field, a genuinely multi-round protocol: round i
  sends the coefficient table of the partial-sum polynomial g_i, the
  verifier reads every table in full and checks the telescoping identities.

This module owns the instance kinds: no other module names one. Each kind
has two formats, both defined here next to the validation they feed, and
one protocol (`protocol_for_instance`). The text format is what instance
files hold: `load_instance_text` tells a graph file from a sumcheck file
by its first record and returns the instance with its witness or None,
and `dump_graph_text` and `dump_sumcheck_text` write them. The binary
layout is what the wire carries: a kind byte, then big-endian fields, a
graph's vertex and edge counts and its edges, or a sumcheck header and its
coefficients. Each instance encodes itself once: `encoding` is a cached
property that lives and dies with the instance object, and
`instance_from_bytes` keeps the payload an instance was read from as its
`encoding`. The layout is canonical, every field at a fixed width, so
encoding a decoded instance again would give the payload's bytes. A
decoded graph keeps its edges packed as the wire carries them: its
`edges` is an `EdgePairs`, a read-only sequence of (u, v) pairs over one
array of edge ends, so a decode builds no object per edge. The one edge
rule of `GraphColoringInstance` checks it as it checks a tuple of pairs.
"""

from __future__ import annotations

import itertools
import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DecodeError, InfeasibleError, InstanceError, ProtocolViolation
from .iop import IopProtocol, IopSpec, QueryPlan, bounded_count
from .memo import BoundedMemo
from .prng import randomness_length
from .vc import first_bad_symbol

GC_COLORS = 3
# The most vertices whose colorings `best_coloring` enumerates.
BEST_COLORING_MAX_VERTICES = 13
# The most steps `find_coloring` takes, about a second of CPython time; a
# step colors or uncolors one vertex.
COLORING_STEP_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# graph 3-coloring
# ---------------------------------------------------------------------------


class EdgePairs(Sequence):
    """The (u, v) edges of a decoded graph, read on demand from one array of
    their ends, u1, v1, u2, v2, ..., as the wire carries them.

    A read-only sequence of int pairs that builds a pair only when it is
    read. It compares and hashes as the tuple of its pairs does, so a
    decoded graph equals, and hashes as, the one built from tuples.
    """

    __slots__ = ("_ends",)

    def __init__(self, ends: array):
        self._ends = ends

    def __len__(self) -> int:
        return len(self._ends) // 2

    def __getitem__(self, i: int) -> tuple[int, int]:
        # Ends 2i and 2i + 1 are edge i's, for a negative i too.
        ends = self._ends
        return ends[2 * i], ends[2 * i + 1]

    def __iter__(self):
        ends = iter(self._ends)
        return zip(ends, ends)

    def __eq__(self, other) -> bool:
        if isinstance(other, (EdgePairs, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EdgePairs({tuple(self)!r})"


@dataclass(frozen=True)
class GraphColoringInstance:
    """Simple graph with 1-based vertices and lexicographically sorted edges.

    A valid edge list is exactly one that is strictly increasing in
    lexicographic order with 1 <= u < v <= vertex_count for each edge
    (u, v): strict increase rules out duplicates and unsorted lists alike,
    so one pass that carries the previous edge checks the whole rule.
    `edges` is any sequence of pairs: a tuple when built in code or from
    text, an `EdgePairs` when decoded, and the rule is the same for both.
    """

    vertex_count: int
    edges: Sequence[tuple[int, int]]

    def __post_init__(self):
        n = self.vertex_count
        if not isinstance(n, int):
            raise InstanceError(f"vertex count {n!r} is not an int")
        if n < 1:
            raise InstanceError("graph needs at least one vertex")
        # The wire carries the vertex count in 4 bytes; a larger one cannot be sent.
        if n >= 1 << 32:
            raise InstanceError(f"vertex count {n} does not fit in 32 bits")
        if not self.edges:
            raise InstanceError("graph needs at least one edge")
        pu = pv = 0  # the previous edge; (0, 0) precedes every valid edge
        for u, v in self.edges:
            if not 1 <= u < v <= n:
                if not (1 <= u <= n and 1 <= v <= n):
                    raise InstanceError(f"edge ({u}, {v}) references a missing vertex")
                if u == v:
                    raise InstanceError(f"self-loop at vertex {u}")
                raise InstanceError(f"edge ({u}, {v}) not in canonical (u < v) order")
            if u < pu or (u == pu and v <= pv):
                if u == pu and v == pv:
                    raise InstanceError(f"duplicate edge ({u}, {v})")
                raise InstanceError(
                    f"edge ({u}, {v}) not lexicographically after ({pu}, {pv})"
                )
            pu, pv = u, v

    @cached_property
    def encoding(self) -> bytes:
        """The binary layout (`layout`), computed on first use; a decoded
        instance keeps the payload it was read from."""
        return self.layout()

    def layout(self) -> bytes:
        """Kind byte 0x01, BE32 vertex and edge counts, then BE32 (u, v) per
        edge, in one pack: per-edge `to_bytes` pairs cost about three times
        as much on a graph of 12k edges.

        The constructor only compares edge ends, so a float end passes it;
        the pack refuses one, and that is an InstanceError naming the first
        such edge. A type test per edge in the constructor would cost every
        decoded graph a third more, though decoders make only ints."""
        m = len(self.edges)
        ends = itertools.chain.from_iterable(self.edges)
        fmt = f"{_GRAPH_HEADER.format}{2 * m}I"
        try:
            return struct.pack(fmt, GRAPH_KIND, self.vertex_count, m, *ends)
        except struct.error:
            u, v = next(e for e in self.edges if not all(isinstance(end, int) for end in e))
            raise InstanceError(f"edge ({u!r}, {v!r}) has an end that is not an int") from None


def canonical_graph(vertex_count: int, edges) -> GraphColoringInstance:
    """Normalize an edge iterable (any order/orientation) into an instance."""
    normalized = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return GraphColoringInstance(vertex_count, tuple(normalized))


def complete_graph(n: int) -> GraphColoringInstance:
    return canonical_graph(n, itertools.combinations(range(1, n + 1), 2))


def petersen_graph() -> GraphColoringInstance:
    outer = [(i + 1, (i + 1) % 5 + 1) for i in range(5)]
    inner = [(i + 6, (i + 2) % 5 + 6) for i in range(5)]
    spokes = [(i + 1, i + 6) for i in range(5)]
    return canonical_graph(10, outer + inner + spokes)


def is_proper_coloring(instance: GraphColoringInstance, coloring: Sequence[int]) -> bool:
    if len(coloring) != instance.vertex_count or first_bad_symbol(coloring, GC_COLORS):
        return False
    return all(coloring[u - 1] != coloring[v - 1] for u, v in instance.edges)


def find_coloring(instance: GraphColoringInstance) -> tuple[int, ...] | None:
    """Backtracking 3-coloring search; None when the graph is not 3-colorable.

    The first coloring in lexicographic order. Each connected component is
    searched on its own, in vertex order, each vertex trying colors 0, 1, 2:
    components share no edge, so the whole graph's first coloring is each
    component's first coloring, and an obstruction in one component never
    makes the search retry another.

    Backtracking can take exponentially many steps, so the search raises
    InfeasibleError once it has taken `COLORING_STEP_BUDGET` steps over
    all components. Each vertex takes at least one step, so a graph of
    more vertices is refused before anything is allocated per vertex.
    """
    n = instance.vertex_count
    if n > COLORING_STEP_BUDGET:
        raise InfeasibleError(
            f"coloring search needs at least {n} steps, past its budget of {COLORING_STEP_BUDGET}"
        )
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in instance.edges:
        neighbours[u - 1].append(v - 1)
        neighbours[v - 1].append(u - 1)
    # -1 marks a vertex not yet colored. A loop, not recursion, so a long
    # path is no deeper than a short one.
    colors = [-1] * n
    seen = [False] * n
    steps = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        component, stack = [], [root]
        while stack:
            u = stack.pop()
            component.append(u)
            for w in neighbours[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        component.sort()
        i = 0
        while 0 <= i < len(component):
            steps += 1
            if steps > COLORING_STEP_BUDGET:
                raise InfeasibleError(
                    f"coloring search passed its budget of {COLORING_STEP_BUDGET} steps"
                )
            v = component[i]
            c = colors[v] + 1
            while c < GC_COLORS and any(colors[w] == c for w in neighbours[v]):
                c += 1
            if c < GC_COLORS:
                colors[v] = c
                i += 1
            else:
                colors[v] = -1
                i -= 1
        if i < 0:
            return None
    return tuple(colors)


def best_coloring(instance: GraphColoringInstance) -> tuple[tuple[int, ...], Fraction]:
    """Coloring maximizing satisfied edges, with its exact acceptance rate."""
    if instance.vertex_count > BEST_COLORING_MAX_VERTICES:
        raise InfeasibleError(
            f"coloring enumeration over {GC_COLORS}**{instance.vertex_count} is over budget"
        )
    best_sat = -1
    best: tuple[int, ...] = ()
    for coloring in itertools.product(range(GC_COLORS), repeat=instance.vertex_count):
        sat = sum(1 for u, v in instance.edges if coloring[u - 1] != coloring[v - 1])
        if sat > best_sat:
            best_sat, best = sat, coloring
    return best, Fraction(best_sat, len(instance.edges))


class GraphColoringIop(IopProtocol):
    """One round, one random edge; accepts iff the endpoints differ."""

    def __init__(self, instance: GraphColoringInstance):
        self.instance = instance
        self.spec = IopSpec(
            rounds=1,
            alphabet_size=GC_COLORS,
            symbol_bits=2,
            proof_lengths=(instance.vertex_count,),
            randomness_bits=(randomness_length(len(instance.edges)),),
            query_counts=(2,),
            relation_id="gc3",
        )

    def prover_init(self, witness) -> tuple[tuple[int, ...], object]:
        coloring = tuple(witness)
        if len(coloring) != self.instance.vertex_count:
            raise InstanceError("witness length does not match the vertex count")
        bad = first_bad_symbol(coloring, GC_COLORS)
        if bad:
            raise InstanceError(f"witness value at vertex {bad} is not a color")
        return coloring, ("gc-done",)

    def prover_next(self, state, challenge: int):
        raise ProtocolViolation("one-round protocol has no second prover move")

    def challenge_space(self, round_index: int) -> int:
        return len(self.instance.edges)

    def query_plan(self, structured: Sequence[int]) -> QueryPlan:
        u, v = self.instance.edges[structured[0]]
        return QueryPlan(((u, v),))

    def decide(self, structured, answers) -> int:
        if first_bad_symbol(answers[0], GC_COLORS):
            return 0
        a, b = answers[0]
        return 1 if a != b else 0

    def check_witness(self, witness) -> bool:
        return is_proper_coloring(self.instance, tuple(witness))

    @cached_property
    def found_coloring(self) -> tuple[int, ...] | None:
        """`find_coloring` of the instance, searched once per protocol
        object (one report for the CLI); None when it has no 3-coloring."""
        return find_coloring(self.instance)

    def honest_witness(self) -> tuple[int, ...] | None:
        return self.found_coloring

    def cheat_strategy(self):
        """Commit the coloring that satisfies the most edges, whatever the challenges."""
        coloring = self._best_coloring
        return lambda _i, _c, _s: coloring

    @cached_property
    def _best_coloring(self) -> tuple[int, ...]:
        """`best_coloring` of the instance, enumerated once per protocol object."""
        return best_coloring(self.instance)[0]

    def extract_witness(self, oracles):
        # The round-1 oracle string is read verbatim as a coloring.
        _, symbols = oracles[0]
        return tuple(symbols)


def gc_pcp(instance: GraphColoringInstance) -> GraphColoringIop:
    return GraphColoringIop(instance)


# ---------------------------------------------------------------------------
# sumcheck
# ---------------------------------------------------------------------------


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    With the first twelve primes as bases the test is exact for every
    p below 318665857834031151167461 (about 3.2 * 10**23), far above the
    8-byte primes the wire carries, and costs a dozen modular
    exponentiations whatever p a peer sends.
    """
    if p < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in bases:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def table_entries(variables: int, degree: int, room: int) -> int | None:
    """(degree + 1) ** variables, the entries of a coefficient table, or None
    when that exceeds `room`, the entries there is room for.

    It multiplies only while the product fits (`iop.bounded_count`), so a
    header that claims a huge table costs a few steps, never a huge
    integer. `variables` and `degree` are at least 0.
    """
    if degree == 0:
        return 1
    size = bounded_count((itertools.repeat(degree + 1, variables),), room)
    return size if size <= room else None


@dataclass(frozen=True)
class SumcheckInstance:
    """Claim that g sums to `claimed_sum` over the boolean cube.

    The coefficient table lists one entry per exponent tuple
    (e_1, ..., e_n) with each e_i in [0, d], ordered with e_1 most
    significant: index = sum_i e_i * (d+1)**(n-i).
    """

    prime: int
    variables: int
    degree: int
    coefficients: tuple[int, ...]
    claimed_sum: int

    def __post_init__(self):
        # The wire carries the prime in 8 bytes; a larger one cannot be sent.
        if self.prime >= 1 << 64:
            raise InstanceError(f"prime {self.prime} does not fit in 64 bits")
        # It carries n and d in 2 bytes each.
        for name, value in (("variables", self.variables), ("degree", self.degree)):
            if value >= 1 << 16:
                raise InstanceError(f"{name} {value} does not fit in 16 bits")
        if not is_prime(self.prime):
            raise InstanceError(f"{self.prime} is not prime")
        if self.variables < 1:
            raise InstanceError("at least one variable required")
        if self.degree < 1:
            raise InstanceError("per-variable degree bound must be at least 1")
        got = len(self.coefficients)
        if table_entries(self.variables, self.degree, got) != got:
            raise InstanceError(
                f"coefficient table must have (d+1)**n entries for d={self.degree}, "
                f"n={self.variables}, got {got}"
            )
        bad = first_bad_symbol(self.coefficients, self.prime)
        if bad:
            raise InstanceError(f"coefficient {bad} is not an int in the field")
        if first_bad_symbol((self.claimed_sum,), self.prime):
            raise InstanceError("claimed sum is not an int in the field")

    @cached_property
    def encoding(self) -> bytes:
        """The binary layout (`layout`), computed on first use; a decoded
        instance keeps the payload it was read from."""
        return self.layout()

    def layout(self) -> bytes:
        """Kind byte 0x02, BE64 prime, BE16 variables and degree, BE64
        claimed sum, then BE64 per coefficient."""
        header = (SUMCHECK_KIND, self.prime, self.variables, self.degree, self.claimed_sum)
        fmt = f"{_SUMCHECK_HEADER.format}{len(self.coefficients)}Q"
        return struct.pack(fmt, *header, *self.coefficients)

    def exponent_tuples(self):
        return itertools.product(range(self.degree + 1), repeat=self.variables)

    def evaluate(self, point: Sequence[int]) -> int:
        p = self.prime
        total = 0
        for idx, exps in enumerate(self.exponent_tuples()):
            term = self.coefficients[idx]
            if term == 0:
                continue
            for x, e in zip(point, exps):
                term = term * pow(x, e, p) % p
            total = (total + term) % p
        return total

    def true_sum(self) -> int:
        """g summed over the boolean cube, in one pass over the table: x**e
        summed over x in {0, 1} is 2 for e = 0 and 1 otherwise, so the term
        of exponents e adds c_e * 2**(number of zeros in e)."""
        terms = zip(self.coefficients, self.exponent_tuples())
        return sum(c << exps.count(0) for c, exps in terms) % self.prime


def poly_eval(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# Challenge prefixes whose round polynomials one sumcheck protocol object keeps.
ROUND_POLY_MEMO_ENTRIES = 1 << 9


class SumcheckIop(IopProtocol):
    """n rounds; round i sends the d+1 coefficients of g_i, read in full.

    `round_polynomial` computes each challenge prefix's polynomial once while
    it stays in the object's `memo.BoundedMemo` of the
    `ROUND_POLY_MEMO_ENTRIES` most recently used prefixes, which lives as
    long as the object (one report for the CLI). `decide` takes g at the
    challenge point from the same memo, as g_n at r_n.
    """

    def __init__(self, instance: SumcheckInstance):
        self.instance = instance
        p, d, n = instance.prime, instance.degree, instance.variables
        self.spec = IopSpec(
            rounds=n,
            alphabet_size=p,
            symbol_bits=max(1, (p - 1).bit_length()),
            proof_lengths=(d + 1,) * n,
            randomness_bits=(randomness_length(p),) * n,
            query_counts=(d + 1,) * n,
            relation_id="sumcheck",
        )

    def round_polynomial(self, fixed: Sequence[int]) -> tuple[int, ...]:
        """Coefficients of g_i for i = len(fixed) + 1, ascending degree."""
        fixed = tuple(fixed)
        h = hash(fixed)
        coeffs = self._round_polys.get(h, fixed)
        if coeffs is None:
            coeffs = self._sum_out(fixed)
            self._round_polys.put(h, fixed, coeffs, 8 * (len(fixed) + len(coeffs)))
        return coeffs

    @cached_property
    def _round_polys(self) -> BoundedMemo:
        """Round polynomials by challenge prefix, counted as 8 bytes per
        challenge and per coefficient."""
        entry_bytes = 8 * (self.spec.rounds + self.instance.degree + 1)
        return BoundedMemo(ROUND_POLY_MEMO_ENTRIES, ROUND_POLY_MEMO_ENTRIES * entry_bytes)

    def _sum_out(self, fixed: tuple[int, ...]) -> tuple[int, ...]:
        """g_i computed from the coefficient table: the prefix fixed, the
        trailing variables summed over {0,1}."""
        inst = self.instance
        p, d, n = inst.prime, inst.degree, inst.variables
        i = len(fixed) + 1
        coeffs = [0] * (d + 1)
        for idx, exps in enumerate(inst.exponent_tuples()):
            c = inst.coefficients[idx]
            if c == 0:
                continue
            for r, e in zip(fixed, exps):
                c = c * pow(r, e, p) % p
            # Summing the trailing variables over {0,1}: exponent 0 keeps
            # both assignments, any positive exponent keeps only x=1.
            for e in exps[i:]:
                if e == 0:
                    c = c * 2 % p
            coeffs[exps[i - 1]] = (coeffs[exps[i - 1]] + c) % p
        return tuple(coeffs)

    def prover_init(self, witness) -> tuple[tuple[int, ...], object]:
        if witness not in ((), None):
            raise InstanceError("sumcheck is a language-type relation; witness is empty")
        return self.round_polynomial(()), (1, ())

    def prover_next(self, state, challenge: int):
        round_done, fixed = state
        if round_done >= self.spec.rounds:
            raise ProtocolViolation("prover already sent its final round")
        width = self.spec.randomness_bits[round_done - 1]
        if challenge >> width:  # nonzero for r < 0 and for r >= 2**width
            raise ProtocolViolation(f"round {round_done} challenge lies outside [0, 2**{width})")
        fixed = fixed + (challenge % self.instance.prime,)
        return self.round_polynomial(fixed), (round_done + 1, fixed)

    def challenge_space(self, round_index: int) -> int:
        return self.instance.prime

    def query_plan(self, structured: Sequence[int]) -> QueryPlan:
        d = self.instance.degree
        return QueryPlan((tuple(range(1, d + 2)),) * self.spec.rounds)

    def decide(self, structured, answers) -> int:
        inst = self.instance
        p = inst.prime
        tables = [tuple(a) for a in answers]
        if any(first_bad_symbol(table, p) for table in tables):
            return 0
        expected = inst.claimed_sum
        for i, table in enumerate(tables):
            if (poly_eval(table, 0, p) + poly_eval(table, 1, p)) % p != expected:
                return 0
            expected = poly_eval(table, structured[i], p)
        # g_n(X) = g(r_1..r_{n-1}, X), so g_n(r_n) is g at the challenge
        # point; its prefix is the one the prover's last round looked up.
        final = poly_eval(self.round_polynomial(structured[:-1]), structured[-1], p)
        return 1 if expected == final else 0

    def check_witness(self, witness) -> bool:
        if witness not in ((), None):
            return False
        return self.instance.true_sum() == self.instance.claimed_sum

    def honest_witness(self) -> tuple[()]:
        return ()

    @cached_property
    def cheat_plan(self) -> SumcheckCheatPlan:
        """The instance's `SumcheckCheatPlan`, built once per protocol
        object (one report for the CLI); InfeasibleError over its budget."""
        return SumcheckCheatPlan(self.instance)

    def cheat_strategy(self):
        """Play the maximizing tables of `cheat_plan`: each round's table
        must sum over {0, 1} to the previous table at its challenge."""
        plan = self.cheat_plan
        p = self.instance.prime
        claimed_sum = self.instance.claimed_sum

        def strategy(i, challenges, strings):
            structured = tuple(c % p for c in challenges)
            if i == 1:
                required = claimed_sum
            else:
                required = poly_eval(strings[i - 2], structured[i - 2], p)
            return plan.table_for(structured, required)

        return strategy

    def exact_soundness(self):
        """The strategy enumeration's value, or past its budget `cheat_plan`'s
        value as "cheat-program"; (None, "infeasible") past both budgets."""
        value, kind = super().exact_soundness()
        if value is None:
            try:
                return self.cheat_plan.value, "cheat-program"
            except InfeasibleError:
                pass
        return value, kind

    def extract_witness(self, oracles):
        return ()


def sumcheck_iop(instance: SumcheckInstance) -> SumcheckIop:
    return SumcheckIop(instance)


DEFAULT_CHEAT_BUDGET = 1 << 24


@lru_cache(maxsize=8)
def _table_evaluations(p: int, d: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All degree-<=d coefficient tables with their full evaluation vectors."""
    out = []
    for table in itertools.product(range(p), repeat=d + 1):
        out.append((table, tuple(poly_eval(table, x, p) for x in range(p))))
    return tuple(out)


class SumcheckCheatPlan:
    """Exact optimum over adaptive strategies against a (false) claim.

    Dynamic program over (round, challenge prefix, required pair-sum): the
    verifier's chain check pins g_i(0)+g_i(1) to the previous table's value,
    so the best continuation depends on the history only through that sum
    and the challenges seen so far. `value` is the exact acceptance optimum
    and `table_for` replays the maximizing tables, so the same computation
    doubles as a scripted adversary strategy.
    """

    def __init__(self, instance: SumcheckInstance):
        p, d, n = instance.prime, instance.degree, instance.variables
        # Layer i scores each of p**(d+1) tables against p successors at
        # p**(i-1) prefixes; the last layer also evaluates g, a walk of all
        # (d+1)**n terms, at p**n points.
        layers = (itertools.repeat(p, i + d + 1) for i in range(1, n + 1))
        last = itertools.chain(itertools.repeat(p, n), itertools.repeat(d + 1, n))
        terms = itertools.chain(layers, (last,))
        if bounded_count(terms, DEFAULT_CHEAT_BUDGET) > DEFAULT_CHEAT_BUDGET:
            raise InfeasibleError(
                "cheat-strategy program needs more table and term evaluations than its "
                f"budget; budget is {DEFAULT_CHEAT_BUDGET}"
            )
        self.instance = instance
        self._p, self._n = p, n
        tables = _table_evaluations(p, d)
        # layers[i][prefix][s] = (best leaf count, best table) for round i
        # with challenge prefix r_1..r_{i-1} and required pair-sum s; counts
        # are over the p**(n-i+1) equally likely challenge continuations.
        self._layers: dict[int, dict[tuple[int, ...], list]] = {}
        for i in range(n, 0, -1):
            layer: dict[tuple[int, ...], list] = {}
            for prefix in itertools.product(range(p), repeat=i - 1):
                best: list[tuple[int, tuple[int, ...] | None]] = [(-1, None)] * p
                if i == n:
                    target = tuple(instance.evaluate(prefix + (r,)) for r in range(p))
                    for table, evals in tables:
                        s = (evals[0] + evals[1]) % p
                        count = sum(1 for e, t in zip(evals, target) if e == t)
                        if count > best[s][0]:
                            best[s] = (count, table)
                else:
                    successors = [self._layers[i + 1][prefix + (r,)] for r in range(p)]
                    for table, evals in tables:
                        s = (evals[0] + evals[1]) % p
                        count = sum(successors[r][evals[r]][0] for r in range(p))
                        if count > best[s][0]:
                            best[s] = (count, table)
                layer[prefix] = best
            self._layers[i] = layer

    @property
    def value(self) -> Fraction:
        count, _ = self._layers[1][()][self.instance.claimed_sum % self._p]
        return Fraction(count, self._p ** self._n)

    def table_for(self, challenges: tuple[int, ...], required_sum: int) -> tuple[int, ...]:
        """Maximizing table for the round after `challenges` were seen."""
        i = len(challenges) + 1
        _, table = self._layers[i][tuple(challenges)][required_sum % self._p]
        assert table is not None
        return table


# ---------------------------------------------------------------------------
# instance kinds: protocol, binary layout and text files
# ---------------------------------------------------------------------------


def protocol_for_instance(instance) -> IopProtocol:
    """The toy protocol that proves an instance of either kind."""
    if isinstance(instance, GraphColoringInstance):
        return gc_pcp(instance)
    if isinstance(instance, SumcheckInstance):
        return sumcheck_iop(instance)
    raise ProtocolViolation(f"no protocol registered for {type(instance)!r}")


GRAPH_KIND = 0x01
SUMCHECK_KIND = 0x02

# The fixed fields of each layout, kind byte first; BE32 edge ends or BE64
# coefficients follow.
_GRAPH_HEADER = struct.Struct(">BII")
_SUMCHECK_HEADER = struct.Struct(">BQHHQ")


def instance_from_bytes(payload: bytes) -> GraphColoringInstance | SumcheckInstance:
    """The instance a binary layout encodes, which keeps `payload` as its
    `encoding`; a graph keeps its edges packed, as an `EdgePairs` over one
    copy of the payload's edge ends. A malformed payload raises DecodeError
    with no offset (it fails as a whole), and an instance its constructor
    refuses (a self-loop, a duplicate edge, a composite prime)
    InstanceError."""
    payload = bytes(payload)
    if not payload:
        raise DecodeError("empty instance payload")
    kind = payload[0]
    if kind == GRAPH_KIND:
        if len(payload) < _GRAPH_HEADER.size:
            raise DecodeError("truncated graph instance")
        _, n, m = _GRAPH_HEADER.unpack_from(payload)
        if len(payload) != _GRAPH_HEADER.size + 8 * m:
            raise DecodeError("graph instance length mismatch")
        # One copy of the BE32 edge ends into an array of 4-byte unsigned
        # ints, in host byte order.
        ends = array("I")
        ends.frombytes(memoryview(payload)[_GRAPH_HEADER.size :])
        if sys.byteorder == "little":
            ends.byteswap()
        instance = GraphColoringInstance(n, EdgePairs(ends))
    elif kind == SUMCHECK_KIND:
        if len(payload) < _SUMCHECK_HEADER.size:
            raise DecodeError("truncated sumcheck instance")
        _, p, n, d, s = _SUMCHECK_HEADER.unpack_from(payload)
        room = (len(payload) - _SUMCHECK_HEADER.size) // 8
        count = table_entries(n, d, room)
        if count is None or len(payload) != _SUMCHECK_HEADER.size + 8 * count:
            raise DecodeError("sumcheck instance length mismatch")
        coeffs = struct.unpack_from(f">{count}Q", payload, _SUMCHECK_HEADER.size)
        instance = SumcheckInstance(p, n, d, coeffs, s)
    else:
        raise DecodeError(f"unknown instance kind {kind:#x}")
    # Filled in as `encoding` would be: the layout is canonical, so these
    # are the bytes `layout` would give.
    vars(instance)["encoding"] = payload
    return instance


def _records(text: str):
    """(line number, line, fields) of each record line of an instance file:
    a `#` starts a comment, and a line with no field before it is skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, raw, fields


def load_instance_text(text: str):
    """The instance an instance file holds, with its witness or None: graph
    records when the first record is a `v`, `e` or `w` line, else a sumcheck
    header and coefficient table, which has no witness."""
    first = next(_records(text), None)
    if first is None:
        raise InstanceError("no instance, only blank lines or comments")
    if first[2][0] in ("v", "e", "w"):
        return load_graph_text(text)
    return load_sumcheck_text(text), None


def load_graph_text(text: str) -> tuple[GraphColoringInstance, tuple[int, ...] | None]:
    """Parse "v <n>" / "e <u> <v>" lines, optional "w <c1> ... <cn>" witness;
    an empty "w" line gives no witness, as no "w" line does."""
    vertex_count = None
    edges: list[tuple[int, int]] = []
    witness: tuple[int, ...] | None = None
    for lineno, raw, fields in _records(text):
        kind = fields[0]
        try:
            if kind == "v":
                vertex_count = int(fields[1])
            elif kind == "e":
                edges.append((int(fields[1]), int(fields[2])))
            elif kind == "w":
                witness = tuple(int(f) for f in fields[1:]) or None
            else:
                raise InstanceError(f"line {lineno}: unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise InstanceError(f"line {lineno}: malformed record: {raw!r}") from exc
    if vertex_count is None:
        raise InstanceError('graph file is missing the "v <n>" header')
    return canonical_graph(vertex_count, edges), witness


def dump_graph_text(instance: GraphColoringInstance, witness=None) -> str:
    lines = [f"v {instance.vertex_count}"]
    lines += [f"e {u} {v}" for u, v in instance.edges]
    if witness is not None:
        lines.append("w " + " ".join(str(c) for c in witness))
    return "\n".join(lines) + "\n"


def load_sumcheck_text(text: str) -> SumcheckInstance:
    """Parse a "p n d S" header followed by (d+1)**n coefficients."""
    tokens: list[int] = []
    for lineno, raw, fields in _records(text):
        try:
            tokens.extend(int(f) for f in fields)
        except ValueError as exc:
            raise InstanceError(f"line {lineno}: malformed number in {raw!r}") from exc
    if len(tokens) < 4:
        raise InstanceError('sumcheck file is missing the "p n d S" header')
    p, n, d, s = tokens[:4]
    coeffs = tuple(tokens[4:])
    return SumcheckInstance(p, n, d, coeffs, s)


def dump_sumcheck_text(instance: SumcheckInstance) -> str:
    header = f"{instance.prime} {instance.variables} {instance.degree} {instance.claimed_sum}"
    body = "\n".join(str(c) for c in instance.coefficients)
    return header + "\n" + body + "\n"
