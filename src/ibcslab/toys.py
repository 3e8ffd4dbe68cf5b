"""Concrete IOP instantiations small enough for exhaustive oracles.

Two protocols drive every end-to-end experiment:

* graph 3-coloring, a one-round PCP-style protocol: the proof string is a
  coloring, the verifier checks one uniformly random edge;
* sumcheck over a prime field, a genuinely multi-round protocol: round i
  sends the coefficient table of the partial-sum polynomial g_i, the
  verifier reads every table in full and checks the telescoping identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import InfeasibleError, InstanceError, ProtocolViolation
from .iop import IopProtocol, IopSpec, ProofString, QueryPlan
from .memo import BoundedMemo
from .prng import Bits, map_to_range, randomness_length

GC_COLORS = 3
# The most vertices whose colorings `best_coloring` enumerates.
BEST_COLORING_MAX_VERTICES = 13


# ---------------------------------------------------------------------------
# graph 3-coloring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphColoringInstance:
    """Simple graph with 1-based vertices and lexicographically sorted edges.

    A valid edge list is exactly one that is strictly increasing in
    lexicographic order with 1 <= u < v <= vertex_count for each edge
    (u, v): strict increase rules out duplicates and unsorted lists alike,
    so one pass that carries the previous edge checks the whole rule.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise InstanceError("graph needs at least one vertex")
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
    if len(coloring) != instance.vertex_count:
        return False
    if any(not 0 <= c < GC_COLORS for c in coloring):
        return False
    return all(coloring[u - 1] != coloring[v - 1] for u, v in instance.edges)


def find_coloring(instance: GraphColoringInstance) -> tuple[int, ...] | None:
    """Backtracking 3-coloring search; None when the graph is not 3-colorable."""
    n = instance.vertex_count
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in instance.edges:
        neighbours[u - 1].append(v - 1)
        neighbours[v - 1].append(u - 1)
    # Depth first, vertex by vertex in order, each trying colors 0, 1, 2;
    # -1 marks a vertex not yet colored. A loop, not recursion, so a long
    # path is no deeper than a short one.
    colors = [-1] * n
    v = 0
    while 0 <= v < n:
        c = colors[v] + 1
        while c < GC_COLORS and any(colors[w] == c for w in neighbours[v]):
            c += 1
        if c < GC_COLORS:
            colors[v] = c
            v += 1
        else:
            colors[v] = -1
            v -= 1
    return tuple(colors) if v == n else None


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

    def prover_init(self, witness) -> tuple[ProofString, object]:
        coloring = tuple(witness)
        if len(coloring) != self.instance.vertex_count:
            raise InstanceError("witness length does not match the vertex count")
        if any(not 0 <= c < GC_COLORS for c in coloring):
            raise InstanceError("witness contains a non-color value")
        return ProofString(1, coloring), ("gc-done",)

    def prover_next(self, state, challenge: Bits):
        raise ProtocolViolation("one-round protocol has no second prover move")

    def challenge_space(self, round_index: int) -> int:
        return len(self.instance.edges)

    def query_plan(self, structured: Sequence[int]) -> QueryPlan:
        u, v = self.instance.edges[structured[0]]
        return QueryPlan(((u, v),))

    def decide(self, structured, answers) -> int:
        a, b = answers[0]
        if not (0 <= a < GC_COLORS and 0 <= b < GC_COLORS):
            return 0
        return 1 if a != b else 0

    def check_witness(self, witness) -> bool:
        return is_proper_coloring(self.instance, tuple(witness))

    @cached_property
    def found_coloring(self) -> tuple[int, ...] | None:
        """`find_coloring` of the instance, searched once per protocol
        object (one report for the CLI); None when it has no 3-coloring."""
        return find_coloring(self.instance)

    def in_language(self) -> bool:
        return self.found_coloring is not None

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

    It multiplies only while the product fits, so a header that claims a
    huge table costs a few steps, never a huge integer. `variables` and
    `degree` are at least 0.
    """
    if degree == 0:
        return 1
    size = 1
    for _ in range(variables):
        size *= degree + 1
        if size > room:
            return None
    return size


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
        if any(not 0 <= c < self.prime for c in self.coefficients):
            raise InstanceError("coefficient outside the field")
        if not 0 <= self.claimed_sum < self.prime:
            raise InstanceError("claimed sum outside the field")

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
        p = self.prime
        total = 0
        for point in itertools.product((0, 1), repeat=self.variables):
            total = (total + self.evaluate(point)) % p
        return total


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

    def prover_init(self, witness) -> tuple[ProofString, object]:
        if witness not in ((), None):
            raise InstanceError("sumcheck is a language-type relation; witness is empty")
        return ProofString(1, self.round_polynomial(())), (1, ())

    def prover_next(self, state, challenge: Bits):
        round_done, fixed = state
        if round_done >= self.spec.rounds:
            raise ProtocolViolation("prover already sent its final round")
        if challenge.nbits != self.spec.randomness_bits[round_done - 1]:
            raise ProtocolViolation("challenge has the wrong bit length")
        r = map_to_range(challenge, self.instance.prime)
        fixed = fixed + (r,)
        return ProofString(round_done + 1, self.round_polynomial(fixed)), (
            round_done + 1,
            fixed,
        )

    def challenge_space(self, round_index: int) -> int:
        return self.instance.prime

    def query_plan(self, structured: Sequence[int]) -> QueryPlan:
        d = self.instance.degree
        return QueryPlan((tuple(range(1, d + 2)),) * self.spec.rounds)

    def decide(self, structured, answers) -> int:
        inst = self.instance
        p = inst.prime
        tables = [tuple(a) for a in answers]
        if any(not 0 <= c < p for table in tables for c in table):
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

    def in_language(self) -> bool:
        return self.check_witness(())

    @cached_property
    def cheat_plan(self) -> SumcheckCheatPlan:
        """The instance's `SumcheckCheatPlan`, built once per protocol
        object (one report for the CLI); InfeasibleError over its budget."""
        return SumcheckCheatPlan(self.instance)

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
        cost = sum(p ** (i - 1) * p ** (d + 1) * p for i in range(1, n + 1))
        if cost > DEFAULT_CHEAT_BUDGET:
            raise InfeasibleError(
                f"cheat-strategy program needs about {cost} table evaluations, "
                f"budget is {DEFAULT_CHEAT_BUDGET}"
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
# text instance files
# ---------------------------------------------------------------------------


def load_graph_text(text: str) -> tuple[GraphColoringInstance, tuple[int, ...] | None]:
    """Parse "v <n>" / "e <u> <v>" lines, optional "w <c1> ... <cn>" witness."""
    vertex_count = None
    edges: list[tuple[int, int]] = []
    witness: tuple[int, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "v":
                vertex_count = int(fields[1])
            elif kind == "e":
                edges.append((int(fields[1]), int(fields[2])))
            elif kind == "w":
                witness = tuple(int(f) for f in fields[1:])
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            tokens.extend(int(f) for f in line.split())
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
