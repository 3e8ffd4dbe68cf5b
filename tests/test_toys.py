from __future__ import annotations

import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ibcslab import toys
from ibcslab.errors import InstanceError, ProtocolViolation
from ibcslab.prng import Bits
from ibcslab.toys import (
    GraphColoringInstance,
    SumcheckCheatPlan,
    SumcheckInstance,
    best_coloring,
    canonical_graph,
    dump_graph_text,
    dump_sumcheck_text,
    find_coloring,
    gc_pcp,
    is_prime,
    is_proper_coloring,
    load_graph_text,
    load_sumcheck_text,
    poly_eval,
    sumcheck_iop,
    table_entries,
)
from helpers import make_sumcheck
import toys_reference


def test_graph_instance_validation():
    with pytest.raises(InstanceError):
        GraphColoringInstance(3, ())
    with pytest.raises(InstanceError):
        GraphColoringInstance(3, ((1, 1),))
    with pytest.raises(InstanceError):
        GraphColoringInstance(3, ((2, 1),))
    with pytest.raises(InstanceError):
        GraphColoringInstance(2, ((1, 3),))
    assert canonical_graph(3, [(3, 1), (2, 1)]).edges == ((1, 2), (1, 3))


@st.composite
def _edge_lists(draw):
    """(vertex_count, edges): arbitrary pairs, or a valid list with at most
    one fault (a duplicate anywhere, two edges swapped, one edge replaced
    by any pair, out-of-range and self-loops included)."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n + 1)
    if draw(st.booleans()):
        return n, tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=8)))
    pool = list(itertools.combinations(range(1, n + 1), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pool), max_size=8))) if pool else []
    fault = draw(st.sampled_from(["none", "duplicate", "swap", "replace"]))
    if edges and fault == "duplicate":
        edge = edges[draw(st.integers(0, len(edges) - 1))]
        edges.insert(draw(st.integers(0, len(edges))), edge)
    elif edges and fault == "swap":
        i = draw(st.integers(0, len(edges) - 1))
        j = draw(st.integers(0, len(edges) - 1))
        edges[i], edges[j] = edges[j], edges[i]
    elif edges and fault == "replace":
        edges[draw(st.integers(0, len(edges) - 1))] = draw(st.tuples(vertex, vertex))
    return n, tuple(edges)


@settings(max_examples=600, deadline=None)
@given(_edge_lists())
def test_graph_validation_accepts_exactly_what_the_reference_accepts(case):
    n, edges = case
    try:
        GraphColoringInstance(n, edges)
        accepted = True
    except InstanceError:
        accepted = False
    assert accepted == toys_reference.graph_edges_valid(n, edges)


@pytest.mark.parametrize(
    "edges, message",
    [
        (((1, 2), (1, 3), (1, 2)), "edge (1, 2) not lexicographically after (1, 3)"),
        (((1, 2), (1, 2), (2, 3)), "duplicate edge (1, 2)"),
        (((1, 3), (1, 2)), "edge (1, 2) not lexicographically after (1, 3)"),
        (((2, 3), (1, 4)), "edge (1, 4) not lexicographically after (2, 3)"),
        (((0, 2),), "edge (0, 2) references a missing vertex"),
        (((1, 2), (1, 5)), "edge (1, 5) references a missing vertex"),
        (((1, 2), (3, 2)), "edge (3, 2) not in canonical (u < v) order"),
        (((1, 2), (3, 3)), "self-loop at vertex 3"),
        (((0, 0),), "edge (0, 0) references a missing vertex"),
        # the first offending edge is named, not a later one
        (((1, 3), (2, 1), (1, 2), (4, 4)), "edge (2, 1) not in canonical (u < v) order"),
    ],
)
def test_graph_validation_names_the_first_offending_edge(edges, message):
    assert not toys_reference.graph_edges_valid(4, edges)
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        GraphColoringInstance(4, edges)


def test_is_prime_matches_trial_division():
    limit = 10**5
    assert [p for p in range(limit + 1) if is_prime(p)] == [
        p for p in range(limit + 1) if toys_reference.is_prime_trial(p)
    ]
    rng = random.Random(20261018)
    for _ in range(300):
        p = rng.randrange(limit, 1 << 32)
        assert is_prime(p) == toys_reference.is_prime_trial(p), p
    # strong pseudoprimes to the first few prime bases, and a product of
    # the two largest primes below 2**32
    for p in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 4294967291 * 4294967279):
        assert not is_prime(p), p
    for p in ((1 << 61) - 1, (1 << 64) - 59, 4294967291, 4294967279):
        assert is_prime(p), p


def test_sumcheck_prime_costs_the_same_at_any_size():
    """A peer-chosen 64-bit prime is checked in microseconds, not by trial
    division; a prime past 64 bits, which the wire cannot carry, is refused."""
    start = time.perf_counter()
    SumcheckInstance((1 << 61) - 1, 1, 1, (0, 1), 1)
    SumcheckInstance((1 << 64) - 59, 1, 1, (0, 1), 1)
    assert time.perf_counter() - start < 1
    with pytest.raises(InstanceError, match="does not fit in 64 bits"):
        SumcheckInstance((1 << 89) - 1, 1, 1, (0, 1), 1)


def test_gc_query_plan_first_edge(k3):
    protocol = gc_pcp(k3)
    # edge index 0 is (1, 2) in canonical order
    assert protocol.query_plan((0,)).per_round == ((1, 2),)


def test_gc_decide(k3):
    protocol = gc_pcp(k3)
    assert protocol.decide((0,), [(0, 1)]) == 1
    assert protocol.decide((0,), [(2, 2)]) == 0
    assert protocol.decide((0,), [(3, 1)]) == 0  # out-of-alphabet symbol


def test_gc_prover_emits_witness(k3):
    protocol = gc_pcp(k3)
    proof, _ = protocol.prover_init((0, 1, 2))
    assert proof.symbols == (0, 1, 2)
    with pytest.raises(ProtocolViolation):
        protocol.prover_next(("gc-done",), Bits(72, 0))
    with pytest.raises(InstanceError):
        protocol.prover_init((0, 1))


def test_gc_knowledge_threshold(k4):
    # any proof accepted with probability above 1 - 1/|E| is a proper coloring
    protocol = gc_pcp(k4)
    edges = k4.edges
    threshold = 1 - Fraction(1, len(edges))
    for coloring in itertools.product(range(3), repeat=4):
        sat = Fraction(
            sum(1 for u, v in edges if coloring[u - 1] != coloring[v - 1]), len(edges)
        )
        if sat > threshold:
            assert is_proper_coloring(k4, coloring)


def test_single_edge_graph_is_satisfiable():
    graph = canonical_graph(2, [(1, 2)])
    assert find_coloring(graph) is not None
    assert best_coloring(graph)[1] == 1


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_find_coloring_matches_the_recursive_search(data):
    n = data.draw(st.integers(2, 9), label="n")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs), min_size=1), label="edges"))
    graph = canonical_graph(n, edges)
    assert find_coloring(graph) == toys_reference.find_coloring(n, graph.edges)


def test_find_coloring_on_a_long_path_needs_no_recursion():
    """A path's search goes one vertex deeper per vertex; the loop has no
    depth limit, where one call per vertex passed Python's."""
    n = 3000
    path = canonical_graph(n, [(v, v + 1) for v in range(1, n)])
    coloring = find_coloring(path)
    assert coloring == (0, 1) * (n // 2)
    assert is_proper_coloring(path, coloring)


def test_petersen_is_three_colorable(petersen):
    coloring = find_coloring(petersen)
    assert coloring is not None
    assert is_proper_coloring(petersen, coloring)


def test_best_coloring_on_k4(k4):
    coloring, value = best_coloring(k4)
    assert value == Fraction(5, 6)
    sat = sum(1 for u, v in k4.edges if coloring[u - 1] != coloring[v - 1])
    assert Fraction(sat, len(k4.edges)) == value


def test_sumcheck_instance_validation():
    with pytest.raises(InstanceError):
        SumcheckInstance(4, 1, 1, (0, 0), 0)  # not prime
    with pytest.raises(InstanceError):
        SumcheckInstance(5, 1, 1, (0,), 0)  # wrong table size
    with pytest.raises(InstanceError):
        SumcheckInstance(5, 1, 1, (0, 9), 0)  # out of field


def test_a_huge_claimed_table_is_refused_by_name():
    """(d+1)**n far past the table there is: the message names n and d, and
    no huge integer is built or printed."""
    with pytest.raises(InstanceError, match=r"\(d\+1\)\*\*n entries for d=9, n=5000, got 1$"):
        SumcheckInstance(17, 5000, 9, (1,), 0)
    with pytest.raises(InstanceError, match="d=1, n=1, got 3"):
        SumcheckInstance(5, 1, 1, (0, 0, 0), 0)


def test_table_entries_stops_at_the_room_there_is():
    assert table_entries(2, 2, 9) == 9
    assert table_entries(2, 2, 8) is None
    assert table_entries(65535, 65534, 1) is None
    assert table_entries(65535, 0, 0) == 1
    assert table_entries(0, 5, 1) == 1
    for n, d in itertools.product(range(4), range(4)):
        assert table_entries(n, d, 100) == ((d + 1) ** n if (d + 1) ** n <= 100 else None)


def test_round_polynomials_are_computed_once_per_prefix(sumcheck_true, monkeypatch):
    """A protocol object keeps each prefix's round polynomial; a repeat is the
    same tuple, a fresh object computes it again, and the memo drops its
    least recently used prefix first."""
    sums = []
    real = toys.SumcheckIop._sum_out
    monkeypatch.setattr(toys.SumcheckIop, "_sum_out", lambda self, f: sums.append(f) or real(self, f))
    protocol = sumcheck_iop(sumcheck_true)
    first = protocol.round_polynomial(())
    assert protocol.round_polynomial(()) is first
    assert protocol.round_polynomial([3]) == protocol.round_polynomial((3,))
    assert sums == [(), (3,)]
    assert sumcheck_iop(sumcheck_true).round_polynomial(()) == first
    assert len(sums) == 3
    memo = protocol._round_polys
    d, n = sumcheck_true.degree, sumcheck_true.variables
    assert (memo.max_entries, memo.max_bytes) == (
        toys.ROUND_POLY_MEMO_ENTRIES,
        toys.ROUND_POLY_MEMO_ENTRIES * 8 * (n + d + 1),
    )
    monkeypatch.setattr(toys, "ROUND_POLY_MEMO_ENTRIES", 2)
    protocol = sumcheck_iop(sumcheck_true)
    sums.clear()
    for fixed in ((), (1,), (), (2,), (1,)):  # (2,) drops (1,), the least recently used
        protocol.round_polynomial(fixed)
    assert sums == [(), (1,), (2,), (1,)]


def test_sumcheck_round_polynomials():
    # g(X1, X2) = X1*X2 over F5: g_1(X) = X, then g_2(X) = 3X after r1 = 3
    inst = SumcheckInstance(5, 2, 1, (0, 0, 0, 1), 1)
    protocol = sumcheck_iop(inst)
    proof, state = protocol.prover_init(())
    assert proof.symbols == (0, 1)
    proof2, _ = protocol.prover_next(state, Bits(protocol.spec.randomness_bits[0], 3))
    assert proof2.symbols == (0, 3)


def test_sumcheck_decide_identities():
    inst = SumcheckInstance(5, 2, 1, (0, 0, 0, 1), 1)
    protocol = sumcheck_iop(inst)
    # honest tables for challenges (3, 4): g_1 = X, g_2 = 3X
    assert protocol.decide((3, 4), [(0, 1), (0, 3)]) == 1
    assert protocol.decide((3, 4), [(1, 1), (0, 3)]) == 0  # wrong claimed sum
    assert protocol.decide((3, 4), [(0, 1), (1, 3)]) == 0  # chain broken
    assert protocol.decide((3, 4), [(0, 1), (0, 4)]) == 0  # final check fails


@st.composite
def _sumcheck_cases(draw):
    """A small sumcheck instance (true or false claim), a structured
    challenge vector, and its honest answer tables, perhaps with one entry
    replaced by any value in [0, p]."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = (d + 1) ** n
    coeffs = tuple(draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size)))
    instance = SumcheckInstance(p, n, d, coeffs, 0)
    claim = draw(st.sampled_from((instance.true_sum(), draw(st.integers(0, p - 1)))))
    instance = SumcheckInstance(p, n, d, coeffs, claim)
    structured = tuple(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    answers = [list(sumcheck_iop(instance).round_polynomial(structured[:i])) for i in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, d))
        answers[i][j] = draw(st.integers(0, p))
    return instance, structured, tuple(map(tuple, answers))


@settings(max_examples=300, deadline=None)
@given(_sumcheck_cases())
def test_sumcheck_final_check_reads_the_last_round_polynomial(case):
    """g_n(X) = g(r_1..r_{n-1}, X), so the last round polynomial at r_n is
    g at the challenge point, and `decide` (which reads it from the round
    polynomial memo) decides as the reference built on `evaluate`, on a
    fresh protocol object and on one whose memo is warm."""
    instance, structured, answers = case
    protocol = sumcheck_iop(instance)
    p = instance.prime
    final = protocol.round_polynomial(structured[:-1])
    assert poly_eval(final, structured[-1], p) == instance.evaluate(structured)
    expected = toys_reference.sumcheck_decide(instance, structured, answers)
    assert sumcheck_iop(instance).decide(structured, answers) == expected
    assert protocol.decide(structured, answers) == expected


def test_sumcheck_prover_rejects_bad_challenge_width(sumcheck_true):
    protocol = sumcheck_iop(sumcheck_true)
    _, state = protocol.prover_init(())
    with pytest.raises(ProtocolViolation):
        protocol.prover_next(state, Bits(8, 0))


def test_sumcheck_zero_polynomial_accepts_everywhere():
    inst = SumcheckInstance(5, 2, 1, (0, 0, 0, 0), 0)
    protocol = sumcheck_iop(inst)
    proof, _ = protocol.prover_init(())
    assert proof.symbols == (0, 0)
    assert protocol.in_language()


def test_cheat_plan_matches_brute_force_small():
    from ibcslab.iop import brute_force_soundness

    for claim_shift in (1, 2):
        inst = make_sumcheck(p=5, n=1, d=1, coeffs=(2, 3), false_claim=False)
        inst = SumcheckInstance(5, 1, 1, (2, 3), (inst.claimed_sum + claim_shift) % 5)
        assert SumcheckCheatPlan(inst).value == brute_force_soundness(sumcheck_iop(inst))


def test_cheat_plan_respects_nd_over_p_ceiling(sumcheck_false):
    value = SumcheckCheatPlan(sumcheck_false).value
    n, d, p = (
        sumcheck_false.variables,
        sumcheck_false.degree,
        sumcheck_false.prime,
    )
    assert 0 < value <= Fraction(n * d, p)


def test_cheat_plan_tables_obey_constraints(sumcheck_false):
    plan = SumcheckCheatPlan(sumcheck_false)
    p = sumcheck_false.prime
    table1 = plan.table_for((), sumcheck_false.claimed_sum)
    assert (poly_eval(table1, 0, p) + poly_eval(table1, 1, p)) % p == sumcheck_false.claimed_sum
    required = poly_eval(table1, 7, p)
    table2 = plan.table_for((7,), required)
    assert (poly_eval(table2, 0, p) + poly_eval(table2, 1, p)) % p == required


def test_graph_text_roundtrip(petersen):
    witness = find_coloring(petersen)
    text = dump_graph_text(petersen, witness)
    instance, parsed_witness = load_graph_text(text)
    assert instance == petersen
    assert parsed_witness == witness
    with pytest.raises(InstanceError):
        load_graph_text("e 1 2\n")  # missing header
    with pytest.raises(InstanceError):
        load_graph_text("v 2\nq 1\n")


def test_sumcheck_text_roundtrip(sumcheck_true):
    text = dump_sumcheck_text(sumcheck_true)
    assert load_sumcheck_text(text) == sumcheck_true
    with pytest.raises(InstanceError):
        load_sumcheck_text("5 1\n")
