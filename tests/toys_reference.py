"""Reference predicates for the instance checks in `ibcslab.toys`.

These are the straightforward forms of the rules the library checks in
one pass: a set of seen edges plus a final sort for graphs, and trial
division for primes. The library must accept exactly what they accept.
`sumcheck_decide` is sumcheck's decision with its final check as g
evaluated at the challenge point, term by term.
"""

from __future__ import annotations


def graph_edges_valid(vertex_count: int, edges) -> bool:
    """Whether (vertex_count, edges) is a simple graph with at least one
    edge, every edge (u, v) in canonical u < v order, no duplicate, and
    the list lexicographically sorted."""
    if vertex_count < 1 or not edges:
        return False
    seen = set()
    for u, v in edges:
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
            return False
        if u == v or u > v or (u, v) in seen:
            return False
        seen.add((u, v))
    return tuple(sorted(edges)) == tuple(edges)


def is_prime_trial(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def _horner(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def sumcheck_decide(instance, structured, answers) -> int:
    """1 when every table is in the field, each g_i(0) + g_i(1) is the
    previous round's value (the claimed sum first), and the last table at
    r_n is `instance.evaluate(structured)`; else 0."""
    p = instance.prime
    if any(not 0 <= c < p for table in answers for c in table):
        return 0
    expected = instance.claimed_sum
    for r, table in zip(structured, answers):
        if (_horner(table, 0, p) + _horner(table, 1, p)) % p != expected:
            return 0
        expected = _horner(table, r, p)
    return int(expected == instance.evaluate(structured))
