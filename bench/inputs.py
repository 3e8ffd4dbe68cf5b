"""Seeded input generators for the benchmark workloads.

Every input is made in code from the workload seed; the same seed gives
the same instances. Instances are built through the library's own
constructors, so they pass the same validation as user input.
"""

from __future__ import annotations

import random

from ibcslab.toys import (
    GC_COLORS,
    GraphColoringInstance,
    SumcheckInstance,
    canonical_graph,
    complete_graph,
    is_proper_coloring,
)


def planted_coloring(
    vertex_count: int, edges_per_vertex: int, seed: int
) -> tuple[GraphColoringInstance, tuple[int, ...]]:
    """A random graph with a planted proper 3-colouring, and that colouring.

    Each vertex draws `edges_per_vertex` distinct new neighbours outside its
    own colour class, so the graph has exactly that many edges per vertex.
    """
    rng = random.Random(f"ibcslab-bench/planted/{vertex_count}/{edges_per_vertex}/{seed}")
    colours = [rng.randrange(GC_COLORS) for _ in range(vertex_count)]
    if len(set(colours)) < 2 or vertex_count < 2 * edges_per_vertex + 2:
        raise ValueError("graph too small to plant the requested edges")
    edges: set[tuple[int, int]] = set()
    for u in range(1, vertex_count + 1):
        added = 0
        while added < edges_per_vertex:
            v = rng.randrange(1, vertex_count + 1)
            edge = (min(u, v), max(u, v))
            if colours[u - 1] == colours[v - 1] or edge in edges:
                continue
            edges.add(edge)
            added += 1
    instance = canonical_graph(vertex_count, edges)
    witness = tuple(colours)
    if not is_proper_coloring(instance, witness):
        raise ValueError("planted colouring is not proper")
    return instance, witness


def true_sumcheck(prime: int, variables: int, degree: int, coefficients) -> SumcheckInstance:
    """Sumcheck instance whose claimed sum is the true sum over the cube."""
    coefficients = tuple(coefficients)
    probe = SumcheckInstance(prime, variables, degree, coefficients, 0)
    return SumcheckInstance(prime, variables, degree, coefficients, probe.true_sum())


def criterion8_sumcheck() -> SumcheckInstance:
    """The acceptance suite's hybrid-chain instance: p=17, n=2, d=2, true claim."""
    p, n, d = 17, 2, 2
    return true_sumcheck(p, n, d, ((3 * i + 1) % p for i in range((d + 1) ** n)))


def random_sumcheck(prime: int, variables: int, degree: int, seed: int) -> SumcheckInstance:
    """Sumcheck instance with seeded coefficients and a true claim."""
    rng = random.Random(f"ibcslab-bench/sumcheck/{prime}/{variables}/{degree}/{seed}")
    count = (degree + 1) ** variables
    return true_sumcheck(prime, variables, degree, (rng.randrange(prime) for _ in range(count)))


def k4() -> GraphColoringInstance:
    """K4, the smallest graph that is not 3-colourable."""
    return complete_graph(4)
