"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib

from ibcslab import transport
from ibcslab.prng import Prng, derive, seed_root
from ibcslab.toys import SumcheckInstance


def make_sumcheck(p=17, n=2, d=2, coeffs=None, false_claim=False):
    if coeffs is None:
        coeffs = tuple((3 * i + 1) % p for i in range((d + 1) ** n))
    probe = SumcheckInstance(p, n, d, tuple(coeffs), 0)
    true = probe.true_sum()
    claim = (true + 1) % p if false_claim else true
    return SumcheckInstance(p, n, d, tuple(coeffs), claim)


def run_memory_session(protocol, params, prover, seed=0, session=0):
    """Drive one full session over the in-memory transport."""
    prng = Prng(derive(seed_root(seed), "session", session))
    return transport.memory_session(params, protocol, prover, prng)


class CountingHashlib:
    """Stands in for a module's `hashlib`: `calls` counts every digest taken
    from a SHA-256 state it built or from any copy of one, and `states`
    counts the states it built."""

    def __init__(self):
        self.calls = 0
        self.states = 0

    def sha256(self, *args):
        self.states += 1
        return _CountedHash(self, hashlib.sha256(*args))


class _CountedHash:
    def __init__(self, counter: CountingHashlib, inner):
        self._counter = counter
        self._inner = inner

    def update(self, data):
        self._inner.update(data)

    def copy(self):
        return _CountedHash(self._counter, self._inner.copy())

    def digest(self):
        self._counter.calls += 1
        return self._inner.digest()
