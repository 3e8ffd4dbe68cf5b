"""One bounded least-recently-used memo, shared by every cache in the library.

A `BoundedMemo` holds at most `max_entries` entries whose weights, in bytes
as the caller counts them, sum to at most `max_bytes`; past either bound
it drops the least recently used entry first, and it never keeps an entry
heavier than `max_bytes`. So its memory is bounded by the two constants,
whatever inputs its caller sees.

The caller hashes the key once and passes the hash with it. An entry is
filed under that hash and keeps its key, so a hash collision is a miss,
never a wrong value. One lock keeps the bookkeeping whole when several
threads share a memo. Its instances: `vc`'s process-wide check memo,
each prover's `ibcs.CommitMemo` and `ibcs.OpeningMemo`, each protocol
object's plan cache in `iop`, each sumcheck protocol object's
round-polynomial memo in `toys`, and each adversary's outcome memo in
`extraction`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable


class BoundedMemo:
    """Values by key, least recently used dropped first; None is never a value."""

    def __init__(self, max_entries: int, max_bytes: int):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.entries: OrderedDict[int, tuple[Hashable, Any, int]] = OrderedDict()
        self.bytes = 0
        self.lock = threading.Lock()

    def get(self, h: int, key: Hashable) -> Any:
        """The value kept for `key`, whose hash is `h`, or None."""
        with self.lock:
            entry = self.entries.get(h)
            if entry is None or entry[0] != key:
                return None
            self.entries.move_to_end(h)
            return entry[1]

    def put(self, h: int, key: Hashable, value: Any, weight: int):
        """Keep `value` for `key` (hash `h`), counted as `weight` bytes.

        An entry under the same hash is replaced, a colliding key's included.
        """
        if weight > self.max_bytes:
            return
        with self.lock:
            old = self.entries.pop(h, None)
            if old is not None:
                self.bytes -= old[2]
            self.entries[h] = (key, value, weight)
            self.bytes += weight
            while len(self.entries) > self.max_entries or self.bytes > self.max_bytes:
                self.bytes -= self.entries.popitem(last=False)[1][2]
