"""One bounded least-recently-used memo, shared by every cache in the library.

A `BoundedMemo` holds at most `max_entries` entries whose weights, in bytes
as the caller counts them, sum to at most `max_bytes`; past either bound
it drops the least recently used entry first, and it never keeps an entry
heavier than `max_bytes`. So its memory is bounded by the two constants,
whatever inputs its caller sees.

The caller hashes the key once and passes the hash with it. An entry is
filed under that hash and keeps its key, so a hash collision is a miss,
never a wrong value. Its instances: `vc`'s process-wide check memo,
each prover's `ibcs.CommitMemo`, `ibcs.OpeningMemo` and `outcomes`
memo (one table of outcomes by view per rewind point or trial point,
which `extraction` grows in place and puts back with its new weight),
each protocol object's plan cache in `iop`, and each sumcheck protocol
object's round-polynomial memo in `toys`.

The library starts no thread, but its callers may: a benchmark driver or
a test that runs a session's two ends in threads shares one protocol
object's plan and round-polynomial memos between them, and every thread
shares the check memo. So a hit takes no lock, and a put keeps one.
This is safe because entries are filed under ints: each `OrderedDict`
operation on an int key runs no Python code, so under the GIL it is
atomic, and a hit reads an entry whole, as one immutable
(key, value, weight) tuple. `put` is the only writer of `bytes` and the
only code that evicts, so under its lock the byte count stays the sum of
the weights held. Between a hit's lookup and its `move_to_end` (the key
compare may run Python code) a put may evict the entry read; the hit
then skips the move and still returns the value, which belongs to the
key it matched.
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
        """The value kept for `key`, whose hash is `h`, or None; no lock."""
        entry = self.entries.get(h)
        if entry is None or entry[0] != key:
            return None
        try:
            self.entries.move_to_end(h)
        except KeyError:  # evicted by a concurrent put since the lookup
            pass
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
