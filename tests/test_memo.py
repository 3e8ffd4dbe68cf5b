"""The one bounded least-recently-used memo behind every cache."""

from __future__ import annotations

import random
import sys
import threading

from ibcslab.memo import BoundedMemo


def _fill(memo: BoundedMemo, keys, weight: int):
    for key in keys:
        memo.put(hash(key), key, ("value", key), weight)


def _whole(memo: BoundedMemo) -> bool:
    weights = [w for _, _, w in memo.entries.values()]
    return (
        memo.bytes == sum(weights) <= memo.max_bytes
        and len(memo.entries) <= memo.max_entries
    )


def test_entry_bound_binds():
    memo = BoundedMemo(3, 1000)
    _fill(memo, range(10), 10)
    assert [key for key, _, _ in memo.entries.values()] == [7, 8, 9]
    assert memo.bytes == 30 and _whole(memo)


def test_byte_bound_binds():
    memo = BoundedMemo(100, 25)
    _fill(memo, range(10), 10)
    assert [key for key, _, _ in memo.entries.values()] == [8, 9]
    assert memo.bytes == 20 and _whole(memo)


def test_an_overweight_entry_is_never_kept():
    memo = BoundedMemo(100, 9)
    _fill(memo, ["light"], 9)
    _fill(memo, ["heavy"], 10)
    assert memo.get(hash("heavy"), "heavy") is None
    # It evicts nothing either.
    assert memo.get(hash("light"), "light") == ("value", "light")
    assert memo.bytes == 9 and _whole(memo)


def test_least_recently_used_goes_first():
    memo = BoundedMemo(2, 100)
    _fill(memo, "ab", 1)
    assert memo.get(hash("a"), "a") == ("value", "a")
    _fill(memo, "c", 1)  # b is the least recently used
    assert memo.get(hash("b"), "b") is None
    assert memo.get(hash("a"), "a") == ("value", "a")
    assert memo.get(hash("c"), "c") == ("value", "c")


def test_putting_a_kept_key_again_replaces_its_weight():
    memo = BoundedMemo(10, 100)
    memo.put(hash("a"), "a", 1, 5)
    memo.put(hash("a"), "a", 2, 7)
    assert memo.get(hash("a"), "a") == 2
    assert len(memo.entries) == 1 and memo.bytes == 7


class Colliding:
    """Unequal keys that all share one hash."""

    def __init__(self, name: str):
        self.name = name

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, Colliding) and other.name == self.name


def test_a_colliding_hash_is_a_miss():
    memo = BoundedMemo(10, 100)
    a, b = Colliding("a"), Colliding("b")
    memo.put(hash(a), a, "A", 3)
    assert memo.get(hash(b), b) is None
    assert memo.get(hash(a), Colliding("a")) == "A"
    memo.put(hash(b), b, "B", 4)  # files b in a's place
    assert memo.get(hash(a), a) is None
    assert memo.get(hash(b), b) == "B"
    assert len(memo.entries) == 1 and memo.bytes == 4


def test_memo_stays_whole_under_threads():
    """With more threads than cores and a short switch interval, every hit
    returns its own key's value and the byte count equals the weights held."""
    memo = BoundedMemo(5, 40)
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(4000):
                key = rng.randrange(16)
                value = memo.get(hash(key), key)
                if value is None:
                    memo.put(hash(key), key, ("value", key), 1 + key % 4 * 5)
                elif value != ("value", key):
                    errors.append(f"key {key} read {value}")
        except Exception as exc:  # recorded, so the main thread can fail on it
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert _whole(memo)
