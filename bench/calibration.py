"""The calibration pass: fixed work that uses no part of ibcslab, timed beside
every timing sample so that the host's speed swings cancel out.

On a shared 2-vCPU VM the same code runs up to 1.7x slower or faster from
one few seconds to the next, and the mix of fast and slow spells drifts over
minutes, so the medians of 30 s runs made minutes apart spread by more than
a quarter. Each sample is therefore scaled by `scale(before, after)`:
NOMINAL_S over the mean time of the passes run just before and just after
it. A scaled time reads as the time on a host where the pass takes
NOMINAL_S. The pass never touches the library, so a change to the library
moves scaled times as much as raw ones.

The pass mixes what the workloads spend their time on: Python bytecode with
SHA-256 of short strings (the vc and iop layers, the reports), handoffs
between two threads through a queue (the memory channel) and round trips
over a local socket pair (TCP sessions). On the development host the
workloads' scaled medians over 30 s spans spread 1-5% where the raw ones
spread 10-16%.
"""

from __future__ import annotations

import hashlib
import queue
import socket
import threading
import time

# About the pass's time on a 2-vCPU x86-64 VM in its fast spells, so that
# scaled times are close to wall times there.
NOMINAL_S = 0.010
HASH_ROUNDS = 4000
QUEUE_ROUND_TRIPS = 200
SOCKET_ROUND_TRIPS = 130
MESSAGE = bytes(40)


def _hash_and_dict() -> int:
    acc = 0
    table: dict[int, int] = {}
    digest = bytes(32)
    for i in range(HASH_ROUNDS):
        digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
        table[i & 255] = (i * 2654435761 + digest[0]) % 65521
        acc += table.get((i * 7) & 255, 1)
    return acc


def _queue_handoffs():
    requests: queue.Queue = queue.Queue()
    replies: queue.Queue = queue.Queue()

    def peer():
        while (message := requests.get()) is not None:
            replies.put(message + 1)

    thread = threading.Thread(target=peer)
    thread.start()
    try:
        for i in range(QUEUE_ROUND_TRIPS):
            requests.put(i)
            replies.get()
    finally:
        requests.put(None)
        thread.join()


def _socket_round_trips():
    near, far = socket.socketpair()

    def peer():
        while message := far.recv(len(MESSAGE)):
            far.sendall(message)

    thread = threading.Thread(target=peer)
    thread.start()
    try:
        for _ in range(SOCKET_ROUND_TRIPS):
            near.sendall(MESSAGE)
            received = 0
            while received < len(MESSAGE):
                chunk = near.recv(len(MESSAGE) - received)
                if not chunk:
                    raise ConnectionError("calibration peer closed the socket")
                received += len(chunk)
    finally:
        near.shutdown(socket.SHUT_WR)
        thread.join()
        near.close()
        far.close()


def pass_seconds() -> float:
    """Run the calibration pass once; returns its wall time in seconds."""
    start = time.perf_counter()
    _hash_and_dict()
    _queue_handoffs()
    _socket_round_trips()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two passes into a scaled time."""
    return NOMINAL_S / ((before + after) / 2)
