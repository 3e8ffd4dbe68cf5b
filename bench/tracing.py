"""Span tracer for the benchmark's traced run.

The tracer measures ibcslab from outside: it replaces public functions and
methods of each layer with wrappers that record one span per call, and
restores the originals on `uninstall`. A name imported with
``from .vc import vc_commit`` is a separate reference in the importing
module, so a function is replaced at every module attribute that holds it.

A span's self time is its duration minus the time covered by its child
spans on the same thread. Per-thread state keeps the counts exact when a
session's verifier runs in its own thread. Spans stay in memory until
`write_spans` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

import ibcslab
from ibcslab import (
    adversaries,
    cli,
    extraction,
    ibcs,
    iop,
    prng,
    toys,
    transport,
    vc,
)

LAYERS = ("prng", "vc", "iop", "toys", "ibcs", "transport", "adversaries", "extraction", "cli")
MODULES = (prng, vc, iop, toys, ibcs, transport, adversaries, extraction, cli)

# Spans that only wait for the session peer; they count as waiting, not as
# busy time of the transport layer.
WAIT_SPANS = ("transport.recv_wait",)

# (span name, module, function name): wrapped at every binding site.
FUNCTION_SPANS = (
    ("prng.derive", prng, "derive"),
    ("vc.commit", vc, "vc_commit"),
    ("vc.open", vc, "vc_open"),
    ("vc.check", vc, "vc_check"),
    ("iop.brute_force_soundness", iop, "brute_force_soundness"),
    ("toys.find_coloring", toys, "find_coloring"),
    ("toys.best_coloring", toys, "best_coloring"),
    ("toys.load_graph_text", toys, "load_graph_text"),
    ("toys.load_sumcheck_text", toys, "load_sumcheck_text"),
    ("ibcs.arg_setup", ibcs, "arg_setup"),
    ("ibcs.arg_verify", ibcs, "arg_verify"),
    ("ibcs.comm_stats", ibcs, "comm_stats"),
    ("transport.run_session", transport, "run_session"),
    ("transport.parse_transcript", transport, "parse_transcript"),
    ("transport.connect", transport, "tcp_connect"),
    ("transport.connect", transport, "tcp_accept"),
    ("transport.setup_handshake", transport, "send_public_setup"),
    ("transport.setup_handshake", transport, "recv_public_setup"),
    ("adversaries.snapshot", adversaries, "snapshot"),
    ("adversaries.state_digest", adversaries, "state_digest"),
    ("adversaries.make_adversary", adversaries, "make_adversary"),
    ("extraction.sampler", extraction, "sampler"),
    ("extraction.game_predicate", extraction, "game_predicate"),
    ("extraction.hybrid_trial", extraction, "run_hybrid_trial"),
    ("extraction.reductor", extraction, "reductor"),
    ("extraction.run_continuation", extraction, "run_continuation"),
    ("extraction.accept_under_routing", extraction, "accept_under_routing"),
    ("extraction.hybrid_value", extraction, "hybrid_value"),
    ("extraction.events", extraction, "run_events_experiment"),
    ("extraction.knowledge", extraction, "end_to_end_knowledge"),
    ("cli.main", cli, "main"),
) + tuple(
    ("transport.codec", transport, name)
    for name in (
        "encode_frame",
        "decode_frame",
        "encode_commitment",
        "decode_commitment",
        "encode_challenge",
        "decode_challenge",
        "final_response_bits",
        "encode_final_response",
        "decode_final_response",
        "encode_instance",
        "decode_instance",
        "encode_params",
        "decode_params_fields",
        "protocol_frames",
        "serialize_transcript",
    )
)

# (span name, class, method name): wrapped on the class that defines it.
METHOD_SPANS = (
    ("prng.take_bits", prng.Prng, "take_bits"),
    ("iop.verifier_query", iop.IopProtocol, "verifier_query"),
    ("iop.verifier_decide", iop.IopProtocol, "verifier_decide"),
    ("toys.query_plan", toys.GraphColoringIop, "query_plan"),
    ("toys.query_plan", toys.SumcheckIop, "query_plan"),
    ("toys.decide", toys.GraphColoringIop, "decide"),
    ("toys.decide", toys.SumcheckIop, "decide"),
    ("toys.prover_init", toys.GraphColoringIop, "prover_init"),
    ("toys.prover_init", toys.SumcheckIop, "prover_init"),
    ("toys.prover_next", toys.GraphColoringIop, "prover_next"),
    ("toys.prover_next", toys.SumcheckIop, "prover_next"),
    ("ibcs.next_commitment", ibcs.ArgumentProver, "next_commitment"),
    ("ibcs.final_response", ibcs.ArgumentProver, "final_response"),
    ("adversaries.next_commitment", adversaries.ScriptedProver, "next_commitment"),
    ("adversaries.next_commitment", adversaries._WrapperProver, "next_commitment"),
    ("adversaries.next_commitment", adversaries.Equivocator, "next_commitment"),
    ("adversaries.final_response", adversaries.ScriptedProver, "final_response"),
    ("adversaries.final_response", adversaries.Withholder, "final_response"),
    ("adversaries.final_response", adversaries.Grinder, "final_response"),
    ("adversaries.final_response", adversaries.Equivocator, "final_response"),
    ("transport.recv_wait", transport.MemoryChannel, "recv_exact"),
    ("transport.recv_wait", transport.TcpChannel, "recv_exact"),
)

# Spans every workload enters: their self time is reported in seconds.
TIMED_SPANS = (
    "iop.verifier_query",
    "iop.verifier_decide",
    "vc.commit",
    "vc.check",
    "vc.open",
    "ibcs.next_commitment",
    "ibcs.final_response",
    "transport.codec",
    "prng.take_bits",
)
# Spans some workload bypasses. Their self time is printed in seconds and
# reported in the result line as a share of all span time, so that a layer a
# workload never enters reads as a zero share, not as a constant zero time.
SHARED_SPANS = (
    "adversaries.snapshot",
    "adversaries.state_digest",
    "adversaries.next_commitment",
    "adversaries.final_response",
    "extraction.sampler",
    "extraction.game_predicate",
    "ibcs.arg_verify",
    "transport.run_session",
    "transport.recv_wait",
    "transport.parse_transcript",
    "toys.prover_next",
    "cli.main",
)
COUNTS = (
    "adversaries.snapshot.calls",
    "extraction.hybrid_trial.calls",
    "extraction.rewinds",
    "extraction.rewinds_accepted",
    "extraction.recorded",
    "extraction.voided",
    "iop.verifier_query.calls",
    "iop.verifier_decide.calls",
    "vc.commit.calls",
    "vc.check.calls",
    "vc.open.calls",
    "vc.sha256_calls",
    "ibcs.arg_verify.calls",
    "transport.frames",
    "toys.prover_next.calls",
    "prng.take_bits.calls",
    "prng.derive.calls",
)
RATIOS = (
    "extraction.recorded_per_rewind",
    "iop.plans_per_rewind",
    "vc.check.sha256_per_call",
)

# Per-layer metrics of the result line: name -> (unit, better). Counts and
# ratios other than shares are pure functions of the seed.
PER_LAYER = {
    **{name: ("count", "lower") for name in COUNTS},
    "extraction.rewinds_accepted": ("count", "higher"),
    "extraction.recorded": ("count", "higher"),
    "transport.protocol_bits": ("bit", "lower"),
    "transport.overhead_bytes": ("B", "lower"),
    **{name: ("ratio", "lower") for name in RATIOS},
    "extraction.recorded_per_rewind": ("ratio", "higher"),
    **{f"{span}.self_s": ("s", "lower") for span in TIMED_SPANS},
    **{f"{span}.self_share": ("ratio", "lower") for span in SHARED_SPANS},
    **{f"share.{layer}": ("ratio", "lower") for layer in LAYERS},
    "trace.busy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
DETERMINISTIC = COUNTS + RATIOS + ("transport.protocol_bits", "transport.overhead_bytes")


class _ThreadState:
    def __init__(self, thread_index: int):
        self.thread_index = thread_index
        self.stack: list[list[int]] = []  # open spans: [child_ns, span index]
        self.spans: list = []  # (name, request, start_ns, end_ns, parent index)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.self_ns: defaultdict[str, int] = defaultdict(int)


class Tracer:
    """Records spans and counts at layer boundaries while installed."""

    def __init__(self):
        self.request = 0  # identifier shared by the spans of one operation
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, after=None, deltas=()):
        """Wrap `fn` in a span; `after(counts, args, result)` sees each result,
        and each (source, target) in `deltas` adds the call's increase of
        counter `source` to counter `target`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1][1] if stack else -1
            index = len(state.spans)
            state.spans.append(None)
            frame = [0, index]
            stack.append(frame)
            counts = state.counts
            before = [counts[source] for source, _ in deltas]
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                state.spans[index] = (name, tracer.request, start, end, parent)
                counts[name + ".calls"] += 1
                state.self_ns[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                for (source, target), value in zip(deltas, before):
                    counts[target] += counts[source] - value
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def _hashlib_proxy(self, real):
        tracer = self

        def sha256(*args):
            tracer._state().counts["vc.sha256"] += 1
            return real.sha256(*args)

        return types.SimpleNamespace(sha256=sha256)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        after = {
            "extraction.sampler": _after_sampler,
            "transport.run_session": _after_session,
        }
        deltas = {
            "vc.check": (("vc.sha256", "vc.check.sha256"),),
            "extraction.sampler": (("toys.query_plan.calls", "extraction.sampler.plans"),),
        }
        for name, module, attr in FUNCTION_SPANS:
            original = getattr(module, attr)
            wrapped = self.span(name, original, after.get(name), deltas.get(name, ()))
            for owner in MODULES:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, key, wrapped)
        for name, cls, attr in METHOD_SPANS:
            self._set(cls, attr, self.span(name, vars(cls)[attr], after.get(name)))
        self._set(vc, "hashlib", self._hashlib_proxy(vc.hashlib))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Counts and self seconds per span name, summed over threads."""
        counts: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for state in self._threads:
            for key, value in state.counts.items():
                counts[key] += value
            for key, value in state.self_ns.items():
                self_s[key] += value / 1e9
        return counts, self_s

    def layer_shares(self) -> dict[str, float]:
        """Share of traced busy self time per layer (waits excluded)."""
        _, self_s = self.totals()
        busy = defaultdict(float)
        for name, seconds in self_s.items():
            if name not in WAIT_SPANS:
                busy[name.split(".", 1)[0]] += seconds
        total = sum(busy.values()) or 1.0
        return {layer: busy[layer] / total for layer in LAYERS}

    def self_seconds(self) -> dict[str, float]:
        """Self time in seconds of every span named in TIMED_SPANS and SHARED_SPANS."""
        _, self_s = self.totals()
        return {f"{span}.self_s": self_s[span] for span in TIMED_SPANS + SHARED_SPANS}

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, by name."""
        c, s = self.totals()
        span_total = sum(s.values()) or 1.0
        rewinds = c["extraction.rewinds"]
        checks = c["vc.check.calls"]
        out = {name: c[name] for name in COUNTS}
        out.update(
            {
                "vc.sha256_calls": c["vc.sha256"],
                "transport.protocol_bits": c["transport.protocol_bits"],
                "transport.overhead_bytes": c["transport.overhead_bytes"],
                "extraction.recorded_per_rewind": c["extraction.recorded"] / rewinds if rewinds else 0.0,
                "iop.plans_per_rewind": c["extraction.sampler.plans"] / rewinds if rewinds else 0.0,
                "vc.check.sha256_per_call": c["vc.check.sha256"] / checks if checks else 0.0,
                **{f"{span}.self_s": s[span] for span in TIMED_SPANS},
                **{f"{span}.self_share": s[span] / span_total for span in SHARED_SPANS},
                **{f"share.{layer}": v for layer, v in self.layer_shares().items()},
                "trace.busy_s": sum(v for k, v in s.items() if k not in WAIT_SPANS),
                "trace.overhead_s": overhead_s,
                "trace.spans": sum(len(state.spans) for state in self._threads),
            }
        )
        return {name: out[name] for name in PER_LAYER}

    def write_spans(self, path: Path, header: dict):
        """One JSON header line, then one line per span:
        [id, parent id, request, thread, name, start_ns, end_ns]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({**header, "version": ibcslab.__version__}) + "\n")
            for state in self._threads:
                t = state.thread_index
                for i, (name, request, start, end, parent) in enumerate(state.spans):
                    parent_id = f"{t}:{parent}" if parent >= 0 else None
                    fh.write(json.dumps([f"{t}:{i}", parent_id, request, t, name, start, end]) + "\n")


def _after_sampler(counts, args, result):
    _, stats = result
    counts["extraction.rewinds"] += stats.rewinds
    counts["extraction.rewinds_accepted"] += stats.accepted
    counts["extraction.recorded"] += stats.recorded
    counts["extraction.voided"] += stats.voided


def _after_session(counts, args, result):
    # Both ends see every frame; count each session once, from the prover.
    if args[0] != "prover":
        return
    wire = result.counters
    counts["transport.frames"] += wire.sent_frames + wire.recv_frames
    counts["transport.protocol_bits"] += wire.sent_protocol_bits + wire.recv_protocol_bits
    counts["transport.overhead_bytes"] += wire.overhead_bytes
