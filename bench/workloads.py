"""The benchmark workloads: `lab`, `sessions-small` and `sessions-wide`.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished. `setup` builds the inputs from the
workload seed, and `iteration(j, gates)` runs operation j, checks its
outputs and returns its timings. Every call into the library goes through
a module attribute (`transport.run_session`, not a copied name), so the
traced run sees it.

Each timing sample is the mean over a batch of `batch` consecutive
iterations, a tenth to a fifth of a second of work, and `run.py` scales it
by the calibration passes timed just before and just after the batch
(`calibration.py`). The host's speed swings within seconds, so short
batches let the passes track it; much shorter ones would spend the run
calibrating, since a pass takes about 10 ms.

Timed slots, by workload:

    workload         primary            secondary          throughput
    lab              extract report     soundness report   hybrid trials/s
    sessions-small   memory session     TCP session        sessions/s
    sessions-wide    memory session     replay verify      sessions/s
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import threading
import time
from pathlib import Path

from ibcslab import cli, ibcs, prng, transport
from ibcslab.adversaries import make_adversary
from ibcslab.errors import IbcsError, InstanceError, ParameterError
from ibcslab.ibcs import ArgumentProver
from ibcslab.toys import dump_graph_text, dump_sumcheck_text, find_coloring, petersen_graph

from bench import inputs


class BenchConfigError(Exception):
    """The workload's inputs do not fit its purpose; no run is possible."""


class Gates:
    """Tally of checked operations and a digest of every output they made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._outputs = hashlib.sha256()

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def output(self, data: bytes):
        self._outputs.update(len(data).to_bytes(8, "big") + data)

    @property
    def outputs_sha256(self) -> str:
        return self._outputs.hexdigest()


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------

# Trial counts sized so that the two reports together take about a quarter
# second on a 2-CPU box: a 30 s run then has about a hundred samples of each
# report, enough for a p90 with ten samples beyond it.
LAB_EXTRACT_TRIALS = 10
LAB_KNOWLEDGE_TRIALS = 1
LAB_SOUNDNESS_TRIALS = 200
# Iterations 2i and 2i+1 report with seed (workload seed + i mod
# LAB_SEED_CYCLE): the median then spans several report seeds, and every
# report is repeated.
LAB_SEED_CYCLE = 8
LAB_DIR = Path(".bench_work/lab")
LAB_SUMCHECK = LAB_DIR / "sumcheck-p17-n2-d2.txt"
LAB_K4 = LAB_DIR / "k4.txt"

# sha256 of the report bytes printed by `ibcslab.cli.main` for report seeds
# 0..23. Reports are pure functions of their argv, so a change that keeps
# behaviour keeps these.
GOLDEN: dict[tuple[str, int], str] = {
    ("extract", 0): "851d638c87a9743f04f25845e1799cb84da3be582a4093877fea55d9d658e4eb",
    ("soundness", 0): "57f74bbf58fec4251e6a8bdcad02b2d2b19a2bd20fecafde72d28f08260da04d",
    ("extract", 1): "fe52e818714534940af8f30a5e98ebe4c135151039b73d0064bbd44c4f81e6a2",
    ("soundness", 1): "242b46f2d093ff7b7affe09e1535ea2b0d9e75f89f2614d12300b6b88d18edcf",
    ("extract", 2): "bc6d4965b73051349d3c4e0f8bb2355f003c028330011a41932cc79183651780",
    ("soundness", 2): "4872a9489e28ac8f1075af914a4379a15147f7d375dcf825efa326dc34a7964e",
    ("extract", 3): "7d580edd6c4770846711063a7275487a7aaf9963337914f6754d9280459522a9",
    ("soundness", 3): "bd398e01f0387eb92e6ce806dfd0d1b16f3e4e1a811fc0fdf98c6bff822e2707",
    ("extract", 4): "6ee7957157ecfa9ea6206ea4aa5b87f3cc5cc326802911f79a2cb667df4b0ff6",
    ("soundness", 4): "714e9669f84eaa8c287ecafbb4f707e2f7a6fa15350af264d495d4ef8705d78a",
    ("extract", 5): "e179e0d839a2a4107d3d2c1e2710092e296a96be2fb118d30044d1b37d7a6867",
    ("soundness", 5): "9d6b8beda9aa73f9fa8c185c690d36d5c1364ab25286eb3d36c50c43ee757865",
    ("extract", 6): "d5e172e616e7e94bae919a9fab7a943ca0a6be72232fe91bbeeedab2276a1eea",
    ("soundness", 6): "b2fc9565a6ec4677f2285599df7a5b3defc87e443f6b83543f54b3ae45d556e6",
    ("extract", 7): "012c2cb2042409209abc2cee85645cdb633c69902bae4a292246a869314b804a",
    ("soundness", 7): "fa93f5ad370d92587066a9c4a80201ea9abbea6888f055037d46bc41f48d4d7c",
    ("extract", 8): "1e5e0bb6c115663afa15ca1d410bb2229540b90074756f5f1e0a36363b845b26",
    ("soundness", 8): "43b6aef179a21fd8483644531f71b92d62c5c75a5957ec9ad97d366011dc7e78",
    ("extract", 9): "7edfee1cf5c9483acec53c5fdfff3ba6d2657dea25fbb36046e21ac8f7e818f7",
    ("soundness", 9): "0ef0c451af2effb6b332c290875b25c9dfb11c78faa0b98993cba2b00b763005",
    ("extract", 10): "e148f48c41c321e5a68fb6fedd76af6434e68acefee7911327d3d47900b04158",
    ("soundness", 10): "1b8d41357ce06bf716c4463bc48f639f42c27e8652a951c0596d55541a76c342",
    ("extract", 11): "926af013e7e7135d33d15bd4505bd52bea87ef087426fcaafc21905edb321463",
    ("soundness", 11): "359a52786fe9b9f2d2bd4b427763eb8ec06dd4545819363ab9c209e76a267c10",
    ("extract", 12): "8eb1e16243de3d51a7024f72d4420fd5220ddf7550521ea9dc26f5483497b34b",
    ("soundness", 12): "38eaa5374d7fa79a0016dff0d8eb1f8ff9fe15be42549003094480d10a88bfaf",
    ("extract", 13): "96d9c2d29be291b8debecbc8d621f79de3cf4c23af4121bdc9b87bd96c8d2d98",
    ("soundness", 13): "56df5c80924270229d33209e4611bc086b84f56baf176f2306beab4b0204457d",
    ("extract", 14): "6e434f4b1584b45dc2d6698c1a1c390cf57f3f8f42d7dbbf1ab9c556f258c06c",
    ("soundness", 14): "81315dc6bf8d45e1c50db21234c4fb61dd8e29286e87f3a0d3cda27cf657f7e3",
    ("extract", 15): "6fef0f4883413a06458ab220c105e891647cf55f146090c77bd8574da6ab3beb",
    ("soundness", 15): "c247b0fce77fbe9c4155626de0c6e4833bd1c80f410bc46e6316844b092aeb12",
    ("extract", 16): "34847f0cd28a52bad1fb77e9cfff1507cf33e4968d51354fe72ebadc5cf94f53",
    ("soundness", 16): "00add9cda8941048516b8e88a0a01065ad010de1bb7d72390426a639629a00f7",
    ("extract", 17): "861a1f4bb8dd6866b070ccd508d3740c5dfe9f3f27b15001ff41b32bafc72c4c",
    ("soundness", 17): "6a58dbc2c07840132d8179d6b8bd210c57fbf87954eac91f6f6f759ebf6f6410",
    ("extract", 18): "e5ec03ac819c7b1f5a5833d0dc7dfbee015323b067f6241873d50d4217193b29",
    ("soundness", 18): "4fcafa2a89697824f876fdf400f96cf2f4bc6195342699010f25471e9515df6d",
    ("extract", 19): "b7ef953919b1f7e1e069da9f86bb09b3a9b39b7f99ccf4cb031802bbcfd8d54a",
    ("soundness", 19): "b26bee1408538692e0e8c33d6b6d436bacfaa589f5222c533994c016249c9498",
    ("extract", 20): "5571ee9aa4c557f305046e5fbb1a5ea6e3a7849ad59b818dcde71be9fd41255e",
    ("soundness", 20): "0a76378f7ccf612706af8b207bffe28ac0272b75aa7f09f80ee02e413dba1723",
    ("extract", 21): "f891c5178c74cbd8156a1b0175e14aa1eb56cb5bb911b92a16e161b97c6c65b0",
    ("soundness", 21): "367a203daee04b034e66e03aef4fc779c3f8749f59b73b8ca5008f31412362c8",
    ("extract", 22): "be5f51e4b8d0b5c797c447d8343f4bcceb2ff0ef0996cebdfe857a928656ef48",
    ("soundness", 22): "360fc2aa969f017ae89a8431ba990296dbd835a81d03138b0f4c1022b7d53001",
    ("extract", 23): "6ef8b841e400ec8b0d8aaa5feef468ecaf4bc2d6d6cdd2637fd20e03ef2d54b5",
    ("soundness", 23): "1cf74aa8f5a650b84acaea7528fb84c645ebce4c808c54d218b6e26742f451e0",
}


def lab_argv(kind: str, seed: int) -> list[str]:
    if kind == "extract":
        return [
            "extract", "--instance", str(LAB_SUMCHECK), "--adversary", "grinder:1",
            "--epsilon", "0.5", "--trials", str(LAB_EXTRACT_TRIALS),
            "--knowledge-trials", str(LAB_KNOWLEDGE_TRIALS), "--seed", str(seed),
        ]
    return ["soundness", "--instance", str(LAB_K4), "--trials", str(LAB_SOUNDNESS_TRIALS),
            "--seed", str(seed)]


def run_report(argv: list[str]) -> tuple[int, bytes]:
    """Run the CLI in-process; returns its exit code and the report it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue().encode()


class Lab:
    """`extract` on the criterion-8 sumcheck and `soundness` on K4, via `cli.main`."""

    name = "lab"
    # Iterations alternate between an extract and a soundness report, so that
    # each timing sample is one report between two calibration passes.
    reference_iterations = 2
    batch = 1
    slots = {
        "primary": "extract_s (one extract report)",
        "secondary": "soundness_s (one soundness report)",
        "throughput": "hybrid_trials_per_s (across both reports)",
    }

    def __init__(self, seed: int):
        self.seed = seed
        self.reports: dict[tuple[str, int], bytes] = {}
        # Hybrid trials per report kind, fixed by the configuration.
        self.trials_by_kind: dict[str, int] = {}

    def setup(self):
        sumcheck, k4 = inputs.criterion8_sumcheck(), inputs.k4()
        LAB_DIR.mkdir(parents=True, exist_ok=True)
        LAB_SUMCHECK.write_text(dump_sumcheck_text(sumcheck))
        LAB_K4.write_text(dump_graph_text(k4))
        sc_protocol = transport.protocol_for_instance(sumcheck)
        sc_params = cli.setup_for(sumcheck, sc_protocol, cli.DEFAULT_LAMBDA)
        make_adversary("grinder:1", sc_protocol, sc_params)
        k4_protocol = transport.protocol_for_instance(k4)
        k4_params = cli.setup_for(k4, k4_protocol, cli.DEFAULT_LAMBDA)
        for name in cli.DEFAULT_ADVERSARIES.split(","):
            make_adversary(name, k4_protocol, k4_params)
        if not sc_protocol.in_language() or k4_protocol.in_language():
            raise BenchConfigError("lab needs a true sumcheck claim and a non-3-colourable K4")
        # One hybrid trial per run_hybrid_trial call: extract runs k+1 chain
        # hybrids, k event rounds and one acceptance measurement; soundness
        # one acceptance measurement per adversary.
        k = sc_protocol.spec.rounds
        adversaries = len(cli.DEFAULT_ADVERSARIES.split(","))
        self.trials_by_kind = {
            "extract": (2 * k + 2) * LAB_EXTRACT_TRIALS,
            "soundness": adversaries * LAB_SOUNDNESS_TRIALS,
        }

    def iteration(self, j: int, gates: Gates) -> dict:
        slot, kind = (("primary", "extract"), ("secondary", "soundness"))[j % 2]
        seed = self.seed + (j // 2) % LAB_SEED_CYCLE
        start = time.perf_counter()
        code, report = run_report(lab_argv(kind, seed))
        elapsed = time.perf_counter() - start
        gates.record(f"{kind} report, seed {seed}", self._problems(kind, seed, code, report))
        gates.output(report)
        return {slot: elapsed, "work": self.trials_by_kind[kind]}

    def _problems(self, kind: str, seed: int, code, report: bytes) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        try:
            if json.loads(report)["results"]["pass"] is not True:
                problems.append("results.pass is not true")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        first = self.reports.setdefault((kind, seed), report)
        if first != report:
            problems.append("differs from the same report run earlier")
        pin, digest = GOLDEN.get((kind, seed)), hashlib.sha256(report).hexdigest()
        if pin is not None and digest != pin:
            problems.append(f"sha256 {digest} does not match the pin {pin}")
        return problems

    def close(self):
        pass


# ---------------------------------------------------------------------------
# argument sessions
# ---------------------------------------------------------------------------


class _Case:
    """One instance a session workload cycles through, with its setup."""

    def __init__(self, instance, witness):
        self.instance = instance
        self.witness = witness
        self.protocol = transport.protocol_for_instance(instance)
        self.params = cli.setup_for(instance, self.protocol, cli.DEFAULT_LAMBDA)


def _formula_problems(params, role: str, result) -> list[str]:
    """The communication formula must equal the wire counters exactly."""
    stats = ibcs.comm_stats(params, result.transcript)
    formula = (stats.prover_to_verifier_bits, stats.verifier_to_prover_bits)
    if role == "verifier":
        formula = formula[::-1]
    wire = (result.counters.sent_protocol_bits, result.counters.recv_protocol_bits)
    if wire != formula:
        return [f"{role} wire bits {wire} differ from the formula {formula}"]
    return []


def _session_problems(params, prover_result, box: dict) -> list[str]:
    if "result" not in box:
        return [f"verifier failed: {box.get('error')!r}"]
    verifier_result = box["result"]
    problems = []
    if (prover_result.decision, verifier_result.decision) != (1, 1):
        problems.append(
            f"decisions {prover_result.decision}/{verifier_result.decision}, expected 1/1"
        )
    problems += _formula_problems(params, "prover", prover_result)
    problems += _formula_problems(params, "verifier", verifier_result)
    return problems


def memory_session(case: _Case, key: bytes):
    """What `ibcslab prove` does in memory: the verifier runs in a thread."""
    chan_p, chan_v = transport.memory_channel_pair()
    challenges = prng.Prng(key)
    box: dict = {}

    def verifier():
        try:
            box["result"] = transport.run_session(
                "verifier", chan_v, case.params, case.protocol, prng=challenges
            )
        except IbcsError as exc:
            box["error"] = exc

    thread = threading.Thread(target=verifier)
    thread.start()
    try:
        prover = ArgumentProver(case.protocol, case.params, case.witness)
        result = transport.run_session("prover", chan_p, case.params, case.protocol, prover=prover)
    finally:
        thread.join()
    return result, box


def tcp_session(case: _Case, key: bytes, listener):
    """`ibcslab prove --transport tcp` against `ibcslab verify --listen`, in one
    process: setup handshake, then the session, one connection at a time."""
    host, port = listener.getsockname()[:2]
    box: dict = {}

    def verifier():
        try:
            channel = transport.tcp_accept(listener)
            try:
                bound, vc_params, instance = transport.recv_public_setup(channel)
                if instance != case.instance:
                    raise InstanceError("peer proposed a different instance")
                protocol = transport.protocol_for_instance(instance)
                params = ibcs.arg_setup(vc_params.security_bits, bound, protocol.spec)
                if params.vc != vc_params:
                    raise ParameterError("peer parameters differ from the derived ones")
                box["result"] = transport.run_session(
                    "verifier", channel, params, protocol, prng=prng.Prng(key)
                )
            finally:
                channel.close()
        except IbcsError as exc:
            box["error"] = exc

    thread = threading.Thread(target=verifier)
    thread.start()
    try:
        channel = transport.tcp_connect(host, port)
        try:
            transport.send_public_setup(channel, case.params, case.instance)
            prover = ArgumentProver(case.protocol, case.params, case.witness)
            result = transport.run_session("prover", channel, case.params, case.protocol, prover=prover)
        finally:
            channel.close()
    finally:
        thread.join()
    return result, box


def replay_verify(blob: bytes) -> int:
    """What `ibcslab verify --transcript` does with a transcript's bytes."""
    params, protocol, transcript = transport.parse_transcript(blob)
    return ibcs.arg_verify(params, protocol, transcript)


class _Sessions:
    """Honest sessions over a cycle of cases, each followed by a replay verify."""

    name = ""
    reference_iterations = 0
    batch = 1
    over_tcp = False
    verify_slot = "secondary"  # the timing slot of the replay verify

    def __init__(self, seed: int):
        self.seed = seed
        self.root = prng.seed_root(seed)
        self.cases: list[_Case] = []
        self.listener = transport.tcp_listen("127.0.0.1", 0) if self.over_tcp else None

    def iteration(self, j: int, gates: Gates) -> dict:
        case = self.cases[j % len(self.cases)]
        key = prng.derive(self.root, "session", j)
        out = {"work": 0}

        start = time.perf_counter()
        try:
            mem_result, box = memory_session(case, key)
        except IbcsError as exc:
            gates.record(f"memory session {j}", [f"prover failed: {exc!r}"])
            return out
        out["primary"] = time.perf_counter() - start
        gates.record(f"memory session {j}", _session_problems(case.params, mem_result, box))
        out["work"] += 1
        blob = transport.serialize_transcript(case.params, mem_result.transcript)
        gates.output(blob)

        if self.over_tcp:
            start = time.perf_counter()
            try:
                tcp_result, box = tcp_session(case, key, self.listener)
            except IbcsError as exc:
                gates.record(f"tcp session {j}", [f"prover failed: {exc!r}"])
                return out
            out["secondary"] = time.perf_counter() - start
            problems = _session_problems(case.params, tcp_result, box)
            if "result" in box:
                tcp_blob = transport.serialize_transcript(case.params, box["result"].transcript)
                if tcp_blob != blob:
                    problems.append("TCP transcript differs from the memory transcript")
            gates.record(f"tcp session {j}", problems)
            out["work"] += 1

        start = time.perf_counter()
        try:
            decision = replay_verify(blob)
        except IbcsError as exc:
            gates.record(f"replay verify {j}", [f"raised {exc!r}"])
            return out
        out[self.verify_slot] = time.perf_counter() - start
        gates.record(f"replay verify {j}", [] if decision == 1 else [f"decision {decision}"])
        return out

    def close(self):
        if self.listener is not None:
            self.listener.close()


class SessionsSmall(_Sessions):
    """Petersen and a sumcheck with n=3, alternating; memory and TCP sessions."""

    name = "sessions-small"
    reference_iterations = 100
    # About a tenth of a second: the calibration passes on either side of a
    # shorter batch track the host's speed more closely. Over five seeds the
    # p90s' spread between runs fell from 0.10 (batches of 100) to 0.06.
    batch = 50
    over_tcp = True
    verify_slot = "verify"
    slots = {
        "primary": "session_ms (one in-memory session)",
        "secondary": "tcp_session_ms (one TCP loopback session with setup handshake)",
        "throughput": "sessions_per_s (memory and TCP sessions completed)",
    }

    def setup(self):
        petersen = petersen_graph()
        self.cases = [
            _Case(petersen, find_coloring(petersen)),
            _Case(inputs.random_sumcheck(17, 3, 2, self.seed), ()),
        ]


WIDE_VERTICES = 2**12 + 1
WIDE_EDGES_PER_VERTEX = 3


class SessionsWide(_Sessions):
    """A planted 3-colourable graph one vertex past a power of two."""

    name = "sessions-wide"
    reference_iterations = 4
    # Two sessions, about 0.2 s: a 30 s run has some 140 samples, so the p90
    # has ten beyond it, and the calibration passes track the host closely.
    batch = 2
    slots = {
        "primary": "session_ms (one in-memory session)",
        "secondary": "verify_ms (parse_transcript plus arg_verify)",
        "throughput": "sessions_per_s (memory sessions completed)",
    }

    def setup(self):
        instance, witness = inputs.planted_coloring(
            WIDE_VERTICES, WIDE_EDGES_PER_VERTEX, self.seed
        )
        self.cases = [_Case(instance, witness)]


WORKLOADS = {cls.name: cls for cls in (Lab, SessionsSmall, SessionsWide)}
