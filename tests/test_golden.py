"""Golden pins: sha256 digests of CLI reports and transcript files.

Reports and transcripts are pure functions of their argv, so a change that
keeps behaviour keeps these digests. The instance files are generated in
code. The two lab pins use the argv and instance paths of the benchmark's
`lab` workload and equal its `GOLDEN[("extract", 0)]` and
`GOLDEN[("soundness", 0)]` in `bench/workloads.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from collections import Counter
from pathlib import Path

import pytest

from ibcslab import adversaries, cli, extraction, ibcs, iop, toys, transport, vc
from ibcslab.memo import BoundedMemo
from ibcslab.toys import (
    canonical_graph,
    complete_graph,
    dump_graph_text,
    dump_sumcheck_text,
    petersen_graph,
)

from helpers import make_sumcheck

LAB_SUMCHECK = ".bench_work/lab/sumcheck-p17-n2-d2.txt"
LAB_K4 = ".bench_work/lab/k4.txt"
FALSE_SUMCHECK = "sumcheck-p17-n2-d2-false.txt"

REPORT_PINS = {
    "lab-extract": (
        ["extract", "--instance", LAB_SUMCHECK, "--adversary", "grinder:1",
         "--epsilon", "0.5", "--trials", "10", "--knowledge-trials", "1", "--seed", "0"],
        "851d638c87a9743f04f25845e1799cb84da3be582a4093877fea55d9d658e4eb",
    ),
    "lab-soundness": (
        ["soundness", "--instance", LAB_K4, "--trials", "200", "--seed", "0"],
        "57f74bbf58fec4251e6a8bdcad02b2d2b19a2bd20fecafde72d28f08260da04d",
    ),
    # Covers the withholder's own query plan and the failure-event path.
    "k3-withholder-extract": (
        ["extract", "--instance", "k3.txt", "--adversary", "withholder:1",
         "--epsilon", "0.5", "--trials", "100", "--knowledge-trials", "4", "--seed", "0"],
        "5b20da1669a2ea2b8bcd37bde03cab82e7109887723013a48cd271cbe250272e",
    ),
    # The scripted sumcheck cheats: the default adversary set, whose optimal
    # cheater and equivocator commit strategy strings, and the equivocator's
    # rewinds through the extractor.
    "sumcheck-soundness": (
        ["soundness", "--instance", FALSE_SUMCHECK, "--trials", "200", "--seed", "0"],
        "f87fc07524681210844c237327a75c7c81c89a9f5d0b581e5b0eb95ea7e936a5",
    ),
    "sumcheck-equivocator-extract": (
        ["extract", "--instance", LAB_SUMCHECK, "--adversary", "equivocator",
         "--epsilon", "0.5", "--trials", "10", "--knowledge-trials", "1", "--seed", "0"],
        "624737ab4db70285f122cc7de78098a3851ddcc29e8ff0532a810b6917b01ec4",
    ),
}

TRANSCRIPT_PINS = {
    "petersen.txt": "37cfd8e9fa7bbc7e930d8d2ed6e2c6f0a25507d5cdf24d6ff1f09bee29b65990",
    "sumcheck-p17-n3-d2.txt": "fe4460143c2f5eb4dd03bd927241854ac12846d40200af1a9ddd153ed09ff6bd",
    # Padding-heavy: 2**k + 1 symbols in a tree of width 2**(k + 1).
    "cycle-33.txt": "dc2b4755a6b770fc3c54b932c6ea1edaf2c810d1b8a3126258748a86d1bafb57",
    "cycle-257.txt": "744f6a83b4bc9628c6c3948bd9684a0b74cf6cd82d47c6e9ca01bbd506964f93",
}

# `verify --transcript` reports on the transcripts pinned above.
VERIFY_PINS = {
    "petersen.txt": "d14694270f94f73e4fb13e0649110abd5828f321fd055ff62b02daabbd4a57aa",
    "sumcheck-p17-n3-d2.txt": "3d4d89fac5cce097e904e257e55d42c080a0a06dc3f8ab171e08263ea098e536",
    "cycle-33.txt": "06e1e9e3ab78e763fcf5923c752b9feeda8ac7a6b8000a6cb4dc2537c2d3cbf5",
}


def _cycle(n: int):
    return canonical_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = {
        LAB_SUMCHECK: dump_sumcheck_text(make_sumcheck()),
        LAB_K4: dump_graph_text(complete_graph(4)),
        FALSE_SUMCHECK: dump_sumcheck_text(make_sumcheck(false_claim=True)),
        "k3.txt": dump_graph_text(complete_graph(3)),
        "petersen.txt": dump_graph_text(petersen_graph()),
        "sumcheck-p17-n3-d2.txt": dump_sumcheck_text(make_sumcheck(n=3)),
        "cycle-33.txt": dump_graph_text(_cycle(33)),
        "cycle-257.txt": dump_graph_text(_cycle(257)),
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def _report(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_report_pin(workdir, name):
    argv, pin = REPORT_PINS[name]
    assert hashlib.sha256(_report(argv)).hexdigest() == pin


@pytest.mark.parametrize("instance", sorted(TRANSCRIPT_PINS))
def test_prove_transcript_pin(workdir, instance):
    out = Path("transcript.bin")
    _report(["prove", "--instance", instance, "--seed", "0", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRANSCRIPT_PINS[instance]


@pytest.mark.parametrize("instance", sorted(VERIFY_PINS))
def test_verify_report_pin(workdir, instance):
    _report(["prove", "--instance", instance, "--seed", "0", "--out", "transcript.bin"])
    report = _report(["verify", "--transcript", "transcript.bin"])
    assert hashlib.sha256(report).hexdigest() == VERIFY_PINS[instance]


# Work the two lab reports do: rewinds the sampler draws and skips after
# saturation, `vc_commit` calls, `vc_check` root reconstructions (check-memo
# misses, counted from an empty memo), query-plan validations, `vc_open`
# calls and round polynomials computed. Wall time on a small shared host is
# noisy; these counts are exact. A change may lower the rewinds drawn and
# the commit and reconstruction counts; raising one brings back work the
# sampler, the per-prover commit memo or the check memo saves. Drawn plus
# skipped rewinds are fixed by the report. `replayed` is exact: the drawn
# rewinds served from the adversary's outcome memo, whose (rewind point,
# view) pairs the report fixes. `routed_decision` (hybrid-verifier calls)
# and `best_coloring` (cheat-base searches) are exact too: a zero-oracle
# trial decides once per view and keeps its decision with its outcome, and
# a report builds its cheat base once for all of its adversaries. So are
# `validate`, `vc_open` and `round_polynomial`: each distinct per-round
# query tuple is validated once per protocol object, each (commitment
# tree, query set) opened once per prover object, and each challenge
# prefix's round polynomial computed once per protocol object. Every state
# the lab's provers build is a value, its own rewind point, and the lab
# refuses any other state, so no state is pickled for a `state_digest`.
# `played` is exact: the zero-oracle trials that ran rather than replayed,
# one per view that the adversary's outcome memo did not hold. `reductor`
# is exact: one call per extracted round, of the extracted IOP prover and
# of every trial with oracle rounds.
LAB_WORK = {
    "lab-extract": {
        "rewinds": 211, "skipped": 631, "vc_commit": 18, "reconstruct": 16, "validate": 1,
        "replayed": 51, "routed_decision": 209, "best_coloring": 0, "vc_open": 16,
        "round_polynomial": 18, "state_digest": 0, "find_coloring": 0, "played": 19,
        "reductor": 62,
    },
    "lab-soundness": {
        "rewinds": 0, "skipped": 0, "vc_commit": 5, "reconstruct": 9, "validate": 6,
        "replayed": 0, "routed_decision": 21, "best_coloring": 1, "vc_open": 12,
        "round_polynomial": 0, "state_digest": 0, "find_coloring": 1, "played": 36,
        "reductor": 0,
    },
}


@pytest.mark.parametrize("name", sorted(LAB_WORK))
def test_lab_work_counts(workdir, monkeypatch, name):
    counts = Counter()
    real_sampler = extraction.sampler
    real_commit = vc.vc_commit
    real_walk = vc._walk
    real_validate = iop.IopProtocol._validate_plan
    real_routed = extraction.routed_decision
    real_best = toys.best_coloring
    real_open = vc.vc_open
    real_sum_out = toys.SumcheckIop._sum_out
    real_digest = adversaries.state_digest
    real_find = toys.find_coloring
    real_play = extraction._play_trial
    real_reductor = extraction.reductor

    def sampler(*args):
        knowledge, stats = real_sampler(*args)
        counts["rewinds"] += stats.rewinds
        counts["skipped"] += stats.skipped
        counts["replayed"] += stats.replayed
        return knowledge, stats

    def commit(*args):
        counts["vc_commit"] += 1
        return real_commit(*args)

    def walk(*args):
        root = real_walk(*args)
        # Open and proof counts walk the tree without values; a check miss
        # reconstructs a root.
        counts["reconstruct"] += root is not None
        return root

    def validate(*args):
        counts["validate"] += 1
        return real_validate(*args)

    def routed(*args):
        counts["routed_decision"] += 1
        return real_routed(*args)

    def best(*args):
        counts["best_coloring"] += 1
        return real_best(*args)

    def open_(*args):
        counts["vc_open"] += 1
        return real_open(*args)

    def sum_out(*args):
        counts["round_polynomial"] += 1
        return real_sum_out(*args)

    def digest(*args):
        counts["state_digest"] += 1
        return real_digest(*args)

    def find(*args):
        counts["find_coloring"] += 1
        return real_find(*args)

    def play(*args):
        counts["played"] += args[3] == 0  # oracle_rounds
        return real_play(*args)

    def reduce(*args, **kwargs):
        counts["reductor"] += 1
        return real_reductor(*args, **kwargs)

    monkeypatch.setattr(extraction, "sampler", sampler)
    monkeypatch.setattr(extraction, "reductor", reduce)
    monkeypatch.setattr(extraction, "_play_trial", play)
    for module in (vc, ibcs, adversaries, extraction, transport, cli):
        if getattr(module, "vc_commit", None) is real_commit:
            monkeypatch.setattr(module, "vc_commit", commit)
    for module in (vc, ibcs):
        monkeypatch.setattr(module, "vc_open", open_)
    monkeypatch.setattr(toys.SumcheckIop, "_sum_out", sum_out)
    monkeypatch.setattr(vc, "_walk", walk)
    monkeypatch.setattr(iop.IopProtocol, "_validate_plan", validate)
    monkeypatch.setattr(extraction, "routed_decision", routed)
    monkeypatch.setattr(toys, "best_coloring", best)
    monkeypatch.setattr(adversaries, "state_digest", digest)
    monkeypatch.setattr(toys, "find_coloring", find)
    production = vc._check_memo
    monkeypatch.setattr(vc, "_check_memo", BoundedMemo(production.max_entries, production.max_bytes))
    _report(REPORT_PINS[name][0])
    work = LAB_WORK[name]
    assert counts["rewinds"] + counts["skipped"] == work["rewinds"] + work["skipped"]
    exact = (
        "replayed", "routed_decision", "best_coloring", "validate", "vc_open", "round_polynomial",
        "state_digest", "find_coloring", "played", "reductor",
    )
    for key in exact:
        assert counts[key] == work[key], key
    for key in ("rewinds", "vc_commit", "reconstruct"):
        assert counts[key] <= work[key], key
