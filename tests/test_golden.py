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

from ibcslab import adversaries, cli, extraction, ibcs, iop, transport, vc
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
    "petersen.txt": "191aec760492d7e75666b928358b086045e24338c2f071e22881eefb7df3e4bb",
    "sumcheck-p17-n3-d2.txt": "d65ce7e1c7ccce08f8505a1553ca49dc42a512376d4c6f5b71ef8ff3c220bd72",
    # Padding-heavy: 2**k + 1 symbols in a tree of width 2**(k + 1).
    "cycle-33.txt": "e238566d92a3906052537854e29dc69b6e73c19bf8f6934a6ce7773903321ae9",
    "cycle-257.txt": "f4dde67a4a699e21274eb1bce5a203d84999b750be20dbc6b3dd0965029ebc76",
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


# Work the two lab reports do: rewinds the sampler runs and skips after
# saturation, `vc_commit` calls, `vc_check` root reconstructions (check-memo
# misses, counted from an empty memo) and query-plan validations. Wall time
# on a small shared host is noisy; these counts are exact. A change may
# lower the rewinds run and the other counts; raising one brings back work
# the sampler, the per-prover commit memo, the check memo or the
# per-protocol plan cache saves. Run plus skipped rewinds are fixed by the
# report.
LAB_WORK = {
    "lab-extract": {
        "rewinds": 211, "skipped": 631, "vc_commit": 18, "reconstruct": 16, "validate": 154,
    },
    "lab-soundness": {
        "rewinds": 0, "skipped": 0, "vc_commit": 5, "reconstruct": 9, "validate": 6,
    },
}


@pytest.mark.parametrize("name", sorted(LAB_WORK))
def test_lab_work_counts(workdir, monkeypatch, name):
    counts = Counter()
    real_sampler = extraction.sampler
    real_commit = vc.vc_commit
    real_reconstruct = vc._reconstruct_root
    real_validate = iop.IopProtocol._validate_plan

    def sampler(*args):
        knowledge, stats = real_sampler(*args)
        counts["rewinds"] += stats.rewinds
        counts["skipped"] += stats.skipped
        return knowledge, stats

    def commit(*args):
        counts["vc_commit"] += 1
        return real_commit(*args)

    def reconstruct(*args):
        counts["reconstruct"] += 1
        return real_reconstruct(*args)

    def validate(*args):
        counts["validate"] += 1
        return real_validate(*args)

    monkeypatch.setattr(extraction, "sampler", sampler)
    for module in (vc, ibcs, adversaries, extraction, transport, cli):
        if getattr(module, "vc_commit", None) is real_commit:
            monkeypatch.setattr(module, "vc_commit", commit)
    monkeypatch.setattr(vc, "_reconstruct_root", reconstruct)
    monkeypatch.setattr(iop.IopProtocol, "_validate_plan", validate)
    production = vc._check_memo
    monkeypatch.setattr(vc, "_check_memo", BoundedMemo(production.max_entries, production.max_bytes))
    _report(REPORT_PINS[name][0])
    work = LAB_WORK[name]
    assert counts["rewinds"] + counts["skipped"] == work["rewinds"] + work["skipped"]
    for key in ("rewinds", "vc_commit", "reconstruct", "validate"):
        assert counts[key] <= work[key], key
