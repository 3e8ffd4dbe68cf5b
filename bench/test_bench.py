"""Smoke-size tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bench import calibration, inputs, run, tracing, workloads
from ibcslab import transport
from ibcslab.toys import is_proper_coloring

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "0.2"


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    return proc, lines


def parse(lines):
    stamp = json.loads(next(line for line in lines if line.startswith("stamp "))[6:])
    return json.loads(lines[-1]), stamp


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> (exit code, output lines), plus a second traced run."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, lines = bench(workload, trace)
            out[workload, trace] = (proc.returncode, lines)
        proc, lines = bench(workload, 1)
        out[workload, "again"] = (proc.returncode, lines)
    return out


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, workload):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        code, lines = runs[workload, trace]
        assert code == 0, lines[-5:]
        result, _ = parse(lines)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert [m["name"] for m in spec] == list(result["metrics"])
        for metric in spec:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert any(
                line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                for line in lines
            ), metric["name"]
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
    _, lines = runs[workload, 1]
    for span in tracing.TIMED_SPANS + tracing.SHARED_SPANS:
        assert any(line.startswith(f"{span}.self_s = ") for line in lines), span


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_are_deterministic_and_tracing_changes_no_output(runs, workload):
    _, stamp0 = parse(runs[workload, 0][1])
    first, stamp1 = parse(runs[workload, 1][1])
    second, stamp2 = parse(runs[workload, "again"][1])
    for name in tracing.DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert stamp0["outputs_sha256"] == stamp1["outputs_sha256"] == stamp2["outputs_sha256"]
    for stamp in (stamp0, stamp1):
        assert stamp["commit"] and stamp["python"] and stamp["nproc"] >= 1
        assert "loadavg_1m_before" in stamp and "loadavg_1m_after" in stamp
    assert stamp0["calibration_ms_p50"] > 0 and stamp0["raw_ms_p50"]["primary"] > 0


def test_stated_purposes_show_in_the_layer_shares(runs):
    shares = {
        w: {k[6:]: v["value"] for k, v in parse(runs[w, 1][1])[0]["metrics"].items()
            if k.startswith("share.")}
        for w in WORKLOADS
    }
    lab = shares["lab"]
    assert lab["adversaries"] + lab["extraction"] > max(
        v for k, v in lab.items() if k not in ("adversaries", "extraction")
    )
    assert max(shares["sessions-wide"], key=shares["sessions-wide"].get) == "vc"
    assert max(shares["sessions-small"], key=shares["sessions-small"].get) == "transport"
    assert lab["transport"] < 0.01


def test_lab_trial_count_matches_the_trace(runs):
    result, _ = parse(runs["lab", 1][1])
    lab = workloads.Lab(3)
    lab.setup()
    # The traced pass is one extract and one soundness report.
    assert result["metrics"]["extraction.hybrid_trial.calls"]["value"] == sum(
        lab.trials_by_kind.values()
    )


def in_process(argv) -> tuple[int, dict]:
    code, lines = in_process_lines(argv)
    return code, json.loads(lines[-1])


def in_process_lines(argv) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def test_timings_are_scaled_by_the_calibration_pass(monkeypatch):
    # On a host where the calibration pass takes twice its nominal time,
    # every scaled time is half the raw one.
    monkeypatch.setattr(calibration, "pass_seconds", lambda: 2 * calibration.NOMINAL_S)
    code, lines = in_process_lines(
        ["--workload", "sessions-small", "--seed", "0", "--seconds", SECONDS, "--trace", "0"]
    )
    assert code == 0
    result, stamp = parse(lines)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["primary_ms_p50"] == pytest.approx(stamp["raw_ms_p50"]["primary"] / 2)
    assert metrics["secondary_ms_p50"] == pytest.approx(stamp["raw_ms_p50"]["secondary"] / 2)
    assert metrics["setup_s"] == pytest.approx(stamp["raw_setup_s_p50"] / 2)


def test_calibration_pass_leaves_no_thread_running():
    before = threading.active_count()
    assert calibration.pass_seconds() > 0
    assert threading.active_count() == before


def test_tampered_golden_hash_fails_the_run(monkeypatch):
    monkeypatch.setitem(workloads.GOLDEN, ("extract", 0), "0" * 64)
    code, result = in_process(
        ["--workload", "lab", "--seed", "0", "--seconds", SECONDS, "--trace", "0"]
    )
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_tampered_transcript_fails_the_run(monkeypatch):
    serialize = transport.serialize_transcript

    def tampered(params, transcript):
        blob = bytearray(serialize(params, transcript))
        blob[-1] ^= 0x01
        return bytes(blob)

    monkeypatch.setattr(transport, "serialize_transcript", tampered)
    code, result = in_process(
        ["--workload", "sessions-small", "--seed", "0", "--seconds", SECONDS, "--trace", "0"]
    )
    assert code == 1
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("lab", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_tracer_restores_every_binding():
    from ibcslab import extraction, vc

    before = {mod.__name__: dict(vars(mod)) for mod in tracing.MODULES}
    methods = {(cls, attr): vars(cls)[attr] for _, cls, attr in tracing.METHOD_SPANS}
    with tracing.Tracer():
        assert extraction.vc_check is not before["ibcslab.vc"]["vc_check"]
        assert vc.hashlib is not before["ibcslab.vc"]["hashlib"]
    for mod in tracing.MODULES:
        assert vars(mod) == before[mod.__name__]
    for (cls, attr), value in methods.items():
        assert vars(cls)[attr] is value


def test_planted_coloring_is_seeded_and_proper():
    a, witness = inputs.planted_coloring(65, 3, seed=7)
    b, _ = inputs.planted_coloring(65, 3, seed=7)
    c, _ = inputs.planted_coloring(65, 3, seed=8)
    assert a == b and a != c
    assert len(a.edges) == 3 * 65
    assert is_proper_coloring(a, witness)
    assert inputs.random_sumcheck(17, 3, 2, 1) == inputs.random_sumcheck(17, 3, 2, 1)
    sc = inputs.criterion8_sumcheck()
    assert sc.claimed_sum == sc.true_sum()
