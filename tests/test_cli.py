from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from ibcslab import cli, transport
from ibcslab.cli import main
from ibcslab.ibcs import arg_setup
from ibcslab.toys import dump_graph_text, dump_sumcheck_text, find_coloring, gc_pcp

from helpers import make_sumcheck


@pytest.fixture
def k3_file(tmp_path, k3):
    path = tmp_path / "k3.txt"
    path.write_text(dump_graph_text(k3, find_coloring(k3)))
    return str(path)


@pytest.fixture
def k4_file(tmp_path, k4):
    path = tmp_path / "k4.txt"
    path.write_text(dump_graph_text(k4))
    return str(path)


@pytest.fixture
def sumcheck_false_file(tmp_path):
    inst = make_sumcheck(p=5, n=1, d=1, coeffs=(0, 1), false_claim=True)
    path = tmp_path / "sc_false.txt"
    path.write_text(dump_sumcheck_text(inst))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_prove_memory_accepts(capsys, tmp_path, k3_file):
    out = tmp_path / "transcript.bin"
    code, report = run_cli(
        capsys, ["prove", "--instance", k3_file, "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    assert report["results"]["decision"] == 1
    assert report["results"]["message_count"] == 3
    assert out.exists()


def test_prove_without_witness_searches(capsys, tmp_path, k3):
    path = tmp_path / "bare.txt"
    path.write_text(dump_graph_text(k3))
    code, report = run_cli(capsys, ["prove", "--instance", str(path), "--seed", "1"])
    assert code == 0 and report["results"]["decision"] == 1


def test_prove_unsatisfiable_without_witness_errors(capsys, k4_file):
    code = main(["prove", "--instance", k4_file, "--seed", "1"])
    capsys.readouterr()
    assert code == 2


def test_prove_invalid_witness_fails_at_once(capsys, k3_file):
    """A failing prover closes its end of the in-memory session, so the
    verifier thread stops at once and is joined before `main` returns."""
    threads = threading.active_count()
    start = time.monotonic()
    code = main(["prove", "--instance", k3_file, "--witness", "0,1"])
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 2
    assert "witness length" in err
    assert "Traceback" not in err
    assert elapsed < 2
    assert threading.active_count() == threads


def test_verify_transcript_roundtrip(capsys, tmp_path, k3_file):
    out = tmp_path / "transcript.bin"
    code, _ = run_cli(
        capsys, ["prove", "--instance", k3_file, "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    code, report = run_cli(capsys, ["verify", "--transcript", str(out)])
    assert code == 0
    assert report["results"]["decision"] == 1


def test_verify_transcript_rejects_another_lambda(capsys, tmp_path, k3_file):
    out = tmp_path / "transcript.bin"
    run_cli(capsys, ["prove", "--instance", k3_file, "--seed", "3", "--out", str(out)])
    code = main(["verify", "--transcript", str(out), "--lambda", "256"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "lambda=128, but --lambda is 256" in captured.err


def test_verify_corrupted_transcript_fails(capsys, tmp_path, k3_file):
    out = tmp_path / "transcript.bin"
    run_cli(capsys, ["prove", "--instance", k3_file, "--seed", "3", "--out", str(out)])
    blob = bytearray(out.read_bytes())
    blob[-1] ^= 0x01
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    code = main(["verify", "--transcript", str(bad)])
    capsys.readouterr()
    assert code != 0


def test_tcp_split_matches_memory(tmp_path, k3_file):
    mem_out = tmp_path / "memory.bin"
    subprocess.run(
        [sys.executable, "-m", "ibcslab.cli", "prove", "--instance", k3_file,
         "--seed", "11", "--out", str(mem_out)],
        check=True,
        capture_output=True,
    )
    port_file = tmp_path / "port.txt"
    verifier_out = tmp_path / "tcp_verifier.bin"
    verifier = subprocess.Popen(
        [sys.executable, "-m", "ibcslab.cli", "verify", "--listen", "127.0.0.1:0",
         "--ready-fd", str(port_file), "--seed", "11", "--out", str(verifier_out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        for _ in range(100):
            if port_file.exists() and port_file.read_text().strip():
                break
            time.sleep(0.05)
        port = port_file.read_text().strip()
        prover_out = tmp_path / "tcp_prover.bin"
        prover = subprocess.run(
            [sys.executable, "-m", "ibcslab.cli", "prove", "--instance", k3_file,
             "--seed", "11", "--transport", "tcp", "--connect", f"127.0.0.1:{port}",
             "--out", str(prover_out)],
            capture_output=True,
            timeout=30,
        )
        assert prover.returncode == 0, prover.stderr.decode()
        assert verifier.wait(timeout=30) == 0
    finally:
        if verifier.poll() is None:
            verifier.kill()
    assert prover_out.read_bytes() == mem_out.read_bytes()
    assert verifier_out.read_bytes() == mem_out.read_bytes()


def test_verify_listen_rejects_another_lambda(tmp_path, k3_file):
    port_file = tmp_path / "port.txt"
    verifier = subprocess.Popen(
        [sys.executable, "-m", "ibcslab.cli", "verify", "--listen", "127.0.0.1:0",
         "--ready-fd", str(port_file), "--lambda", "256"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        for _ in range(100):
            if port_file.exists() and port_file.read_text().strip():
                break
            time.sleep(0.05)
        port = port_file.read_text().strip()
        prover = subprocess.run(
            [sys.executable, "-m", "ibcslab.cli", "prove", "--instance", k3_file,
             "--transport", "tcp", "--connect", f"127.0.0.1:{port}"],
            capture_output=True,
            timeout=30,
        )
        _, err = verifier.communicate(timeout=30)
    finally:
        if verifier.poll() is None:
            verifier.kill()
    assert verifier.returncode == 2
    assert "lambda=128" in err.decode()
    assert prover.returncode == 2


def test_verify_listen_with_instance_caps_the_peer_instance(tmp_path, k3_file, k3):
    """With --instance the verifier reads at most its own instance's encoding:
    a peer declaring a 2**31-byte instance is refused before its payload."""
    port_file = tmp_path / "port.txt"
    verifier = subprocess.Popen(
        [sys.executable, "-m", "ibcslab.cli", "verify", "--listen", "127.0.0.1:0",
         "--ready-fd", str(port_file), "--instance", k3_file],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    declared = 1 << 31
    blob = arg_setup(128, 64, gc_pcp(k3).spec).vc.to_bytes()
    fields = declared.to_bytes(4, "big") + len(blob).to_bytes(2, "big") + blob
    try:
        for _ in range(100):
            if port_file.exists() and port_file.read_text().strip():
                break
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        with socket.create_connection(("127.0.0.1", port), timeout=30) as peer:
            peer.sendall(
                transport.encode_frame(transport.TAG_PARAMS, fields)
                + declared.to_bytes(4, "big") + bytes([transport.TAG_INSTANCE])
            )
            _, err = verifier.communicate(timeout=30)
    finally:
        if verifier.poll() is None:
            verifier.kill()
    own = len(transport.encode_instance(k3))
    assert verifier.returncode == 2
    assert f"declares {declared} payload bytes, at most {own} allowed" in err.decode()


def test_soundness_refuses_satisfiable(capsys, k3_file):
    code = main(["soundness", "--instance", k3_file, "--trials", "50", "--seed", "1"])
    capsys.readouterr()
    assert code == 2


def test_soundness_force_overrides(capsys, k3_file):
    code, report = run_cli(
        capsys,
        ["soundness", "--instance", k3_file, "--trials", "50", "--seed", "1",
         "--adversary", "honest", "--force"],
    )
    assert code == 0
    assert report["results"]["iop_soundness"]["fraction"] == "1"


def test_soundness_report_on_k4(capsys, k4_file):
    code, report = run_cli(
        capsys,
        ["soundness", "--instance", k4_file, "--trials", "300", "--seed", "2",
         "--epsilon", "0.05"],
    )
    assert code == 0
    assert report["results"]["iop_soundness"]["fraction"] == "5/6"
    assert report["results"]["pass"] is True
    assert set(report["results"]["adversaries"]) == {
        "optimal", "withholder", "grinder:1", "equivocator", "abort",
    }


def test_soundness_sumcheck_false(capsys, sumcheck_false_file):
    code, report = run_cli(
        capsys,
        ["soundness", "--instance", sumcheck_false_file, "--trials", "300",
         "--seed", "4", "--adversary", "optimal,abort"],
    )
    assert code == 0
    assert report["results"]["iop_soundness"]["fraction"] == "1/5"


def test_extract_report_and_replay(capsys, k3_file):
    argv = ["extract", "--instance", k3_file, "--trials", "120",
            "--knowledge-trials", "25", "--seed", "5", "--epsilon", "0.5"]
    code, report = run_cli(capsys, argv)
    assert code == 0
    assert report["results"]["pass"] is True
    assert report["results"]["knowledge"]["rate"] == 1.0
    # re-running the embedded config reproduces the report bit-identically
    code2, report2 = run_cli(capsys, report["config"]["argv"])
    assert code2 == 0
    assert report2 == report


def test_extract_epsilon_is_an_exact_decimal(capsys, k3_file):
    """T = ceil(l / (epsilon / 2k)) with l = 3 and k = 1 is 20 at epsilon =
    3/10; the binary float nearest 0.3 would give 21."""
    code, report = run_cli(
        capsys,
        ["extract", "--instance", k3_file, "--trials", "20",
         "--knowledge-trials", "2", "--seed", "1", "--epsilon", "0.3"],
    )
    assert code == 0
    assert report["results"]["events"]["1"]["max_rewinds"] == 20
    assert report["results"]["chain_check"]["epsilon"] == 0.3


def test_extract_refuses_zero_knowledge_trials_before_any_trial(capsys, monkeypatch, k3_file):
    ran = []
    monkeypatch.setattr(cli, "hybrid_value", lambda *args: ran.append(args))
    code = main(["extract", "--instance", k3_file, "--trials", "20", "--knowledge-trials", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == ["error: at least one knowledge trial required"]
    assert captured.out == "" and ran == []


@pytest.mark.parametrize("command", ["soundness", "extract"])
@pytest.mark.parametrize("epsilon", ["1/0", "1e400"])
def test_epsilon_that_is_no_float_is_a_usage_error(capsys, k3_file, command, epsilon):
    """1/0 divides by zero and 1e400 overflows a float: both are usage
    errors, not tracebacks, on each subcommand that takes --epsilon."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", k3_file, "--trials", "10", "--epsilon", epsilon])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [
        f"ibcslab {command}: error: argument --epsilon: invalid epsilon value: {epsilon!r}"
    ]


def test_soundness_replay_identical(capsys, k4_file):
    argv = ["soundness", "--instance", k4_file, "--trials", "200", "--seed", "9"]
    code, report = run_cli(capsys, argv)
    assert code == 0
    code2, report2 = run_cli(capsys, report["config"]["argv"])
    assert report2 == report


def test_instance_sniffing(capsys, tmp_path):
    sc = make_sumcheck(p=5, n=1, d=1, coeffs=(2, 3))
    path = tmp_path / "sc.txt"
    path.write_text(dump_sumcheck_text(sc))
    code, report = run_cli(capsys, ["prove", "--instance", str(path), "--seed", "2"])
    assert code == 0
    assert report["results"]["decision"] == 1
    assert report["results"]["message_count"] == 3


def test_extract_withholder_reports_bound(capsys, k3_file):
    code, report = run_cli(
        capsys,
        ["extract", "--instance", k3_file, "--trials", "400",
         "--knowledge-trials", "10", "--seed", "6", "--epsilon", "0.5",
         "--adversary", "withholder:1"],
    )
    assert code == 0
    entry = report["results"]["events"]["1"]
    assert entry["missing_rate"] <= entry["missing_threshold"]
    assert entry["binding_breaks"] == 0
    assert report["results"]["chain_check"]["pass"] is True


def test_soundness_infeasible_oracle_reports_explicitly(capsys, tmp_path):
    # 16 vertices: both the strategy enumeration and the coloring search
    # exceed their budgets, so the report must say so rather than guess
    from ibcslab.toys import complete_graph as _complete

    big = _complete(16)
    path = tmp_path / "k16.txt"
    path.write_text(dump_graph_text(big))
    code = main(["soundness", "--instance", str(path), "--trials", "10",
                 "--seed", "1", "--force"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 2
    assert report["results"]["oracle"] == "infeasible"
    assert report["results"]["iop_soundness"] is None
