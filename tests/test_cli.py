from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import re
import socket
import subprocess
import sys
import threading
import time
import warnings

import pytest

from ibcslab import cli, extraction, toys, transport
from ibcslab.cli import main
from ibcslab.ibcs import ArgumentProver, arg_setup
from ibcslab.prng import Prng, derive, seed_root
from ibcslab.toys import canonical_graph, dump_graph_text, dump_sumcheck_text, find_coloring, gc_pcp

from helpers import make_sumcheck, run_memory_session


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


@pytest.mark.parametrize(
    "text", ["v 4294967296\ne 1 2\n", "v 4294967297\ne 1 4294967297\n"], ids=["2**32", "2**32+1"]
)
def test_a_vertex_count_the_wire_cannot_carry_is_one_error_line(capsys, tmp_path, text):
    """The wire carries a vertex count in 4 bytes, so a graph of 2**32
    vertices or more is refused as an instance, before any search."""
    path = tmp_path / "big.txt"
    path.write_text(text)
    code = main(["prove", "--instance", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.fullmatch(r"error: .*vertex count \d+ does not fit in 32 bits\n", captured.err)


def test_prove_finds_a_witness_for_a_long_path(capsys, tmp_path):
    """With no `w` line, `prove` searches for a coloring; on a 3000-vertex
    path that search must not exhaust the interpreter's recursion limit."""
    n = 3000
    path = tmp_path / "path.txt"
    path.write_text(dump_graph_text(canonical_graph(n, [(v, v + 1) for v in range(1, n)])))
    code, report = run_cli(capsys, ["prove", "--instance", str(path)])
    assert code == 0
    assert report["results"]["decision"] == 1


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


@pytest.mark.parametrize("case", ["same-instance", "other-instance", "other-bound", "other-edges"])
def test_verify_transcript_checks_the_configured_instance(
    capsys, tmp_path, k3_file, k4_file, k3, k4, case
):
    """With --instance, a stored transcript must carry that instance, under
    the parameters derived for it at --lambda, byte for byte: otherwise one
    error line and exit 2, else the same results as without --instance.
    K4's encoding is longer than K3's, so its parameters differ first; two
    paths on 3 vertices encode to the same length under equal parameters."""
    out = tmp_path / "transcript.bin"
    own = len(transport.encode_instance(k3))
    instance = k4_file if case == "other-instance" else k3_file
    if case == "other-bound":
        protocol = gc_pcp(k3)
        params = arg_setup(128, own + 1, protocol.spec)
        prover = ArgumentProver(protocol, params, find_coloring(k3))
        result, _ = run_memory_session(protocol, params, prover, seed=3)
        out.write_bytes(transport.serialize_transcript(params, result.transcript))
    elif case == "other-edges":
        proved, instance = tmp_path / "path.txt", tmp_path / "other-path.txt"
        proved.write_text(dump_graph_text(canonical_graph(3, [(1, 2), (2, 3)])))
        instance.write_text(dump_graph_text(canonical_graph(3, [(1, 2), (1, 3)])))
        run_cli(capsys, ["prove", "--instance", str(proved), "--seed", "3", "--out", str(out)])
    else:
        run_cli(capsys, ["prove", "--instance", k3_file, "--seed", "3", "--out", str(out)])
    code, plain = run_cli(capsys, ["verify", "--transcript", str(out)])
    assert code == 0
    code = main(["verify", "--transcript", str(out), "--instance", str(instance)])
    captured = capsys.readouterr()
    if case == "same-instance":
        assert code == 0
        assert json.loads(captured.out)["results"] == plain["results"]
        return
    assert code == 2 and captured.out == ""
    if case == "other-edges":
        message = "transcript holds a different instance than configured"
    else:
        stored, expected = (
            (own, len(transport.encode_instance(k4))) if case == "other-instance" else (own + 1, own)
        )
        message = (
            f"parameters differ from the verifier's own at payload byte 3: "
            f"instance bound {stored}, lambda=128 proposed; "
            f"instance bound {expected}, lambda=128 expected"
        )
    assert captured.err.splitlines() == [f"error: {message}"]


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


def _wait_for_port(port_file) -> str:
    """The port a `verify --listen --ready-file` process wrote, once written."""
    for _ in range(100):
        if port_file.exists() and port_file.read_text().strip():
            break
        time.sleep(0.05)
    return port_file.read_text().strip()


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
    with subprocess.Popen(
        [sys.executable, "-m", "ibcslab.cli", "verify", "--listen", "127.0.0.1:0",
         "--ready-file", str(port_file), "--seed", "11", "--out", str(verifier_out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as verifier:
        try:
            port = _wait_for_port(port_file)
            prover_out = tmp_path / "tcp_prover.bin"
            prover = subprocess.run(
                [sys.executable, "-m", "ibcslab.cli", "prove", "--instance", k3_file,
                 "--seed", "11", "--transport", "tcp", "--connect", f"127.0.0.1:{port}",
                 "--out", str(prover_out)],
                capture_output=True,
                timeout=30,
            )
            assert prover.returncode == 0, prover.stderr.decode()
            verifier.communicate(timeout=30)
            assert verifier.returncode == 0
        finally:
            if verifier.poll() is None:
                verifier.kill()
    assert prover_out.read_bytes() == mem_out.read_bytes()
    assert verifier_out.read_bytes() == mem_out.read_bytes()


def test_verify_listen_rejects_another_lambda(tmp_path, k3_file):
    port_file = tmp_path / "port.txt"
    with subprocess.Popen(
        [sys.executable, "-m", "ibcslab.cli", "verify", "--listen", "127.0.0.1:0",
         "--ready-file", str(port_file), "--lambda", "256"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as verifier:
        try:
            port = _wait_for_port(port_file)
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


def _record_sockets(monkeypatch) -> list:
    """Every listener and TCP channel the CLI opens from here on, in order."""
    opened = []
    for name in ("tcp_listen", "tcp_accept", "tcp_connect"):
        def record(*args, _open=getattr(transport, name)):
            opened.append(_open(*args))
            return opened[-1]

        monkeypatch.setattr(transport, name, record)
    return opened


def test_verify_listen_closes_its_sockets_when_the_session_fails(
    monkeypatch, capsys, tmp_path, k3_file
):
    opened = _record_sockets(monkeypatch)
    port_file = tmp_path / "port.txt"

    def peer():
        port = int(_wait_for_port(port_file))
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(bytes(4) + bytes([0x99]))  # empty frame, unknown tag

    thread = threading.Thread(target=peer)
    thread.start()
    code = main(["verify", "--listen", "127.0.0.1:0", "--ready-file", str(port_file),
                 "--instance", k3_file])
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert code == 2
    assert "received 0x99" in capsys.readouterr().err
    listener, channel = opened
    assert listener.fileno() == -1
    assert channel._sock.fileno() == -1


def test_prove_tcp_closes_its_socket_when_the_session_fails(monkeypatch, capsys, k3_file):
    opened = _record_sockets(monkeypatch)
    with socket.create_server(("127.0.0.1", 0)) as server:
        server.settimeout(30)
        port = server.getsockname()[1]

        def peer():
            conn, _ = server.accept()
            conn.close()

        thread = threading.Thread(target=peer)
        thread.start()
        code = main(["prove", "--instance", k3_file, "--transport", "tcp",
                     "--connect", f"127.0.0.1:{port}"])
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert code == 2
    (channel,) = opened
    assert channel._sock.fileno() == -1


def _count_layouts(monkeypatch) -> list:
    """The instances whose binary layout is computed from here on, in order."""
    computed = []
    for cls in (toys.GraphColoringInstance, toys.SumcheckInstance):

        def counted(self, layout=cls.layout):
            computed.append(self)
            return layout(self)

        monkeypatch.setattr(cls, "layout", counted)
    return computed


@pytest.fixture
def petersen_file(tmp_path, petersen):
    path = tmp_path / "petersen.txt"
    path.write_text(dump_graph_text(petersen))
    return str(path)


def test_prove_out_encodes_its_instance_once(monkeypatch, capsys, tmp_path, petersen_file):
    """`setup_for` sizes the bound and `serialize_transcript` writes the
    instance frame from one layout; a parsed transcript re-serializes from
    the payload it was read from, with no layout at all."""
    computed = _count_layouts(monkeypatch)
    out = tmp_path / "petersen.bin"
    code, _ = run_cli(capsys, ["prove", "--instance", petersen_file, "--seed", "2", "--out", str(out)])
    assert code == 0
    assert len(computed) == 1
    blob = out.read_bytes()
    params, _, transcript = transport.parse_transcript(blob)
    assert transport.serialize_transcript(params, transcript) == blob
    assert len(computed) == 1


def test_tcp_prover_encodes_its_instance_once(monkeypatch, capsys, tmp_path, petersen_file):
    """The TCP prover's `setup_for`, `send_public_setup` and
    `serialize_transcript` share one layout; the verifier re-serializes the
    instance `recv_public_setup` decoded without computing one."""
    computed = _count_layouts(monkeypatch)
    listener = transport.tcp_listen("127.0.0.1", 0)
    box = {}

    def verifier():
        with contextlib.closing(transport.tcp_accept(listener)) as channel:
            setup = transport.recv_public_setup(channel)
            params, protocol = transport.verifier_setup(*setup)
            prng = Prng(derive(seed_root(2), "session", 0))
            result = transport.run_session("verifier", channel, params, protocol, prng=prng)
            box["blob"] = transport.serialize_transcript(params, result.transcript)

    thread = threading.Thread(target=verifier)
    thread.start()
    try:
        out = tmp_path / "petersen_tcp.bin"
        port = listener.getsockname()[1]
        code, _ = run_cli(
            capsys,
            ["prove", "--instance", petersen_file, "--seed", "2", "--transport", "tcp",
             "--connect", f"127.0.0.1:{port}", "--out", str(out)],
        )
        thread.join(timeout=30)
    finally:
        listener.close()
    assert code == 0 and not thread.is_alive()
    assert box["blob"] == out.read_bytes()
    assert len(computed) == 1


def _listen_with_instance(tmp_path, instance_file, data: bytes) -> tuple[int, str]:
    """Exit code and stderr of `verify --listen --instance` after a peer sends
    `data` and keeps its end open until the verifier exits."""
    port_file = tmp_path / "port.txt"
    with subprocess.Popen(
        [sys.executable, "-m", "ibcslab.cli", "verify", "--listen", "127.0.0.1:0",
         "--ready-file", str(port_file), "--instance", instance_file],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as verifier:
        try:
            port = int(_wait_for_port(port_file))
            with socket.create_connection(("127.0.0.1", port), timeout=30) as peer:
                peer.sendall(data)
                _, err = verifier.communicate(timeout=30)
        finally:
            if verifier.poll() is None:
                verifier.kill()
    return verifier.returncode, err.decode()


def test_verify_listen_with_instance_caps_the_peer_instance(tmp_path, k3_file, k3):
    """With --instance the verifier reads at most its own instance's encoding:
    a peer declaring a 2**31-byte instance is refused before its payload."""
    declared = 1 << 31
    own = len(transport.encode_instance(k3))
    fields = transport.encode_params(arg_setup(128, own, gc_pcp(k3).spec))
    code, err = _listen_with_instance(
        tmp_path,
        k3_file,
        transport.encode_frame(transport.TAG_PARAMS, fields)
        + declared.to_bytes(4, "big") + bytes([transport.TAG_INSTANCE]),
    )
    assert code == 2
    assert f"declares {declared} payload bytes, at most {own} allowed" in err


def test_verify_listen_with_instance_refuses_other_parameter_bytes(tmp_path, k3_file, k3):
    """With --instance the peer's parameter frame must be the verifier's own
    byte for byte: another instance bound under the same vc parameters is
    refused, with one error line, before the verifier reads the instance
    frame (the peer never sends it and keeps the connection open)."""
    own = len(transport.encode_instance(k3))
    fields = transport.encode_params(arg_setup(128, own + 1, gc_pcp(k3).spec))
    code, err = _listen_with_instance(
        tmp_path, k3_file, transport.encode_frame(transport.TAG_PARAMS, fields)
    )
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"instance bound {own + 1}, lambda=128 proposed" in err
    assert f"instance bound {own}, lambda=128 expected" in err


def test_soundness_refuses_satisfiable(capsys, k3_file):
    code = main(["soundness", "--instance", k3_file, "--trials", "50", "--seed", "1"])
    capsys.readouterr()
    assert code == 2


def test_soundness_refuses_a_14_variable_true_sumcheck_at_once(capsys, tmp_path):
    """Membership sums the coefficient table in one pass, so a true claim
    over 14 variables (16,384 coefficients) is found in the language at
    once, not by evaluating g, a walk of the whole table, at each of the
    2**14 cube points."""
    path = tmp_path / "sumcheck-14.txt"
    path.write_text(dump_sumcheck_text(make_sumcheck(p=17, n=14, d=1)))
    start = time.perf_counter()
    code = main(["soundness", "--instance", str(path), "--trials", "10", "--seed", "1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "instance is in the language" in captured.err
    assert elapsed < 5


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


# K4 has proof length 4 and 72-bit challenges.
BAD_ADVERSARY_OPTIONS = {
    "grinder:x": "zero-bit count 'x' is not an integer",
    "withholder:abc": "position 'abc' is not an integer",
    "withholder:-3": "position must lie in [1, 4], got -3",
    "withholder:99": "position must lie in [1, 4], got 99",
    "grinder:-1": "zero-bit count must lie in [0, 72], got -1",
    "grinder:73": "zero-bit count must lie in [0, 72], got 73",
    "equivocator:5": "equivocator takes no option",
    "optimal:2": "optimal takes no option",
    "abort:1": "abort takes no option",
}


@pytest.mark.parametrize("adversary", list(BAD_ADVERSARY_OPTIONS))
def test_soundness_refuses_a_bad_adversary_option(capsys, k4_file, adversary):
    """An option that is no integer, lies outside its range or goes to a
    selector without options is a parameter error, before any trial runs."""
    code = main(["soundness", "--instance", k4_file, "--trials", "10", "--adversary", adversary])
    captured = capsys.readouterr()
    assert code == 2
    message = BAD_ADVERSARY_OPTIONS[adversary]
    assert captured.err.splitlines() == [f"error: adversary {adversary!r}: {message}"]
    assert captured.out == ""


def test_soundness_refuses_a_repeated_adversary_before_anything_is_built(
    capsys, monkeypatch, k4_file
):
    """The report keys adversaries by selector, so a repeated selector would
    run its trials twice and be reported once: it is one error line."""
    built = []
    monkeypatch.setattr(cli, "load_instance_path", lambda *args: built.append(args))
    monkeypatch.setattr(cli, "make_adversaries", lambda *args: built.append(args))
    code = main(["soundness", "--instance", k4_file, "--adversary", "optimal,abort,optimal"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == ["error: adversary 'optimal' is selected twice"]
    assert captured.out == "" and built == []


def test_extract_past_the_end_of_a_stream_is_an_error_line(capsys, tmp_path):
    """At epsilon = 1e-30, T is about 1.2e31 rewinds: skipping the rewinds
    after saturation would run past a stream's 2**64 blocks, which is a
    parameter error, not an overflow traceback."""
    path = tmp_path / "sumcheck.txt"
    path.write_text(dump_sumcheck_text(make_sumcheck()))
    code = main(["extract", "--instance", str(path), "--trials", "2", "--epsilon", "1e-30",
                 "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    [line] = captured.err.splitlines()
    assert line.startswith("error: cannot skip ")
    assert "a stream holds 2**72 bits" in line
    assert captured.out == ""


def test_extract_stops_once_its_rewinds_pass_the_budget(capsys, monkeypatch, tmp_path):
    """At epsilon = 1e-7 on the n=2 sumcheck, T = 1.2e8 rewinds per round,
    which an adversary that never wins runs in full: the report stops one
    rewind past its budget, lowered here from 2**22 (about 20 s of such
    rewinds) to 10**4, as one error line. An honest adversary's report at
    the same epsilon skips its rewinds at saturation and runs to its end."""
    monkeypatch.setattr(extraction, "DEFAULT_REWIND_BUDGET", 10**4)
    path = tmp_path / "sumcheck.txt"
    path.write_text(dump_sumcheck_text(make_sumcheck()))
    argv = ["extract", "--instance", str(path), "--trials", "2", "--knowledge-trials", "1",
            "--seed", "1", "--epsilon", "1e-7"]
    start = time.perf_counter()
    code = main(argv + ["--adversary", "abort"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: extract ran past its budget of 10000 rewinds"]
    assert elapsed < 1
    code, report = run_cli(capsys, argv)
    assert code == 0 and report["results"]["pass"]


def test_extract_refuses_a_withholder_past_the_proof(capsys, k3_file):
    code = main(["extract", "--instance", k3_file, "--trials", "10", "--adversary", "withholder:4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [
        "error: adversary 'withholder:4': position must lie in [1, 3], got 4"
    ]


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


# A false claim whose cheat program and strategy tree both count p**(d+1)
# tables, an int of over 65,000 digits: p = 2**61 - 1, n = 1, d = 65535.
DEGREE_65535_SUMCHECK = f"{(1 << 61) - 1} 1 65535 5\n" + "0\n" * 65536


@pytest.mark.parametrize("instance", ["k4-and-path", "sumcheck-d-65535"])
def test_a_strategy_tree_far_past_the_budget_reports_infeasible(capsys, tmp_path, instance):
    """A count far past the oracle's budget is never built or printed: a K4
    beside a path, 10,000 vertices in all, and a degree-65535 sumcheck get
    the infeasible report and exit 2."""
    if instance == "k4-and-path":
        edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
        edges += [(u, u + 1) for u in range(5, 10_000)]
        text = "v 10000\n" + "".join(f"e {u} {v}\n" for u, v in edges)
    else:
        text = DEGREE_65535_SUMCHECK
    path = tmp_path / "instance.txt"
    path.write_text(text)
    code, report = run_cli(capsys, ["soundness", "--instance", str(path), "--trials", "10"])
    assert code == 2
    assert report["results"]["oracle"] == "infeasible"
    assert report["results"]["iop_soundness"] is None


@pytest.mark.parametrize("command", ["prove", "soundness", "extract"])
@pytest.mark.parametrize(
    "text, field",
    [("17 1 65536 3\n" + "0\n" * 65537, "degree 65536"), ("17 65536 1 0\n0\n", "variables 65536")],
    ids=["degree", "variables"],
)
def test_a_sumcheck_the_wire_cannot_carry_is_one_error_line(capsys, tmp_path, command, text, field):
    """The wire carries n and d in 2 bytes each, so a sumcheck with either
    at 2**16 or more is refused as an instance, naming the field."""
    path = tmp_path / "wide.txt"
    path.write_text(text)
    code = main([command, "--instance", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {field} does not fit in 16 bits"]


def test_a_sumcheck_header_claiming_a_huge_table_is_an_error_line(capsys, tmp_path):
    """(d+1)**n with 5001 digits: one error line and exit 2, not a traceback
    about printing a huge integer."""
    path = tmp_path / "huge.txt"
    path.write_text("17 5000 9 0\n1\n")
    for command in ("soundness", "prove"):
        code = main([command, "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "d=9, n=5000" in lines[0]


@pytest.fixture
def fresh_parser():
    """The process-wide parser, rebuilt for the test and again after it."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_the_parser_is_built_once_and_commands_dispatch_by_name(
    capsys, monkeypatch, k4_file, fresh_parser
):
    """Two `main` calls build one parser; a replaced `cli.cmd_soundness` is
    the one that runs."""
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    ran = []
    monkeypatch.setattr(cli, "cmd_soundness", lambda args, argv: ran.append(argv) or 7)
    argv = ["soundness", "--instance", k4_file, "--trials", "10"]
    assert main(argv) == 7
    assert main(argv + ["--seed", "3"]) == 7
    assert ran == [argv, argv + ["--seed", "3"]]
    assert built.count("ibcslab") == 1
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.undo()
    code, report = run_cli(capsys, argv)
    assert code == 0 and report["results"]["trials"] == 10


@pytest.mark.parametrize(
    "argv, message",
    [
        (["soundness"], "soundness requires --instance"),
        (["extract"], "extract requires --instance"),
        (["prove"], "prove requires --instance"),
        (["verify"], "verify requires --listen or --transcript"),
        (["prove", "--instance", "k3.txt", "--connect", "127.0.0.1:9"],
         "--connect requires --transport tcp"),
        (["verify", "--transcript", "t.bin", "--listen", "127.0.0.1:0"],
         "--transcript takes no --listen"),
        (["verify", "--transcript", "t.bin", "--out", "o.bin"], "--transcript takes no --out"),
        (["verify", "--transcript", "t.bin", "--ready-file", "3"],
         "--transcript takes no --ready-file"),
    ],
)
def test_usage_errors_exit_2_from_the_shared_parser(capsys, argv, message):
    for _ in range(2):  # the second call uses the parser the first one built
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"ibcslab: error: {message}"


@pytest.mark.parametrize(
    "case",
    [
        "missing-instance", "missing-transcript", "instance-is-a-directory",
        "witness-not-integers", "out-is-a-directory", "json-is-a-directory",
        "ready-file-is-a-directory", "seed-past-128-bits", "cheat-plan-past-its-budget",
    ],
)
def test_file_and_flag_errors_are_one_error_line(capsys, tmp_path, k3_file, case):
    """A file the CLI cannot read or write, a witness that is not integers,
    a seed outside [0, 2**128), or a cheat program whose work count runs
    far past its budget: one error line and exit 2, not a traceback."""
    argv = {
        "missing-instance": ["prove", "--instance", str(tmp_path / "missing.txt")],
        "missing-transcript": ["verify", "--transcript", str(tmp_path / "nonexist.bin")],
        "instance-is-a-directory": ["prove", "--instance", str(tmp_path)],
        "witness-not-integers": ["prove", "--instance", k3_file, "--witness", "a,b"],
        "out-is-a-directory": ["prove", "--instance", k3_file, "--out", str(tmp_path)],
        "json-is-a-directory": ["prove", "--instance", k3_file, "--json", str(tmp_path)],
        "ready-file-is-a-directory": [
            "verify", "--listen", "127.0.0.1:0", "--ready-file", str(tmp_path)
        ],
        "seed-past-128-bits": ["prove", "--instance", k3_file, "--seed", str(1 << 128)],
        "cheat-plan-past-its-budget": [
            "extract", "--instance", str(tmp_path / "wide.txt"), "--adversary", "optimal",
            "--trials", "2", "--knowledge-trials", "1",
        ],
    }[case]
    (tmp_path / "wide.txt").write_text(DEGREE_65535_SUMCHECK)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize(
    "data, message",
    [
        (b"v 3\n# caf\xe9\ne 1 2\n", "not UTF-8 text (byte 9)"),
        (bytes(range(128, 256)), "not UTF-8 text (byte 0)"),
        (b"", "no instance, only blank lines or comments"),
        (b"# a comment\n\n   # another\n", "no instance, only blank lines or comments"),
    ],
    ids=["latin-1", "high-bytes", "empty", "comments-only"],
)
def test_instance_files_with_no_instance_text_are_one_error_line(capsys, tmp_path, data, message):
    path = tmp_path / "instance.txt"
    path.write_bytes(data)
    code = main(["prove", "--instance", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: {message}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--listen", "127.0.0.1:99999"],
        ["verify", "--listen", "127.0.0.1:notaport"],
        ["verify", "--listen", "127.0.0.1:-1"],
        ["verify", "--listen", "8080"],
        ["prove", "--instance", "k3.txt", "--transport", "tcp", "--connect", "127.0.0.1:65536"],
        ["prove", "--instance", "k3.txt", "--transport", "tcp", "--connect", "localhost: 80"],
    ],
)
def test_listen_and_connect_take_host_and_a_port_number(capsys, argv):
    """A port that is no decimal in [0, 65535], or no port at all, is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    option, value = argv[-2:]
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"ibcslab {argv[0]}: error: argument {option}: invalid host:port value: {value!r}"
    )


def test_verify_listen_on_a_port_in_use_is_one_error_line(capsys):
    """The bind fails: one error line, exit 2, and the listener is closed."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", "--listen", f"127.0.0.1:{port}"])
            gc.collect()  # a socket left open warns when it is collected
    captured = capsys.readouterr()
    assert code == 2
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: listen on 127.0.0.1:{port} failed: ")
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_output_paths_in_every_spelling_stay_out_of_the_report(capsys, tmp_path, k3_file, k4_file):
    """`--out` and `--json`, as `--opt PATH` or `--opt=PATH` and anywhere in
    the argument vector, leave the report byte-identical to a run without
    them; the parser takes no abbreviation of either."""
    transcript, written = tmp_path / "t.bin", tmp_path / "r.json"
    spellings = [
        ["--out", str(transcript)], [f"--out={transcript}"],
        ["--json", str(written)], [f"--json={written}"],
        ["--out", str(transcript), f"--json={written}"],
        [f"--out={transcript}", "--json", str(written)],
    ]
    bases = {
        "prove": ["--instance", k3_file, "--seed", "4"],
        "soundness": ["--instance", k4_file, "--trials", "20"],
    }
    for command, base in bases.items():
        main([command] + base)
        plain = capsys.readouterr().out
        for extra in spellings:
            if command == "soundness" and any(token.startswith("--out") for token in extra):
                continue
            for argv in ([command] + base + extra, [command] + extra + base):
                written.unlink(missing_ok=True)
                main(argv)
                assert capsys.readouterr().out == plain, argv
                if any(token.startswith("--json") for token in extra):
                    assert written.read_text() == plain
    for abbreviated in (["--js", str(written)], ["--ou", str(transcript)]):
        with pytest.raises(SystemExit) as exc:
            main(["prove"] + bases["prove"] + abbreviated)
        assert exc.value.code == 2
        capsys.readouterr()


def test_formula_check_reads_the_counters_in_the_role_orientation(k3):
    """The prover sends the prover-to-verifier bits and the verifier
    receives them; counters in the other orientation are a mismatch."""
    protocol = gc_pcp(k3)
    params = arg_setup(128, 64, protocol.spec)
    prover = ArgumentProver(protocol, params, find_coloring(k3))
    results = run_memory_session(protocol, params, prover)
    for role, result in zip(("prover", "verifier"), results):
        other = "verifier" if role == "prover" else "prover"
        assert cli._check_formula(params, result, role)["message_count"] == 3
        with pytest.raises(cli.ParameterError, match="accounting mismatch"):
            cli._check_formula(params, result, other)
        counters = result.counters
        swapped = dataclasses.replace(
            counters,
            sent_protocol_bits=counters.recv_protocol_bits,
            recv_protocol_bits=counters.sent_protocol_bits,
        )
        with pytest.raises(cli.ParameterError, match="accounting mismatch"):
            cli._check_formula(params, dataclasses.replace(result, counters=swapped), role)


def test_a_false_sumcheck_soundness_report_builds_one_cheat_plan(capsys, tmp_path, monkeypatch):
    """Over the oracle's budget, the exact oracle value and the optimal
    cheat base read the protocol's one `SumcheckCheatPlan`."""
    plans = []
    real_init = toys.SumcheckCheatPlan.__init__

    def counting_init(self, *args, **kwargs):
        plans.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(toys.SumcheckCheatPlan, "__init__", counting_init)
    path = tmp_path / "sc17.txt"
    path.write_text(dump_sumcheck_text(make_sumcheck(p=17, n=2, d=2, false_claim=True)))
    code, report = run_cli(
        capsys,
        ["soundness", "--instance", str(path), "--trials", "4", "--seed", "1",
         "--adversary", "optimal,abort"],
    )
    assert report["results"]["oracle"] == "cheat-program"
    assert code == 0
    assert len(plans) == 1
