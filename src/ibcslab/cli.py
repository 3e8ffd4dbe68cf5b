"""Command-line surface for sessions and batch experiments.

Subcommands: `prove` and `verify` run one argument session (in memory,
over TCP, or offline against a stored transcript); `soundness` compares
exhaustive oracles against scripted adversaries; `extract` runs the
hybrid-value chain, the failure-event counters, and the knowledge
pipeline. Every report is machine-readable JSON that embeds the argument
vector it was produced from, so any report can be reproduced exactly:

    {"experiment": ..., "artifact_version": ..., "config": {"argv": [...],
     ...resolved values...}, "results": {...}}

All numbers are deterministic functions of the config (one master seed
expands into per-session and per-trial streams by labeled derivation), and
no timestamps are embedded.

This module names no instance kind. It reads an instance file and names
the file in any error; `toys.load_instance_text` tells the kinds apart and
`transport.protocol_for_instance` maps an instance to its protocol. With
`--instance`, `verify` passes its own setup to `transport`, which requires
the peer's or the transcript's to be that setup byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from contextlib import closing, contextmanager
from fractions import Fraction
from pathlib import Path

from . import __version__
from .adversaries import make_adversaries, make_adversary
from .errors import IbcsError, InstanceError, ParameterError
from .extraction import (
    end_to_end_knowledge,
    hoeffding_radius,
    hybrid_value,
    measure_acceptance,
    rewind_allowance,
    run_events_experiment,
    theorem_bounds,
)
from .ibcs import ArgumentProver, arg_setup, arg_verify, comm_stats
from .iop import DEFAULT_ORACLE_BUDGET
from .prng import Prng, derive, seed_root
from .toys import load_instance_text
from . import transport

DEFAULT_LAMBDA = 128
DEFAULT_ADVERSARIES = "optimal,withholder,grinder:1,equivocator,abort"


@contextmanager
def cli_file(path: str):
    """`Path(path)`, for one of the CLI's own reads or writes; an OSError
    there becomes a ParameterError, so it ends in one error line."""
    try:
        yield Path(path)
    except OSError as exc:
        raise ParameterError(f"{path}: {exc.strerror or exc}") from None


def load_instance_path(path: str):
    """The instance an instance file holds, with its witness or None
    (`toys.load_instance_text`); an InstanceError names the file."""
    with cli_file(path) as file:
        data = file.read_bytes()
    try:
        return load_instance_text(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from exc


def setup_for(instance, protocol, security_bits: int):
    bound = len(transport.encode_instance(instance))
    return arg_setup(security_bits, bound, protocol.spec)


def require_security(params, security_bits: int):
    """A verifier never adopts a proposer's security level."""
    found = params.vc.security_bits
    if found != security_bits:
        raise ParameterError(f"parameters are for lambda={found}, but --lambda is {security_bits}")


def parse_witness_flag(value: str):
    try:
        return tuple(int(f) for f in value.replace(",", " ").split())
    except ValueError:
        raise InstanceError(f"--witness symbols must be integers, got {value!r}") from None


def resolve_witness(protocol, file_witness, flag_value):
    if flag_value is not None:
        return parse_witness_flag(flag_value)
    witness = protocol.honest_witness() if file_witness is None else file_witness
    if witness is None:
        raise InstanceError(
            f"the {protocol.spec.relation_id} instance has no known witness and none was given"
        )
    return witness


def emit(experiment: str, args, argv: list[str], results: dict, **config):
    """Print the report envelope around `results`, and write it to --json."""
    report = {
        "experiment": experiment,
        "artifact_version": __version__,
        "config": config_block(args, argv, **config),
        "results": results,
    }
    blob = json.dumps(report, indent=2, sort_keys=True)
    if args.json:
        with cli_file(args.json) as file:
            file.write_text(blob + "\n")
    print(blob)


def config_block(args, argv: list[str], **extra) -> dict:
    """The report's config: argv minus the output paths (`--out` and
    `--json`, spelled `--opt PATH` or `--opt=PATH`; the parser takes no
    abbreviation), so where a run writes never changes its report."""
    kept = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("--out", "--json"):
            next(tokens, None)
        elif not token.startswith(("--out=", "--json=")):
            kept.append(token)
    block = {"argv": kept, "seed": args.seed, "lambda": args.security}
    block.update(extra)
    return block


def _check_formula(params, result, role: str) -> dict:
    """Formula-vs-wire assertion for one session result of `role`: the
    prover sends the prover-to-verifier bits, the verifier receives them."""
    stats = comm_stats(params, result.transcript)
    sent = result.counters.sent_protocol_bits
    recv = result.counters.recv_protocol_bits
    formula = (stats.prover_to_verifier_bits, stats.verifier_to_prover_bits)
    if role == "verifier":
        formula = formula[::-1]
    if (sent, recv) != formula:
        raise ParameterError(
            f"communication accounting mismatch ({role} side): "
            f"formula {formula[0]}/{formula[1]} bits sent/received, "
            f"wire {sent}/{recv} bits"
        )
    return stats.to_dict()


def _session_results(params, result, role: str, decision: int, out_path: str | None) -> dict:
    """Results of one live session seen from `role`; writes its transcript
    to `out_path`."""
    stats = _check_formula(params, result, role)
    blob = transport.serialize_transcript(params, result.transcript)
    if out_path:
        with cli_file(out_path) as file:
            file.write_bytes(blob)
    return {
        "decision": decision,
        "message_count": result.transcript.message_count,
        "comm": stats,
        "counters": result.counters.to_dict(),
        "transcript_sha256": hashlib.sha256(blob).hexdigest(),
    }


def cmd_prove(args, argv) -> int:
    instance, file_witness = load_instance_path(args.instance)
    protocol = transport.protocol_for_instance(instance)
    params = setup_for(instance, protocol, args.security)
    witness = resolve_witness(protocol, file_witness, args.witness)
    prover = ArgumentProver(protocol, params, witness)

    if args.transport == "memory":
        prng = Prng(derive(seed_root(args.seed), "session", 0))
        result, verifier_result = transport.memory_session(params, protocol, prover, prng)
        decision = verifier_result.decision
    else:
        with closing(transport.tcp_connect(*args.connect)) as channel:
            transport.send_public_setup(channel, params, instance)
            result = transport.run_session("prover", channel, params, protocol, prover=prover)
        decision = result.decision

    results = _session_results(params, result, "prover", decision, args.out)
    emit("prove", args, argv, results, instance=args.instance, transport=args.transport)
    return 0 if decision == 1 else 1


def cmd_verify(args, argv) -> int:
    # The verifier's own setup, when it has an instance: the peer's or the
    # transcript's must be that instance, under the parameters it derives
    # for it at --lambda, byte for byte (`transport._read_setup`).
    own = None
    if args.instance:
        instance, _ = load_instance_path(args.instance)
        protocol = transport.protocol_for_instance(instance)
        own = setup_for(instance, protocol, args.security), instance
    if args.transcript:
        with cli_file(args.transcript) as file:
            data = file.read_bytes()
        params, protocol, transcript = transport.parse_transcript(data, own)
        require_security(params, args.security)
        decision = arg_verify(params, protocol, transcript)
        results = {
            "decision": decision,
            "message_count": transcript.message_count,
            "comm": comm_stats(params, transcript).to_dict(),
        }
        emit("verify", args, argv, results, transcript=str(args.transcript))
        return 0 if decision == 1 else 1

    # One connection per run: the listener closes once it has accepted, and
    # the connection closes however the session ends.
    with transport.tcp_listen(*args.listen) as listener:
        if args.ready_file is not None:
            with cli_file(args.ready_file) as file:
                file.write_text(str(listener.getsockname()[1]))
        channel = transport.tcp_accept(listener)
    with closing(channel):
        params, protocol = transport.verifier_setup(*transport.recv_public_setup(channel, own))
        require_security(params, args.security)
        prng = Prng(derive(seed_root(args.seed), "session", 0))
        result = transport.run_session("verifier", channel, params, protocol, prng=prng)
    results = _session_results(params, result, "verifier", result.decision, args.out)
    emit("verify", args, argv, results, transport="tcp")
    return 0 if result.decision == 1 else 1


def cmd_soundness(args, argv) -> int:
    # The report keys each adversary by its selector, so a repeated one
    # would run twice and be reported once.
    names = [name.strip() for name in args.adversary.split(",")]
    for j, name in enumerate(names):
        if name in names[:j]:
            raise ParameterError(f"adversary {name!r} is selected twice")
    instance, file_witness = load_instance_path(args.instance)
    protocol = transport.protocol_for_instance(instance)
    if protocol.in_language() and not args.force:
        print(
            "error: instance is in the language; not a soundness instance "
            "(use --force to measure anyway)",
            file=sys.stderr,
        )
        return 2
    params = setup_for(instance, protocol, args.security)
    oracle_value, oracle_kind = protocol.exact_soundness()
    radius = hoeffding_radius(args.trials)
    results: dict = {
        "iop_soundness": None
        if oracle_value is None
        else {"fraction": str(oracle_value), "value": float(oracle_value)},
        "oracle": oracle_kind,
        "epsilon": float(args.epsilon),
        "trials": args.trials,
        "radius": radius,
        "adversaries": {},
    }
    config = {"instance": args.instance, "adversaries": args.adversary}
    if oracle_value is None:
        results["note"] = "exhaustive oracle infeasible at the configured budget"
        emit("soundness", args, argv, results, **config)
        # Exit 2 prints one error line, as every other refusal does.
        print(
            f"error: exhaustive oracle infeasible past its budget of "
            f"{DEFAULT_ORACLE_BUDGET} evaluations",
            file=sys.stderr,
        )
        return 2
    bounds = theorem_bounds(protocol.spec, Fraction(0), Fraction(0), args.epsilon, oracle_value)
    threshold = float(bounds.soundness_bound) + 3 * radius
    results["bound"] = {
        "soundness_bound": float(bounds.soundness_bound),
        "threshold_with_slack": threshold,
    }
    all_pass = True
    adversaries = make_adversaries(names, protocol, params, file_witness)
    for name, adversary in zip(names, adversaries):
        estimate = measure_acceptance(
            protocol, params, adversary, args.trials, args.seed, label=f"accept:{name}"
        )
        ok = estimate.value <= threshold
        all_pass = all_pass and ok
        results["adversaries"][name] = {"acceptance": estimate.to_dict(), "pass": ok}
    results["pass"] = all_pass
    emit("soundness", args, argv, results, **config)
    return 0 if all_pass else 1


def cmd_extract(args, argv) -> int:
    if args.knowledge_trials < 1:
        raise ParameterError("at least one knowledge trial required")
    instance, file_witness = load_instance_path(args.instance)
    protocol = transport.protocol_for_instance(instance)
    params = setup_for(instance, protocol, args.security)
    adversary = make_adversary(args.adversary, protocol, params, file_witness)
    k = protocol.spec.rounds

    with rewind_allowance():
        chain = {}
        for oracle_rounds in range(k + 1):
            est = hybrid_value(
                protocol,
                params,
                adversary,
                oracle_rounds,
                args.trials,
                args.seed,
                args.epsilon,
            )
            chain[str(oracle_rounds)] = est.to_dict()
        slack = 3 * (chain["0"]["radius"] + chain[str(k)]["radius"])
        chain_ok = chain["0"]["value"] <= chain[str(k)]["value"] + args.epsilon + slack

        events = {}
        events_ok = True
        for round_index in range(1, k + 1):
            counters = run_events_experiment(
                protocol, params, adversary, round_index, args.trials, args.seed, args.epsilon
            )
            rate = counters.missing / counters.trials
            bound = float(counters.missing_bound) + 3 * hoeffding_radius(counters.trials)
            ok = rate <= bound and not counters.binding_pairs
            events_ok = events_ok and ok
            entry = counters.to_dict()
            entry.update({"missing_rate": rate, "missing_threshold": bound, "pass": ok})
            events[str(round_index)] = entry

        acceptance = measure_acceptance(protocol, params, adversary, args.trials, args.seed)
        outcomes = [
            end_to_end_knowledge(
                protocol, params, adversary, args.epsilon, args.seed, label=f"knowledge:{i}"
            )
            for i in range(args.knowledge_trials)
        ]
    successes = sum(1 for o in outcomes if o.success)
    rate = successes / args.knowledge_trials
    k_radius = hoeffding_radius(args.knowledge_trials)
    knowledge_floor = acceptance.value - args.epsilon - 3 * (acceptance.radius + k_radius)
    knowledge_ok = rate >= knowledge_floor

    results = {
        "hybrid_chain": chain,
        "chain_check": {
            "h0": chain["0"]["value"],
            "hk": chain[str(k)]["value"],
            "epsilon": float(args.epsilon),
            "slack": slack,
            "pass": chain_ok,
        },
        "events": events,
        "knowledge": {
            "trials": args.knowledge_trials,
            "successes": successes,
            "rate": rate,
            "radius": k_radius,
            "acceptance": acceptance.to_dict(),
            "floor": knowledge_floor,
            "pass": knowledge_ok,
        },
        "pass": chain_ok and events_ok and knowledge_ok,
    }
    emit("extract", args, argv, results, instance=args.instance, adversary=args.adversary)
    return 0 if results["pass"] else 1


def epsilon_arg(text: str) -> Fraction:
    """--epsilon as an exact decimal or fraction, also representable as a float."""
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid epsilon value: {text!r}") from None
    return value


def host_port_arg(text: str) -> tuple[str, int]:
    """--listen and --connect as (host, port), the port a decimal in [0, 65535]."""
    host, colon, port = text.rpartition(":")
    if not (colon and port.isascii() and port.isdigit() and int(port) <= 0xFFFF):
        raise argparse.ArgumentTypeError(f"invalid host:port value: {text!r}")
    return host, int(port)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; `main` runs `cmd_<command>`."""
    parser = argparse.ArgumentParser(
        prog="ibcslab",
        description="commit-and-open argument sessions and rewinding experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviated options: `config_block` drops output paths by their spelling.
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p):
        p.add_argument("--instance", help="instance file (graph or sumcheck text)")
        p.add_argument("--lambda", dest="security", type=int, default=DEFAULT_LAMBDA)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", help="also write the JSON report to this path")

    p = add_command("prove", help="run one session as the prover")
    common(p)
    p.add_argument("--witness", help="witness symbols, comma or space separated")
    p.add_argument("--transport", choices=("memory", "tcp"), default="memory")
    p.add_argument("--connect", type=host_port_arg, help="host:port of the listening verifier")
    p.add_argument("--out", help="write the transcript file here")

    p = add_command("verify", help="verify live over TCP or replay a transcript")
    common(p)
    p.add_argument("--listen", type=host_port_arg, help="host:port to accept one session on")
    p.add_argument("--transcript", help="verify a stored transcript file")
    p.add_argument("--out", help="write the observed transcript file here")
    p.add_argument("--ready-file", help=argparse.SUPPRESS)  # test hook: write the bound port here

    p = add_command("soundness", help="oracle vs scripted adversaries")
    common(p)
    p.add_argument("--epsilon", type=epsilon_arg, default=Fraction(1, 10))
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--adversary", default=DEFAULT_ADVERSARIES)
    p.add_argument("--force", action="store_true", help="measure even in-language instances")

    p = add_command("extract", help="hybrid chain, failure events, knowledge pipeline")
    common(p)
    p.add_argument("--epsilon", type=epsilon_arg, default=Fraction(1, 2))
    p.add_argument("--trials", type=int, default=2_000)
    p.add_argument("--knowledge-trials", type=int, default=200)
    p.add_argument("--adversary", default="honest")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("prove", "soundness", "extract") and not args.instance:
        parser.error(f"{args.command} requires --instance")
    if args.command == "verify" and not (args.listen or args.transcript):
        parser.error("verify requires --listen or --transcript")
    if args.command == "prove" and args.transport == "tcp" and not args.connect:
        parser.error("tcp transport requires --connect")
    if args.command == "prove" and args.connect and args.transport != "tcp":
        parser.error("--connect requires --transport tcp")
    if args.command == "verify" and args.transcript:
        ignored = {"--listen": args.listen, "--out": args.out, "--ready-file": args.ready_file}
        for flag, value in ignored.items():
            if value is not None:
                parser.error(f"--transcript takes no {flag}")
    # Looked up by name on every call, so a replaced `cmd_*` is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args, argv)
    except IbcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
