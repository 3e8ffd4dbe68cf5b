"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here, not configured elsewhere: exact equality where the criterion is
exact, and Monte-Carlo slack of three Hoeffding radii (delta = 1e-6) where
it is statistical.
"""

from __future__ import annotations

import json
import random
import threading
import time
from fractions import Fraction

import pytest

from ibcslab import transport
from ibcslab.adversaries import (
    Equivocator,
    Withholder,
    always_abort,
    grinder_on_leading_bits,
    honest_wrapper,
    optimal_gc_cheater,
    optimal_sumcheck_cheater,
)
from ibcslab.cli import main as cli_main
from ibcslab.errors import ProtocolViolation
from ibcslab.extraction import (
    end_to_end_knowledge,
    hoeffding_radius,
    hybrid_value,
    measure_acceptance,
    run_events_experiment,
    theorem_bounds,
)
from ibcslab.ibcs import ArgumentProver, arg_setup, comm_stats
from ibcslab.iop import IopSpec, brute_force_soundness
from ibcslab.prng import Prng, derive, seed_root
from ibcslab.toys import (
    SumcheckCheatPlan,
    complete_graph,
    find_coloring,
    gc_pcp,
    petersen_graph,
    sumcheck_iop,
)
from ibcslab.vc import vc_check, vc_commit, vc_gen, vc_open

from helpers import make_sumcheck, run_memory_session


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _setup(instance_factory, witness=None, protocol_factory=gc_pcp):
    instance = instance_factory() if callable(instance_factory) else instance_factory
    protocol = protocol_factory(instance)
    params = arg_setup(128, 64, protocol.spec)
    return protocol, params, witness


@pytest.fixture(scope="module")
def session_sweep():
    """2000 honest sessions shared by criteria 1 through 3."""
    suites = []
    k3 = complete_graph(3)
    suites.append(("gc-k3", gc_pcp(k3), find_coloring(k3), 500))
    pet = petersen_graph()
    suites.append(("gc-petersen", gc_pcp(pet), find_coloring(pet), 500))
    sc2 = make_sumcheck(p=17, n=2, d=2)
    suites.append(("sumcheck-n2", sumcheck_iop(sc2), (), 500))
    sc3 = make_sumcheck(p=17, n=3, d=2)
    suites.append(("sumcheck-n3", sumcheck_iop(sc3), (), 500))

    runs = []
    start = time.time()
    for name, protocol, witness, count in suites:
        params = arg_setup(128, 64, protocol.spec)
        prover = ArgumentProver(protocol, params, witness)
        for seed in range(count):
            p_res, v_res = run_memory_session(protocol, params, prover, seed=seed)
            runs.append((name, protocol, params, p_res, v_res))
    return runs, time.time() - start


def test_criterion_01_perfect_completeness(session_sweep):
    runs, elapsed = session_sweep
    failures = sum(1 for _, _, _, p, v in runs if not (p.decision == v.decision == 1))
    report(
        1,
        failures == 0 and elapsed < 30,
        f"{len(runs) - failures}/{len(runs)} honest sessions accepted "
        f"in {elapsed:.1f}s (target < 30s, zero failures)",
    )


def test_criterion_02_protocol_shape(session_sweep):
    runs, _ = session_sweep
    bad_shape = 0
    for _, protocol, params, p_res, v_res in runs:
        k = protocol.spec.rounds
        if v_res.transcript.message_count != 2 * k + 1:
            bad_shape += 1
        elif v_res.counters.recv_frames != k + 1 or v_res.counters.sent_frames != k + 1:
            bad_shape += 1
        elif p_res.frame_bytes != v_res.frame_bytes:
            bad_shape += 1

    # reordered frames must abort before any decision
    protocol, params, p_res, v_res = runs[0][1], runs[0][2], runs[0][3], runs[0][4]
    commit = transport.encode_frame(
        transport.TAG_COMMIT, transport.encode_commitment(v_res.transcript.commitments[0])
    )
    final = transport.encode_frame(
        transport.TAG_FINAL, transport.encode_final_response(params, v_res.transcript.response)
    )
    attacker, victim = transport.memory_channel_pair()
    attacker.send_bytes(final)
    attacker.send_bytes(commit)
    reorder_aborts = False
    try:
        transport.run_session(
            "verifier", victim, params, protocol, prng=Prng(derive(seed_root(0), "session", 0))
        )
    except ProtocolViolation:
        reorder_aborts = True
    report(
        2,
        bad_shape == 0 and reorder_aborts,
        f"all {len(runs)} sessions linearize to 2k+1 frames in order; "
        f"reordered frames abort (zero tolerance)",
    )


def test_criterion_03_communication_accounting(session_sweep):
    runs, _ = session_sweep
    mismatches = 0
    for _, protocol, params, p_res, v_res in runs:
        stats = comm_stats(params, v_res.transcript)
        ok = (
            stats.prover_to_verifier_bits
            == v_res.counters.recv_protocol_bits
            == p_res.counters.sent_protocol_bits
            and stats.verifier_to_prover_bits
            == v_res.counters.sent_protocol_bits
            == p_res.counters.recv_protocol_bits
            and stats.verifier_to_prover_bits == sum(protocol.spec.randomness_bits)
        )
        if not ok:
            mismatches += 1
    report(
        3,
        mismatches == 0,
        f"formula bits equal measured wire bits on all {len(runs)} runs (exact)",
    )


def test_criterion_04_vc_completeness_and_binding():
    start = time.time()
    rng = random.Random(0xC4)
    # completeness over 10^4 random (message, query set) pairs
    completeness_failures = 0
    for _ in range(10_000):
        capacity = rng.randint(1, 32)
        symbol_bits = rng.choice((1, 2, 5, 8))
        params = vc_gen(128, capacity, symbol_bits=symbol_bits)
        length = rng.randint(1, capacity)
        message = [rng.randrange(1 << symbol_bits) for _ in range(length)]
        cm, aux = vc_commit(params, message)
        q = rng.randint(1, capacity)
        queries = sorted(rng.sample(range(1, capacity + 1), q))
        opening = vc_open(params, aux, queries)
        if vc_check(params, cm, opening.positions, opening.answers, opening.proof) != 1:
            completeness_failures += 1

    # 10^5 equivocation attempts: conflicting answers must never verify
    params = vc_gen(128, 8, symbol_bits=3)
    conflicts = 0
    for _ in range(100_000):
        length = rng.randint(1, 8)
        message = [rng.randrange(8) for _ in range(length)]
        cm, aux = vc_commit(params, message)
        queries = sorted(rng.sample(range(1, length + 1), rng.randint(1, length)))
        opening = vc_open(params, aux, queries)
        mode = rng.randrange(3)
        answers = list(opening.answers)
        idx = rng.randrange(len(answers))
        answers[idx] = (answers[idx] + rng.randint(1, 7)) % 8
        if mode == 0:
            proof = opening.proof
        elif mode == 1:
            altered = list(message)
            altered[queries[idx] - 1] = answers[idx]
            _, aux2 = vc_commit(params, altered)
            proof = vc_open(params, aux2, queries).proof
        else:
            proof = tuple(
                bytes(rng.randrange(256) for _ in range(32)) for _ in opening.proof
            )
        if vc_check(params, cm, opening.positions, tuple(answers), proof) == 1:
            conflicts += 1
    elapsed = time.time() - start
    report(
        4,
        completeness_failures == 0 and conflicts == 0 and elapsed < 60,
        f"10^4 completeness pairs ok, 10^5 equivocation attempts yielded "
        f"{conflicts} valid conflicts in {elapsed:.1f}s (target < 60s)",
    )


def test_criterion_05_brute_force_oracles():
    k4_value = brute_force_soundness(gc_pcp(complete_graph(4)))
    sc_false = make_sumcheck(p=5, n=1, d=1, coeffs=(0, 1), false_claim=True)
    sc_value = brute_force_soundness(sumcheck_iop(sc_false))
    report(
        5,
        k4_value == Fraction(5, 6) and sc_value == Fraction(1, 5),
        f"K4 oracle = {k4_value} (expected 5/6), "
        f"sumcheck n=1 d=1 p=5 false-claim oracle = {sc_value} (expected 1/5), exact",
    )


def test_criterion_06_argument_soundness():
    start = time.time()
    trials = 10_000
    epsilon = 0.05
    slack = 3 * hoeffding_radius(trials)
    lines = []
    ok = True

    k4 = complete_graph(4)
    protocol, params, _ = _setup(k4)
    eps_iop = brute_force_soundness(protocol)
    base = optimal_gc_cheater(protocol, params)
    adversaries = {
        "optimal": base,
        "withholder": Withholder(protocol, base, lambda r, q: q == 1),
        "grinder": grinder_on_leading_bits(protocol, base, 1),
        "equivocator": Equivocator(
            protocol, params,
            [(0, 0, 1, 2)], [(1, 0, 1, 2)],
        ),
        "abort": always_abort(protocol, base),
    }
    bound = float(eps_iop) + epsilon + slack
    for name, adversary in adversaries.items():
        est = measure_acceptance(protocol, params, adversary, trials, seed=600)
        ok = ok and est.value <= bound
        lines.append(f"gc/{name}={est.value:.4f}")

    sc_false = make_sumcheck(false_claim=True)
    protocol, params, _ = _setup(sc_false, protocol_factory=sumcheck_iop)
    eps_iop_sc = SumcheckCheatPlan(sc_false).value
    cheat = optimal_sumcheck_cheater(protocol, params)
    sc_adversaries = {
        "optimal": cheat,
        "grinder": grinder_on_leading_bits(protocol, cheat, 1),
        "abort": always_abort(protocol, cheat),
    }
    sc_bound = float(eps_iop_sc) + epsilon + slack
    for name, adversary in sc_adversaries.items():
        est = measure_acceptance(protocol, params, adversary, trials, seed=601)
        ok = ok and est.value <= sc_bound
        lines.append(f"sc/{name}={est.value:.4f}")
    elapsed = time.time() - start
    report(
        6,
        ok and elapsed < 300,
        f"acceptance <= eps_IOP + eps + 3r (gc bound {bound:.4f}, "
        f"sc bound {sc_bound:.4f}): {', '.join(lines)}; {elapsed:.0f}s (target < 300s)",
    )


def test_criterion_07_missing_position_bound():
    start = time.time()
    trials = 10_000
    slack = 3 * hoeffding_radius(trials)
    ok = True
    lines = []
    total_trials = 0
    total_breaks = 0

    k4 = complete_graph(4)
    gc_protocol, gc_params, _ = _setup(k4)
    gc_base = optimal_gc_cheater(gc_protocol, gc_params)
    gc_withholder = Withholder(gc_protocol, gc_base, lambda r, q: q == 1)

    sc_false = make_sumcheck(false_claim=True)
    sc_protocol, sc_params, _ = _setup(sc_false, protocol_factory=sumcheck_iop)
    sc_base = optimal_sumcheck_cheater(sc_protocol, sc_params)
    sc_withholder = Withholder(sc_protocol, sc_base, lambda r, q: q == 1)

    # the withholder configurations of the criterion, at both error budgets
    configs = []
    for epsilon in (0.5, 0.25):
        configs.append(("gc/withhold", gc_protocol, gc_params, gc_withholder, (1,), epsilon))
        configs.append(("sc/withhold", sc_protocol, sc_params, sc_withholder, (1, 2), epsilon))
    # the rest of the scripted suite: the bound must hold for every adversary,
    # and any answer conflict with both openings verifying would be a
    # position-binding break, asserted to never occur across all trials
    configs.append(("gc/optimal", gc_protocol, gc_params, gc_base, (1,), 0.5))
    configs.append(
        ("gc/grind", gc_protocol, gc_params,
         grinder_on_leading_bits(gc_protocol, gc_base, 1), (1,), 0.5)
    )
    configs.append(
        ("gc/equiv", gc_protocol, gc_params,
         Equivocator(gc_protocol, gc_params, [(0, 0, 1, 2)], [(1, 0, 1, 2)]), (1,), 0.5)
    )
    configs.append(
        ("sc/grind", sc_protocol, sc_params,
         grinder_on_leading_bits(sc_protocol, sc_base, 1), (1, 2), 0.5)
    )
    for name, protocol, params, adversary, rounds, epsilon in configs:
        for round_index in rounds:
            counters = run_events_experiment(
                protocol, params, adversary, round_index, trials, seed=700,
                epsilon=epsilon,
            )
            total_trials += counters.trials
            total_breaks += len(counters.binding_pairs)
            rate = counters.missing / counters.trials
            bound = float(counters.missing_bound)
            ok = ok and rate <= bound + slack and not counters.binding_pairs
            lines.append(
                f"{name}/l={round_index}/eps={epsilon}: {rate:.4f}<= {bound:.4f}+3r"
            )
    elapsed = time.time() - start
    report(
        7,
        ok and elapsed < 600 and total_trials >= 100_000 and total_breaks == 0,
        f"Pr[missing] <= l/T + 3r for every config ({'; '.join(lines)}); "
        f"{total_breaks} binding breaks in {total_trials} trials; "
        f"{elapsed:.0f}s (target < 600s)",
    )


def test_criterion_08_hybrid_value_chain():
    start = time.time()
    trials = 5_000
    epsilon = 0.5
    ok = True
    lines = []

    k3 = complete_graph(3)
    gc_protocol, gc_params, gc_witness = _setup(k3, witness=find_coloring(k3))
    gc_honest = honest_wrapper(gc_protocol, gc_params, gc_witness)
    sc_true = make_sumcheck()
    sc_protocol, sc_params, _ = _setup(sc_true, protocol_factory=sumcheck_iop)
    sc_honest = honest_wrapper(sc_protocol, sc_params, ())

    suites = [
        ("gc", gc_protocol, gc_params, {
            "honest": gc_honest,
            "grinder": grinder_on_leading_bits(gc_protocol, gc_honest, 1),
            "withholder": Withholder(gc_protocol, gc_honest, lambda r, q: q == 1),
        }),
        ("sc", sc_protocol, sc_params, {
            "honest": sc_honest,
            "grinder": grinder_on_leading_bits(sc_protocol, sc_honest, 1),
            "withholder": Withholder(sc_protocol, sc_honest, lambda r, q: q == 1),
        }),
    ]
    for name, protocol, params, adversaries in suites:
        k = protocol.spec.rounds
        for adv_name, adversary in adversaries.items():
            estimates = [
                hybrid_value(protocol, params, adversary, ell, trials, seed=800,
                             epsilon=epsilon)
                for ell in range(k + 1)
            ]
            h0, hk = estimates[0], estimates[-1]
            margin = epsilon + 3 * (h0.radius + hk.radius)
            good = h0.value <= hk.value + margin
            ok = ok and good
            lines.append(
                f"{name}/{adv_name}: H0={h0.value:.3f} <= Hk={hk.value:.3f}+{margin:.3f}"
            )
    elapsed = time.time() - start
    report(
        8,
        ok and elapsed < 600,
        f"value chain holds for every adversary ({'; '.join(lines)}); "
        f"{elapsed:.0f}s (target < 600s)",
    )


def test_criterion_09_knowledge_extraction():
    start = time.time()
    epsilon = 0.1
    failures = 0
    total = 0
    for instance in (complete_graph(3), petersen_graph()):
        protocol, params, witness = _setup(instance, witness=find_coloring(instance))
        honest = honest_wrapper(protocol, params, witness)
        for seed in range(500):
            total += 1
            outcome = end_to_end_knowledge(protocol, params, honest, epsilon, seed)
            if not outcome.success:
                failures += 1

    k3 = complete_graph(3)
    protocol, params, witness = _setup(k3, witness=find_coloring(k3))
    grinder = grinder_on_leading_bits(
        protocol, honest_wrapper(protocol, params, witness), 1
    )
    grinder_trials = 1_000
    successes = sum(
        end_to_end_knowledge(protocol, params, grinder, epsilon, seed).success
        for seed in range(grinder_trials)
    )
    p_star = 0.5
    floor = p_star - epsilon - 3 * hoeffding_radius(grinder_trials)
    grinder_rate = successes / grinder_trials
    elapsed = time.time() - start
    report(
        9,
        failures == 0 and grinder_rate >= floor,
        f"honest extraction {total - failures}/{total} (100% required); "
        f"grinder(1/2) extraction {grinder_rate:.3f} >= {floor:.3f}; {elapsed:.0f}s",
    )


def test_criterion_10_bound_calculator():
    spec = IopSpec(
        rounds=2, alphabet_size=4, symbol_bits=2, proof_lengths=(8, 8),
        randomness_bits=(72, 72), query_counts=(2, 2), relation_id="x",
    )
    pinned = theorem_bounds(
        spec, Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10), Fraction(5, 6)
    )
    expected = Fraction(5, 6) + 2 * (Fraction(1, 100) + 8 * Fraction(1, 1000)) + Fraction(1, 10)
    exact_ok = pinned.soundness_bound == expected
    limit = theorem_bounds(spec, 0, 0, Fraction(1, 10), Fraction(5, 6))
    limit_ok = limit.soundness_bound == Fraction(5, 6) + Fraction(1, 10)

    monotone_ok = True
    grid = [0.0, 0.01, 0.05, 0.2, 0.9]
    base = [0.01, 0.001, 0.1, 0.5]
    for position in range(4):
        previous = None
        for value in grid:
            args = list(base)
            args[position] = value
            bound = theorem_bounds(spec, *args).soundness_bound
            if previous is not None and bound < previous:
                monotone_ok = False
            previous = bound
    report(
        10,
        exact_ok and limit_ok and monotone_ok,
        f"pinned formula = {pinned.soundness_bound} (hand value {expected}); "
        f"zero-VC limit and monotone sweep hold",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    # (a) JSON report replay
    from ibcslab.toys import dump_graph_text

    k4_file = tmp_path / "k4.txt"
    k4_file.write_text(dump_graph_text(complete_graph(4)))
    argv = ["soundness", "--instance", str(k4_file), "--trials", "500", "--seed", "1"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    rep1 = json.loads(out1)
    code2 = cli_main(rep1["config"]["argv"])
    out2 = capsys.readouterr().out
    replay_ok = code1 == code2 == 0 and out1 == out2

    # (b) TCP and memory transports produce byte-identical transcripts
    k3 = complete_graph(3)
    protocol, params, witness = _setup(k3, witness=find_coloring(k3))
    prover = ArgumentProver(protocol, params, witness)
    _, mem_res = run_memory_session(protocol, params, prover, seed=55)

    listener = transport.tcp_listen("127.0.0.1", 0)
    port = listener.getsockname()[1]
    box = {}

    def accept_and_verify():
        channel = transport.tcp_accept(listener)
        box["v"] = transport.run_session(
            "verifier", channel, params, protocol,
            prng=Prng(derive(seed_root(55), "session", 0)),
        )
        channel.close()

    thread = threading.Thread(target=accept_and_verify)
    thread.start()
    client = transport.tcp_connect("127.0.0.1", port)
    transport.run_session("prover", client, params, protocol, prover=prover)
    thread.join()
    client.close()
    listener.close()
    tcp_ok = (
        box["v"].decision == 1
        and box["v"].frame_bytes == mem_res.frame_bytes
        and transport.serialize_transcript(params, box["v"].transcript)
        == transport.serialize_transcript(params, mem_res.transcript)
    )
    report(
        11,
        replay_ok and tcp_ok,
        "reports replay bit-identically; TCP and memory transcripts byte-identical",
    )
