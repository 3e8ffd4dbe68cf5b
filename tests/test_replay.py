"""Differential guard for the lab's memos: the lab with them on and off.

"Outcome memo off" builds every adversary's `outcomes` memo with zero
entries, so every rewind and every zero-oracle trial runs. Replaying an
outcome by its view must not change a byte of any report, nor any trial
record or stream position. "Work memos off" builds every prover's opening
memo, every sumcheck protocol's round-polynomial memo and every protocol's
plan cache with zero entries, so every opening, round polynomial and plan
check is done again; that must not change a byte of any report either.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import replace

import pytest

from ibcslab import cli, extraction, ibcs, iop, toys
from ibcslab.adversaries import ScriptedProver
from ibcslab.extraction import (
    ArgContext,
    end_to_end_knowledge,
    error_share,
    hybrid_value,
    rewind_budget_limit,
    run_events_experiment,
    run_hybrid_trial,
)
from ibcslab.ibcs import structured_view
from ibcslab.memo import BoundedMemo
from ibcslab.prng import Prng, derive, seed_root
from ibcslab.toys import complete_graph, dump_graph_text, dump_sumcheck_text, find_coloring

from helpers import make_sumcheck

SELECTORS = (
    "honest", "optimal", "abort", "equivocator", "withholder", "withholder:2",
    "grinder", "grinder:0", "grinder:3",
)
INSTANCES = {
    "k3": lambda: dump_graph_text(complete_graph(3), find_coloring(complete_graph(3))),
    "k4": lambda: dump_graph_text(complete_graph(4)),
    "sumcheck-true": lambda: dump_sumcheck_text(make_sumcheck()),
    "sumcheck-false": lambda: dump_sumcheck_text(make_sumcheck(false_claim=True)),
}


def _memo_off(monkeypatch):
    monkeypatch.setattr(ibcs, "OUTCOME_MEMO_ENTRIES", 0)


def _work_memos_off(monkeypatch):
    monkeypatch.setattr(ibcs, "OPENING_MEMO_ENTRIES", 0)
    monkeypatch.setattr(toys, "ROUND_POLY_MEMO_ENTRIES", 0)
    monkeypatch.setattr(iop, "PLAN_CACHE_ENTRIES", 0)


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    files = {}
    for name, text in INSTANCES.items():
        files[name] = root / f"{name}.txt"
        files[name].write_text(text())
    return files


def _report(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _argvs(command, path):
    """One soundness report of every selector that builds on the instance
    (each selector after the first reuses its oracle value), then one per
    selector; or one extract report per selector."""
    if command == "extract":
        return [
            ["extract", "--instance", str(path), "--adversary", selector, "--epsilon", "0.5",
             "--trials", "10", "--knowledge-trials", "2", "--seed", "5"]
            for selector in SELECTORS
        ]
    argv = ["soundness", "--instance", str(path), "--trials", "30", "--seed", "5", "--force"]
    builds = SELECTORS if "false" not in path.name and path.name != "k4.txt" else SELECTORS[1:]
    return [argv + ["--adversary", ",".join(builds)], argv + ["--adversary", "honest"]]


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("command", ["soundness", "extract"])
def test_reports_are_the_same_with_the_memo_off(instance_files, monkeypatch, command, instance):
    """Every selector's report, failed ones included, is byte-identical with
    the work memos off and with the outcome memo off; the memo-on run
    replays something and opens less, the outcome-memo-off run replays
    nothing, and the work-memos-off run opens every repeated plan again."""
    played, replayed, opened = [], [], []
    real_play, real_sampler, real_open = extraction._play_trial, extraction.sampler, ibcs.vc_open

    def play(*args):
        played.append(1)
        return real_play(*args)

    def sampler(*args):
        knowledge, stats = real_sampler(*args)
        replayed.append(stats.replayed)
        return knowledge, stats

    monkeypatch.setattr(extraction, "_play_trial", play)
    monkeypatch.setattr(extraction, "sampler", sampler)
    monkeypatch.setattr(ibcs, "vc_open", lambda *a: opened.append(1) or real_open(*a))
    runs = {}
    for mode, turn_off in (("on", None), ("work-off", _work_memos_off), ("off", _memo_off)):
        with monkeypatch.context() as patch:
            if turn_off is not None:
                turn_off(patch)
            played.clear(), replayed.clear(), opened.clear()
            reports = [_report(argv) for argv in _argvs(command, instance_files[instance])]
        runs[mode] = reports, len(played), sum(replayed), len(opened)
    assert runs["on"][0] == runs["work-off"][0] == runs["off"][0]
    assert any(code == 0 for code, _, _ in runs["on"][0])
    assert runs["off"][2] == 0
    assert runs["on"][1] < runs["off"][1] or runs["on"][2] > 0
    assert runs["work-off"][1:3] == runs["on"][1:3]
    assert runs["on"][3] < runs["work-off"][3]


def _parity_prover(protocol, params):
    """Plays the honest sumcheck strings, except that a round-2 string whose
    raw r_1 has an odd last bit is off by one in its first coefficient."""
    p = protocol.instance.prime

    def strategy(i, challenges, _strings):
        symbols = list(protocol.round_polynomial(tuple(c % p for c in challenges)))
        if challenges and challenges[-1] & 1:
            symbols[0] = (symbols[0] + 1) % p
        return symbols

    return ScriptedProver(protocol, params, strategy)


def _lab_results(protocol, params, adversary):
    chain = [hybrid_value(protocol, params, adversary, r, 20, 3, 0.5).to_dict() for r in range(3)]
    events = [
        run_events_experiment(protocol, params, adversary, i, 20, 3, 0.5).to_dict() for i in (1, 2)
    ]
    knowledge = end_to_end_knowledge(protocol, params, adversary, 0.5, 3)
    return chain, events, knowledge


def test_a_strategy_reading_raw_bits_is_never_replayed(sumcheck_true_setup, monkeypatch):
    """A general strategy gets raw challenges, so it declares the raw vector: the
    lab's fresh coins never repeat one, so no rewind is replayed, every
    zero-oracle trial is played, and its results equal the memo-off run."""
    protocol, params = sumcheck_true_setup
    adversary = _parity_prover(protocol, params)
    vector = (1,) * protocol.spec.rounds
    assert adversary.view(vector) == vector
    calls = {"samplers": 0, "trials": 0, "played": 0}
    real_sampler, real_trial, real_play = (
        extraction.sampler, extraction.run_hybrid_trial, extraction._play_trial
    )

    def sampler(*args):
        knowledge, stats = real_sampler(*args)
        calls["samplers"] += 1
        assert stats.replayed == 0
        return knowledge, stats

    def trial(protocol, params, adversary, oracle_rounds, *rest):
        calls["trials"] += oracle_rounds == 0
        return real_trial(protocol, params, adversary, oracle_rounds, *rest)

    def play(protocol, params, adversary, oracle_rounds, *rest):
        calls["played"] += oracle_rounds == 0
        return real_play(protocol, params, adversary, oracle_rounds, *rest)

    with monkeypatch.context() as patched:
        patched.setattr(extraction, "sampler", sampler)
        patched.setattr(extraction, "run_hybrid_trial", trial)
        patched.setattr(extraction, "_play_trial", play)
        on = _lab_results(protocol, params, adversary)
    assert calls["samplers"] > 0 and calls["played"] == calls["trials"] > 0
    _memo_off(monkeypatch)
    assert _lab_results(protocol, params, _parity_prover(protocol, params)) == on


def test_a_zero_oracle_replay_is_the_trial_it_replaces(k3_setup, sumcheck_true_setup, monkeypatch):
    """A replayed zero-oracle trial carries its own challenges, its plan's
    randomness is its own vector, and the stream stands where the played
    trial leaves it, also when the adversary raises before the last
    challenge."""
    k3_protocol, k3_params, witness = k3_setup
    sc_protocol, sc_params = sumcheck_true_setup
    strings = (sc_protocol.round_polynomial(()), (0,))  # round 2 has the wrong length

    def cases():
        honest = cli.make_adversary("honest", k3_protocol, k3_params, witness)
        voiding = ScriptedProver(
            sc_protocol, sc_params, lambda i, _c, _s: strings[i - 1],
            view=structured_view(sc_protocol),
        )
        return (k3_protocol, k3_params, honest), (sc_protocol, sc_params, voiding)

    def trials(cases):
        out = []
        for protocol, params, adversary in cases:
            for trial in (0, 0, 1, 0):
                prng = Prng(derive(seed_root(9), "replay", trial))
                share = error_share(1.0, protocol.spec.rounds)
                record = run_hybrid_trial(protocol, params, adversary, 0, share, prng)
                out.append((record, prng.take_bits(256)))
        return out

    adversaries = cases()
    on = trials(adversaries)
    assert all(record.voided and len(record.challenges) == 1 for record, _ in on[4:])
    assert [len(adversary.outcomes.entries) for _, _, adversary in adversaries] == [2, 2]
    _memo_off(monkeypatch)
    off = trials(cases())
    assert on == off
    for (record, _), (fresh, _) in zip(on, off):
        if record.plan is not None:
            assert record.plan.randomness == record.challenges == fresh.plan.randomness


REPLAY_CASES = [("k4", name) for name in cli.DEFAULT_ADVERSARIES.split(",")] + [
    ("sumcheck", "grinder:1"), ("sumcheck", "withholder"),
]


@pytest.mark.parametrize("instance, selector", REPLAY_CASES)
def test_replayed_trials_are_the_trials_they_replace_for_every_adversary(
    k4_setup, sumcheck_true_setup, monkeypatch, instance, selector
):
    """50 zero-oracle trials give the same records with the outcome memo on
    and off, for every default soundness adversary on K4 and for a grinder
    and a withholder on the n=2 sumcheck; each plan's randomness is its
    trial's own challenges. K4's six structured vectors make most of its
    trials replays."""
    protocol, params = (k4_setup if instance == "k4" else sumcheck_true_setup)[:2]
    share = error_share(1.0, protocol.spec.rounds)
    played = []
    real_play = extraction._play_trial
    monkeypatch.setattr(extraction, "_play_trial", lambda *a: played.append(1) or real_play(*a))

    def records():
        adversary = cli.make_adversary(selector, protocol, params, None)
        trial_key = derive(seed_root(4), "replays", selector)
        played.clear()
        out = [
            run_hybrid_trial(protocol, params, adversary, 0, share, Prng(derive(trial_key, trial)))
            for trial in range(50)
        ]
        return out, len(played)

    on, played_on = records()
    for record in on:
        if record.plan is not None:
            assert record.plan.randomness == record.challenges
    _memo_off(monkeypatch)
    off, played_off = records()
    assert on == off
    assert played_off == 50
    if instance == "k4":
        assert played_on < 25


def test_an_oracle_routed_trial_is_the_same_with_the_memo_off(sumcheck_true_setup, monkeypatch):
    """Trials with both rounds of the n=2 sumcheck extracted give equal
    records with the outcome memo on and off. Each round's oracle keeps its
    knowledge set and sampler counts: the stop time, rewinds run plus
    skipped, lies in [0, T], and the counts differ only in `replayed`,
    which some rounds have with the memo on and none has with it off."""
    protocol, params = sumcheck_true_setup
    share = error_share(0.5, protocol.spec.rounds)
    limit = rewind_budget_limit(protocol.spec.max_proof_length, share)

    def records():
        adversary = cli.make_adversary("grinder:1", protocol, params, None)
        keys = (derive(seed_root(11), "oracle-routed", trial) for trial in range(8))
        return [run_hybrid_trial(protocol, params, adversary, 2, share, Prng(k)) for k in keys]

    on = records()
    _memo_off(monkeypatch)
    off = records()
    assert on == off
    rounds_on = [oracle for record in on for oracle in record.oracles]
    rounds_off = [oracle for record in off for oracle in record.oracles]
    assert len(rounds_on) == len(rounds_off) == 2 * len(on)
    for oracle, fresh in zip(rounds_on, rounds_off):
        stats = oracle.stats
        assert 0 <= stats.rewinds + stats.skipped <= limit
        assert oracle.knowledge == fresh.knowledge
        assert replace(stats, replayed=0) == fresh.stats
    assert sum(oracle.stats.replayed for oracle in rounds_on) > 0
    assert all(fresh.stats.replayed == 0 for fresh in rounds_off)


def _kept_tree_bytes(memo: BoundedMemo) -> int:
    """Bytes of commitment trees held by the rewind states in `memo`'s keys."""
    total = 0
    for key, _, _ in memo.entries.values():
        point = key[0]
        if isinstance(point, tuple) and isinstance(point[1], ArgContext):
            auxes = point[0].auxes
            total += sum(len(digest) for aux in auxes for layer in aux.layers for digest in layer)
    return total


@pytest.mark.parametrize("max_bytes", [200, 4000])
def test_the_outcome_memo_stays_bounded_when_its_keys_hold_states(
    sumcheck_true_setup, monkeypatch, max_bytes
):
    """A value state is its own rewind point, so the outcome memo's keys keep
    states alive; each entry weighs its state, so the byte bound covers the
    commitment trees those states hold. A sumcheck rewind state holds one
    tree of 224 bytes per round committed: 200 bytes is less than any
    state's trees, 4000 room for a few states."""
    protocol, params = sumcheck_true_setup
    monkeypatch.setattr(ibcs, "OUTCOME_MEMO_BYTES", max_bytes)
    adversary = cli.make_adversary("honest", protocol, params, ())
    memo = adversary.outcomes
    real_put = memo.put
    high = 0

    def put(*args):
        nonlocal high
        real_put(*args)
        assert memo.bytes <= memo.max_bytes
        high = max(high, _kept_tree_bytes(memo))

    monkeypatch.setattr(memo, "put", put)
    run_events_experiment(protocol, params, adversary, 2, 20, 3, 0.5)
    assert memo.bytes <= memo.max_bytes
    assert high <= memo.max_bytes
    # The larger bound keeps rewind outcomes, the smaller keeps none.
    assert (high > 0) == (max_bytes == 4000)
