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

import pytest

from ibcslab import cli, extraction, ibcs, iop, toys
from ibcslab.adversaries import ScriptedProver
from ibcslab.extraction import (
    ArgContext,
    end_to_end_knowledge,
    error_share,
    hybrid_value,
    run_events_experiment,
    run_hybrid_trial,
)
from ibcslab.ibcs import structured_view
from ibcslab.memo import BoundedMemo
from ibcslab.prng import Prng, derive, map_to_range, seed_root
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
        symbols = list(protocol.round_polynomial(tuple(map_to_range(c, p) for c in challenges)))
        if challenges and challenges[-1].value & 1:
            symbols[0] = (symbols[0] + 1) % p
        return symbols

    return ScriptedProver(protocol, params, strategy)


def _lab_results(protocol, params, adversary):
    chain = [hybrid_value(protocol, params, adversary, r, 20, 3, 0.5).to_dict() for r in range(3)]
    events = [
        run_events_experiment(protocol, params, adversary, i, 20, 3, 0.5).to_dict() for i in (1, 2)
    ]
    knowledge = end_to_end_knowledge(protocol, params, adversary, 0.5, 3).to_dict()
    return chain, events, knowledge


def test_a_strategy_reading_raw_bits_is_never_replayed(sumcheck_true_setup, monkeypatch):
    """A general strategy gets raw bits, so it declares no view: the lab
    never keeps its outcomes and its results equal the memo-off run."""
    protocol, params = sumcheck_true_setup
    adversary = _parity_prover(protocol, params)
    assert adversary.view is None
    on = _lab_results(protocol, params, adversary)
    assert not adversary.outcomes.entries
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
