"""Benchmark entry point.

    python3 bench/run.py --workload lab --seed 1 --seconds 30 --trace 0

Run from the repository root. With `--trace 0` it sets up the workload
several times, runs a fixed untraced reference pass (warm-up and output
digest), then loops for `--seconds` and reports the end-to-end metrics.
Every timing is scaled by the time of the calibration pass in
`calibration.py` measured beside it, so that the host's speed swings
cancel out.
With `--trace 1` it runs the same reference pass untraced and then traced,
and reports the per-layer metrics and the tracing overhead; the traced
pass's outputs must equal the untraced ones.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Every run
also writes that object, stamped, under `.bench_work/results/`. The exit
code is 0 when every output passed its gates, 1 when some did not, and 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".bench_work")
# setup_s is the median of SETUP_SAMPLES samples, each the mean set-up time
# over repeats lasting SETUP_SAMPLE_SECONDS, so that set-ups of a millisecond
# and of a tenth of a second are both timed over the same span; each sample
# is scaled by the calibration passes run before and after it.
SETUP_SAMPLES = 5
SETUP_SAMPLE_SECONDS = 0.2

END_TO_END = {
    "setup_s": "s",
    "primary_ms_p50": "ms",
    "primary_ms_p90": "ms",
    "secondary_ms_p50": "ms",
    "secondary_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def loadavg_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_commit(root: Path) -> str:
    """HEAD's commit, read from the .git directory; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(samples: dict[str, list[float]], work: int, busy_s: float,
                       setup_s: float) -> dict[str, float]:
    """Scaled timing samples, and work done in `busy_s` scaled seconds."""
    out = {"setup_s": setup_s}
    for slot in ("primary", "secondary"):
        ms = [1e3 * s for s in samples[slot]]
        out[f"{slot}_ms_p50"] = statistics.median(ms)
        out[f"{slot}_ms_p90"] = percentile(ms, 0.9)
    out["throughput_per_s"] = work / busy_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, stamp)."""
    from bench import calibration, tracing, workloads

    load_before = loadavg_1m()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        calibration.pass_seconds()  # warm-up: first thread, socket pair and hashes
        calibrations = [calibration.pass_seconds()]
        setups: list[float] = []
        raw_setups: list[float] = []
        setup_repeats = 0
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            for n in itertools.count(1):
                workload.setup()
                elapsed = time.perf_counter() - start
                if elapsed >= SETUP_SAMPLE_SECONDS:
                    break
            calibrations.append(calibration.pass_seconds())
            raw_setups.append(elapsed / n)
            setups.append(raw_setups[-1] * calibration.scale(*calibrations[-2:]))
            setup_repeats += n

        reference = workloads.Gates()
        start = time.perf_counter()
        for j in range(workload.reference_iterations):
            workload.iteration(j, reference)
        reference_s = time.perf_counter() - start
        passes = [reference]
        samples: dict[str, list[float]] = {"primary": [], "secondary": [], "verify": []}
        raw: dict[str, list[float]] = {slot: [] for slot in samples}

        if args.trace:
            traced = workloads.Gates()
            tracer = tracing.Tracer()
            with tracer:
                start = time.perf_counter()
                for j in range(workload.reference_iterations):
                    tracer.request = j
                    workload.iteration(j, traced)
                traced_s = time.perf_counter() - start
            if traced.outputs_sha256 != reference.outputs_sha256:
                traced.record("traced pass", ["outputs differ from the untraced pass"])
            passes.append(traced)
            metrics = tracer.metrics(traced_s - reference_s)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
            tracer.write_spans(
                WORK_DIR / f"trace-{args.workload}.jsonl",
                {"workload": args.workload, "seed": args.seed},
            )
        else:
            timed = workloads.Gates()
            passes.append(timed)
            work = 0
            busy_s = 0.0  # scaled time spent in batches
            sums = {slot: [] for slot in samples}
            calibrations.append(calibration.pass_seconds())
            start = batch_start = time.perf_counter()
            for n in itertools.count(1):
                out = workload.iteration(workload.reference_iterations + n - 1, timed)
                work += out["work"]
                for slot, values in sums.items():
                    if slot in out:
                        values.append(out[slot])
                if n % workload.batch:
                    continue
                # One sample per batch: the mean time of its operations,
                # scaled by the calibration passes on either side of it.
                batch_s = time.perf_counter() - batch_start
                calibrations.append(calibration.pass_seconds())
                factor = calibration.scale(*calibrations[-2:])
                busy_s += batch_s * factor
                for slot, values in sums.items():
                    if values:
                        mean = statistics.fmean(values)
                        raw[slot].append(mean)
                        samples[slot].append(mean * factor)
                        values.clear()
                # At least as many iterations as the reference pass, so that
                # every slot has a sample even in a very short run.
                if (time.perf_counter() - start >= args.seconds
                        and n >= workload.reference_iterations):
                    break
                batch_start = time.perf_counter()
            if not samples["primary"] or not samples["secondary"]:
                problems = [p for gates in passes for p in gates.problems][:5]
                raise workloads.BenchConfigError(f"no operation completed: {problems}")
            metrics = end_to_end_metrics(samples, work, busy_s, statistics.median(setups))
            units = END_TO_END
    finally:
        workload.close()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": loadavg_1m(),
        "slots": workload.slots,
        "batch": workload.batch,
        "samples": {slot: len(values) for slot, values in samples.items()},
        "setup_repeats": setup_repeats,
        "calibration_nominal_ms": calibration.NOMINAL_S * 1e3,
        "calibration_ms_p50": statistics.median(calibrations) * 1e3,
        "calibration_ms_min": min(calibrations) * 1e3,
        "calibration_ms_max": max(calibrations) * 1e3,
        "raw_setup_s_p50": statistics.median(raw_setups),
        "raw_ms_p50": {slot: statistics.median(v) * 1e3 for slot, v in raw.items() if v},
        "outputs_sha256": reference.outputs_sha256,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": [p for gates in passes for p in gates.problems][:20],
    }
    if samples["verify"]:
        # Scaled, like the metrics.
        stamp["replay_verify_ms_p50"] = statistics.median(samples["verify"]) * 1e3
        stamp["replay_verify_ms_p90"] = percentile(samples["verify"], 0.9) * 1e3
    if args.trace:
        stamp["self_s"] = tracer.self_seconds()
    return result, stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lab", "sessions-small", "sessions-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    if not (ROOT / "src" / "ibcslab").is_dir():
        print(f"error: no ibcslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.chdir(ROOT)
    from bench.workloads import BenchConfigError

    # Run on one CPU. A session hands off between its prover and verifier
    # threads several times; on a shared 2-vCPU VM a wakeup on the other CPU
    # waits until the host runs that vCPU, which made sessions-small times
    # differ by a factor of 2.5 between runs. The highest-numbered CPU is
    # taken because CPU 0 tends to serve the VM's interrupts as well.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        result, stamp = run(args)
    except BenchConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.sched_setaffinity(0, cpus)
    stamp.update(nproc=len(cpus), cpu=max(cpus))

    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, seconds in stamp.get("self_s", {}).items():
        if name not in result["metrics"]:
            print(f"{name} = {seconds:.6g} s")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps({"stamp": stamp, "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
