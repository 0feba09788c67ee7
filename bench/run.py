"""gradcast benchmark: one seeded workload, one closed-loop client, one thread.

Usage:
    python3 bench/run.py --workload casts|compiler|rationals --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json:
ops run back to back for S seconds (and at least 1000 ops), every
outcome is checked against the workload's own oracle, and set-up is timed in
fresh interpreters.  With ``--trace 1`` the same untraced pass runs first;
then a fixed number of ops from the start of the same stream runs again,
each chunk once untraced and once with spans at every layer boundary.  The
per-layer metrics come from those spans, and ``trace.overhead_ratio`` from
the paired chunks.  All times are calibrated against a reference task run
next to each chunk (see calibrate.py).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (ops whose outcome disagrees with the oracle) and ``metrics``.  A
result file with the full record, stamped with the git sha, the Python
version, the CPU count, the platform, the seed and the sample count behind
every percentile, goes to ``bench/out/``; the traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

from calibrate import REFERENCE_NS, reference_ns
from spans import Tracer, layer_metrics, patched, traced_api
from workloads import FAULT, WORKLOADS, gradcast_api, has_cast_failure

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHECK_OPS = 1000  # every run times at least this many ops; the self-check counts them
# Memory for latencies is bounded, so peak RSS does not grow with throughput:
# p50 comes from a uniform reservoir, p99 from the exact largest latencies.
RESERVOIR = 100_000
TOP_K = 50_000  # enough for p99 over up to 5 million ops
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def load_gradcast():
    """Import gradcast from this checkout's ``src``, or exit 1 without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import gradcast
        import gradcast.cli  # noqa: F401
    except ImportError as err:
        sys.exit(f"bench: cannot import gradcast from {ROOT / 'src'}: {err}")
    origin = Path(gradcast.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.exit(f"bench: gradcast was imported from {origin}, not from {ROOT / 'src'}")
    return gradcast


def run_chunk(calls, cast_fault, tracer, first_op):
    """Run ops back to back; return outcomes, per-op latencies and the
    chunk's wall time in ns."""
    clock = time.perf_counter_ns
    outcomes = []
    latencies = []
    started = clock()
    for i, (fn, args) in enumerate(calls):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = clock()
        try:
            outcome = fn(*args)
        except cast_fault:
            outcome = FAULT
        except Exception as exc:  # counted as a wrong op, never raised
            outcome = ("unexpected", type(exc).__name__, str(exc)[:200])
        latencies.append(clock() - t0)
        outcomes.append(outcome)
    return outcomes, latencies, clock() - started


def leg(fixture, tracer=None, patches=()):
    """One way of running the stream: a fixture, and for the traced leg its
    tracer and the module rebindings it needs."""
    return SimpleNamespace(fixture=fixture, tracer=tracer, patches=patches)


def drive(workload, legs, seed, inputs, cast_fault, *, seconds=None, ops_limit=None):
    """Run ops from the workload's stream until the first leg has timed
    ``seconds`` (and at least CHECK_OPS ops), or until ``ops_limit`` ops.

    Each chunk runs once per leg, in order, bracketed by runs of the
    reference task; its times are rescaled by ``REFERENCE_NS / reference``
    (see calibrate.py).  Every outcome is checked against the oracle.
    Rates are kept per leg; latencies and cast failures come from the first
    leg, and a traced run also keeps each op's work size, failure and time
    scale."""
    blocks = workload.blocks(seed, inputs)
    pick = random.Random(f"reservoir-{seed}")
    samples = array("d", [0.0]) * RESERVOIR
    largest = []
    run = SimpleNamespace(ops=0, attempted=0, wrong=0, examples=[], failures=0,
                          prefix_failures=0, rates=[[] for _ in legs], raw_rates=[],
                          references=[], seen=0, op_weight=[], op_failed=[], op_scale=[])
    traced = any(way.tracer is not None for way in legs)
    budget_ns = seconds * 1e9 if seconds is not None else 0
    timed_ns = 0
    while run.ops < ops_limit if ops_limit is not None else (
            timed_ns < budget_ns or run.ops < CHECK_OPS):
        descs = [d for _ in range(workload.chunk_blocks) for d in next(blocks)]
        for index, way in enumerate(legs):
            calls = [way.fixture.bind(d) for d in descs]
            before = reference_ns()
            with patched(way.patches):
                outcomes, latencies, elapsed = run_chunk(calls, cast_fault, way.tracer, run.ops)
            reference = (before + reference_ns()) / 2
            scale = REFERENCE_NS / reference
            run.rates[index].append(len(calls) / (elapsed * scale / 1e9))
            run.attempted += len(calls)
            for desc, outcome in zip(descs, outcomes):
                if outcome != desc[4]:
                    run.wrong += 1
                    if len(run.examples) < 5:
                        run.examples.append({"op": repr(desc[:4])[:300],
                                             "expected": repr(desc[4])[:200],
                                             "got": repr(outcome)[:200]})
            if index == 0:
                timed_ns += elapsed
                run.raw_rates.append(len(calls) / (elapsed / 1e9))
                run.references.append(reference)
                first = outcomes, latencies, scale
            if traced:
                chunk_scale = scale
        outcomes, latencies, scale = first
        for i, (desc, outcome, latency) in enumerate(zip(descs, outcomes, latencies)):
            failed = has_cast_failure(outcome)
            run.failures += failed
            if run.ops + i < CHECK_OPS:
                run.prefix_failures += failed
            if traced:
                run.op_weight.append(desc[5])
                run.op_failed.append(failed)
                run.op_scale.append(chunk_scale)
            latency *= scale
            if run.seen < RESERVOIR:
                samples[run.seen] = latency
            else:
                slot = pick.randrange(run.seen + 1)
                if slot < RESERVOIR:
                    samples[slot] = latency
            if len(largest) < TOP_K:
                heapq.heappush(largest, latency)
            else:
                heapq.heappushpop(largest, latency)
            run.seen += 1
        run.ops += len(descs)
    run.latencies_ns = sorted(samples[: min(run.seen, RESERVOIR)])
    run.largest_ns = sorted(largest, reverse=True)
    return run


def measure_setup(name: str, seed: int) -> list[float]:
    """Calibrated set-up seconds in fresh interpreters; the first probe, which
    may compile bytecode, is discarded."""
    command = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(command, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        seconds, reference = map(float, done.stdout.split())
        times.append(seconds * REFERENCE_NS / reference)
    return times[1:]


def end_to_end(run, setup_times) -> tuple[dict, dict]:
    lat = run.latencies_ns
    n = len(lat)
    beyond = run.seen - math.ceil(0.99 * run.seen)  # ops slower than p99 (nearest rank)
    values = {
        "ops_per_s": statistics.median(run.rates[0]),
        "op_p50_us": statistics.median(lat) / 1000,
        "op_p99_us": run.largest_ns[beyond] / 1000,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "ops_per_s": f"median of {len(run.rates[0])} chunks, {run.ops} ops",
        "op_p50_us": f"{n} latency samples of {run.ops} ops",
        "op_p99_us": f"all {run.seen} ops, {beyond} beyond p99",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "peak_rss_mb": "1 process",
    }
    return values, samples


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "gradcast").glob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in files + [ROOT / "BENCHMARK.json"]:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def self_check(name: str, seed: int, digest: str, counts: dict) -> list[str]:
    """Compare exact counts with an earlier run of the same code (``digest``)
    and seed, then record them.  Returns the mismatches."""
    path = OUT / f"selfcheck-{name}-seed{seed}.json"
    stored = {}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("digest") == digest:
            stored = previous["counts"]
    problems = [f"{key}: {stored[key]} earlier, {value} now"
                for key, value in counts.items() if key in stored and stored[key] != value]
    path.write_text(json.dumps({"digest": digest, "counts": {**stored, **counts}}, indent=1))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    documented = json.loads((BENCH / "metrics.json").read_text())["metrics"]
    if sorted(documented) != sorted(units):
        sys.exit("bench: bench/metrics.json and BENCHMARK.json name different metrics")
    gradcast = load_gradcast()
    workload = WORKLOADS[args.workload]
    inputs = workload.setup_inputs(args.seed)
    fault = gradcast.CastFault

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    fixture = workload.build(gradcast_api(), inputs)
    base = drive(workload, [leg(fixture)], args.seed, inputs, fault, seconds=args.seconds)
    runs = [base]
    counts = {"cast_failure_share_first_1000": base.prefix_failures / CHECK_OPS}
    problems = []
    if args.trace:
        # Each chunk runs untraced, then traced, so the overhead ratio
        # compares the two under the same machine conditions.
        tracer = Tracer()
        api, patches = traced_api(tracer)
        traced = drive(workload, [leg(fixture), leg(workload.build(api, inputs), tracer, patches)],
                       args.seed, inputs, fault, ops_limit=workload.trace_ops)
        runs.append(traced)
        if traced.prefix_failures != base.prefix_failures:
            problems.append(f"cast failures in the first {CHECK_OPS} ops: "
                            f"{base.prefix_failures} in the timed pass, "
                            f"{traced.prefix_failures} in the paired pass")
        values, samples = layer_metrics(tracer.spans, traced.op_weight, traced.op_failed,
                                       traced.op_scale)
        untraced_rates, traced_rates = traced.rates
        values["trace.overhead_ratio"] = statistics.median(
            t / u for u, t in zip(untraced_rates, traced_rates))
        samples["trace.overhead_ratio"] = f"median of {len(traced_rates)} chunk pairs"
        for key in ("predicates.render.unread_share", "compiler.run_prog.per_op_attested",
                    "compiler.run_prog.per_op_failed"):
            counts[key] = values[key]
        counts["cast_failure_share_traced"] = traced.failures / traced.ops
    else:
        values, samples = end_to_end(base, setup_times)
    if sorted(values) != sorted(wanted):
        sys.exit(f"bench: computed metrics {sorted(values)} differ from BENCHMARK.json {wanted}")

    OUT.mkdir(exist_ok=True)
    digest = source_digest()
    problems += self_check(args.workload, args.seed, digest, counts)
    attempted = sum(r.attempted for r in runs)
    wrong = sum(r.wrong for r in runs)
    correct = wrong == 0 and not problems
    metrics = {name: {"value": values[name], "unit": units[name]} for name in wanted}
    record = {
        "stamp": {
            "git_sha": git_sha(),
            "source_sha256": digest,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "correct": correct,
        "attempted": attempted,
        "failed": wrong,
        "error_ratio": wrong / attempted,
        "cast_failure_share": base.failures / base.ops,
        "metrics": {name: {**metrics[name], "samples": samples[name]} for name in wanted},
        "self_check": {"counts": counts, "problems": problems},
        "wrong_examples": [e for r in runs for e in r.examples],
        "calibration": {
            "reference_ns_nominal": REFERENCE_NS,
            "reference_ns_median": statistics.median(base.references),
            "raw_ops_per_s": statistics.median(base.raw_rates),
        },
    }
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}.tsv"
        tracer.write(spans_path)
        record["spans"] = {"file": spans_path.name, "count": len(tracer.spans),
                           "ops": traced.ops}
    if setup_times:
        record["setup_s_samples"] = setup_times
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} result={result_path.relative_to(ROOT)}")
    for name in wanted:
        print(f"  {name:38s} {values[name]:>14.6g} {units[name]:8s} ({samples[name]})")
    print(f"  {'error_ratio':38s} {wrong / attempted:>14.6g} {'fraction':8s} "
          f"({wrong} wrong of {attempted} attempted)")
    print(f"  {'cast_failure_share':38s} {base.failures / base.ops:>14.6g} {'fraction':8s}")
    for problem in problems:
        print(f"  SELF-CHECK MISMATCH: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": wrong,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
