"""End-to-end benchmark of the simulated Sift stack.

Usage, from the repository root::

    python3 e2ebench/run.py --workload sift-read-closed --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the seeded workload (fresh simulator each time)
until the measured windows add up to ``--seconds`` of host time, and
reports the end-to-end metrics: simulator speed, set-up time and memory
on the host, and the service quality of the modelled cluster in
simulated time.  ``--trace 1`` runs the workload once untraced, once
with layer wrappers and ``cProfile`` on, and once with the wrappers
alone, and reports the per-layer metrics.  Every run checks the program's outputs; the last
line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed check exits with
status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = Path(".e2ebench")

#: Reference cell the parity anchor must reproduce
#: (benchmarks/baselines/BENCH_fig5.json, sift/read-heavy, seed 1).
FIG5_CELL = {"ops_per_sec": 220075.0, "completed": 8803, "errors": 0}

#: Set-ups per run whose median is ``setup_s`` (the repetitions count).
MIN_SETUPS = 5


def percentile_checked(samples, p, what, problems):
    """The *p*-th percentile if at least ten samples lie beyond it."""
    from repro.bench.metrics import percentile

    n = len(samples)
    if n * (100.0 - p) / 100.0 < 10:
        problems.append(f"{what}: {n} samples leave fewer than 10 beyond p{p:g}")
        return 0.0
    return percentile(samples, p)


def unavailable_us(rep) -> float:
    """Longest simulated interval after the crash (or the window start,
    without a crash) to the window end in which no client op completed."""
    start = rep.crash_at_us if rep.crash_at_us is not None else rep.window_start_us
    end = rep.window_start_us + rep.window_sim_us
    marks = [start] + sorted(t for t in rep.done_at if t >= start) + [end]
    return max(b - a for a, b in zip(marks, marks[1:]))


def signature(rep):
    """Everything simulated about a repetition; equal at one seed."""
    history = None if rep.history is None else list(rep.history.ops)
    return (
        rep.completed, rep.attempted, rep.failed, rep.window_sim_us,
        rep.window_start_us, rep.crash_at_us, rep.latencies, rep.done_at,
        rep.counters, rep.sim_facts, history,
    )


# -- output checks --------------------------------------------------------------


def check_rep(workload, rep, problems) -> None:
    """Checks every repetition of *workload* must pass."""
    from repro.bench.lincheck import check_history

    n_samples = sum(len(v) for v in rep.latencies.values())
    if n_samples != rep.completed:
        problems.append(f"{n_samples} latency samples for {rep.completed} completed ops")
    facts = rep.sim_facts
    if workload.open_loop:
        offered, admitted = facts["offered"], facts["admitted"]
        shed = facts["throttle_shed"] + facts["queue_shed"]
        if offered != admitted + shed:
            problems.append(f"offered {offered} != admitted {admitted} + shed {shed}")
        # Ops queued or in flight at the start, plus those admitted in
        # the window, either finished in it or are still queued at its end.
        inflow = facts["backlog_start"] + admitted
        outflow = rep.completed + facts["errors"] + facts["backlog_end"]
        if inflow != outflow:
            problems.append(f"admitted ops unaccounted: in {inflow} != out {outflow}")
        expected_ticks = int(rep.window_sim_us // 1000.0)
        if facts["ticks"] < expected_ticks or facts["tick_lag_us"] > 1e-6:
            problems.append(
                f"arrival windows off schedule: {facts['ticks']} ticks, "
                f"max deviation {facts['tick_lag_us']}us"
            )
    if workload.crash_leader_at_us is not None:
        if rep.crash_at_us is None:
            problems.append("the coordinator crash was not injected")
        elif not any(t > rep.crash_at_us for t in rep.done_at):
            problems.append("no op completed after the crash")
    if rep.history is not None:
        ok, key = check_history(rep.history)
        acked = sum(1 for op in rep.history.ops if op.kind == "put" and op.responded_at)
        if not ok:
            problems.append(f"probe history not linearizable on key {key!r}")
        if acked == 0:
            problems.append("probe client had no acknowledged write")


def parity_anchor(problems) -> None:
    """The closed-loop driver at fig5 smoke parameters reproduces fig5."""
    from drive import FIG5_ANCHOR, run_rep

    rep = run_rep(FIG5_ANCHOR, seed=1)
    got = {
        "ops_per_sec": rep.completed / (rep.window_sim_us / 1e6),
        "completed": rep.completed,
        "errors": rep.sim_facts["errors"],
    }
    if got != FIG5_CELL:
        problems.append(f"fig5 parity anchor: got {got}, committed {FIG5_CELL}")
    print(f"check fig5 parity anchor: {got}")


# -- end-to-end run ---------------------------------------------------------------


def end_to_end(workload, seed: int, seconds: float, problems):
    from drive import run_rep, run_setup
    from repro.bench.metrics import percentile

    reps = []
    while len(reps) < 2 or sum(r.window_host_s for r in reps) < seconds:
        reps.append(run_rep(workload, seed))
        gc.collect()
        if len(reps) == 1:
            # The peak of one whole experiment: later repetitions only add
            # allocator fragmentation, and their number varies with speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [sum(r.setup.values()) for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(sum(run_setup(workload, seed).values()))
        gc.collect()
    first = reps[0]
    if any(signature(r) != signature(first) for r in reps[1:]):
        problems.append("simulated results differ between repetitions at one seed")
    check_rep(workload, first, problems)
    if workload.name == "sift-read-closed":
        parity_anchor(problems)

    lat = first.latencies
    reads, writes = lat.get("read", []), lat.get("write", [])
    every = reads + writes
    driven = [r.completed / (r.window_host_s * r.host_speed) for r in reps]
    metrics = {
        "driven_ops_per_s": (statistics.median(driven), "ops/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_ops_per_s": (first.completed / (first.window_sim_us / 1e6), "ops/s"),
        "sim_read_p50_us": (percentile_checked(reads, 50, "reads", problems), "us"),
        "sim_read_p99_us": (percentile_checked(reads, 99, "reads", problems), "us"),
        "sim_write_p50_us": (percentile_checked(writes, 50, "writes", problems), "us"),
        "sim_write_p99_us": (percentile_checked(writes, 99, "writes", problems), "us"),
        "sim_unavailable_ms": (unavailable_us(first) / 1000.0, "ms"),
    }
    samples = {
        "sim_read_p50_us": len(reads), "sim_read_p99_us": len(reads),
        "sim_write_p50_us": len(writes), "sim_write_p99_us": len(writes),
        "driven_ops_per_s": len(reps), "setup_s": len(setups),
    }
    print(f"{workload.name} seed={seed}: {len(reps)} repetitions, "
          f"{first.completed} ops completed per window")
    for name, (value, unit) in metrics.items():
        extra = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<20} {value:>14.4f} {unit}{extra}")
    # Not an end-to-end metric: on sift-write-closed it falls on one or two
    # 5 ms put rejections depending on the seed (see README.md).
    if len(every) >= 10_000:
        print(f"  info: p99.9 of all ops {percentile(every, 99.9):.4f} us  (n={len(every)})")
    return first, metrics


# -- traced run --------------------------------------------------------------------


def _traced_rep(workload, seed, profiled: bool):
    from drive import run_rep
    from layers import LayerTracer

    tracer = LayerTracer(profile=profiled)
    tracer.install()
    try:
        # No calibration loop: the profiler would fold it into the tracer.
        rep = run_rep(workload, seed, hooks=tracer, calibrate=False)
    finally:
        tracer.uninstall()
    return rep, tracer


def _tracer_facts(tracer):
    """The traced outcomes that must repeat exactly at one seed."""
    gens = {name: [(s[5], s[6]) for s in spans] for name, spans in tracer.gen_spans.items()}
    return (
        dict(tracer.counts), dict(tracer.cache), tracer.cpu_waits, tracer.lane_waits,
        tracer.latency_draws, tracer.batch_arrivals, tracer.coordinator_util,
        tracer.replayed_records, gens,
    )


def traced(workload, seed: int, problems):
    from drive import run_rep
    from layers import fold_profile

    base = run_rep(workload, seed)
    gc.collect()
    rep1, tracer = _traced_rep(workload, seed, profiled=True)
    gc.collect()
    # The repeat runs the wrappers without the profiler, which is the
    # costlier half; its counts must still match exactly.
    rep2, tracer2 = _traced_rep(workload, seed, profiled=False)
    if not (signature(base) == signature(rep1) == signature(rep2)):
        problems.append("tracing changed the simulated results")
    if _tracer_facts(tracer) != _tracer_facts(tracer2):
        problems.append("per-layer counts differ between traced runs at one seed")
    check_rep(workload, base, problems)

    ops = rep1.completed
    counts, ctr = tracer.counts, rep1.counters
    facts = rep1.sim_facts

    def per_op(value):
        return value / ops

    def counter(prefix):
        return sum(v for k, v in ctr.items() if k == prefix or k.startswith(prefix + "{"))

    def verbs(kind):
        return ctr.get("rdma.verbs{type=%s}" % kind, 0.0)

    def tail(samples, p, what):
        n = len(samples)
        if n * (100.0 - p) / 100.0 < 10:
            print(f"  note: {what} has {n} samples, too few for p{p:g}; reported as 0")
            return 0.0
        from repro.bench.metrics import percentile

        return percentile(samples, p)

    def mean(samples):
        return sum(samples) / len(samples) if samples else 0.0

    # Failover milestones, from the crash: election won (the new
    # coordinator connects its replicated memory), log recovered, KV
    # structures loaded and WAL replayed.
    crash = rep1.crash_at_us
    milestones = {"election_ms": 0.0, "log_recovery_ms": 0.0, "replay_ms": 0.0}
    if crash is not None:
        def first_after(name):
            return next((s for s in tracer.gen_spans.get(name, []) if s[5] >= crash), None)

        connect = first_after("core.repmem.connect")
        recovered = first_after("core.recover_log")
        started = first_after("kv.server.start")
        if None in (connect, recovered, started) or None in (recovered[6], started[6]):
            problems.append("failover milestones missing from the trace")
        else:
            milestones = {
                "election_ms": (connect[5] - crash) / 1000.0,
                "log_recovery_ms": (recovered[6] - connect[5]) / 1000.0,
                "replay_ms": (started[6] - started[5]) / 1000.0,
            }

    folded = fold_profile(tracer.profile, str(HERE))
    total = folded.pop("total")
    if abs(sum(folded.values()) - total) > 1e-9 * max(total, 1.0):
        problems.append("folded layer self times do not add up to the profiled total")
    kops = rep1.completed / 1000.0

    def self_time(layer):
        return folded.get(layer, 0.0) / kops

    cache_lookups = tracer.cache["hits"] + tracer.cache["misses"]
    driven_untraced = base.completed / base.window_host_s
    driven_traced = rep1.completed / rep1.window_host_s
    offered = facts.get("offered", 0)
    metrics = {
        "sim.events_per_op": (per_op(counts["sim.schedule"]), "1/op"),
        "sim.spawns_per_op": (per_op(counts["sim.spawn"]), "1/op"),
        "sim.self_s_per_kop": (self_time("sim"), "s/kop"),
        "sim.cpu_exec_per_op": (per_op(counts["sim.cpu.execute"]), "1/op"),
        "sim.cpu.self_s_per_kop": (self_time("sim.cpu"), "s/kop"),
        "sim.cpu_wait_us_mean": (mean(tracer.cpu_waits), "us"),
        "sim.cpu_wait_us_p99": (tail(tracer.cpu_waits, 99, "cpu waits"), "us"),
        "sim.coordinator_util": (tracer.coordinator_util, "ratio"),
        "net.deliveries_per_op": (per_op(counts["net.deliver"]), "1/op"),
        "net.rpc_calls_per_op": (per_op(counts["net.rpc.call"]), "1/op"),
        "net.bytes_per_op": (per_op(counter("net.bytes")), "B/op"),
        "net.latency_draws_per_op": (per_op(tracer.latency_draws), "1/op"),
        "net.self_s_per_kop": (self_time("net"), "s/kop"),
        "rdma.verbs_per_op": (per_op(counter("rdma.verbs")), "1/op"),
        "rdma.reads_per_op": (per_op(verbs("read") + verbs("read_word")), "1/op"),
        "rdma.writes_per_op": (per_op(verbs("write")), "1/op"),
        "rdma.cas_per_op": (per_op(verbs("cas")), "1/op"),
        "rdma.transfers_per_op": (per_op(counts["rdma.transfer"]), "1/op"),
        "rdma.doorbells_per_op": (per_op(counter("rdma.doorbells")), "1/op"),
        "rdma.self_s_per_kop": (self_time("rdma"), "s/kop"),
        "core.repmem_writes_per_op": (
            per_op(counts["core.repmem.write"] + counts["core.repmem.multi_write"]
                   + counts["core.repmem.direct_write"]), "1/op"),
        "core.election_ms": (milestones["election_ms"], "ms"),
        "core.log_recovery_ms": (milestones["log_recovery_ms"], "ms"),
        "core.self_s_per_kop": (self_time("core"), "s/kop"),
        "kv.cache_hit_ratio": (
            tracer.cache["hits"] / cache_lookups if cache_lookups else 0.0, "ratio"),
        "kv.replay_ms": (milestones["replay_ms"], "ms"),
        "kv.replayed_records": (
            float(tracer.replayed_records if crash is not None else 0), "count"),
        "kv.self_s_per_kop": (self_time("kv"), "s/kop"),
        "workloads.arrivals_per_host_s": (
            tracer.batch_arrivals / tracer.batch_host_s if tracer.batch_host_s else 0.0, "1/s"),
        "workloads.lane_wait_us_mean": (mean(tracer.lane_waits), "us"),
        "workloads.lane_wait_us_p99": (tail(tracer.lane_waits, 99, "lane waits"), "us"),
        "workloads.shed_ratio": (
            (facts["throttle_shed"] + facts["queue_shed"]) / offered if offered else 0.0, "ratio"),
        "workloads.retries_per_op": (per_op(facts["retries"]), "1/op"),
        "workloads.self_s_per_kop": (self_time("workloads"), "s/kop"),
        "shard.route_calls_per_op": (per_op(
            counts["shard.ring.shard_for"] + counts["shard.ring.shard_index_batch"]
            + counts["shard.service.shard_for"]), "1/op"),
        "shard.self_s_per_kop": (self_time("shard"), "s/kop"),
        "obs.self_s_per_kop": (self_time("obs"), "s/kop"),
        "obs.tracing_overhead": (driven_traced / driven_untraced, "ratio"),
        "setup.build_s": (base.setup["build_s"], "s"),
        "setup.ready_s": (base.setup["ready_s"], "s"),
        "setup.preload_s": (base.setup["preload_s"], "s"),
        "setup.sampler_s": (base.setup["sampler_s"], "s"),
        "stdlib.self_s_per_kop": (self_time("stdlib"), "s/kop"),
        "other.self_s_per_kop": (self_time("other"), "s/kop"),
        "tracer.self_s_per_kop": (self_time("tracer"), "s/kop"),
        "host.self_s_per_kop": (total / kops, "s/kop"),
    }
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(path, {"workload": workload.name, "seed": seed})
    print(f"{workload.name} seed={seed}: traced {ops} ops per window; "
          f"{len(tracer.spans)} spans kept, {tracer.dropped} past the cap, in {path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6f} {unit}")
    return base, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from drive import WORKLOADS_BY_NAME

    workload = WORKLOADS_BY_NAME.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"pick one of {sorted(WORKLOADS_BY_NAME)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    problems = []
    if args.trace:
        rep, metrics = traced(workload, args.seed, problems)
    else:
        rep, metrics = end_to_end(workload, args.seed, args.seconds, problems)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"host time {time.perf_counter() - started:.1f}s")
    result = {
        "correct": not problems,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
