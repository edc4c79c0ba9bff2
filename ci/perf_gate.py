#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh quick-mode bench snapshot
against the committed full-mode baseline.

Usage: perf_gate.py <bench> <committed_baseline.json> <current.json>

Quick-mode workloads are smaller than the committed full-mode runs, so
absolute wall-times are not comparable across the two; the gate checks
the *shape* of the result instead — overhead percentages, speedup
ratios, and exact-equivalence counters — with envelopes wide enough for
shared-runner noise but narrow enough to catch a real regression (a
lost kernel path, an accidental fsync-per-record, instrumentation on a
hot loop).

Exit code 0 = within envelope, 1 = regression, 2 = usage/parse error.
"""

import json
import sys


def fail(msg):
    print(f"PERF GATE FAIL: {msg}")
    sys.exit(1)


def ok(msg):
    print(f"perf gate ok: {msg}")


def gate_serving(base, cur):
    # Telemetry overhead is a ratio of two runs on the same machine, so
    # it transfers across workload sizes. The committed full run holds
    # |overhead| <= 5%; allow 10 extra points for runner noise.
    limit = abs(base["telemetry_overhead_pct"]) + 10.0
    got = cur["telemetry_overhead_pct"]
    if abs(got) > limit:
        fail(f"telemetry overhead {got:.2f}% vs committed "
             f"{base['telemetry_overhead_pct']:.2f}% (limit ±{limit:.2f}%)")
    ok(f"telemetry overhead {got:.2f}% (limit ±{limit:.2f}%)")

    # WAL overhead envelopes mirror the bench's own full-mode asserts,
    # widened for CI: a regression to fsync-per-record blows far past
    # these regardless of machine.
    for key, limit in [("wal_batched_overhead_pct", 40.0),
                       ("wal_always_overhead_pct", 85.0)]:
        got = cur[key]
        if got > limit:
            fail(f"{key} {got:.2f}% exceeds {limit:.2f}%")
        ok(f"{key} {got:.2f}% (limit {limit:.2f}%)")

    # The cache-hit fast path must stay microseconds, not milliseconds.
    got = cur["cache_hit_p50_us"]
    if got > 1000:
        fail(f"cache-hit p50 {got}us exceeds 1000us")
    ok(f"cache-hit p50 {got}us")

    gate_replay(base["replay"], cur["replay"])


def gate_replay(base, cur):
    # Steady load is sized to admit cleanly at the default bound.
    steady = cur["steady"]
    if steady["shed"] != 0:
        fail(f"steady load shed {steady['shed']} requests")
    ok(f"steady curve answered {steady['answered']}, zero shed")

    # The flush rule must still let a steady trickle share batches. Quick
    # mode offers 500 us gaps against the committed run's 400, so the gate
    # is on the shape, not the digit: a rule that lets each arrival fly
    # alone reads about 1.
    committed = base["steady"]["questions_per_batch"]
    got = steady["questions_per_batch"]
    if got < committed / 2:
        fail(f"steady curve fills {got:.2f} questions per batch, below half "
             f"the committed {committed:.2f}")
    ok(f"steady curve fills {got:.2f} questions per batch "
       f"(committed {committed:.2f})")

    # The spike must overrun the tight admission bound (the admission
    # controller's smoke signal) without shedding everything.
    spike = cur["spike"]
    if spike["shed"] == 0:
        fail("spike curve never overran the admission bound")
    if spike["answered"] == 0:
        fail("spike curve shed every request")
    ok(f"spike shed {spike['shed']} of "
       f"{spike['shed'] + spike['answered']} arrivals "
       f"({spike['shed_rate_pct']:.1f}%)")


# How far the planning bench's parts may sit from its whole: the stage
# breakdown from `kernel_ms`, a flush plan's time from the committed one.
STAGE_ENVELOPE = 0.10


def gate_planning(base, cur):
    # The per-stage breakdown replays the kernel path through public
    # functions; if its parts stop summing to the whole, a stage was
    # added to the planner that the breakdown does not see (or the
    # replay does work the planner no longer does).
    stages = cur["stage_ms"]
    expected = set(base["stage_ms"])
    if set(stages) != expected:
        fail(f"stage_ms names {sorted(stages)} != committed {sorted(expected)}")
    total = sum(stages.values())
    gap = abs(total - cur["kernel_ms"]) / cur["kernel_ms"]
    if gap > STAGE_ENVELOPE:
        fail(f"stages sum to {total:.2f} ms vs kernel_ms "
             f"{cur['kernel_ms']:.2f} ms (gap {gap:.1%} > "
             f"{STAGE_ENVELOPE:.0%})")
    ok(f"stages sum to {total:.2f} ms of kernel_ms {cur['kernel_ms']:.2f} ms "
       f"(gap {gap:.1%})")

    gate_flush_plan(base["flush_plan"], cur["flush_plan"])
    gate_design_space_round(cur["design_space_round"])

    for point in cur.get("index_scaling", []):
        if point["index_speedup"] < 1.0:
            fail(f"metric index slower than sweep at n={point['n']}: "
                 f"{point['index_speedup']:.2f}x")
        if point["pruned_fraction"] < 0.5:
            fail(f"metric index barely prunes at n={point['n']}: "
                 f"{point['pruned_fraction']:.4f}")
    ok(f"index scaling: {len(cur.get('index_scaling', []))} points prune and win")


def gate_flush_plan(base, cur):
    # The served flush's plan is the one block that is the same workload
    # in quick and full mode, so it compares entry for entry with the
    # committed baseline.
    committed = {p["questions"]: p for p in base}
    got = {p["questions"]: p for p in cur}
    if set(got) != set(committed):
        fail(f"flush_plan sizes {sorted(got)} != committed {sorted(committed)}")
    for n, want in sorted(committed.items()):
        have = got[n]
        # Index builds and queries per plan are counts of what the planner
        # asked, a pure function of the code and the inputs: exact. One
        # radius query per pool row coming back reads 601 here, not 1.
        for key in ("index_builds_per_plan", "index_queries_per_plan"):
            if have[key] != want[key]:
                fail(f"flush plan of {n}: {key} {have[key]} != committed "
                     f"{want[key]}")
        # The time gets the envelope the stage breakdown gets, one-sided.
        limit = want["us_per_plan"] * (1 + STAGE_ENVELOPE)
        if have["us_per_plan"] > limit:
            fail(f"flush plan of {n}: {have['us_per_plan']:.1f} us vs "
                 f"committed {want['us_per_plan']:.1f} us "
                 f"(limit {limit:.1f} us)")
        ok(f"flush plan of {n}: {have['us_per_plan']:.1f} us (limit "
           f"{limit:.1f} us), {have['index_builds_per_plan']:g} index builds "
           f"and {have['index_queries_per_plan']:g} queries per plan")


# How much less a design-space round must cost planned split by split
# than cell by cell across splits. The committed run reads about 1.5; a
# planner that featurizes a pool per cell again reads about 1.
SHARED_X_MIN = 1.25


def gate_design_space_round(cur):
    # Both orders run in one process, so the ratio carries no box drift
    # and needs no committed baseline.
    got = cur["shared_x"]
    if got < SHARED_X_MIN:
        fail(f"design-space round: interleaved {cur['interleaved_ms']:.1f} ms "
             f"/ grouped {cur['grouped_ms']:.1f} ms = {got:.2f}x, below "
             f"{SHARED_X_MIN:.2f}x: cells of one split no longer share the "
             f"pool's features")
    ok(f"design-space round: shared_x {got:.2f} (floor {SHARED_X_MIN:.2f}), "
       f"grouped {cur['grouped_ms']:.1f} ms")


GATES = {
    "serving": gate_serving,
    "planning": gate_planning,
}


def main():
    if len(sys.argv) != 4 or sys.argv[1] not in GATES:
        print(__doc__)
        print(f"benches: {', '.join(sorted(GATES))}")
        sys.exit(2)
    bench, base_path, cur_path = sys.argv[1:4]
    try:
        with open(base_path) as f:
            base = json.load(f)
        with open(cur_path) as f:
            cur = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"PERF GATE ERROR: {e}")
        sys.exit(2)
    GATES[bench](base, cur)
    print(f"perf gate passed for {bench}")


if __name__ == "__main__":
    main()
