#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh quick-mode bench snapshot
against the committed full-mode baseline.

Usage: perf_gate.py <bench> <committed_baseline.json> <current.json>

Quick-mode workloads are smaller than the committed full-mode runs, so
absolute wall-times are not comparable across the two; the gate checks
the *shape* of the result instead — overhead percentages, speedup
ratios, and exact-equivalence counters — with envelopes wide enough for
shared-runner noise but narrow enough to catch a real regression (a
lost kernel path, an accidental fsync-per-record).

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


# How much of `kernel_ms` may go to no stage of the plan.
STAGE_ENVELOPE = 0.10


def gate_planning(base, cur):
    # `stage_ms` is what the timed call's own plan reports of each stage
    # that ran, so the gap is time inside that one call that no stage
    # claims: memo lookups, pair comparisons, clones. If it grows, the
    # planner does work outside its stages (a new stage nobody timed, or
    # bookkeeping that scales with the input).
    stages = cur["stage_ms"]
    expected = set(base["stage_ms"])
    if set(stages) != expected:
        fail(f"stage_ms names {sorted(stages)} != committed {sorted(expected)}")
    total = sum(stages.values())
    gap = (cur["kernel_ms"] - total) / cur["kernel_ms"]
    if gap > STAGE_ENVELOPE:
        fail(f"stages claim {total:.2f} ms of kernel_ms "
             f"{cur['kernel_ms']:.2f} ms: {gap:.1%} of the call is in no "
             f"stage (memo lookups, pair comparisons, clones), above "
             f"{STAGE_ENVELOPE:.0%}")
    ok(f"stages claim {total:.2f} ms of kernel_ms {cur['kernel_ms']:.2f} ms "
       f"(unclaimed {gap:.1%})")

    gate_flush_plan(base["flush_plan"], cur["flush_plan"])
    gate_design_space_round(cur["design_space_round"])
    gate_sim_round(cur["sim_round"])
    gate_kernel_64(cur["kernel_64"])
    gate_fnv1a64_3b(cur["fnv1a64_3b"])


# How much a 2-question flush plan may cost against an 8-question one in
# the same run.
FLUSH_RATIO_MAX = 0.25


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
        # The time is absolute µs against a snapshot taken on another run,
        # which a shared runner misses by more than any useful envelope;
        # it is printed, not gated (serve_fresh gates the served effect).
        ok(f"flush plan of {n}: {have['index_builds_per_plan']:g} index "
           f"builds and {have['index_queries_per_plan']:g} queries per plan; "
           f"{have['us_per_plan']:.1f} us (committed "
           f"{want['us_per_plan']:.1f} us, not gated)")

    # Both sizes run in one process, so their ratio carries no box drift.
    # Two questions almost always have one pool row covering both, and
    # covering's phase 1 stops there instead of building the coverage
    # table: on the reference box the stop reads 0.07-0.08, a lost stop
    # 0.37-0.56.
    ratio = got[2]["us_per_plan"] / got[8]["us_per_plan"]
    if ratio > FLUSH_RATIO_MAX:
        fail(f"flush plan of 2 / of 8 = {got[2]['us_per_plan']:.1f} / "
             f"{got[8]['us_per_plan']:.1f} us = {ratio:.2f}, above "
             f"{FLUSH_RATIO_MAX:.2f}: covering's phase 1 no longer stops at "
             f"the one pool row covering every question")
    ok(f"flush plan of 2 / of 8: {ratio:.2f} (ceiling {FLUSH_RATIO_MAX:.2f})")


# How much less a design-space round must cost planned split by split
# than cell by cell across splits. The committed run reads about 2.5; a
# planner that shares only the pool's pieces and rebuilds every question
# piece per cell read 1.76 on the reference box, and one that shares
# nothing about 1.
SHARED_X_MIN = 2.1


def gate_design_space_round(cur):
    # Both orders run in one process, so the ratio carries no box drift
    # and needs no committed baseline.
    got = cur["shared_x"]
    if got < SHARED_X_MIN:
        fail(f"design-space round: interleaved {cur['interleaved_ms']:.1f} ms "
             f"/ grouped {cur['grouped_ms']:.1f} ms = {got:.2f}x, below "
             f"{SHARED_X_MIN:.2f}x: cells of one split no longer share the "
             f"split's pool and question pieces")
    ok(f"design-space round: shared_x {got:.2f} (floor {SHARED_X_MIN:.2f}), "
       f"grouped {cur['grouped_ms']:.1f} ms")


# How much less a design-space split's LLM calls must cost answered by one
# simulator than by a fresh one per call. The committed full-mode run reads
# 2.76 (2.51-2.76 over three full runs on the reference box); a simulator
# that looks nothing up in its memo of pair readings reads about 1.
REUSE_X_MIN = 1.5


def gate_sim_round(cur):
    # Both passes answer the same requests in one process (the bench
    # asserts equal responses), so the ratio needs no committed baseline.
    got = cur["reuse_x"]
    if got < REUSE_X_MIN:
        fail(f"sim round: fresh {cur['fresh_ms']:.1f} ms / shared "
             f"{cur['shared_ms']:.1f} ms = {got:.2f}x, below "
             f"{REUSE_X_MIN:.2f}x: the simulator no longer reads each "
             f"distinct pair once")
    ok(f"sim round: reuse_x {got:.2f} (floor {REUSE_X_MIN:.2f}), "
       f"{cur['requests']} requests, shared {cur['shared_ms']:.1f} ms")


# How much faster the dispatched 64-dim lane sweep must run than the
# bench's own scalar four-lane replica, on a CPU with AVX. The AVX tile
# reads 2.7-3x on the reference box; a dispatch that stopped reaching it
# reads about 1.
KERNEL_X_MIN = 2.0

# How much faster the planner's 64-dim coverage route must run than the
# lane sweep it replaced, on a CPU with AVX-512F, where the route is the
# dot-product tile. The committed full-mode run reads 3.68 at the offline
# shape and 4.64 at Table VII's (3.8-5.1 over the quick and full runs on
# the reference box); a route that stopped reaching the tile reads about 1.
TILE_X_MIN = 2.5


def gate_kernel_64(cur):
    # Which route `pairs_within` took on this CPU, said once: without
    # AVX-512F neither this gate nor the embed parity suite, on the same
    # runner, ran the dot-product tile, and the log should show it.
    if cur["avx512f"]:
        ok("kernel_64: coverage route on this CPU is the dot-product tile "
           "(AVX-512F)")
    else:
        print("perf gate NOTE: kernel_64: no AVX-512F on this CPU, so the "
              "coverage route is the lane sweep; the dot-product tile was "
              "neither timed here nor run by the parity suite")
    # All three routes run in one process on one input with equal hits
    # (the bench asserts that), so the ratios need no committed baseline.
    for point in cur["points"]:
        shape = f"{point['questions']}x{point['pool']}"
        got = point["kernel_x"]
        if cur["avx"] and got < KERNEL_X_MIN:
            fail(f"kernel_64 {shape}: dispatched {point['dispatched_ms']:.1f} ms "
                 f"/ scalar {point['scalar_ms']:.1f} ms = {got:.2f}x, below "
                 f"{KERNEL_X_MIN:.2f}x on an AVX host: the sweep no longer "
                 f"runs the AVX tile")
        floor = f"floor {KERNEL_X_MIN:.2f}" if cur["avx"] else "no AVX, not gated"
        ok(f"kernel_64 {shape}: kernel_x {got:.2f} ({floor}), "
           f"{point['hits']} hits")

        got = point["tile_x"]
        if cur["avx512f"] and got < TILE_X_MIN:
            fail(f"kernel_64 {shape}: lane sweep {point['dispatched_ms']:.1f} ms "
                 f"/ route {point['tile_ms']:.1f} ms = {got:.2f}x, below "
                 f"{TILE_X_MIN:.2f}x on an AVX-512F host: coverage no longer "
                 f"runs the dot-product tile")
        floor = (f"floor {TILE_X_MIN:.2f}" if cur["avx512f"]
                 else "no AVX-512F, not gated")
        ok(f"kernel_64 {shape}: tile_x {got:.2f} ({floor}), "
           f"{point['verified']} pairs verified on the lane kernel")


# How much slower `text_sim::fnv1a64` may run per call on 3-byte windows
# than the bench's frozen copy of the seeded byte loop, both called the
# way the embedder calls them, in the same run. Quick runs on the
# reference box read 0.97-1.09. Mutants of text-sim read: `fnv1a64`
# without `#[inline]` 2.97-3.90, no `#[inline]` in the file 3.78-3.86,
# and its three pieces (seeding, writing, finishing) kept out of line
# 5.74-5.92, the 6x slowdown that once passed every other gate.
FNV_X_MAX = 2.0


def gate_fnv1a64_3b(cur):
    # Both loops hash the same windows in one process (the bench asserts
    # they fill the same buckets), so the ratio needs no committed baseline.
    got = cur["hash_x"]
    if got > FNV_X_MAX:
        fail(f"fnv1a64 on 3 bytes: {cur['hash_ns']:.2f} ns per call against "
             f"the seeded byte loop's {cur['replica_ns']:.2f} ns = {got:.2f}x, "
             f"above {FNV_X_MAX:.2f}x: the hash grew per-call work the "
             f"embedder pays on every 3-byte window")
    ok(f"fnv1a64 on 3 bytes: hash_x {got:.2f} (ceiling {FNV_X_MAX:.2f}), "
       f"{cur['hash_ns']:.2f} ns per call")


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
