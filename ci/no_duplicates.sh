#!/usr/bin/env bash
# Keeps sixteen kinds of dead weight from growing back: a vendored stand-in
# nothing depends on, a crate only the facade re-exports, a bench CI never
# runs, a second copy of the seeded FNV-1a hash (`text_sim::fnv1a64` is
# the one; its offset basis is the fingerprint of a copy), a
# `pub fn with_*` builder under crates/*/src that no other file under
# crates/, src/, tests/, examples/ or benchmark/src names, and a
# hand-rolled xorshift generator (`er_core::Rng` is the one) under
# crates/, src/, tests/ or examples/. Two xorshift streams are allowed
# until a re-baseline retires them: the 3:1:1 split
# (crates/er-core/src/split.rs, hashed by benchmark/input_digests.json)
# and the distance-percentile sample (crates/core/src/features.rs, hashed
# by the golden plan digests). And a batch priced outside the bill, the
# ledger and the model's own pricing. And a model call outside the one
# send path (`batcher_core::Executor::send`), the client that implements
# it and the server that answers it. And CPU-specific code (`std::arch`,
# `target_feature`, `is_x86_feature_detected`) outside the two files whose
# exact kernels carry it, embed's vecmath.rs and matrix.rs. And a second
# telemetry mode: an off switch (`fn disabled`, `is_enabled`, a bare
# `enabled: bool` field) in obs or in er-service's telemetry and flight
# recorder, where every handle always records. And a pivot budget in the
# metric index (`with_pivots`, `auto_pivots`, `MAX_PIVOTS`, `GateHint`):
# it keeps one pivot. And a serving setting only tests set: `seed`,
# `cache_enabled`, `max_retries`, `breaker_threshold` or `breaker_cooldown`
# back on `ServiceConfig`, or arguments back on `Breaker::new`. And a second
# structure featurizer: `levenshtein_ratio(` under crates/*/src outside
# core's features.rs (the one loop that normalizes attribute values and
# scores them), the simulator's own pair reading in llm's engine.rs and
# the kernel's home in text-sim. And a second SplitMix64: its multiplier
# outside er-core's rng.rs (`er_core::rng::splitmix64`) and er-service's
# fingerprint.rs (a different mix, pinned by on-disk WAL fingerprints).
# And a second copy of the planner's stages under crates/bench (a bench
# reads a plan's own `stages`). And a recorded pair stream in the metric
# index (`PairSweep`, `replay_close_pairs`): at min_pts = 3 DBSCAN unions
# every close pair as the sweep finds it, so nothing is replayed. And a
# second decision path in the serving core (`answer_via_fallback`,
# `answer_context_overflow`, `stamp_waiters`, `record_answer_slos`,
# `answer_cache_us`/`answer_llm_us`/`answer_fallback_us`): submit records
# every answer in one step and a batch fallback is one typed reason.
# And a state no route reaches in the serving core: a `cache_filled`
# stage, a shutdown flush trigger, or a forced fsync on the durable log.
# Offline, no dependencies beyond grep and sed.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for dir in vendor/*/; do
    name=$(basename "$dir")
    dependents=$(grep -lE "path *= *\"([^\"]*/)?${name}\"" \
        Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml benchmark/Cargo.toml |
        grep -v "^vendor/${name}/" || true)
    if [ -z "$dependents" ]; then
        echo "FAIL: vendor/${name} has no path dependent; delete it and its workspace entry" >&2
        fail=1
    fi
done

# A crate no other crate and not the benchmark builds on, kept alive by
# the facade's `pub use` alone, has no root that reaches it.
for dir in crates/*/; do
    name=$(basename "$dir")
    dependents=$(grep -lE "path *= *\"([^\"]*/)?${name}\"" \
        Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml |
        grep -v "^crates/${name}/" || true)
    if [ "$dependents" = "Cargo.toml" ]; then
        echo "FAIL: crates/${name} has no path dependent but the facade; give it a caller or delete it" >&2
        fail=1
    fi
done

# A bench target CI never names is timing nobody reads.
for bench in $(sed -n '/^\[\[bench\]\]/,/^$/s/^name *= *"\(.*\)"/\1/p' crates/bench/Cargo.toml); do
    if ! grep -qE -- "--bench ${bench}( |\$)" .github/workflows/ci.yml; then
        echo "FAIL: [[bench]] ${bench} in crates/bench/Cargo.toml is never run by .github/workflows/ci.yml" >&2
        fail=1
    fi
done

copies=$(grep -rliE '0xcbf2_?9ce4_?8422_?2325' crates/*/src || true)
if [ "$(printf '%s\n' "$copies" | grep -c .)" -gt 1 ]; then
    echo "FAIL: the FNV offset basis appears in more than one file under crates/*/src; use text_sim::fnv1a64:" >&2
    printf '%s\n' "$copies" >&2
    fail=1
fi

# A `pub fn with_*` builder no other file names is a setting nobody sets.
# Matched by name, so a name shared with another type's builder can hide a
# dead one: a tripwire, not a proof.
while IFS=: read -r file name; do
    users=$(grep -rlw --include='*.rs' -- "$name" crates src tests examples benchmark/src |
        grep -vxF "$file" || true)
    if [ -z "$users" ]; then
        echo "FAIL: ${name} in ${file} has no caller outside its own file; delete it" >&2
        fail=1
    fi
done < <(grep -roE 'pub fn with_[A-Za-z0-9_]+' --include='*.rs' crates/*/src | sed 's/:pub fn /:/')

# A file holding all three shifts of the xorshift step is a generator of
# its own.
for file in $(grep -rlE '<< *13' --include='*.rs' crates src tests examples |
    xargs -r grep -lE '>> *7' | xargs -r grep -lE '<< *17' || true); do
    case "$file" in
    crates/er-core/src/split.rs | crates/core/src/features.rs) ;;
    *)
        echo "FAIL: ${file} hand-rolls the xorshift step; draw from er_core::Rng" >&2
        fail=1
        ;;
    esac
done

# A second place that prices a batch drifts from the one bill.
for file in $(grep -rlE 'PriceTable::for_model\(|LABEL_COST_PER_PAIR \*' crates/*/src || true); do
    case "$file" in
    crates/core/src/bill.rs | crates/er-core/src/cost.rs | crates/llm/src/pricing.rs | crates/llm/src/client.rs) ;;
    *)
        echo "FAIL: ${file} prices a batch by hand; build a batcher_core::Bill" >&2
        fail=1
        ;;
    esac
done

# A second call-and-retry loop drifts from the one send path.
for file in $(grep -rlE '\.complete\(' crates/*/src || true); do
    case "$file" in
    crates/core/src/executor.rs | crates/llm/src/client.rs | crates/llm-service/src/server.rs) ;;
    *)
        echo "FAIL: ${file} calls a model outside the one send path; use batcher_core::Executor::send" >&2
        fail=1
        ;;
    esac
done

# A second home for intrinsics is a second set of unsafe kernels to prove
# exact against the scalar ones.
for file in $(grep -rlE 'std::arch|target_feature|is_x86_feature_detected' crates/*/src || true); do
    case "$file" in
    crates/embed/src/vecmath.rs | crates/embed/src/matrix.rs) ;;
    *)
        echo "FAIL: ${file} holds CPU-specific code; keep intrinsics in embed's vecmath.rs and matrix.rs" >&2
        fail=1
        ;;
    esac
done

# Telemetry has one mode: every handle, the trace log and the flight
# recorder always record. `wal_enabled` and `cache_enabled` are other
# settings and do not match.
for hit in $(grep -rnoE '\bfn disabled\b|\bis_enabled\b|(^|[^A-Za-z0-9_])enabled: *bool' \
    crates/obs/src crates/er-service/src/telemetry.rs crates/er-service/src/flight.rs |
    cut -d: -f1,2 || true); do
    echo "FAIL: ${hit} grows a telemetry off switch back; every handle always records" >&2
    fail=1
done

# The metric index keeps one pivot: on the traffic the planner serves,
# extra pivots and their kill-switch never paid (DESIGN.md §8, Measured).
for hit in $(grep -rnowE 'with_pivots|auto_pivots|MAX_PIVOTS|GateHint' crates/*/src |
    cut -d: -f1,2 || true); do
    echo "FAIL: ${hit} grows a pivot budget back; PivotIndex keeps one pivot (DESIGN.md §8, Measured: extra pivots never paid on served traffic)" >&2
    fail=1
done

# ServiceConfig keeps the settings a caller sets. The seed (42) and the
# executor retries (2) are constants in service.rs, the breaker's
# threshold (8) and cooldown (250 ms) constants in breaker.rs, and the
# answer cache is always on: nothing but tests ever set them.
for field in $(sed -n '/^pub struct ServiceConfig {/,/^}/p' crates/er-service/src/service.rs |
    sed -n 's/^ *pub \(seed\|cache_enabled\|max_retries\|breaker_threshold\|breaker_cooldown\):.*/\1/p'); do
    echo "FAIL: ServiceConfig grows ${field} back; it is a constant of the module that reads it" >&2
    fail=1
done
if grep -qE 'pub fn new\( *[^) ]' crates/er-service/src/breaker.rs; then
    echo "FAIL: Breaker::new takes arguments again; the threshold and cooldown are breaker.rs constants" >&2
    fail=1
fi

# The baselines, the service's fallback and the planner read one
# featurizer: `batcher_core::features::structure_rows` and the extractors
# beside it.
for file in $(grep -rlF 'levenshtein_ratio(' crates/*/src || true); do
    case "$file" in
    crates/core/src/features.rs | crates/llm/src/engine.rs | crates/text-sim/src/*) ;;
    *)
        echo "FAIL: ${file} scores attribute values itself; read batcher_core::features::structure_rows" >&2
        fail=1
        ;;
    esac
done

# One SplitMix64 step, `er_core::rng::splitmix64`, for streams and hashes.
for file in $(grep -rliE '0xbf58_?476d_?1ce4_?e5b9' crates/*/src || true); do
    case "$file" in
    crates/er-core/src/rng.rs | crates/er-service/src/fingerprint.rs) ;;
    *)
        echo "FAIL: ${file} hand-rolls a SplitMix64 step; call er_core::rng::splitmix64" >&2
        fail=1
        ;;
    esac
done

# A bench that calls the planner's stages itself replays a path the
# planner may not take; the plan reports its own (`stages`).
for hit in $(grep -rnoE '\b(cluster_questions|batches_for_clustering|covering_with_coverage)\(' \
    crates/bench | cut -d: -f1,2 || true); do
    echo "FAIL: ${hit} replays a planner stage; read the plan's own stages (QuestionBatchPlan::stages)" >&2
    fail=1
done

# DBSCAN runs in one pass over `PivotIndex::for_close_pairs`; a recorded
# verdict stream and its replay were the second pass (DESIGN.md §8).
for hit in $(grep -rnowE 'PairSweep|replay_close_pairs' crates/*/src | cut -d: -f1,2 || true); do
    echo "FAIL: ${hit} records or replays a pair sweep; DBSCAN is one pass over PivotIndex::for_close_pairs" >&2
    fail=1
done

# The serving core has one decision path: `submit_inner`'s `decided` step
# records every answer (into `Telemetry::answer_us[source]`), and
# `fall_back` answers every batch fallback from one typed reason.
for hit in $(grep -rnoE '\b(answer_via_fallback|answer_context_overflow|stamp_waiters|record_answer_slos|answer_(cache|llm|fallback)_us)\b' \
    crates/er-service/src | cut -d: -f1,2 || true); do
    echo "FAIL: ${hit} grows a second decision path back; record answers in submit's decided step and route batch fallbacks through fall_back" >&2
    fail=1
done

# The serving core keeps only states a route reaches. A worker resolves
# LLM and fallback answers, never a cache one; `Drop` holds the only
# handle, so nothing is queued or held when the dispatcher stops and no
# flush has shutdown for a trigger; appends fsync by `SyncPolicy`, and
# nothing calls a forced sync.
for hit in $( {
    grep -rnoHE 'cache_filled|FlushTrigger::Shutdown' crates/er-service/src
    grep -noHE '^ *Shutdown\b|"shutdown"' crates/er-service/src/telemetry.rs
    grep -noHE '\bfn sync\b' crates/er-service/src/durable.rs
} | cut -d: -f1,2 || true); do
    echo "FAIL: ${hit} grows an unreachable serving state back (a cache_filled stage, a shutdown flush trigger or a forced fsync)" >&2
    fail=1
done

[ "$fail" -eq 0 ] && echo "OK: every vendor/* crate has a dependent; no crate hangs off the facade alone; CI runs every [[bench]]; one FNV-1a under crates/*/src; every pub with_* builder has an outside caller; no xorshift outside split.rs and features.rs; no batch priced outside the bill; no model call outside the one send path; no CPU-specific code outside embed's vecmath.rs and matrix.rs; no telemetry off switch in obs or er-service's telemetry and flight recorder; one pivot in the metric index; ServiceConfig without settings only tests set, and an argument-less Breaker::new; one structure featurizer (core's features.rs) and one SplitMix64 (er-core's rng.rs); no planner stage replayed under crates/bench; no recorded pair sweep in crates/*/src; one decision path in er-service; no unreachable serving state (cache_filled, shutdown flush trigger, forced fsync)"
exit "$fail"
