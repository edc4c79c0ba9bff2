#!/usr/bin/env bash
# Smoke check of the benchmark itself: offline build, a --quick run of
# all four workloads (a tenth of the work, checks still on, numbers not
# comparable) in both modes, and a test that the workload and metric
# names the program prints are exactly the names BENCHMARK.json lists.
set -euo pipefail
cd "$(dirname "$0")/.."

cores=$(nproc)
load=$(cut -d' ' -f1 /proc/loadavg)
echo "nproc=${cores} load1=${load}"
if awk -v l="$load" -v c="$cores" 'BEGIN { exit !(l > c) }'; then
    echo "WARNING: 1-minute load ${load} exceeds nproc ${cores}; timings will be noisy" >&2
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/er-benchmark"

"$bin" check-names BENCHMARK.json

out="benchmark/out/check.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT
for workload in offline_design_space offline_llm_socket serve_repeat serve_fresh; do
    for trace in 0 1; do
        echo "-- ${workload} --quick --trace ${trace}"
        if ! "$bin" --workload "$workload" --quick --trace "$trace" >"$out/run.txt"; then
            grep -v '^{' "$out/run.txt" | grep -v '^metric ' >&2
            echo "FAIL: ${workload} --quick --trace ${trace}" >&2
            exit 1
        fi
        cat "$out/run.txt" >>"$out/printed.txt"
    done
done

# Names printed (workload headers and metric lines) against names listed;
# offline_llm_socket is runnable but deliberately not listed (see README).
{
    sed -n 's/^== \([a-z_]*\) seed=.*/\1/p' "$out/printed.txt" | grep -v '^offline_llm_socket$'
    sed -n 's/^metric \([^ ]*\) .*/\1/p' "$out/printed.txt"
} | sort -u >"$out/printed_names.txt"
grep -o '"name": *"[^"]*"' BENCHMARK.json | sed 's/.*"\([^"]*\)"$/\1/' | sort -u >"$out/listed_names.txt"
if ! diff "$out/listed_names.txt" "$out/printed_names.txt"; then
    echo "FAIL: names printed differ from names in BENCHMARK.json (< listed, > printed)" >&2
    exit 1
fi
echo "OK: $(wc -l <"$out/listed_names.txt") names agree; all quick runs passed their checks"
