#!/usr/bin/env bash
# Keeps four kinds of dead weight from growing back: a vendored stand-in
# nothing depends on, a crate only the facade re-exports, a bench CI never
# runs, and a second copy of the seeded FNV-1a hash (`text_sim::fnv1a64`
# is the one; its offset basis is the fingerprint of a copy). Offline, no
# dependencies beyond grep and sed.
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

[ "$fail" -eq 0 ] && echo "OK: every vendor/* crate has a dependent; no crate hangs off the facade alone; CI runs every [[bench]]; one FNV-1a under crates/*/src"
exit "$fail"
