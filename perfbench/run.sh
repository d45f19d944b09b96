#!/usr/bin/env bash
# Build the shipped server binary and the benchmark from source, then run
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/cli" ]]; then
    echo "perfbench: run from the root of an rzen checkout (crates/cli not found)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p rzen-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2

exec "$target/release/rzen-perfbench" --server-bin "$target/release/rzen-cli" \
    --out-dir "$target/perfbench" "$@"
