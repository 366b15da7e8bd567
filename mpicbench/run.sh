#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments, e.g.
#
#   bash mpicbench/run.sh --workload large_clean --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR when set, else mpicbench/target.
# Cargo's progress goes to stderr; stdout carries only the benchmark's
# report, whose last line is the JSON result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/mpicbench" "$@"
