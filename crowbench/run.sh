#!/usr/bin/env bash
# Builds the benchmark and the crow-serve binary it drives from source,
# then runs it with the given arguments (see crowbench/README.md).
#
#   bash crowbench/run.sh --workload single-membound --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR when set, else crowbench/target;
# cargo's progress goes to stderr so stdout carries only the results.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path crowbench/Cargo.toml --bins >&2
exec "${CARGO_TARGET_DIR:-crowbench/target}/release/crowbench" "$@"
