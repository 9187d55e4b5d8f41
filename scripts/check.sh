#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
# Run from the repo root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== line counts of crates/sim, crates/mem and crates/dram (tracked in ROADMAP.md) =="
./scripts/loc.sh

echo "== the benchmark's unit tests and smoke pass of all four workloads =="
# The smoke pass runs every workload's correctness checks: traced equals
# untraced, resume, byte-identical cached replies, served equals local.
cargo test --manifest-path crowbench/Cargo.toml

echo "== cargo test -q =="
cargo test --workspace -q

echo "== cargo test -q -p crow-sim (shadow protocol validator attached) =="
CROW_VALIDATE=1 cargo test -q -p crow-sim

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== cargo clippy unwrap audit (library code, tests exempt) =="
cargo clippy --lib -p crow-dram -p crow-mem -p crow-cpu -p crow-core -p crow-sim -- \
    -D clippy::unwrap_used

echo "== supervised campaign selftest (panic + timeout + kill/resume) =="
# A tiny campaign with one injected panic, one wedged job under a short
# deadline, and a simulated crash after three journaled jobs. The
# resumed run must restore exactly those three, re-run only the missing
# six, and reproduce the uninterrupted run's figure JSON byte-for-byte;
# a second resume must re-run nothing at all.
cargo build --release -p crow-bench --bin campaign_selftest
SELFTEST=target/release/campaign_selftest
CAMPDIR=$(mktemp -d)
trap 'rm -rf "$CAMPDIR"' EXIT
"$SELFTEST" --dir "$CAMPDIR/clean" --expect-fresh 9 --expect-restored 0
"$SELFTEST" --dir "$CAMPDIR/crash" --kill-after 3 && {
    echo "kill-after run should have exited 9"; exit 1; } || test $? -eq 9
"$SELFTEST" --dir "$CAMPDIR/crash" --resume --expect-restored 3 --expect-fresh 6
"$SELFTEST" --dir "$CAMPDIR/crash" --resume --expect-restored 9 --expect-fresh 0
cmp "$CAMPDIR/clean/selftest.json" "$CAMPDIR/crash/selftest.json"

echo "== scheduler perf gate (counter-based, deterministic) =="
# Indexed vs. linear FR-FCFS on the random-access stress trace: same
# architectural stats, strictly fewer candidates scanned, and scanned
# per pick below a fixed bound. Counters only — no wall-clock flake.
cargo build --release -p crow-bench --bin sched_gate
target/release/sched_gate

echo "== sampling gate (interval sampling: accuracy, speedup, determinism) =="
# Statistical interval sampling contracts: sampled IPC within 2% of the
# full run on every bench-suite case at 2M insts/core under the default
# plan; >=5x wall-clock speedup on the memory-bound mcf/random cases at
# 6M under a stretched fast-forward (CROW-8/random asserts speedup only
# — its long-FF restore-model drift is documented); and the sampled
# report bit-identical across engine x scheduler for a fixed seed/plan.
cargo build --release -p crow-bench --bin sampling_gate
target/release/sampling_gate

echo "== hammer gate (attack corrupts unmitigated, CROW suppresses) =="
# RowHammer attack-scenario contracts: an unmitigated saturating
# double-sided attack produces live flips, CROW detects and fully
# suppresses a moderate-intensity attack (flips land only in abandoned
# physical rows), both runs are validator-clean, and the flipping run
# is bit-identical across naive and event-driven engines.
cargo build --release -p crow-bench --bin hammer_gate
target/release/hammer_gate

echo "== serve gate (chaos-soak the simulation service) =="
# Boots the real crow-serve binary on a Unix socket and drives it with
# concurrent clients: distinct jobs, duplicate jobs (must collapse onto
# one simulation), malformed and oversized requests (structured errors,
# connection survives), repeat requests (zero re-simulated cycles),
# SIGTERM (graceful drain, every worker joined, nothing abandoned) and
# SIGKILL mid-job (restart over the same journal answers finished jobs
# byte-identically with zero re-runs; only the killed job re-simulates).
cargo build --release -p crow-bench --bin crow-serve --bin serve_gate
target/release/serve_gate

echo "== supervise gate (poison-job storm vs process isolation) =="
# Boots crow-serve with CROW_SERVE_ISOLATION=process and chaos enabled:
# a crash-looping fingerprint trips the circuit breaker and every
# duplicate is quarantined without re-execution, healthy jobs
# interleaved with the storm complete, a wedged child is deadline-killed
# (structured timeout) and a memory bomb is RSS-killed (structured
# resource-limit), the drain is clean, and a /proc sweep proves zero
# leaked --job-runner children.
cargo build --release -p crow-bench --bin crow-serve --bin supervise_gate
target/release/supervise_gate

echo "All checks passed."
