#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, clippy clean, plus the
# differential flow suite and a proptest-regressions drift check.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release
cargo test -q
# Differential harness, run explicitly: Gomory–Hu tree vs per-pair
# Dinic / Edmonds–Karp / push–relabel, min-cut certificates, and the
# cache-invalidation and codec fuzz properties. The vendored proptest
# derives every case seed deterministically (no time/entropy input),
# so these runs are reproducible byte-for-byte.
cargo test -q -p bartercast-graph --test differential
# Layered-DAG bounded-k kernel vs per-pair depth-bounded evaluation
# (bit-identity for k ∈ {1..6}), plus the k ≥ 3 k-hop journal
# eviction properties inside the invalidation suite.
cargo test -q -p bartercast-graph --test boundedk_differential
# Incremental Gomory–Hu maintenance vs from-scratch rebuild (bit-exact
# across random mutation chains with long sync gaps), CSR adjacency vs
# hash-map model equivalence, and a pinned 64-node patch fixture.
cargo test -q -p bartercast-graph --test incremental_gomoryhu
cargo test -q -p bartercast-core --test invalidation --test codec_fuzz --test delta_fuzz
cargo test -q -p bartercast-core --test reputation_bound
# Sharded reputation service: shard-vs-monolith bit-identity at shard
# counts {1,2,4,8} (interleaved queries, long sync gaps, node growth,
# community partitioning, live repartition, pinned 64-node checksum)
# and epoch-snapshot consistency under a concurrent writer.
cargo test -q -p bartercast-core --test shard_differential --test epoch_snapshot
# Fast sharded-scale smoke: 2k-peer community population at 4 shards,
# monolith cross-check on, 1-vs-4-shard checksum equality.
cargo test -q -p bartercast-sim four_shard_smoke
# Node runtime convergence gate: 8 peers over the deterministic
# in-process transport, 5% frame loss, one forced disconnect per node;
# every subjective graph must converge to the gossip-reachable record
# set, bit-identically across two seeded runs. Includes the delta
# anti-entropy duplicate-ratio regression gate: digest-gated sync must
# keep redundant record deliveries under 35% of received traffic on
# the same 8-node lossy schedule (blind pushing measures ~58%).
# MemTransport only — no sockets — so it runs anywhere tier-1 runs.
cargo test -q -p bartercast-node --test cluster
# Node unit tests: wire envelope decoding (the v3-only handshake, the
# unassigned kind byte 2, hostile bodies), the session state machine
# and its Delta sender check, the reactor, timer queue, MemTransport
# and loadgen. `cargo test -q` at the root does not reach them.
cargo test -q -p bartercast-node --lib
# Reactor determinism: the same lossy 8-node population driven in
# lockstep on virtual time, twice, must produce bitwise-identical
# NodeStats and converged graphs; plus pump-order / redundant-poll
# invariance of the MemTransport loss-and-delay schedule, and the
# delta-sync path under elevated loss (dropped Digest/Delta frames
# repaired by the periodic full sync, still bit-identical).
cargo test -q -p bartercast-node --test determinism
# Session-lifecycle edge cases: half-open peers hit the idle deadline,
# a Bye behind a partially-decoded frame still drains cleanly, and
# dial backoff caps at its maximum with jitter inside bounds.
cargo test -q -p bartercast-node --test lifecycle
# Loadgen overload smoke: 512 concurrent dialers slam one reactor
# capped at 128 sessions; the run must complete with the cap held,
# shedding counted on both sides, and a sane shed rate (sheds some,
# still serves a healthy share).
cargo test -q -p bartercast-node --test loadgen
# Swarm determinism gate: the same 8-node lossy piece-transfer swarm
# — mid-run whitewash, a non-connectable node, a session-capped node
# — run twice in virtual time must produce bitwise-identical download
# totals, contribution graphs, and NodeStats.
cargo test -q -p bartercast-swarm --test determinism
# Wire-level policy gate: the paper's qualitative Fig 2–3 result over
# the reactor runtime — under rank/ban/ratio, freerider completion is
# measurably suppressed versus cooperators by the time every
# cooperator finishes, with piece transfers (checked against the
# ground-truth ledger) as the sole source of contribution edges.
cargo test -q -p bartercast-swarm --test policies
# Benchmark smoke test: tiny swarms and a 1-day trace through the
# perfbench harness, traced and untraced, must agree bitwise and print
# every metric BENCHMARK.json names. perfbench is its own workspace
# (path dependencies on crates/*), so the root commands above skip it.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
# The vendored proptest never writes regression files; any
# proptest-regressions entry appearing in the tree means a test pulled
# in the real crate or something is scribbling where it shouldn't.
if [ -n "$(git status --porcelain | grep proptest-regressions || true)" ] \
    || [ -n "$(find . -name proptest-regressions -not -path './target/*' -print -quit)" ]; then
    echo "error: proptest-regressions drift detected" >&2
    exit 1
fi
cargo clippy --all-targets -- -D warnings
# Public API docs must build warning-free (broken intra-doc links,
# missing docs on public items under #![warn(missing_docs)] crates).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
# The bench crate (binaries + criterion benches) is not exercised by
# `cargo test`, so gate its hygiene explicitly: formatting and a
# warnings-as-errors lint pass across all its targets. The node crate
# gets the same treatment — its cluster tests run above, but fmt is
# not otherwise enforced.
cargo fmt -p bench -p bartercast-node -p bartercast-swarm --check
cargo clippy -p bench -p bartercast-node -p bartercast-swarm --all-targets -- -D warnings
