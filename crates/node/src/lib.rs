//! `bartercast-node`: the peer runtime.
//!
//! Everything below `crates/node` turns the passive BarterCast
//! libraries (history, codec, reputation engine, gossip sampling) into
//! a *running peer* — now as an event-driven reactor rather than
//! thread-per-session. The layering:
//!
//! * [`transport`] — the non-blocking [`Transport`](transport::Transport)
//!   abstraction (frame-out/readiness-in), the [`WakeQueue`] readiness
//!   mechanism, the `poll(2)` shim, and the loopback TCP
//!   implementation;
//! * [`mem`] — the deterministic in-process transport with seeded
//!   delay, frame loss, fragmented reads, and a waker-based readiness
//!   model whose adversity schedule is poll-order independent;
//! * [`clock`] — the [`Clock`](clock::Clock) abstraction:
//!   [`SystemClock`](clock::SystemClock) for production,
//!   [`VirtualClock`](clock::VirtualClock) for lockstep determinism;
//! * [`timer`] — the deadline heap [`TimerQueue`](timer::TimerQueue)
//!   carrying exchange ticks, session deadlines, dial-backoff retries
//!   and choke rounds;
//! * [`wire`] — session envelopes (versioned `Hello`, `Bye`, the
//!   `Digest`/`Delta` record exchange, and the BitTorrent-style swarm
//!   frames) framed with the `bartercast-core` stream codec;
//! * [`workload`] — the [`Workload`](workload::Workload) hook a
//!   transfer workload (e.g. `bartercast-swarm`) implements to ride
//!   the reactor's sessions, frames, and choke-round timer;
//! * [`session`] — the per-connection state machine, pumped by the
//!   reactor on readiness instead of owning a thread;
//! * [`reactor`] — the coordinator: one poll loop driving every
//!   session, timer, accept, and dial of a node;
//! * [`node`] — the thin public handle over one reactor thread;
//! * [`cluster`] — the in-process cluster harnesses: threaded
//!   [`Cluster`](cluster::Cluster) for wall-clock integration tests and
//!   [`DeterministicCluster`](cluster::DeterministicCluster) for
//!   bitwise-reproducible lockstep runs;
//! * [`loadgen`] — the overload load-generator: thousands of scripted
//!   dialers hammering one node to measure shed rates and latency
//!   tails;
//! * [`stats`] — relaxed-atomic counters snapshotted as
//!   [`NodeStats`](stats::NodeStats), including the split
//!   `shed_accept`/`shed_session` overload accounting.

#![warn(missing_docs)]

pub mod clock;
pub mod cluster;
pub mod loadgen;
pub mod mem;
pub mod node;
pub mod reactor;
pub mod session;
pub mod stats;
pub mod timer;
pub mod transport;
pub mod wire;
pub mod workload;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use cluster::{Cluster, ClusterConfig, DeterministicCluster};
pub use loadgen::{LoadGenConfig, LoadGenReport};
pub use mem::{MemConfig, MemTransport};
pub use node::{Node, NodeConfig};
pub use reactor::{backoff_delay, NodeState, Reactor};
pub use stats::{NodeCounters, NodeStats};
pub use transport::{Conn, Listener, TcpTransport, Transport, WakeQueue};
pub use wire::SwarmFrame;
pub use workload::{Workload, WorkloadIo};
