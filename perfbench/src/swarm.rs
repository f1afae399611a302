//! The two swarm workloads: their configurations, the untraced run
//! through [`SwarmCluster`], the outcome snapshot both harnesses produce,
//! and the correctness gates.

use crate::seeds::{shuffle, SplitMix};
use crate::stats::median;
use bartercast_core::policy::ReputationPolicy;
use bartercast_node::mem::MemConfig;
use bartercast_node::stats::NodeStats;
use bartercast_node::NodeConfig;
use bartercast_swarm::{
    NodeSpec, PeerBehaviour, SwarmCluster, SwarmClusterConfig, SwarmEvent, SwarmEventKind,
    SwarmLedger, SwarmParams, SwarmPolicy, SwarmRow,
};
use bartercast_util::units::{Bytes, PeerId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Virtual-time cap on one swarm run; both workloads finish in about a
/// minute of virtual time.
pub const HORIZON: Duration = Duration::from_secs(900);

/// Set-ups timed per instance; the instance reports their median and
/// runs on the last.
pub const SETUP_REPEATS: usize = 5;

/// Pieces of the shared content.
const PIECES: usize = 32;

/// Seed of the role placement: which ids are seeders, freeriders and
/// cooperators, and so which nodes each one can dial. The population is
/// the workload's fixed dataset, as the trace is for `trace_sim`; the
/// instance seed drives the nodes' and the transport's own randomness.
/// Redrawing the placement per instance gave the incentive metric a
/// standard deviation between instances of about 45% of its mean,
/// against about 12% when only the node and transport seeds change.
pub const PLACEMENT_SEED: u64 = 42;

/// Which swarm workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmKind {
    /// Rank policy, lossless transport, full push every tick.
    Rank,
    /// Ban policy, digest/delta sync, 5% loss, jitter, churn,
    /// a non-connectable and a session-capped node.
    LossyChurn,
}

/// The swarm configuration of one instance: `nodes` members of which
/// about 1/8 are initial seeders and 1/4 freeriders, roles placed on
/// ids by a permutation drawn from [`PLACEMENT_SEED`], node and
/// transport seeds drawn from `seed`.
pub fn config(kind: SwarmKind, nodes: usize, seed: u64) -> SwarmClusterConfig {
    assert!(nodes >= 8, "the workloads need at least eight nodes");
    let mut placement = SplitMix::new(PLACEMENT_SEED);
    let mut rng = SplitMix::new(seed);
    let seeders = nodes / 8;
    let freeriders = nodes / 4;
    let mut roles: Vec<(PeerBehaviour, bool)> = Vec::with_capacity(nodes);
    roles.extend(std::iter::repeat_n(
        (PeerBehaviour::Cooperator, true),
        seeders,
    ));
    roles.extend(std::iter::repeat_n(
        (PeerBehaviour::Freerider, false),
        freeriders,
    ));
    roles.resize(nodes, (PeerBehaviour::Cooperator, false));
    shuffle(&mut roles, &mut placement);
    let mut specs: Vec<NodeSpec> = roles
        .iter()
        .enumerate()
        .map(|(id, &(behaviour, seed_initial))| NodeSpec::new(id as u32, behaviour, seed_initial))
        .collect();

    let base = SwarmClusterConfig::default();
    let policy = match kind {
        SwarmKind::Rank => ReputationPolicy::Rank,
        SwarmKind::LossyChurn => ReputationPolicy::Ban { delta: -0.3 },
    };
    let mut cfg = SwarmClusterConfig {
        params: SwarmParams {
            piece_count: PIECES,
            policy: SwarmPolicy::Reputation(policy),
            ..SwarmParams::default()
        },
        mem: MemConfig {
            seed: rng.next_u64(),
            ..MemConfig::default()
        },
        node: NodeConfig {
            seed: rng.next_u64(),
            ..base.node
        },
        ..base
    };
    if kind == SwarmKind::LossyChurn {
        cfg.node.full_sync_every = NodeConfig::default().full_sync_every;
        cfg.mem.loss = 0.05;
        cfg.mem.min_delay = Duration::from_micros(50);
        cfg.mem.max_delay = Duration::from_millis(5);
        let leechers: Vec<usize> = (0..nodes)
            .filter(|&i| specs[i].behaviour == PeerBehaviour::Cooperator && !specs[i].seed_initial)
            .collect();
        let free: Vec<u32> = (0..nodes as u32)
            .filter(|&i| specs[i as usize].behaviour == PeerBehaviour::Freerider)
            .collect();
        // the non-connectable node boots last, so it can dial everyone
        // (nobody can dial it); the capped one boots first, so every
        // later node dials it
        specs[leechers[leechers.len() - 1]].connectable = false;
        specs[leechers[0]].max_sessions = Some(nodes / 4);
        let fresh = nodes as u32;
        cfg.events = vec![
            SwarmEvent {
                at: Duration::from_secs(20),
                kind: SwarmEventKind::Whitewash {
                    old: PeerId(free[0]),
                    fresh: PeerId(fresh),
                },
            },
            SwarmEvent {
                at: Duration::from_secs(30),
                kind: SwarmEventKind::Whitewash {
                    old: PeerId(free[1]),
                    fresh: PeerId(fresh + 1),
                },
            },
            SwarmEvent {
                at: Duration::from_secs(40),
                kind: SwarmEventKind::Leave(PeerId(leechers[1] as u32)),
            },
        ];
    }
    cfg.nodes = specs;
    cfg
}

/// Everything a swarm run's outcome is compared and gated on.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Every remaining cooperator completed before the horizon.
    pub completed: bool,
    /// Virtual time at the stop.
    pub elapsed: Duration,
    /// Ground-truth transfers.
    pub ledger: SwarmLedger,
    /// Counters of every node ever booted.
    pub stats: BTreeMap<PeerId, NodeStats>,
    /// Subjective edge lists of every node ever booted.
    pub edges: BTreeMap<PeerId, Vec<(PeerId, PeerId, Bytes)>>,
    /// Per-peer outcome rows.
    pub rows: Vec<SwarmRow>,
    /// Whether every private history was fed by piece transfers only.
    pub all_from_pieces: bool,
    /// Frames the transport dropped.
    pub frames_dropped: u64,
}

impl Snapshot {
    /// Mean freerider completeness at the stop.
    pub fn free_completeness(&self) -> f64 {
        let free: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.behaviour == PeerBehaviour::Freerider)
            .map(|r| r.completeness)
            .collect();
        free.iter().sum::<f64>() / free.len().max(1) as f64
    }

    /// Sum of one counter over every node.
    pub fn total(&self, field: impl Fn(&NodeStats) -> u64) -> u64 {
        self.stats.values().map(field).sum()
    }

    /// Session attempts: established plus failed.
    pub fn sessions_attempted(&self) -> u64 {
        self.total(|s| s.sessions_opened + s.sessions_failed)
    }

    /// Failed session attempts plus protocol errors.
    pub fn sessions_bad(&self) -> u64 {
        self.total(|s| s.sessions_failed + s.protocol_errors)
    }

    /// Pieces delivered across the swarm.
    pub fn pieces(&self) -> u64 {
        self.ledger.progress.values().map(|p| p.pieces).sum()
    }

    /// The correctness gates; `Err` names the first one that failed.
    pub fn check(&self, kind: SwarmKind) -> Result<(), String> {
        if !self.completed {
            let behind: Vec<String> = self
                .rows
                .iter()
                .filter(|r| r.behaviour == PeerBehaviour::Cooperator && r.completeness < 1.0)
                .map(|r| format!("{}:{}", r.peer, r.pieces))
                .collect();
            return Err(format!(
                "cooperators did not complete before the horizon (peer:pieces {})",
                behind.join(" ")
            ));
        }
        if !self.all_from_pieces {
            return Err("a private history holds a record not fed by a piece".into());
        }
        for (node, edges) in &self.edges {
            for (from, to, bytes) in edges {
                match self.ledger.served.get(&(*from, *to)) {
                    Some(served) if bytes <= served => {}
                    _ => {
                        return Err(format!(
                            "node {node} holds edge {from}->{to} of {bytes:?} \
                             beyond the ledger's piece transfers"
                        ))
                    }
                }
            }
        }
        if kind == SwarmKind::Rank {
            let errors = self.total(|s| s.protocol_errors);
            if errors > 0 {
                return Err(format!("{errors} protocol errors on a lossless swarm"));
            }
        }
        Ok(())
    }
}

/// The outcome and timings of one run.
pub struct SwarmRun {
    /// Wall seconds to boot the swarm (median of [`SETUP_REPEATS`]).
    pub setup_s: f64,
    /// Wall seconds of the steps: first step to the stop, less the
    /// benchmark's own stopping predicate.
    pub run_s: f64,
    /// Wall microseconds of each lockstep step.
    pub steps_us: Vec<f64>,
    /// Share of the uploads leeching cooperators made before they
    /// completed that went to freeriders: where the choke policy acts.
    pub free_share: f64,
    /// The outcome.
    pub snapshot: Snapshot,
}

/// The uploads each leeching cooperator made before it completed.
///
/// The choke policy only orders a node's uploads while it leeches: a
/// complete node falls back to round-robin under every reputation
/// policy, and so do initial seeders. These are the uploads the
/// incentive metric reads.
struct LeechUploads {
    piece_count: u64,
    /// Live leeching cooperators not yet complete.
    pending: BTreeSet<PeerId>,
    /// Leeching cooperators that left before completing.
    left: Vec<PeerId>,
    /// Bytes served per `(uploader, downloader)` by cooperators up to
    /// their completion.
    served: BTreeMap<(PeerId, PeerId), Bytes>,
}

impl LeechUploads {
    fn new(cfg: &SwarmClusterConfig) -> Self {
        LeechUploads {
            piece_count: cfg.params.piece_count as u64,
            pending: cfg
                .nodes
                .iter()
                .filter(|s| s.behaviour == PeerBehaviour::Cooperator && !s.seed_initial)
                .map(|s| s.id)
                .collect(),
            left: Vec::new(),
            served: BTreeMap::new(),
        }
    }

    /// Record the uploads of every cooperator that has just completed;
    /// returns whether every live leeching cooperator holds every piece
    /// (the shipped stopping rule). The per-node piece-frame counter
    /// bounds the distinct pieces a node holds, so the ledger is only
    /// read once it can say yes for some node.
    fn observe(&mut self, cluster: &SwarmCluster) -> bool {
        let live: BTreeSet<PeerId> = cluster.members().iter().map(|s| s.id).collect();
        let left: Vec<PeerId> = self.pending.difference(&live).copied().collect();
        for id in left {
            self.pending.remove(&id);
            self.left.push(id);
        }
        let stats = cluster.stats();
        if self
            .pending
            .iter()
            .all(|id| stats[id].pieces_received < self.piece_count)
        {
            return self.pending.is_empty();
        }
        let ledger = cluster.ledger();
        let done: Vec<PeerId> = self
            .pending
            .iter()
            .copied()
            .filter(|&id| ledger.progress_of(id).pieces >= self.piece_count)
            .collect();
        for id in done {
            self.pending.remove(&id);
            self.record(&ledger, id);
        }
        self.pending.is_empty()
    }

    fn record(&mut self, ledger: &SwarmLedger, from: PeerId) {
        for (&pair, &bytes) in ledger.served.range((from, PeerId(0))..) {
            if pair.0 != from {
                break;
            }
            self.served.insert(pair, bytes);
        }
    }

    /// Share of the recorded uploads that went to freeriders. A
    /// cooperator that left before completing counts with everything it
    /// served.
    fn free_share(mut self, snapshot: &Snapshot) -> f64 {
        let behaviour: BTreeMap<PeerId, PeerBehaviour> = snapshot
            .rows
            .iter()
            .map(|r| (r.peer, r.behaviour))
            .collect();
        let unfinished: Vec<PeerId> = self.left.iter().chain(&self.pending).copied().collect();
        for id in unfinished {
            self.record(&snapshot.ledger, id);
        }
        let (mut total, mut free) = (0u64, 0u64);
        for (&(_, to), bytes) in &self.served {
            total += bytes.0;
            if behaviour.get(&to) == Some(&PeerBehaviour::Freerider) {
                free += bytes.0;
            }
        }
        free as f64 / total.max(1) as f64
    }
}

/// Run one instance through the shipped harness, timing each step
/// between calls to the stopping predicate. The predicate is the
/// benchmark's, not the program's, so its time is left out of `run_s`.
pub fn run_untraced(cfg: SwarmClusterConfig) -> SwarmRun {
    let mut uploads = LeechUploads::new(&cfg);
    let mut boots = Vec::with_capacity(SETUP_REPEATS);
    let mut cluster = None;
    for _ in 0..SETUP_REPEATS {
        drop(cluster.take());
        let boot = Instant::now();
        cluster = Some(SwarmCluster::boot(cfg.clone()).expect("boot swarm"));
        boots.push(boot.elapsed().as_secs_f64());
    }
    let mut cluster = cluster.expect("booted at least once");
    let setup_s = median(&boots);
    let mut steps_us = Vec::new();
    let mut last_end: Option<Instant> = None;
    let completed = cluster.run_until(
        |c| {
            let entered = Instant::now();
            if let Some(end) = last_end {
                steps_us.push(micros(entered - end));
            }
            let done = uploads.observe(c);
            last_end = Some(Instant::now());
            done
        },
        HORIZON,
    );
    let run_s = steps_us.iter().sum::<f64>() / 1e6;
    let snapshot = Snapshot {
        completed,
        elapsed: cluster.elapsed(),
        ledger: cluster.ledger(),
        stats: cluster.stats(),
        edges: cluster.edges(),
        rows: cluster.report().rows,
        all_from_pieces: cluster.all_from_pieces(),
        frames_dropped: cluster.transport().frames_dropped(),
    };
    SwarmRun {
        setup_s,
        run_s,
        steps_us,
        free_share: uploads.free_share(&snapshot),
        snapshot,
    }
}

/// A duration in microseconds.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
