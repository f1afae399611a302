//! The traced swarm harness.
//!
//! `SwarmCluster` builds its transport inside `boot`, so its calls
//! cannot be wrapped. This module rebuilds the same lockstep harness
//! over the runtime's public API (`Reactor::new`, `attach_workload`,
//! `poll_once`, `next_wake`, `VirtualClock`, `MemTransport::with_clock`)
//! with the transport and every workload behind timing shims. It copies
//! `SwarmCluster` step for step — boot order, each node's bootstrap list
//! of the connectable nodes booted before it, per-node seeds and
//! session caps, churn handling, the settle-then-advance step and the
//! stopping rule — and the benchmark checks that both produce
//! bitwise-equal outcomes for the same configuration.

use crate::layers::{self, span, Layer, Ledger, TimedTransport, TimedWorkload};
use crate::swarm::{micros, Snapshot, HORIZON};
use bartercast_core::PrivateHistory;
use bartercast_node::clock::{Clock, VirtualClock};
use bartercast_node::mem::MemTransport;
use bartercast_node::stats::NodeStats;
use bartercast_node::transport::Transport;
use bartercast_node::{NodeConfig, Reactor};
use bartercast_swarm::{
    NodeSpec, PeerBehaviour, SwarmClusterConfig, SwarmEvent, SwarmEventKind, SwarmLedger,
    SwarmParams, SwarmRow, SwarmWorkload,
};
use bartercast_util::units::{Bytes, PeerId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The final state of a departed node.
struct Departed {
    stats: NodeStats,
    edges: Vec<(PeerId, PeerId, Bytes)>,
    all_from_pieces: bool,
}

struct TracedSwarm {
    reactors: BTreeMap<PeerId, Reactor>,
    specs: BTreeMap<PeerId, NodeSpec>,
    ever: BTreeMap<PeerId, NodeSpec>,
    clock: Arc<VirtualClock>,
    mem: Arc<MemTransport>,
    transport: Arc<TimedTransport<MemTransport>>,
    ledger: Arc<Mutex<SwarmLedger>>,
    events: Vec<SwarmEvent>,
    next_event: usize,
    departed: BTreeMap<PeerId, Departed>,
    config: SwarmClusterConfig,
}

impl TracedSwarm {
    fn boot(mut config: SwarmClusterConfig) -> TracedSwarm {
        config.params.validate();
        config.events.sort_by_key(|e| e.at);
        let clock = Arc::new(VirtualClock::new());
        let mem = Arc::new(MemTransport::with_clock(
            config.mem,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let mut swarm = TracedSwarm {
            reactors: BTreeMap::new(),
            specs: BTreeMap::new(),
            ever: BTreeMap::new(),
            clock,
            transport: Arc::new(TimedTransport::new(Arc::clone(&mem))),
            mem,
            ledger: Arc::new(Mutex::new(SwarmLedger::default())),
            events: std::mem::take(&mut config.events),
            next_event: 0,
            departed: BTreeMap::new(),
            config,
        };
        for spec in swarm.config.nodes.clone() {
            swarm.boot_node(spec);
        }
        swarm
    }

    fn boot_node(&mut self, spec: NodeSpec) {
        let bootstrap: Vec<PeerId> = self
            .specs
            .values()
            .filter(|s| s.connectable && s.id != spec.id)
            .map(|s| s.id)
            .collect();
        let node_config = NodeConfig {
            seed: self.config.node.seed.wrapping_add(spec.id.0 as u64),
            max_sessions: spec.max_sessions.unwrap_or(self.config.node.max_sessions),
            ..self.config.node
        };
        let mut reactor = Reactor::new(
            spec.id,
            Arc::clone(&self.transport) as Arc<dyn Transport>,
            bootstrap.clone(),
            PrivateHistory::new(spec.id),
            node_config,
            Arc::clone(&self.clock) as Arc<dyn Clock>,
        )
        .expect("bind listener");
        let params = SwarmParams {
            behaviour: spec.behaviour,
            seed_initial: spec.seed_initial,
            ..self.config.params
        };
        let workload = SwarmWorkload::new(spec.id, params, bootstrap, Arc::clone(&self.ledger));
        reactor.attach_workload(
            Box::new(TimedWorkload::new(workload)),
            self.config.choke_interval,
        );
        self.specs.insert(spec.id, spec);
        self.ever.insert(spec.id, spec);
        self.reactors.insert(spec.id, reactor);
    }

    fn remove_node(&mut self, id: PeerId) {
        let Some(reactor) = self.reactors.remove(&id) else {
            return;
        };
        let state = reactor.state();
        let state = state.lock().expect("state lock");
        self.departed.insert(
            id,
            Departed {
                stats: reactor.counters().snapshot(),
                edges: state.subjective_edges(),
                all_from_pieces: state.history().all_from_pieces(),
            },
        );
        drop(state);
        self.specs.remove(&id);
        drop(reactor);
        self.transport.disconnect(id);
    }

    fn apply_due_events(&mut self) {
        while self.next_event < self.events.len()
            && self.events[self.next_event].at <= self.clock.elapsed()
        {
            let event = self.events[self.next_event];
            self.next_event += 1;
            match event.kind {
                SwarmEventKind::Leave(id) => self.remove_node(id),
                SwarmEventKind::Join(spec) => self.boot_node(spec),
                SwarmEventKind::Whitewash { old, fresh } => {
                    let behaviour = self
                        .specs
                        .get(&old)
                        .map(|s| s.behaviour)
                        .unwrap_or(PeerBehaviour::Freerider);
                    self.remove_node(old);
                    self.boot_node(NodeSpec {
                        id: fresh,
                        behaviour,
                        seed_initial: false,
                        connectable: true,
                        max_sessions: None,
                    });
                }
            }
        }
    }

    /// Settle the current instant, then advance to the earliest wake.
    fn step(&mut self) -> bool {
        span(Layer::HarnessStep, || {
            for _ in 0..10_000 {
                let mut progress = false;
                for r in self.reactors.values_mut() {
                    let (useful, dur) = span(Layer::Reactor, || r.poll_once());
                    layers::note(|l| {
                        if useful {
                            l.useful_polls += 1;
                        } else {
                            l.idle_poll_ns += dur.as_nanos() as u64;
                        }
                    });
                    progress |= useful;
                }
                if !progress {
                    break;
                }
            }
            let next = self
                .reactors
                .values()
                .filter_map(|r| span(Layer::Timer, || r.next_wake()).0)
                .min();
            match next {
                Some(at) => {
                    let now = self.clock.now();
                    self.clock
                        .advance_to(at.max(now + Duration::from_micros(1)));
                    true
                }
                None => false,
            }
        })
        .0
    }

    /// `SwarmCluster::run_until_cooperators_complete`'s predicate. The
    /// untraced harness reaches the same answer through the public API
    /// (and records the incentive metric on the way); neither
    /// predicate's time counts in `run_s`.
    fn cooperators_complete(&self) -> bool {
        let piece_count = self.config.params.piece_count as u64;
        let ledger = self.ledger.lock().expect("ledger lock");
        self.specs.values().all(|s| {
            s.behaviour != PeerBehaviour::Cooperator
                || s.seed_initial
                || ledger.progress_of(s.id).pieces >= piece_count
        })
    }

    fn snapshot(&self, completed: bool) -> Snapshot {
        let mut stats: BTreeMap<PeerId, NodeStats> =
            self.departed.iter().map(|(&id, d)| (id, d.stats)).collect();
        let mut edges: BTreeMap<PeerId, Vec<_>> = self
            .departed
            .iter()
            .map(|(&id, d)| (id, d.edges.clone()))
            .collect();
        let mut all_from_pieces = self.departed.values().all(|d| d.all_from_pieces);
        for (&id, r) in &self.reactors {
            stats.insert(id, r.counters().snapshot());
            let state = r.state();
            let state = state.lock().expect("state lock");
            edges.insert(id, state.subjective_edges());
            all_from_pieces &= state.history().all_from_pieces();
        }
        let ledger = self.ledger.lock().expect("ledger lock").clone();
        let piece_count = self.config.params.piece_count as u64;
        let policy = self.config.params.policy.label();
        let rows = self
            .ever
            .values()
            .map(|spec| {
                let p = ledger.progress_of(spec.id);
                let pieces = if spec.seed_initial {
                    piece_count
                } else {
                    p.pieces
                };
                SwarmRow {
                    peer: spec.id,
                    behaviour: spec.behaviour,
                    policy: policy.clone(),
                    pieces,
                    completeness: pieces as f64 / piece_count as f64,
                    downloaded: p.downloaded,
                    uploaded: p.uploaded,
                    completed_round: p.completed_round,
                }
            })
            .collect();
        Snapshot {
            completed,
            elapsed: self.clock.elapsed(),
            ledger,
            stats,
            edges,
            rows,
            all_from_pieces,
            frames_dropped: self.mem.frames_dropped(),
        }
    }

    /// A timed sweep of every live node's reputation of every peer
    /// ever booted, after the run.
    fn reputation_sweep_us(&self) -> f64 {
        let peers: Vec<PeerId> = self.ever.keys().copied().collect();
        let start = Instant::now();
        for (&me, r) in &self.reactors {
            let state = r.state();
            let mut state = state.lock().expect("state lock");
            for &peer in &peers {
                if peer != me {
                    std::hint::black_box(state.reputation(me, peer));
                }
            }
        }
        micros(start.elapsed())
    }

    /// Reputation-engine counters summed over live nodes:
    /// `(hits, misses, graph edges)`.
    fn engine_totals(&self) -> (u64, u64, u64) {
        let mut totals = (0, 0, 0);
        for r in self.reactors.values() {
            let state = r.state();
            let state = state.lock().expect("state lock");
            let s = state.engine().stats();
            totals.0 += s.hits;
            totals.1 += s.misses;
            totals.2 += state.engine().graph().edge_count() as u64;
        }
        totals
    }
}

/// A traced swarm run: the outcome, its timings, and the ledger.
pub struct TracedRun {
    /// Wall seconds of the steps, timed as in the untraced run.
    pub run_s: f64,
    /// Wall microseconds of each lockstep step.
    pub steps_us: Vec<f64>,
    /// The outcome, to compare against the untraced run.
    pub snapshot: Snapshot,
    /// Spans and counts of the run loop.
    pub ledger: Ledger,
    /// Engine cache hits, misses and graph edges over live nodes.
    pub engine: (u64, u64, u64),
    /// The post-run reputation sweep, µs.
    pub sweep_us: f64,
    /// What one span costs the traced run, ns.
    pub span_ns: f64,
}

/// Boot and run one instance through the traced harness.
pub fn run(config: SwarmClusterConfig) -> TracedRun {
    let mut swarm = TracedSwarm::boot(config);
    layers::take();
    let mut steps_us = Vec::new();
    let mut last_end: Option<Instant> = None;
    let completed = loop {
        span(Layer::HarnessEvents, || swarm.apply_due_events());
        let entered = Instant::now();
        if let Some(end) = last_end {
            steps_us.push(micros(entered - end));
        }
        let done = swarm.cooperators_complete();
        last_end = Some(Instant::now());
        if done {
            break true;
        }
        if swarm.clock.elapsed() >= HORIZON {
            break false;
        }
        if !swarm.step() {
            break swarm.cooperators_complete();
        }
    };
    let run_s = steps_us.iter().sum::<f64>() / 1e6;
    let ledger = layers::take();
    let span_ns = layers::span_cost_ns();
    let snapshot = swarm.snapshot(completed);
    let engine = swarm.engine_totals();
    let sweep_us = swarm.reputation_sweep_us();
    drop(swarm);
    layers::take();
    TracedRun {
        run_s,
        steps_us,
        snapshot,
        ledger,
        engine,
        sweep_us,
        span_ns,
    }
}
