//! Virtual-time determinism gate: the same adversarial swarm run
//! twice must produce bitwise-identical outcomes — download totals,
//! contribution graphs, and `NodeStats` — even under frame loss,
//! jittered delays, churn, a whitewashing freerider, a node nobody
//! can dial, and a session-capped node. This is the property that
//! makes every other swarm assertion in the suite trustworthy: any
//! hidden wall-clock, map-order, or RNG dependence shows up here as
//! a diff between two runs.

use bartercast_core::policy::ReputationPolicy;
use bartercast_core::PrivateHistory;
use bartercast_node::clock::{Clock, VirtualClock};
use bartercast_node::mem::{MemConfig, MemTransport};
use bartercast_node::stats::NodeStats;
use bartercast_node::transport::Transport;
use bartercast_node::{NodeConfig, Reactor};
use bartercast_swarm::{
    NodeSpec, PeerBehaviour, SwarmCluster, SwarmClusterConfig, SwarmEvent, SwarmEventKind,
    SwarmLedger, SwarmParams, SwarmPolicy, SwarmWorkload,
};
use bartercast_util::units::{Bytes, PeerId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const HORIZON: Duration = Duration::from_secs(120);

/// 8 nodes: a seeder, five cooperators (one non-connectable, one
/// session-capped), two freeriders — one of which whitewashes into a
/// fresh identity mid-run. The transport drops 5% of frames and
/// jitters delivery.
fn adversarial_config() -> SwarmClusterConfig {
    let mut nodes = vec![NodeSpec::new(0, PeerBehaviour::Cooperator, true)];
    for id in 1..=5 {
        nodes.push(NodeSpec::new(id, PeerBehaviour::Cooperator, false));
    }
    // node 3 sits behind NAT: all its sessions are outbound
    nodes[3].connectable = false;
    // node 4 sheds sessions beyond 4
    nodes[4].max_sessions = Some(4);
    for id in 6..=7 {
        nodes.push(NodeSpec::new(id, PeerBehaviour::Freerider, false));
    }
    SwarmClusterConfig {
        nodes,
        params: SwarmParams {
            piece_count: 32,
            policy: SwarmPolicy::Reputation(ReputationPolicy::Rank),
            ..SwarmParams::default()
        },
        mem: MemConfig {
            loss: 0.05,
            min_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(5),
            ..MemConfig::default()
        },
        events: vec![
            // freerider 7 whitewashes: the paper's §6 attack — shed a
            // ruined reputation by rejoining under a fresh identity
            SwarmEvent {
                at: Duration::from_secs(30),
                kind: SwarmEventKind::Whitewash {
                    old: bartercast_util::units::PeerId(7),
                    fresh: bartercast_util::units::PeerId(8),
                },
            },
            // cooperator 5 churns out entirely
            SwarmEvent {
                at: Duration::from_secs(48),
                kind: SwarmEventKind::Leave(bartercast_util::units::PeerId(5)),
            },
        ],
        ..SwarmClusterConfig::default()
    }
}

fn run_to_horizon() -> SwarmCluster {
    let mut cluster = SwarmCluster::boot(adversarial_config()).expect("boot");
    cluster.run_until(|_| false, HORIZON);
    cluster
}

#[test]
fn two_lossy_churning_runs_are_bitwise_identical() {
    let a = run_to_horizon();
    let b = run_to_horizon();

    assert_eq!(a.elapsed(), b.elapsed(), "virtual clocks diverged");
    assert_eq!(a.ledger(), b.ledger(), "download totals diverged");
    assert_eq!(
        a.edges(),
        b.edges(),
        "subjective contribution graphs diverged"
    );
    assert_eq!(a.stats(), b.stats(), "NodeStats diverged");
    assert_eq!(a.report().rows, b.report().rows, "report rows diverged");
}

#[test]
fn the_adversity_actually_happened() {
    let cluster = run_to_horizon();
    let stats = cluster.stats();

    // the whitewashed identity departed and its replacement ran
    let ids: Vec<u32> = stats.keys().map(|p| p.0).collect();
    assert!(ids.contains(&7), "departed identity keeps its snapshot");
    assert!(ids.contains(&8), "fresh identity joined");
    let fresh = &stats[&bartercast_util::units::PeerId(8)];
    assert!(fresh.sessions_opened > 0, "whitewashed node reconnected");

    // the capped node shed sessions at some point
    let capped = &stats[&bartercast_util::units::PeerId(4)];
    assert!(
        capped.shed_accept + capped.shed_session > 0,
        "session cap never engaged: {capped:?}"
    );

    // loss forced at least one re-request: some served bytes never
    // became receipts
    let ledger = cluster.ledger();
    let served: u64 = ledger.served.values().map(|b| b.0).sum();
    let delivered: u64 = ledger.delivered.values().map(|b| b.0).sum();
    assert!(
        delivered < served,
        "a 5% lossy transport should leak at least one frame: \
         served {served} == delivered {delivered}"
    );

    // contribution edges still only come from pieces
    assert!(cluster.all_from_pieces());

    // and the whitewash paid off, as §6 predicts: the fresh identity
    // kept downloading after the rejoin
    assert!(
        ledger.progress_of(bartercast_util::units::PeerId(8)).pieces > 0,
        "whitewashed freerider should resume downloading under the \
         fresh identity"
    );
}

type Edges = BTreeMap<PeerId, Vec<(PeerId, PeerId, Bytes)>>;

/// The [`SwarmCluster`] lockstep run rebuilt over the public runtime
/// API (same boot order, bootstraps, seeds, churn and stop rule), with
/// every reactor polled `polls` times back to back in each pass.
fn run_polling(polls: usize) -> (SwarmLedger, BTreeMap<PeerId, NodeStats>, Edges) {
    let mut config = adversarial_config();
    config.events.sort_by_key(|e| e.at);
    let clock = Arc::new(VirtualClock::new());
    let transport = Arc::new(MemTransport::with_clock(
        config.mem,
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    let ledger = Arc::new(Mutex::new(SwarmLedger::default()));
    let mut reactors: BTreeMap<PeerId, Reactor> = BTreeMap::new();
    let mut specs: BTreeMap<PeerId, NodeSpec> = BTreeMap::new();
    let mut stats = BTreeMap::new();
    let mut edges = BTreeMap::new();

    let boot = |spec: NodeSpec,
                reactors: &mut BTreeMap<PeerId, Reactor>,
                specs: &mut BTreeMap<PeerId, NodeSpec>| {
        let bootstrap: Vec<PeerId> = specs
            .values()
            .filter(|s| s.connectable && s.id != spec.id)
            .map(|s| s.id)
            .collect();
        let node = NodeConfig {
            seed: config.node.seed.wrapping_add(spec.id.0 as u64),
            max_sessions: spec.max_sessions.unwrap_or(config.node.max_sessions),
            ..config.node
        };
        let mut reactor = Reactor::new(
            spec.id,
            Arc::clone(&transport) as Arc<dyn Transport>,
            bootstrap.clone(),
            PrivateHistory::new(spec.id),
            node,
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .expect("bind listener");
        let params = SwarmParams {
            behaviour: spec.behaviour,
            seed_initial: spec.seed_initial,
            ..config.params
        };
        let workload = SwarmWorkload::new(spec.id, params, bootstrap, Arc::clone(&ledger));
        reactor.attach_workload(Box::new(workload), config.choke_interval);
        specs.insert(spec.id, spec);
        reactors.insert(spec.id, reactor);
    };
    for spec in config.nodes.clone() {
        boot(spec, &mut reactors, &mut specs);
    }

    let snapshot = |r: &Reactor, stats: &mut BTreeMap<_, _>, edges: &mut Edges| {
        stats.insert(r.id(), r.counters().snapshot());
        edges.insert(r.id(), r.state().lock().unwrap().subjective_edges());
    };
    let mut next_event = 0;
    while clock.elapsed() < HORIZON {
        while next_event < config.events.len() && config.events[next_event].at <= clock.elapsed() {
            let (old, fresh) = match config.events[next_event].kind {
                SwarmEventKind::Leave(id) => (id, None),
                SwarmEventKind::Whitewash { old, fresh } => (old, Some(fresh)),
                SwarmEventKind::Join(_) => unreachable!("the adversarial run has no joins"),
            };
            next_event += 1;
            let behaviour = specs[&old].behaviour;
            let reactor = reactors.remove(&old).expect("live node");
            snapshot(&reactor, &mut stats, &mut edges);
            specs.remove(&old);
            drop(reactor);
            transport.disconnect(old);
            if let Some(fresh) = fresh {
                let spec = NodeSpec::new(fresh.0, behaviour, false);
                boot(spec, &mut reactors, &mut specs);
            }
        }
        for _ in 0..10_000 {
            let mut progress = false;
            for r in reactors.values_mut() {
                for _ in 0..polls {
                    progress |= r.poll_once();
                }
            }
            if !progress {
                break;
            }
        }
        let Some(at) = reactors.values().filter_map(Reactor::next_wake).min() else {
            break;
        };
        let now = clock.now();
        clock.advance_to(at.max(now + Duration::from_micros(1)));
    }
    for r in reactors.values() {
        snapshot(r, &mut stats, &mut edges);
    }
    let ledger = ledger.lock().unwrap().clone();
    (ledger, stats, edges)
}

/// Per-instant settling must not depend on how often a reactor is
/// polled: polling every reactor twice per pass — the second poll
/// usually finding nothing due — leaves the ledger, every `NodeStats`
/// and every subjective graph bitwise equal to the plain harness run.
/// This extends the node crate's redundant-poll check to reactors with
/// the piece workload, choke rounds, loss and churn attached.
#[test]
fn redundant_polls_change_nothing_in_a_lossy_swarm() {
    let plain = run_to_horizon();
    let once = run_polling(1);
    assert_eq!(
        once.0,
        plain.ledger(),
        "the rebuilt loop must match the harness"
    );
    assert_eq!(once.1, plain.stats());
    assert_eq!(once.2, plain.edges());
    let twice = run_polling(2);
    assert_eq!(twice.0, plain.ledger(), "download totals diverged");
    assert_eq!(twice.1, plain.stats(), "NodeStats diverged");
    assert_eq!(
        twice.2,
        plain.edges(),
        "subjective contribution graphs diverged"
    );
}
