//! Standalone measurement of the Equation-2 sweep scheduler: the
//! serial reference versus the work-stealing task list, on a
//! uniform-degree population and a skewed one (the low-index eighth
//! carries every heavy evaluator — the imbalance the cost-ordered task
//! list exists for).
//!
//! Emits `BENCH_sweep.json` in the current directory (override with a
//! path argument). Both schedules are bit-identical by construction
//! (gather-then-reduce; asserted here before anything is timed), so
//! the only thing at stake is wall-clock.
//!
//! Two views per population:
//!
//! * **measured** — wall-clock of one full `system_reputation_sums`
//!   call per schedule on this host. On a single-core machine work
//!   stealing degenerates to serial-plus-overhead.
//! * **modeled makespan** — each evaluator's sweep is timed
//!   individually (cold memo, exactly the unit of work a sweep thread
//!   claims), then the work-stealing claim order (heaviest subjective
//!   graph first, next task to the first free worker) is replayed over
//!   those measured costs with 8 virtual workers. Deterministic given
//!   the per-task measurements.
//!
//! Aggregated engine cache counters for one sweep land in each row.

use bartercast_core::{CacheStats, ReputationEngine};
use bartercast_gossip::PssConfig;
use bartercast_sim::adversary::Conduct;
use bartercast_sim::config::Behaviour;
use bartercast_sim::peer::SimPeer;
use bartercast_sim::sweep::{system_reputation_sums, SweepSchedule};
use bartercast_util::units::{Bandwidth, Bytes, PeerId};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per measurement; the minimum is kept.
const REPS: usize = 3;

/// Virtual workers for the modeled makespans — the sweep module's
/// thread ceiling.
const WORKERS: usize = 8;

/// Prebuilt engines for one population shape. `edges[i]` synthetic
/// transfers rooted at evaluator `i` (half `i -> mid`, half
/// `mid -> other`), so an engine's two-hop sweep cost scales with its
/// edge budget.
fn build_engines(n: u32, edges: impl Fn(u32) -> u64, seed: u64) -> Vec<ReputationEngine> {
    (0..n)
        .map(|i| {
            let mut engine = ReputationEngine::new();
            let mut state = seed.wrapping_add(i as u64) | 1;
            for step in 0..edges(i) {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mid = PeerId(((state >> 33) % n as u64) as u32);
                let other = PeerId(((state >> 17) % n as u64) as u32);
                let amount = Bytes(1 + state % 1_000_000);
                if step % 2 == 0 {
                    engine.graph_mut().add_transfer(PeerId(i), mid, amount);
                } else if mid != other {
                    engine.graph_mut().add_transfer(mid, other, amount);
                }
            }
            engine
        })
        .collect()
}

/// A fresh population from cloned engines (each timed run must start
/// with cold memos so the schedules do identical work).
fn population(engines: &[ReputationEngine]) -> Vec<SimPeer> {
    engines
        .iter()
        .enumerate()
        .map(|(i, engine)| {
            SimPeer::new(
                PeerId(i as u32),
                Behaviour::Sharer,
                Conduct::Honest,
                true,
                Bandwidth::from_mbps(3),
                Bandwidth::from_kbps(512),
                PssConfig::default(),
                engine.clone(),
            )
        })
        .collect()
}

fn time_schedule(engines: &[ReputationEngine], indices: &[usize], schedule: SweepSchedule) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut peers = population(engines);
        let start = Instant::now();
        black_box(system_reputation_sums(&mut peers, indices, schedule));
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Per-evaluator sweep cost in ms: the unit of work a sweep thread
/// claims, timed cold (fresh memo) per repetition.
fn task_costs(engines: &[ReputationEngine], targets: &[PeerId]) -> Vec<f64> {
    let mut costs = vec![f64::INFINITY; engines.len()];
    for _ in 0..REPS {
        let mut peers = population(engines);
        for (i, peer) in peers.iter_mut().enumerate() {
            let evaluator = peer.id;
            let start = Instant::now();
            black_box(peer.engine.reputations_from(evaluator, targets));
            costs[i] = costs[i].min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    costs
}

/// Makespan of the work-stealing claim order: tasks sorted heaviest
/// subjective graph first (the scheduler's cost proxy is edge count),
/// each claimed by the first worker to free up.
fn stealing_makespan(engines: &[ReputationEngine], task_ms: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..task_ms.len()).collect();
    order.sort_by(|&a, &b| {
        let (ca, cb) = (
            engines[a].graph().edge_count(),
            engines[b].graph().edge_count(),
        );
        cb.cmp(&ca).then(a.cmp(&b))
    });
    let mut free = [0.0f64; WORKERS];
    for &t in &order {
        let w = (0..WORKERS)
            .min_by(|&a, &b| free[a].partial_cmp(&free[b]).expect("finite"))
            .expect("WORKERS > 0");
        free[w] += task_ms[t];
    }
    free.iter().fold(0.0f64, |a, &b| a.max(b))
}

struct Row {
    population: &'static str,
    n: u32,
    serial_ms: f64,
    stealing_ms: f64,
    stealing_makespan_ms: f64,
    stats: CacheStats,
}

fn measure(population_name: &'static str, n: u32, edges: impl Fn(u32) -> u64) -> Row {
    let engines = build_engines(n, edges, 42);
    let indices: Vec<usize> = (0..n as usize).collect();
    let targets: Vec<PeerId> = (0..n).map(PeerId).collect();

    // correctness gate: both schedules must agree bitwise before
    // anything is timed
    let serial_sums = {
        let mut peers = population(&engines);
        system_reputation_sums(&mut peers, &indices, SweepSchedule::Serial)
    };
    let stealing_sums = {
        let mut peers = population(&engines);
        system_reputation_sums(&mut peers, &indices, SweepSchedule::WorkStealing)
    };
    for (k, (a, b)) in serial_sums.iter().zip(&stealing_sums).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "WorkStealing diverges at target {k}"
        );
    }

    let serial_ms = time_schedule(&engines, &indices, SweepSchedule::Serial);
    let stealing_ms = time_schedule(&engines, &indices, SweepSchedule::WorkStealing);

    let costs = task_costs(&engines, &targets);
    let stealing_makespan_ms = stealing_makespan(&engines, &costs);

    // aggregate cache counters across the population after one sweep
    let stats = {
        let mut peers = population(&engines);
        system_reputation_sums(&mut peers, &indices, SweepSchedule::WorkStealing);
        let mut total = CacheStats::default();
        for p in &peers {
            let s = p.engine.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.entries;
            total.evictions += s.evictions;
            total.invalidated += s.invalidated;
            total.tree_sweeps += s.tree_sweeps;
            total.fallback_sweeps += s.fallback_sweeps;
        }
        total
    };

    Row {
        population: population_name,
        n,
        serial_ms,
        stealing_ms,
        stealing_makespan_ms,
        stats,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let n: u32 = 256;
    // skewed: the low-index eighth of the population carries dense
    // subjective graphs, so the heavy evaluators are contiguous
    let heavy = n / 8;
    let rows = vec![
        measure("uniform", n, |_| 2_000),
        measure("skewed", n, move |i| if i < heavy { 30_000 } else { 50 }),
    ];
    for r in &rows {
        eprintln!(
            "{:8}  n={}  measured serial/stealing {:7.2}/{:7.2} ms   \
             modeled {WORKERS}-worker stealing {:7.2} ms",
            r.population, r.n, r.serial_ms, r.stealing_ms, r.stealing_makespan_ms,
        );
    }
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"population\": \"{}\", \"n\": {}, \"workers_modeled\": {WORKERS}, \
                 \"serial_ms\": {:.3}, \"stealing_ms\": {:.3}, \
                 \"stealing_makespan_ms\": {:.3}, \"cache\": {{{}}}}}",
                r.population,
                r.n,
                r.serial_ms,
                r.stealing_ms,
                r.stealing_makespan_ms,
                r.stats.json_fields()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sweep_schedule\",\n  \"unit\": \"ms_per_system_sweep\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
