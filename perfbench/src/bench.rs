//! One benchmark run: repeat a workload's instances for the requested
//! time, gate every outcome, and reduce the samples to metrics.

use crate::fingerprint;
use crate::seeds::instance_seed;
use crate::stats::{median, quartiles, tail};
use crate::swarm::{self, SwarmKind};
use crate::{layers::Layer, sim, traced};
use bartercast_node::NodeStats;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// 32-node swarm, rank policy, lossless, full push every tick.
    SwarmRank,
    /// 32-node swarm, ban policy, digests, loss, jitter and churn.
    SwarmLossyChurn,
    /// The trace-driven simulator at the quick scale.
    TraceSim,
}

impl WorkloadId {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::SwarmRank,
        WorkloadId::SwarmLossyChurn,
        WorkloadId::TraceSim,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SwarmRank => "swarm_rank",
            WorkloadId::SwarmLossyChurn => "swarm_lossy_churn",
            WorkloadId::TraceSim => "trace_sim",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct instance seeds a run cycles through: most of a
    /// 35-second run on a 2-core host, so each run averages over enough
    /// instances that seed-to-seed differences mostly cancel. The
    /// outcome metrics average over exactly these.
    fn distinct_seeds(self, tiny: bool) -> usize {
        match (self, tiny) {
            (_, true) => 2,
            (WorkloadId::SwarmRank, false) => 16,
            (WorkloadId::SwarmLossyChurn, false) => 7,
            (WorkloadId::TraceSim, false) => 6,
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: WorkloadId,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measuring time; instances repeat until it is spent.
    pub seconds: f64,
    /// Per-layer metrics from traced runs instead of end-to-end ones.
    pub trace: bool,
    /// 8-node swarms and a one-day, 16-peer trace, for the smoke test.
    pub tiny: bool,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every instance passed every gate.
    pub correct: bool,
    /// Instances run.
    pub attempted: u64,
    /// Instances that failed a gate.
    pub failed: u64,
    /// Metrics; empty when a gate failed.
    pub metrics: Vec<Metric>,
    /// The first gate failure.
    pub error: Option<String>,
    /// `(name, q1, median, q3, samples)` of every per-instance sample
    /// set a metric was reduced from.
    pub spread: Vec<(&'static str, f64, f64, f64, usize)>,
    /// Untraced step samples pooled over the run, and the percentile
    /// their tail was read at.
    pub step_tail: (usize, f64),
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values become `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Per-instance samples of each metric, reduced at the end.
#[derive(Default)]
struct Samples {
    series: Vec<(&'static str, Vec<f64>)>,
}

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.series.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.series.push((name, vec![value])),
        }
    }

    fn get(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[])
    }
}

/// Gathers one run: samples, gate results.
#[derive(Default)]
struct Run {
    /// Per-instance timings and per-layer values, reduced by median.
    samples: Samples,
    /// Outcome quantities of the first pass, reduced by mean.
    outcomes: Samples,
    /// Every step timed, pooled over the run's instances.
    steps: Vec<f64>,
    /// Peak resident set once the first instance has run: a fresh
    /// process's footprint for one instance, before the allocator has
    /// kept heap from earlier ones.
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

impl Run {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.error.get_or_insert(error);
    }

    /// Pool one instance's step times; its median is a sample of
    /// `step_p50_us`.
    fn steps(&mut self, steps_us: &[f64]) {
        if !steps_us.is_empty() {
            self.samples.push("step_p50_us", median(steps_us));
            self.steps.extend_from_slice(steps_us);
        }
    }
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Outcome {
    let mut run = Run::default();
    let distinct = opts.workload.distinct_seeds(opts.tiny);
    // an untraced run completes the seed set and repeats one seed, so
    // the repeat gate always runs; a traced run compares each instance
    // with its untraced twin instead
    let min_instances = if opts.trace { 1 } else { distinct + 1 };
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut firsts = vec![None; distinct];
    let mut i = 0;
    // start another instance only if it should end within the budget
    while run.error.is_none() && (i < min_instances || start.elapsed() + longest <= budget) {
        let began = Instant::now();
        let seed = instance_seed(opts.seed, i % distinct);
        let first = &mut firsts[i % distinct];
        run.attempted += 1;
        match opts.workload {
            WorkloadId::SwarmRank => swarm_instance(&mut run, opts, SwarmKind::Rank, seed, first),
            WorkloadId::SwarmLossyChurn => {
                swarm_instance(&mut run, opts, SwarmKind::LossyChurn, seed, first)
            }
            WorkloadId::TraceSim => sim_instance(&mut run, opts, seed, first),
        }
        longest = longest.max(began.elapsed());
        if i == 0 {
            run.peak_rss_mb = peak_rss_mb();
        }
        i += 1;
    }
    finish(run, opts)
}

fn swarm_instance(
    run: &mut Run,
    opts: &Options,
    kind: SwarmKind,
    seed: u64,
    first: &mut Option<u64>,
) {
    let nodes = if opts.tiny { 8 } else { 32 };
    let config = swarm::config(kind, nodes, seed);
    let plain = swarm::run_untraced(config.clone());
    if let Err(e) = plain.snapshot.check(kind) {
        return run.fail(format!("seed {seed:#x}: {e}"));
    }
    let print = fingerprint(&plain.snapshot);
    match *first {
        Some(f) if f != print => {
            return run.fail(format!("seed {seed:#x}: a repeated run diverged"));
        }
        Some(_) => {}
        None => {
            let s = &plain.snapshot;
            let o = &mut run.outcomes;
            o.push("virtual_s", s.elapsed.as_secs_f64());
            o.push("free_share", plain.free_share);
            o.push("incentive.free_completeness", s.free_completeness());
            let attempted = s.sessions_attempted().max(1) as f64;
            o.push("ok_ratio", 1.0 - s.sessions_bad() as f64 / attempted);
            *first = Some(print);
        }
    }
    run.samples.push("setup_s", plain.setup_s);
    run.samples.push("run_s", plain.run_s);
    run.steps(&plain.steps_us);
    if !opts.trace {
        return;
    }

    let t = traced::run(config);
    if t.snapshot != plain.snapshot {
        return run.fail(format!(
            "seed {seed:#x}: traced and untraced runs differ (ledger, stats, edges or rows)"
        ));
    }
    let l = &t.ledger;
    let s = &t.snapshot;
    let p = &mut run.samples;
    let polls = l.calls(Layer::Reactor);
    p.push("harness.steps", t.steps_us.len() as f64);
    p.push("harness.polls", polls as f64);
    p.push("harness.useful_polls", l.useful_polls as f64);
    p.push(
        "harness.useful_poll_ratio",
        l.useful_polls as f64 / polls.max(1) as f64,
    );
    p.push(
        "harness.self_us",
        l.self_us(Layer::HarnessEvents) + l.self_us(Layer::HarnessStep),
    );
    p.push("timer.next_wake_calls", l.calls(Layer::Timer) as f64);
    p.push("timer.next_wake_us", l.total_us(Layer::Timer));
    p.push("reactor.poll_us", l.total_us(Layer::Reactor));
    p.push("reactor.self_us", l.self_us(Layer::Reactor));
    p.push("reactor.idle_poll_us", l.idle_poll_ns as f64 / 1e3);
    let recv_calls = l.calls(Layer::TransportRecv);
    p.push("transport.send_calls", l.calls(Layer::TransportSend) as f64);
    p.push("transport.send_us", l.total_us(Layer::TransportSend));
    p.push("transport.recv_calls", recv_calls as f64);
    p.push("transport.recv_us", l.total_us(Layer::TransportRecv));
    p.push(
        "transport.recv_empty_ratio",
        l.recv_empty as f64 / recv_calls.max(1) as f64,
    );
    p.push("transport.other_us", l.total_us(Layer::TransportOther));
    p.push("transport.frames_dropped", s.frames_dropped as f64);
    node_counters(p, s);
    let rounds = &l.choke_rounds_us;
    p.push("workload.choke_rounds", rounds.len() as f64);
    if !rounds.is_empty() {
        p.push("workload.choke_round_p50_us", median(rounds));
        p.push("workload.choke_round_tail_us", tail(rounds).1);
    }
    p.push("workload.choke_round_us", l.total_us(Layer::WorkloadChoke));
    p.push("workload.frames", l.calls(Layer::WorkloadFrame) as f64);
    p.push("workload.frame_us", l.total_us(Layer::WorkloadFrame));
    p.push("workload.other_us", l.total_us(Layer::WorkloadOther));
    let (hits, misses, edges) = t.engine;
    engine_counters(p, hits, misses, edges, t.sweep_us);
    // the program's layers only: the harness loop around them and the
    // tracer's own bookkeeping stay unattributed
    let program_us =
        l.total_us(Layer::Timer) + l.total_us(Layer::Reactor) + l.total_us(Layer::HarnessEvents);
    let traced_us = t.run_s * 1e6;
    p.push("trace.unattributed_share", 1.0 - program_us / traced_us);
    p.push("trace.spans", l.spans() as f64);
    p.push("trace.span_ns", t.span_ns);
    p.push(
        "trace.tracer_share",
        l.spans() as f64 * t.span_ns / 1e3 / traced_us,
    );
    p.push("trace.overhead_ratio", t.run_s / plain.run_s);
    p.push("trace.run_s", t.run_s);
}

/// The `NodeStats` totals of the session, wire, codec and frontier
/// layers.
fn node_counters(p: &mut Samples, s: &swarm::Snapshot) {
    type Counter = fn(&NodeStats) -> u64;
    let fields: [(&'static str, Counter); 10] = [
        ("node.bytes_sent", |n| n.bytes_sent),
        ("node.records_received", |n| n.records_received),
        ("node.digests_sent", |n| n.digests_sent),
        ("node.deltas_sent", |n| n.deltas_sent),
        ("node.full_syncs", |n| n.full_syncs),
        ("node.records_suppressed", |n| n.records_suppressed),
        ("node.sessions_opened", |n| n.sessions_opened),
        ("node.sessions_failed", |n| n.sessions_failed),
        ("node.reconnects", |n| n.reconnects),
        ("node.protocol_errors", |n| n.protocol_errors),
    ];
    for (name, field) in fields {
        p.push(name, s.total(field) as f64);
    }
    p.push(
        "node.bytes_per_piece",
        s.total(|n| n.bytes_sent) as f64 / s.pieces().max(1) as f64,
    );
}

fn engine_counters(p: &mut Samples, hits: u64, misses: u64, edges: u64, sweep_us: f64) {
    p.push("engine.cache_hits", hits as f64);
    p.push("engine.cache_misses", misses as f64);
    p.push(
        "engine.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    p.push("engine.graph_edges", edges as f64);
    p.push("engine.sweep_us", sweep_us);
}

fn sim_instance(run: &mut Run, opts: &Options, seed: u64, first: &mut Option<u64>) {
    let plain = match sim::run(seed, opts.tiny, false) {
        Ok(r) => r,
        Err(e) => return run.fail(format!("seed {seed:#x}: {e}")),
    };
    match *first {
        Some(f) if f != plain.fingerprint => {
            return run.fail(format!(
                "seed {seed:#x}: report fingerprint changed on a repeat"
            ));
        }
        Some(_) => {}
        None => {
            let o = &mut run.outcomes;
            o.push("virtual_s", plain.virtual_s);
            o.push("free_share", plain.free_share);
            o.push("incentive.free_completeness", plain.free_completeness);
            o.push("ok_ratio", 1.0);
            *first = Some(plain.fingerprint);
        }
    }
    run.samples.push("setup_s", plain.setup_s);
    run.samples.push("run_s", plain.run_s);
    run.steps(&plain.steps_us);
    if !opts.trace {
        return;
    }

    let t = match sim::run(seed, opts.tiny, true) {
        Ok(r) => r,
        Err(e) => return run.fail(format!("seed {seed:#x}: {e}")),
    };
    if t.fingerprint != plain.fingerprint {
        return run.fail(format!(
            "seed {seed:#x}: traced and untraced reports differ"
        ));
    }
    let p = &mut run.samples;
    let (system_us, sweep_us) = t.post_run_us.expect("traced run times the sweeps");
    p.push("sim.steps", t.steps_us.len() as f64);
    p.push("sim.step_p50_us", median(&t.steps_us));
    p.push("sim.step_tail_us", tail(&t.steps_us).1);
    if !t.sample_steps_us.is_empty() {
        p.push("sim.sample_step_us", median(&t.sample_steps_us));
    }
    p.push("sim.system_reputations_us", system_us);
    p.push("sim.freerider_speed_ratio", t.freerider_speed_ratio);
    let c = t.cache;
    p.push(
        "sim.cache_hit_ratio",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
    );
    engine_counters(p, c.hits, c.misses, t.graph_edges, sweep_us);
    let stepped: f64 = t.steps_us.iter().sum();
    p.push("trace.unattributed_share", 1.0 - stepped / t.loop_us);
    p.push("trace.overhead_ratio", t.run_s / plain.run_s);
    p.push("trace.run_s", t.run_s);
}

/// Every per-layer metric, in report order. Layers a workload bypasses
/// report zero.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("harness.steps", "count"),
    ("harness.polls", "count"),
    ("harness.useful_polls", "count"),
    ("harness.useful_poll_ratio", "ratio"),
    ("harness.self_us", "us"),
    ("timer.next_wake_calls", "count"),
    ("timer.next_wake_us", "us"),
    ("reactor.poll_us", "us"),
    ("reactor.self_us", "us"),
    ("reactor.idle_poll_us", "us"),
    ("transport.send_calls", "count"),
    ("transport.send_us", "us"),
    ("transport.recv_calls", "count"),
    ("transport.recv_us", "us"),
    ("transport.recv_empty_ratio", "ratio"),
    ("transport.other_us", "us"),
    ("transport.frames_dropped", "count"),
    ("node.bytes_sent", "B"),
    ("node.records_received", "count"),
    ("node.digests_sent", "count"),
    ("node.deltas_sent", "count"),
    ("node.full_syncs", "count"),
    ("node.records_suppressed", "count"),
    ("node.sessions_opened", "count"),
    ("node.sessions_failed", "count"),
    ("node.reconnects", "count"),
    ("node.protocol_errors", "count"),
    ("node.bytes_per_piece", "B/piece"),
    ("workload.choke_rounds", "count"),
    ("workload.choke_round_p50_us", "us"),
    ("workload.choke_round_tail_us", "us"),
    ("workload.choke_round_us", "us"),
    ("workload.frames", "count"),
    ("workload.frame_us", "us"),
    ("workload.other_us", "us"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.graph_edges", "count"),
    ("engine.sweep_us", "us"),
    ("sim.steps", "count"),
    ("sim.step_p50_us", "us"),
    ("sim.step_tail_us", "us"),
    ("sim.sample_step_us", "us"),
    ("sim.system_reputations_us", "us"),
    ("sim.cache_hit_ratio", "ratio"),
    ("sim.freerider_speed_ratio", "ratio"),
    ("incentive.free_completeness", "ratio"),
    ("step.samples", "count"),
    ("step.tail_percentile", "%"),
    ("step.tail_us", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.span_ns", "ns"),
    ("trace.tracer_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.run_s", "s"),
];

/// Every end-to-end metric, in report order. The step tail is not one:
/// on a shared host its top few dozen of some 300 000 steps are set by
/// the host's own stalls (one instance read a p99.9 of 1.1 ms on one run
/// and 6.5 ms on the next), so no allowed bound holds it. It is
/// reported per layer as `step.tail_us`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("step_p50_us", "us"),
    ("virtual_s", "virtual-s"),
    ("free_share", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

fn finish(mut run: Run, opts: &Options) -> Outcome {
    let mut spread = Vec::new();
    for (name, v) in run.samples.series.iter().chain(&run.outcomes.series) {
        let (q1, med, q3) = quartiles(v);
        spread.push((*name, q1, med, q3, v.len()));
    }
    if run.error.is_none() && run.samples.get("run_s").is_empty() {
        run.fail("no instance completed".into());
    }
    let step_tail = if run.steps.is_empty() {
        (0.5, 0.0)
    } else {
        tail(&run.steps)
    };
    let metrics = if run.error.is_some() {
        Vec::new()
    } else {
        let list: &[(&'static str, &'static str)] =
            if opts.trace { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit)| {
                let timed = run.samples.get(name);
                let outcome = run.outcomes.get(name);
                let value = match name {
                    "peak_rss_mb" => run.peak_rss_mb,
                    "step.samples" => run.steps.len() as f64,
                    "step.tail_percentile" => step_tail.0 * 100.0,
                    "step.tail_us" => step_tail.1,
                    _ if !timed.is_empty() => median(timed),
                    _ if !outcome.is_empty() => outcome.iter().sum::<f64>() / outcome.len() as f64,
                    _ => 0.0,
                };
                Metric { name, value, unit }
            })
            .collect()
    };
    Outcome {
        correct: run.error.is_none(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        error: run.error,
        spread,
        step_tail: (run.steps.len(), step_tail.0),
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB; 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
