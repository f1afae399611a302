//! The reactor's timer queue.
//!
//! Every delayed action in the runtime — the periodic exchange tick,
//! per-session handshake/idle deadlines, dial-backoff retries and the
//! workload's choke rounds — lives on one [`TimerQueue`] instead of a
//! sleeping thread. The queue is a binary min-heap keyed on
//! `(tick, insertion seq)`, where `tick` is the deadline rounded up to
//! whole `granularity` steps since `start`. [`TimerQueue::pop_due`]
//! pops while the earliest tick has been reached, so timers fire in
//! (tick, insertion) order — which keeps the deterministic cluster
//! drivers' timer schedules reproducible.
//!
//! Insert and pop are O(log n). The earliest deadline
//! ([`TimerQueue::next_deadline`]) and the "is anything due" check
//! ([`TimerQueue::has_due`]) are peeks at the heap's top, so a reactor
//! asking when to wake next pays nothing per queued timer.

use bartercast_util::units::PeerId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// What to do when a timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimerKind {
    /// Periodic gossip exchange: build a message, sample targets, dial.
    Exchange,
    /// Re-check one session's handshake/idle deadline.
    SessionCheck {
        /// The session's reactor token.
        token: u64,
    },
    /// A dial to `peer` backed off earlier; try again now.
    DialRetry {
        /// The peer to redial.
        peer: PeerId,
    },
    /// Periodic choke-round tick for the attached swarm workload:
    /// recompute unchoke sets and serve queued piece requests.
    ChokeRound,
}

/// A deadline heap over [`Instant`]s.
#[derive(Debug)]
pub struct TimerQueue {
    start: Instant,
    granularity: Duration,
    /// Min-heap on `(tick, seq)`; `seq` is unique, so the kind is never
    /// compared.
    heap: BinaryHeap<Reverse<(u64, u64, TimerKind)>>,
    /// Highest tick [`TimerQueue::pop_due`] has reached; every queued
    /// entry has `tick >= current`.
    current: u64,
    /// Insertion counter: timers on the same tick fire first-in
    /// first-out.
    seq: u64,
}

impl TimerQueue {
    /// A queue anchored at `start` with ticks of `granularity`. `start`
    /// should be the clock's current instant at boot.
    pub fn new(start: Instant, granularity: Duration) -> Self {
        assert!(granularity > Duration::ZERO);
        TimerQueue {
            start,
            granularity,
            heap: BinaryHeap::new(),
            current: 0,
            seq: 0,
        }
    }

    /// Number of queued timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timers are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The tick a deadline falls on, rounded up.
    fn tick_of(&self, t: Instant) -> u64 {
        let nanos = t.saturating_duration_since(self.start).as_nanos();
        nanos.div_ceil(self.granularity.as_nanos()) as u64
    }

    /// The last tick reached at `now`, rounded down.
    fn target(&self, now: Instant) -> u64 {
        let nanos = now.saturating_duration_since(self.start).as_nanos();
        (nanos / self.granularity.as_nanos()) as u64
    }

    fn min_tick(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((tick, _, _))| *tick)
    }

    /// Queue `kind` to fire at (or just after) `deadline`. Deadlines
    /// before the last tick [`TimerQueue::pop_due`] reached fire on the
    /// next pop, behind everything already due there.
    pub fn schedule(&mut self, deadline: Instant, kind: TimerKind) {
        let tick = self.tick_of(deadline).max(self.current);
        self.heap.push(Reverse((tick, self.seq, kind)));
        self.seq += 1;
    }

    /// Whether [`TimerQueue::pop_due`] at `now` would return anything:
    /// the earliest tick is at or below `floor(elapsed / granularity)`.
    pub fn has_due(&self, now: Instant) -> bool {
        self.min_tick().is_some_and(|tick| tick <= self.target(now))
    }

    /// Return every timer due at `now`, in (tick, insertion) order. The
    /// reached tick is `now` rounded *down*, so an entry scheduled for
    /// "now" right after a poll still fires on the next poll at the
    /// same instant rather than waiting out a granularity step.
    pub fn pop_due(&mut self, now: Instant) -> Vec<TimerKind> {
        let target = self.target(now);
        self.current = self.current.max(target);
        let mut due = Vec::new();
        while self.min_tick().is_some_and(|tick| tick <= target) {
            let Reverse((_, _, kind)) = self.heap.pop().expect("peeked");
            due.push(kind);
        }
        due
    }

    /// The earliest queued deadline, if any — what the reactor sleeps
    /// until. The instant is the deadline's tick, except that tick 0 is
    /// reported as `start + granularity`: a timer queued at `start`
    /// itself is already due at `start` (see [`TimerQueue::has_due`]),
    /// but callers sleeping until this instant always move forward.
    pub fn next_deadline(&self) -> Option<Instant> {
        let tick = self.min_tick()?;
        let nanos = self.granularity.as_nanos() as u64 * tick.max(1);
        Some(self.start + Duration::from_nanos(nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn queue(granularity_ms: u64) -> (TimerQueue, Instant) {
        let start = Instant::now();
        (
            TimerQueue::new(start, Duration::from_millis(granularity_ms)),
            start,
        )
    }

    #[test]
    fn fires_in_deadline_then_insertion_order() {
        let (mut q, t0) = queue(1);
        q.schedule(
            t0 + Duration::from_millis(5),
            TimerKind::SessionCheck { token: 5 },
        );
        q.schedule(
            t0 + Duration::from_millis(2),
            TimerKind::SessionCheck { token: 2 },
        );
        q.schedule(
            t0 + Duration::from_millis(2),
            TimerKind::SessionCheck { token: 3 },
        );
        assert_eq!(q.pop_due(t0 + Duration::from_millis(1)), vec![]);
        assert_eq!(
            q.pop_due(t0 + Duration::from_millis(10)),
            vec![
                TimerKind::SessionCheck { token: 2 },
                TimerKind::SessionCheck { token: 3 },
                TimerKind::SessionCheck { token: 5 },
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_timers_wait_their_turn() {
        let (mut q, t0) = queue(1);
        q.schedule(t0 + Duration::from_millis(11), TimerKind::Exchange);
        q.schedule(
            t0 + Duration::from_millis(3),
            TimerKind::SessionCheck { token: 1 },
        );
        assert_eq!(
            q.pop_due(t0 + Duration::from_millis(4)),
            vec![TimerKind::SessionCheck { token: 1 }]
        );
        assert_eq!(q.pop_due(t0 + Duration::from_millis(10)), vec![]);
        assert_eq!(
            q.pop_due(t0 + Duration::from_millis(12)),
            vec![TimerKind::Exchange]
        );
    }

    #[test]
    fn past_deadlines_fire_on_next_poll() {
        let (mut q, t0) = queue(1);
        let now = t0 + Duration::from_millis(20);
        q.pop_due(now); // move the cursor forward first
        q.schedule(t0 + Duration::from_millis(1), TimerKind::Exchange); // already past
        assert!(q.has_due(now));
        assert_eq!(q.pop_due(now), vec![TimerKind::Exchange]);
    }

    #[test]
    fn next_deadline_tracks_the_minimum() {
        let (mut q, t0) = queue(2);
        assert_eq!(q.next_deadline(), None);
        q.schedule(t0 + Duration::from_millis(9), TimerKind::Exchange);
        q.schedule(
            t0 + Duration::from_millis(3),
            TimerKind::SessionCheck { token: 1 },
        );
        let next = q.next_deadline().unwrap();
        assert!(next <= t0 + Duration::from_millis(4));
        assert!(next > t0);
    }

    /// The boot edge: the reactor's first `Exchange` is queued at
    /// `start` and must be due there, although `next_deadline` rounds
    /// tick 0 up to one granularity. A due check written as
    /// `next_deadline() <= now` would skip the boot exchange.
    #[test]
    fn a_timer_at_start_is_due_at_start() {
        let (mut q, t0) = queue(1);
        q.schedule(t0, TimerKind::Exchange);
        assert!(q.has_due(t0));
        assert_eq!(q.next_deadline(), Some(t0 + Duration::from_millis(1)));
        assert_eq!(q.pop_due(t0), vec![TimerKind::Exchange]);
        assert!(!q.has_due(t0));
    }

    /// The reference model: a flat list kept sorted by
    /// `(max(tick_of(deadline), cursor), seq)`.
    struct Model {
        granularity: u64,
        entries: Vec<(u64, u64, TimerKind)>,
        cursor: u64,
        seq: u64,
    }

    impl Model {
        fn schedule(&mut self, offset_ns: u64, kind: TimerKind) {
            let tick = (offset_ns.div_ceil(self.granularity)).max(self.cursor);
            self.entries.push((tick, self.seq, kind));
            self.seq += 1;
            self.entries.sort();
        }

        fn pop_due(&mut self, now_ns: u64) -> Vec<TimerKind> {
            let target = now_ns / self.granularity;
            self.cursor = self.cursor.max(target);
            let n = self.entries.iter().take_while(|e| e.0 <= target).count();
            self.entries.drain(..n).map(|e| e.2).collect()
        }
    }

    /// Seeded random schedule/pop sequences against the reference
    /// model: past deadlines, bursts on one tick (which must fire in
    /// insertion order), deadlines more than 512 granularities ahead
    /// (where a 512-slot hashed wheel wraps round), and `has_due`
    /// agreeing with a non-empty `pop_due` at every step.
    #[test]
    fn heap_matches_sorted_reference_model() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g_ns: u64 = [1_000_000, 250_000, 3_000_000][seed as usize % 3];
            let start = Instant::now();
            let mut q = TimerQueue::new(start, Duration::from_nanos(g_ns));
            let mut model = Model {
                granularity: g_ns,
                entries: Vec::new(),
                cursor: 0,
                seq: 0,
            };
            let mut now_ns: u64 = 0;
            let mut last_deadline: u64 = 0;
            for step in 0..400u64 {
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        let deadline = match rng.gen_range(0..6u32) {
                            // in the past, possibly before the cursor
                            0 => now_ns.saturating_sub(rng.gen_range(0..20 * g_ns)),
                            // same deadline as the previous timer
                            1 => last_deadline,
                            // past where a 512-slot wheel wraps round
                            2 => now_ns + rng.gen_range(512 * g_ns..4096 * g_ns),
                            _ => now_ns + rng.gen_range(0..64 * g_ns),
                        };
                        last_deadline = deadline;
                        let kind = TimerKind::SessionCheck { token: step };
                        q.schedule(start + Duration::from_nanos(deadline), kind);
                        model.schedule(deadline, kind);
                    }
                    6 => {
                        // a pop at an instant behind the latest one
                        let back = now_ns.saturating_sub(rng.gen_range(0..5 * g_ns));
                        let at = start + Duration::from_nanos(back);
                        let expect = model.pop_due(back);
                        assert_eq!(q.has_due(at), !expect.is_empty(), "seed {seed}");
                        assert_eq!(q.pop_due(at), expect, "seed {seed} step {step}");
                    }
                    _ => {
                        now_ns += match rng.gen_range(0..4u32) {
                            0 => 0,
                            1 => rng.gen_range(0..g_ns),
                            2 => rng.gen_range(0..32 * g_ns),
                            _ => rng.gen_range(0..1024 * g_ns),
                        };
                        let at = start + Duration::from_nanos(now_ns);
                        let expect = model.pop_due(now_ns);
                        assert_eq!(q.has_due(at), !expect.is_empty(), "seed {seed}");
                        assert_eq!(q.pop_due(at), expect, "seed {seed} step {step}");
                        assert!(!q.has_due(at));
                    }
                }
                assert_eq!(q.len(), model.entries.len());
                let want = model
                    .entries
                    .first()
                    .map(|e| start + Duration::from_nanos(g_ns * e.0.max(1)));
                assert_eq!(q.next_deadline(), want, "seed {seed} step {step}");
            }
        }
    }
}
