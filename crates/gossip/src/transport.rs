//! A simulated message transport with latency and loss.
//!
//! The trace-driven simulator treats message exchange as instantaneous
//! and reliable; real gossip crosses a WAN. This module provides a
//! deterministic in-memory transport — per-message delivery delay
//! drawn from a configurable range and an i.i.d. drop probability — so
//! experiments can measure how BarterCast's dissemination degrades
//! under realistic network conditions.
//!
//! The transport is payload-agnostic: it schedules opaque `T`s between
//! [`PeerId`]s on a virtual clock, delivering them in timestamp order.

use bartercast_util::units::{PeerId, Seconds};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Transport characteristics.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Minimum one-way delay.
    pub min_delay: Seconds,
    /// Maximum one-way delay (inclusive).
    pub max_delay: Seconds,
    /// Probability a message is silently dropped.
    pub loss: f64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            min_delay: Seconds(0),
            max_delay: Seconds(2),
            loss: 0.0,
        }
    }
}

/// One in-flight message.
#[derive(Debug)]
struct InFlight<T> {
    deliver_at: Seconds,
    /// Tie-breaker preserving send order among equal timestamps.
    sequence: u64,
    from: PeerId,
    to: PeerId,
    payload: T,
}

impl<T> PartialEq for InFlight<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.sequence == other.sequence
    }
}
impl<T> Eq for InFlight<T> {}
impl<T> PartialOrd for InFlight<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for InFlight<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.sequence).cmp(&(other.deliver_at, other.sequence))
    }
}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<T> {
    /// Delivery time.
    pub at: Seconds,
    /// Sender.
    pub from: PeerId,
    /// Recipient.
    pub to: PeerId,
    /// The message.
    pub payload: T,
}

/// The simulated transport.
///
/// ```
/// use bartercast_gossip::{Transport, TransportConfig};
/// use bartercast_util::units::{PeerId, Seconds};
/// use rand::SeedableRng;
///
/// let mut t: Transport<&str> = Transport::new(TransportConfig {
///     min_delay: Seconds(1),
///     max_delay: Seconds(1),
///     loss: 0.0,
/// });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// t.send(&mut rng, Seconds(10), PeerId(0), PeerId(1), "hello");
/// assert!(t.deliver_due(Seconds(10)).is_empty()); // still in flight
/// let due = t.deliver_due(Seconds(11));
/// assert_eq!(due[0].payload, "hello");
/// ```
#[derive(Debug)]
pub struct Transport<T> {
    config: TransportConfig,
    queue: BinaryHeap<Reverse<InFlight<T>>>,
    sequence: u64,
    sent: u64,
    dropped: u64,
}

impl<T> Transport<T> {
    /// An empty transport.
    pub fn new(config: TransportConfig) -> Self {
        assert!(config.min_delay <= config.max_delay);
        assert!((0.0..=1.0).contains(&config.loss));
        Transport {
            config,
            queue: BinaryHeap::new(),
            sequence: 0,
            sent: 0,
            dropped: 0,
        }
    }

    /// Send `payload` from `from` to `to` at time `now`. Returns
    /// `true` if the message was accepted (not dropped).
    pub fn send<R: Rng>(
        &mut self,
        rng: &mut R,
        now: Seconds,
        from: PeerId,
        to: PeerId,
        payload: T,
    ) -> bool {
        self.sent += 1;
        if self.config.loss > 0.0 && rng.gen_bool(self.config.loss) {
            self.dropped += 1;
            return false;
        }
        let span = self.config.max_delay.0 - self.config.min_delay.0;
        let delay = Seconds(
            self.config.min_delay.0
                + if span == 0 {
                    0
                } else {
                    rng.gen_range(0..=span)
                },
        );
        self.queue.push(Reverse(InFlight {
            deliver_at: now + delay,
            sequence: self.sequence,
            from,
            to,
            payload,
        }));
        self.sequence += 1;
        true
    }

    /// Pop every message due at or before `now`, in delivery order.
    pub fn deliver_due(&mut self, now: Seconds) -> Vec<Delivery<T>> {
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.deliver_at > now {
                break;
            }
            let Reverse(m) = self.queue.pop().expect("peeked");
            out.push(Delivery {
                at: m.deliver_at,
                from: m.from,
                to: m.to,
                payload: m.payload,
            });
        }
        out
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// `(sent, dropped)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.sent, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut t: Transport<&str> = Transport::new(TransportConfig {
            min_delay: Seconds(1),
            max_delay: Seconds(5),
            loss: 0.0,
        });
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..20 {
            t.send(&mut rng, Seconds(i), p(0), p(1), "m");
        }
        assert_eq!(t.in_flight(), 20);
        let mut last = Seconds(0);
        let mut received = 0;
        for now in 0..30 {
            for d in t.deliver_due(Seconds(now)) {
                assert!(d.at >= last, "out-of-order delivery");
                assert!(d.at <= Seconds(now));
                last = d.at;
                received += 1;
            }
        }
        assert_eq!(received, 20);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn zero_delay_is_same_round() {
        let mut t: Transport<u32> = Transport::new(TransportConfig {
            min_delay: Seconds(0),
            max_delay: Seconds(0),
            loss: 0.0,
        });
        let mut rng = StdRng::seed_from_u64(1);
        t.send(&mut rng, Seconds(7), p(0), p(1), 42);
        let due = t.deliver_due(Seconds(7));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].payload, 42);
        assert_eq!(due[0].at, Seconds(7));
    }

    #[test]
    fn loss_drops_expected_fraction() {
        let mut t: Transport<()> = Transport::new(TransportConfig {
            loss: 0.3,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            t.send(&mut rng, Seconds(0), p(0), p(1), ());
        }
        let (sent, dropped) = t.stats();
        assert_eq!(sent, 10_000);
        let rate = dropped as f64 / sent as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
        assert_eq!(t.in_flight() as u64, sent - dropped);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut t: Transport<u32> = Transport::new(TransportConfig {
            min_delay: Seconds(1),
            max_delay: Seconds(1),
            loss: 0.0,
        });
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..10 {
            t.send(&mut rng, Seconds(0), p(0), p(1), i);
        }
        let got: Vec<u32> = t
            .deliver_due(Seconds(1))
            .into_iter()
            .map(|d| d.payload)
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn total_loss_never_delivers_but_still_counts() {
        let mut t: Transport<u32> = Transport::new(TransportConfig {
            loss: 1.0,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..50 {
            assert!(!t.send(&mut rng, Seconds(i), p(0), p(1), i as u32));
        }
        assert_eq!(
            t.stats(),
            (50, 50),
            "every send counted, every send dropped"
        );
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.deliver_due(Seconds(1_000_000)), Vec::new());
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_delays() {
        let _: Transport<()> = Transport::new(TransportConfig {
            min_delay: Seconds(5),
            max_delay: Seconds(1),
            loss: 0.0,
        });
    }
}
