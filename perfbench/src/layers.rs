//! The per-layer ledger, recorded from outside the program.
//!
//! Every timed call into a layer is a span on a thread-local stack: a
//! span's duration is charged to its layer's total, its duration minus
//! the spans nested inside it to the layer's self time. Spans are
//! aggregated as they close instead of being kept, because a traced
//! swarm run makes millions of transport calls. The shims below wrap
//! the runtime's public `Transport`, `Listener`, `Conn` and `Workload`
//! traits; the traced harness (`crate::traced`) opens the harness,
//! timer and reactor spans around its own calls.

use bartercast_node::transport::{Conn, Listener, ReadySource, Transport, WakeQueue};
use bartercast_node::{NodeState, SwarmFrame, Workload, WorkloadIo};
use bartercast_util::units::{PeerId, Seconds};
use std::cell::RefCell;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The harness applying churn events.
    HarnessEvents,
    /// The harness's lockstep step: settling the current instant and
    /// advancing the virtual clock (its reactor and timer calls are
    /// nested spans).
    HarnessStep,
    /// `Reactor::next_wake` (the timer wheel's earliest deadline).
    Timer,
    /// `Reactor::poll_once`.
    Reactor,
    /// `Conn::try_send` and `Conn::flush`.
    TransportSend,
    /// `Conn::try_recv`.
    TransportRecv,
    /// Every other transport call: listen, connect, accept,
    /// disconnect, readiness queries and connection teardown.
    TransportOther,
    /// `Workload::on_choke_round`.
    WorkloadChoke,
    /// `Workload::on_frame`.
    WorkloadFrame,
    /// `Workload::on_start`, `on_established` and `on_closed`.
    WorkloadOther,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 10;

/// Aggregated spans and counts of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Spans closed per layer.
    pub calls: [u64; LAYERS],
    /// Total span time per layer, ns.
    pub total_ns: [u64; LAYERS],
    /// Self time per layer (total minus nested spans), ns.
    pub self_ns: [u64; LAYERS],
    /// `poll_once` calls that reported progress.
    pub useful_polls: u64,
    /// Time in `poll_once` calls that reported none, ns.
    pub idle_poll_ns: u64,
    /// `try_recv` calls that found nothing to read.
    pub recv_empty: u64,
    /// Duration of every choke round, µs.
    pub choke_rounds_us: Vec<f64>,
}

impl Ledger {
    /// Calls of one layer.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Total time of one layer, µs.
    pub fn total_us(&self, layer: Layer) -> f64 {
        self.total_ns[layer as usize] as f64 / 1e3
    }

    /// Self time of one layer, µs.
    pub fn self_us(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e3
    }

    /// Spans closed over every layer.
    pub fn spans(&self) -> u64 {
        self.calls.iter().sum()
    }
}

struct Tracer {
    /// Open spans: layer, start, time covered by closed children (ns).
    stack: Vec<(Layer, Instant, u64)>,
    ledger: Ledger,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            stack: Vec::new(),
            ledger: Ledger {
                calls: [0; LAYERS],
                total_ns: [0; LAYERS],
                self_ns: [0; LAYERS],
                useful_polls: 0,
                idle_poll_ns: 0,
                recv_empty: 0,
                choke_rounds_us: Vec::new(),
            },
        })
    };
}

/// Run `f` inside a span of `layer`; returns its result and duration.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> (R, Duration) {
    TRACER.with(|t| t.borrow_mut().stack.push((layer, Instant::now(), 0)));
    let out = f();
    let end = Instant::now();
    let dur = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (layer, start, children) = t.stack.pop().expect("span stack underflow");
        let dur = end - start;
        let ns = dur.as_nanos() as u64;
        let l = &mut t.ledger;
        l.calls[layer as usize] += 1;
        l.total_ns[layer as usize] += ns;
        l.self_ns[layer as usize] += ns.saturating_sub(children);
        if let Some(parent) = t.stack.last_mut() {
            parent.2 += ns;
        }
        dur
    });
    (out, dur)
}

/// Wall nanoseconds one span adds to a traced run: the time of many
/// empty spans, each nested in an open span as every traced call is.
/// Discards this thread's ledger.
pub fn span_cost_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let start = Instant::now();
    span(Layer::HarnessStep, || {
        for _ in 0..SPANS {
            std::hint::black_box(span(Layer::Timer, || ()));
        }
    });
    let ns = start.elapsed().as_nanos() as f64 / f64::from(SPANS);
    take();
    ns
}

/// Apply `f` to this thread's ledger.
pub fn note(f: impl FnOnce(&mut Ledger)) {
    TRACER.with(|t| f(&mut t.borrow_mut().ledger));
}

/// Take this thread's ledger, leaving an empty one.
pub fn take() -> Ledger {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "ledger taken inside an open span");
        std::mem::take(&mut t.ledger)
    })
}

/// A [`Transport`] whose calls, and those of its listeners and
/// connections, are timed.
pub struct TimedTransport<T> {
    inner: Arc<T>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<T>) -> Self {
        TimedTransport { inner }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn listen(&self, local: PeerId) -> io::Result<Box<dyn Listener>> {
        let (listener, _) = span(Layer::TransportOther, || self.inner.listen(local));
        Ok(Box::new(TimedListener { inner: listener? }))
    }

    fn connect(&self, from: PeerId, to: PeerId) -> io::Result<Box<dyn Conn>> {
        let (conn, _) = span(Layer::TransportOther, || self.inner.connect(from, to));
        Ok(Box::new(TimedConn { inner: Some(conn?) }))
    }

    fn disconnect(&self, peer: PeerId) -> usize {
        span(Layer::TransportOther, || self.inner.disconnect(peer)).0
    }
}

struct TimedListener {
    inner: Box<dyn Listener>,
}

impl Listener for TimedListener {
    fn try_accept(&mut self) -> io::Result<Option<Box<dyn Conn>>> {
        let (conn, _) = span(Layer::TransportOther, || self.inner.try_accept());
        Ok(conn?.map(|c| Box::new(TimedConn { inner: Some(c) }) as Box<dyn Conn>))
    }

    fn register_waker(&mut self, queue: &Arc<WakeQueue>, token: u64) {
        self.inner.register_waker(queue, token);
    }

    fn ready_source(&self) -> ReadySource {
        self.inner.ready_source()
    }
}

/// The wrapped connection sits in an `Option` only so that its drop,
/// which closes the pipes, can be timed.
struct TimedConn {
    inner: Option<Box<dyn Conn>>,
}

impl TimedConn {
    fn conn(&self) -> &dyn Conn {
        self.inner
            .as_deref()
            .expect("connection present until drop")
    }

    fn conn_mut(&mut self) -> &mut Box<dyn Conn> {
        self.inner.as_mut().expect("connection present until drop")
    }
}

impl Conn for TimedConn {
    fn try_send(&mut self, frame: &[u8]) -> io::Result<bool> {
        span(Layer::TransportSend, || self.conn_mut().try_send(frame)).0
    }

    fn flush(&mut self) -> io::Result<bool> {
        span(Layer::TransportSend, || self.conn_mut().flush()).0
    }

    fn try_recv(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        let (got, _) = span(Layer::TransportRecv, || self.conn_mut().try_recv(buf));
        if matches!(got, Ok(None)) {
            note(|l| l.recv_empty += 1);
        }
        got
    }

    fn wants_write(&self) -> bool {
        span(Layer::TransportOther, || self.conn().wants_write()).0
    }

    fn next_ready_at(&self) -> Option<Instant> {
        span(Layer::TransportOther, || self.conn().next_ready_at()).0
    }

    fn register_waker(&mut self, queue: &Arc<WakeQueue>, token: u64) {
        self.conn_mut().register_waker(queue, token);
    }

    fn ready_source(&self) -> ReadySource {
        self.conn().ready_source()
    }
}

impl Drop for TimedConn {
    fn drop(&mut self) {
        let conn = self.inner.take();
        span(Layer::TransportOther, move || drop(conn));
    }
}

/// A [`Workload`] whose callbacks are timed.
pub struct TimedWorkload<W> {
    inner: W,
}

impl<W: Workload> TimedWorkload<W> {
    /// Wrap `inner`.
    pub fn new(inner: W) -> Self {
        TimedWorkload { inner }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn on_start(&mut self, now: Seconds, state: &mut NodeState, io: &mut WorkloadIo) {
        span(Layer::WorkloadOther, || self.inner.on_start(now, state, io));
    }

    fn on_established(
        &mut self,
        peer: PeerId,
        now: Seconds,
        state: &mut NodeState,
        io: &mut WorkloadIo,
    ) {
        span(Layer::WorkloadOther, || {
            self.inner.on_established(peer, now, state, io)
        });
    }

    fn on_closed(
        &mut self,
        peer: PeerId,
        now: Seconds,
        state: &mut NodeState,
        io: &mut WorkloadIo,
    ) {
        span(Layer::WorkloadOther, || {
            self.inner.on_closed(peer, now, state, io)
        });
    }

    fn on_frame(
        &mut self,
        peer: PeerId,
        frame: SwarmFrame,
        now: Seconds,
        state: &mut NodeState,
        io: &mut WorkloadIo,
    ) {
        span(Layer::WorkloadFrame, || {
            self.inner.on_frame(peer, frame, now, state, io)
        });
    }

    fn on_choke_round(&mut self, now: Seconds, state: &mut NodeState, io: &mut WorkloadIo) {
        let (_, dur) = span(Layer::WorkloadChoke, || {
            self.inner.on_choke_round(now, state, io)
        });
        note(|l| l.choke_rounds_us.push(dur.as_secs_f64() * 1e6));
    }
}
