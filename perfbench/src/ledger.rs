//! The traced run's ledger: per-device host time and call counts, plus
//! spans kept in memory until the run ends.
//!
//! [`Timed`] wraps a device and times every call the world makes into it.
//! It forwards `as_any`, so `World::device::<Switch>` still resolves to the
//! wrapped device, and it forwards `lookahead` and `device_kind`, so the
//! world batches and classifies events exactly as it would without it.

use ht_asic::sim::{BatchItem, Device, DeviceKind, Outbox};
use ht_asic::{SimPacket, SimTime};
use std::any::Any;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One in every this many calls into a device is kept as a span.
const SAMPLE_EVERY: u64 = 4096;

/// A named interval of host time.  `parent` is the id of the span that
/// caused it (0 for a root span).
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within a [`SpanLog`] (ids start at 1).
    pub id: u32,
    /// Id of the enclosing span, 0 for none.
    pub parent: u32,
    /// What the span covers, e.g. `lower` or `switch.rx_batch`.
    pub name: String,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// Spans of one benchmark process, written out when it ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU32,
    /// The span device calls are attributed to (the current window slice).
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the log's epoch to `t`.
    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent span is closed.
    fn open(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the span `id` over `[start, end]`.
    pub fn close(
        &self,
        id: u32,
        parent: u32,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name: name.into(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.lock().expect("span log poisoned by a panicking writer").push(span);
    }

    /// Records a span that has no children.
    pub fn record(&self, parent: u32, name: impl Into<String>, start: Instant, end: Instant) {
        let id = self.open();
        self.close(id, parent, name, start, end);
    }

    /// Makes `id` the parent of device-call spans recorded from now on.
    pub fn enter(&self, id: u32) {
        self.current.store(id, Ordering::Relaxed);
    }

    /// Reserves a span id and makes it the parent of device-call spans.
    pub fn begin(&self) -> u32 {
        let id = self.open();
        self.enter(id);
        id
    }

    /// All spans recorded so far, in the order they were closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned by a panicking writer").clone()
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Host time and work of one wrapped device.  Counters only grow, so a
/// window's share is the difference of two [`DeviceTotals`] snapshots.
#[derive(Debug)]
pub struct DeviceLedger {
    /// Label used in metric names: `switch`, `sink` or `responder`.
    pub label: &'static str,
    /// The wrapped device's kind.
    pub kind: DeviceKind,
    calls: AtomicU64,
    items: AtomicU64,
    nanos: AtomicU64,
}

/// A snapshot of a [`DeviceLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceTotals {
    /// Calls into the device (one per dispatch: `rx`, `wake` or `rx_batch`).
    pub calls: u64,
    /// Events handed over by those calls.
    pub items: u64,
    /// Host nanoseconds spent inside the calls.
    pub nanos: u64,
}

impl DeviceTotals {
    /// Counter growth since `earlier`.
    pub fn since(self, earlier: DeviceTotals) -> DeviceTotals {
        DeviceTotals {
            calls: self.calls - earlier.calls,
            items: self.items - earlier.items,
            nanos: self.nanos - earlier.nanos,
        }
    }
}

impl DeviceLedger {
    /// The counters as they stand.
    pub fn totals(&self) -> DeviceTotals {
        DeviceTotals {
            calls: self.calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

/// A device whose every call is timed into a [`DeviceLedger`].
pub struct Timed {
    inner: Box<dyn Device>,
    ledger: Arc<DeviceLedger>,
    log: Arc<SpanLog>,
}

impl Timed {
    /// Wraps `inner`; returns the wrapper and the ledger it fills.
    pub fn wrap(
        inner: Box<dyn Device>,
        label: &'static str,
        log: Arc<SpanLog>,
    ) -> (Timed, Arc<DeviceLedger>) {
        let ledger = Arc::new(DeviceLedger {
            label,
            kind: inner.device_kind(),
            calls: AtomicU64::new(0),
            items: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        });
        (Timed { inner, ledger: ledger.clone(), log }, ledger)
    }

    fn account(&self, call: &'static str, items: u64, start: Instant) {
        let end = Instant::now();
        let l = &self.ledger;
        let n = l.calls.fetch_add(1, Ordering::Relaxed);
        l.items.fetch_add(items, Ordering::Relaxed);
        l.nanos.fetch_add(end.duration_since(start).as_nanos() as u64, Ordering::Relaxed);
        if n.is_multiple_of(SAMPLE_EVERY) {
            let parent = self.log.current.load(Ordering::Relaxed);
            self.log.record(parent, format!("{}.{call}", l.label), start, end);
        }
    }
}

impl Device for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        let start = Instant::now();
        self.inner.rx(port, pkt, now, out);
        self.account("rx", 1, start);
    }

    fn wake(&mut self, token: u64, now: SimTime, out: &mut Outbox) {
        let start = Instant::now();
        self.inner.wake(token, now, out);
        self.account("wake", 1, start);
    }

    fn rx_batch(&mut self, items: &mut Vec<BatchItem>, now: SimTime, out: &mut Outbox) {
        let n = items.len() as u64;
        let start = Instant::now();
        self.inner.rx_batch(items, now, out);
        self.account("rx_batch", n, start);
    }

    fn lookahead(&self) -> SimTime {
        self.inner.lookahead()
    }

    fn device_kind(&self) -> DeviceKind {
        self.inner.device_kind()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
