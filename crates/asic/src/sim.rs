//! The discrete-event simulation world: devices, links and the event queue.
//!
//! A [`World`] owns a set of [`Device`]s (switches, servers, sinks) wired
//! together by point-to-point links ([`LinkSpec`]).  Devices communicate
//! only through the event queue: a handler returns emissions/wake requests
//! in an [`Outbox`], and the world turns emissions into future `Deliver`
//! events on the link peer.  Same-instant events are ordered by a
//! *schedule-independent* key ([`EvKey`]): the creating handler's instant,
//! the creator's identity, and a per-creator counter.  The key depends only
//! on what each device did, never on which thread ran it, so a run is
//! bit-for-bit deterministic for a given seed at any engine count.
//!
//! Worlds are constructed through [`World::builder`]; topologies whose
//! device groups are separated by nonzero-delay links can run partitioned
//! across worker threads (see [`crate::parallel`]), falling back to the
//! serial loop otherwise.
//!
//! Links support smoltcp-style fault injection (random drop, corruption
//! and jitter) for the failure-handling tests.

use crate::packet::SimPacket;
use crate::phv::{fields, FieldId};
use crate::time::SimTime;
use crate::timerwheel::TimerWheel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Per-thread simulation counters, aggregated across every [`World`] that
/// ran on the thread.  The parallel experiment harness snapshots these
/// around each job to report events and queue pressure per experiment
/// without threading a context object through every device.  A partitioned
/// world folds its engines' counters back into the owning thread's cells
/// when it is dropped, so the numbers stay complete under `--sim-threads`.
pub mod metrics {
    use std::cell::Cell;

    /// Number of batch-occupancy histogram buckets: 1, 2–3, 4–7, 8–15,
    /// 16–31, 32–63, 64–127, 128+.
    pub const BATCH_BUCKETS: usize = 8;
    /// Number of [`super::DeviceKind`] values.
    pub const KIND_COUNT: usize = 4;

    thread_local! {
        static EVENTS: Cell<u64> = const { Cell::new(0) };
        static PEAK_QUEUE: Cell<u64> = const { Cell::new(0) };
        static FP_KEYS: Cell<u64> = const { Cell::new(0) };
        static OPS: Cell<u64> = const { Cell::new(0) };
        static BATCH_HIST: Cell<[u64; BATCH_BUCKETS]> = const { Cell::new([0; BATCH_BUCKETS]) };
        static BY_KIND: Cell<[u64; KIND_COUNT]> = const { Cell::new([0; KIND_COUNT]) };
    }

    /// Cumulative events processed by worlds on this thread (flushed when
    /// each world is dropped).
    pub fn thread_events() -> u64 {
        EVENTS.with(Cell::get)
    }

    /// The deepest event queue any world on this thread reached since the
    /// last [`take_thread_peak_queue`] call; resets the high-water mark.
    pub fn take_thread_peak_queue() -> u64 {
        PEAK_QUEUE.with(|c| c.replace(0))
    }

    /// Cumulative keys hashed by the false-positive precompute on this
    /// thread (recorded by `ht-ntapi`'s `compute_fp_indices`).
    pub fn thread_fp_keys() -> u64 {
        FP_KEYS.with(Cell::get)
    }

    /// Adds `n` to the thread's false-positive precompute key counter.
    pub fn record_fp_keys(n: u64) {
        FP_KEYS.with(|c| c.set(c.get() + n));
    }

    /// Adds `n` to the thread's retired-op counter.  The compiled executor
    /// ([`crate::exec`]) calls this once per pipeline pass with the number
    /// of ops its decode loop retired.
    pub fn record_ops(n: u64) {
        OPS.with(|c| c.set(c.get() + n));
    }

    /// Cumulative profile counters of this thread, for `--profile`
    /// reports.  Counters are cumulative across jobs; snapshot before and
    /// after a run and subtract ([`ProfileSnapshot::delta_since`]).
    ///
    /// Partitioned runs accumulate retired ops on their engine threads, so
    /// `ops_retired` is complete only for serial (`--workers`-level
    /// parallel, `--sim-threads 1`) runs; events are folded back on world
    /// drop either way.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProfileSnapshot {
        /// Events processed (same counter as [`thread_events`]).
        pub events: u64,
        /// Ops retired by the compiled executor.
        pub ops_retired: u64,
        /// Batch-occupancy histogram: number of dispatched per-device
        /// batches of size 1, 2–3, 4–7, 8–15, 16–31, 32–63, 64–127, 128+.
        pub batch_hist: [u64; BATCH_BUCKETS],
        /// Events by target [`super::DeviceKind`], indexed by
        /// [`super::DeviceKind::index`].
        pub by_kind: [u64; KIND_COUNT],
    }

    impl ProfileSnapshot {
        /// Adds another snapshot's counters into this one (merging shard
        /// deltas of one experiment).
        pub fn absorb(&mut self, other: &ProfileSnapshot) {
            self.events += other.events;
            self.ops_retired += other.ops_retired;
            for (a, b) in self.batch_hist.iter_mut().zip(other.batch_hist) {
                *a += b;
            }
            for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
                *a += b;
            }
        }

        /// Counter deltas since an earlier snapshot.
        pub fn delta_since(&self, earlier: &ProfileSnapshot) -> ProfileSnapshot {
            let mut d = *self;
            d.events -= earlier.events;
            d.ops_retired -= earlier.ops_retired;
            for (a, b) in d.batch_hist.iter_mut().zip(earlier.batch_hist) {
                *a -= b;
            }
            for (a, b) in d.by_kind.iter_mut().zip(earlier.by_kind) {
                *a -= b;
            }
            d
        }
    }

    /// The thread's cumulative profile counters.
    pub fn profile_snapshot() -> ProfileSnapshot {
        ProfileSnapshot {
            events: EVENTS.with(Cell::get),
            ops_retired: OPS.with(Cell::get),
            batch_hist: BATCH_HIST.with(Cell::get),
            by_kind: BY_KIND.with(Cell::get),
        }
    }

    pub(super) fn record(events: u64, peak_queue: u64) {
        EVENTS.with(|c| c.set(c.get() + events));
        PEAK_QUEUE.with(|c| c.set(c.get().max(peak_queue)));
    }

    pub(super) fn record_batches(hist: [u64; BATCH_BUCKETS], by_kind: [u64; KIND_COUNT]) {
        BATCH_HIST.with(|c| {
            let mut cur = c.get();
            for (a, b) in cur.iter_mut().zip(hist) {
                *a += b;
            }
            c.set(cur);
        });
        BY_KIND.with(|c| {
            let mut cur = c.get();
            for (a, b) in cur.iter_mut().zip(by_kind) {
                *a += b;
            }
            c.set(cur);
        });
    }
}

/// Index of a device within its world.
pub type DeviceId = usize;

/// Emissions and wake requests produced by one device handler invocation
/// (or, with [`checkpoint`](Outbox::checkpoint) marks, by one *batch* of
/// invocations).
#[derive(Debug, Default)]
pub struct Outbox {
    /// Packets leaving the device: `(source port, packet, departure time)`.
    pub emits: Vec<(u16, SimPacket, SimTime)>,
    /// Timer requests: `(opaque token, fire time)`.
    pub wakes: Vec<(u64, SimTime)>,
    /// Segment boundaries `(wakes.len(), emits.len())` recorded between
    /// batch items, so a single batched flush can reproduce the per-event
    /// wakes-then-emits key-assignment order of the serial loop.
    marks: Vec<(usize, usize)>,
}

impl Outbox {
    /// Queues a packet emission out of `port` at time `at`.
    pub fn emit(&mut self, port: u16, pkt: SimPacket, at: SimTime) {
        self.emits.push((port, pkt, at));
    }

    /// Requests a wake callback with `token` at time `at`.
    pub fn wake_at(&mut self, token: u64, at: SimTime) {
        self.wakes.push((token, at));
    }

    /// Marks the end of one batch item's output.  The flush walks the
    /// marked segments in order, issuing each segment's wakes before its
    /// emissions — exactly the event keys a per-event flush would assign.
    pub fn checkpoint(&mut self) {
        self.marks.push((self.wakes.len(), self.emits.len()));
    }
}

/// Coarse device classification for the `--profile` event breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceKind {
    /// A programmable switch ([`crate::Switch`]).
    Switch,
    /// A device under test or traffic endpoint (servers, responders).
    Host,
    /// A terminal sink/collector.
    Sink,
    /// Anything unclassified.
    #[default]
    Other,
}

impl DeviceKind {
    /// Index into [`metrics::ProfileSnapshot::by_kind`].
    pub fn index(self) -> usize {
        match self {
            DeviceKind::Switch => 0,
            DeviceKind::Host => 1,
            DeviceKind::Sink => 2,
            DeviceKind::Other => 3,
        }
    }

    /// Stable lowercase name, for report keys.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Switch => "switch",
            DeviceKind::Host => "host",
            DeviceKind::Sink => "sink",
            DeviceKind::Other => "other",
        }
    }

    /// All kinds, in [`DeviceKind::index`] order.
    pub const ALL: [DeviceKind; 4] =
        [DeviceKind::Switch, DeviceKind::Host, DeviceKind::Sink, DeviceKind::Other];
}

/// One event of a batch handed to [`Device::rx_batch`].  Items of one
/// batch share a device but — under lookahead windowing — not necessarily
/// an instant, so each carries its own event time.
#[derive(Debug)]
pub enum BatchItem {
    /// A packet delivery on `port`.
    Deliver {
        /// Arrival port.
        port: u16,
        /// The packet.
        pkt: SimPacket,
        /// Event time of this delivery.
        at: SimTime,
    },
    /// A timer wake.
    Wake {
        /// The token passed to [`Outbox::wake_at`].
        token: u64,
        /// Fire time of this wake.
        at: SimTime,
    },
}

impl BatchItem {
    /// The event time of this item.
    pub fn at(&self) -> SimTime {
        match *self {
            BatchItem::Deliver { at, .. } | BatchItem::Wake { at, .. } => at,
        }
    }
}

/// A network element participating in the simulation.
///
/// Devices are `Send` so a partitioned world can move them onto engine
/// worker threads; they are still only ever driven by one thread at a time.
pub trait Device: Any + Send {
    /// Device name, for diagnostics.
    fn name(&self) -> &str;

    /// Handles a packet arriving on `port` at time `now`.
    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox);

    /// Handles a timer previously requested via [`Outbox::wake_at`].
    fn wake(&mut self, _token: u64, _now: SimTime, _out: &mut Outbox) {}

    /// Handles a batch of events, draining `items` in order.
    ///
    /// The world only batches events it has *proven* the serial loop would
    /// process back-to-back on this device (same instant, ordered before
    /// anything the batch itself can create — or, for devices with a
    /// nonzero [`lookahead`](Device::lookahead), a time window the
    /// lookahead guarantees no batch-created event can land inside), so an
    /// implementation must process items strictly in order at their own
    /// [`BatchItem::at`] times and call [`Outbox::checkpoint`] after each
    /// one — the default does exactly that by delegating to
    /// [`rx`](Device::rx)/[`wake`](Device::wake).  `now` is the first
    /// item's time.
    fn rx_batch(&mut self, items: &mut Vec<BatchItem>, now: SimTime, out: &mut Outbox) {
        let _ = now;
        for item in items.drain(..) {
            match item {
                BatchItem::Deliver { port, pkt, at } => self.rx(port, pkt, at, out),
                BatchItem::Wake { token, at } => self.wake(token, at, out),
            }
            out.checkpoint();
        }
    }

    /// Conservative lookahead: the minimum delta between an input event at
    /// `t` and the earliest event (emission arrival or wake) any handler of
    /// this device may create.  `0` (the default) promises nothing and
    /// keeps the device on the same-instant batching rule; a nonzero value
    /// lets the world widen batches across instants inside the lookahead
    /// window (`World::step_batch`'s windowed mode).  A device returning
    /// `t_la` here MUST never emit or wake earlier than `now + t_la` — the
    /// ordering proof of the windowed batch depends on it, so the world
    /// checks every wake and emission time against it when flushing the
    /// outbox and panics on a breach.  The value is read once, when the
    /// device is added to the world.
    fn lookahead(&self) -> SimTime {
        0
    }

    /// Coarse classification for the `--profile` event breakdown.
    fn device_kind(&self) -> DeviceKind {
        DeviceKind::Other
    }

    /// Upcast for typed post-run access ([`World::device`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Typed builder for a bidirectional link: propagation delay plus optional
/// fault injection.  The scenario layer's single extension point for link
/// impairments.
///
/// ```
/// # use ht_asic::sim::{LinkSpec, World};
/// # let mut w = World::builder().build().unwrap();
/// # let a = 0; let b = 0;
/// // w.link((a, 0), (b, 0), LinkSpec::new().delay(5_000).loss(0.01));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkSpec {
    delay: SimTime,
    drop_chance: f64,
    corrupt_chance: f64,
    jitter: SimTime,
}

impl LinkSpec {
    /// A zero-delay, fault-free link.
    pub fn new() -> Self {
        Self::default()
    }

    /// Propagation delay added to every delivery.
    pub fn delay(mut self, delay: SimTime) -> Self {
        self.delay = delay;
        self
    }

    /// Probability a packet is silently dropped.
    pub fn loss(mut self, chance: f64) -> Self {
        self.drop_chance = chance;
        self
    }

    /// Probability one header field gets a bit flipped.
    pub fn corrupt(mut self, chance: f64) -> Self {
        self.corrupt_chance = chance;
        self
    }

    /// Uniform random extra delay in `0..=jitter` per delivery.
    pub fn jitter(mut self, jitter: SimTime) -> Self {
        self.jitter = jitter;
        self
    }
}

/// One direction of a link out of a `(device, port)` endpoint.
#[derive(Debug, Clone)]
pub struct Link {
    /// Receiving endpoint.
    pub peer: (DeviceId, u16),
    /// Propagation delay added to every delivery.
    pub delay: SimTime,
    /// Probability a packet is silently dropped.
    pub drop_chance: f64,
    /// Probability one header field gets a bit flipped.
    pub corrupt_chance: f64,
    /// Uniform random extra delay in `0..=jitter` per delivery.
    pub jitter: SimTime,
}

impl Link {
    /// Whether this link consumes the world's fault RNG (drop, corruption
    /// or jitter) — any such link pins the world to the serial engine,
    /// because the RNG stream is defined by global event order.
    pub(crate) fn has_faults(&self) -> bool {
        self.drop_chance > 0.0 || self.corrupt_chance > 0.0 || self.jitter > 0
    }
}

/// Schedule-independent event ordering key.
///
/// Same-instant events order by `(birth, src, ctr)`: the instant the
/// creating handler ran, the creator's rank (pre-run injections first,
/// then devices by id, then mid-run injections), and a per-creator
/// monotone counter.  Unlike a global insertion sequence, the key is a
/// pure function of each device's own behavior, so the serial loop and a
/// partitioned run produce the identical pop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvKey {
    /// Instant of the creating handler (0 for pre-run injections).
    pub(crate) birth: SimTime,
    /// Creator rank: [`EvKey::SRC_INJECT_PRE`], device id + 1, or
    /// [`EvKey::SRC_INJECT_MID`].
    pub(crate) src: u32,
    /// Per-creator monotone counter.
    pub(crate) ctr: u64,
}

impl EvKey {
    /// Rank of injections scheduled before the first event pops — they
    /// sort ahead of every same-instant device creation, matching the
    /// historical insertion-sequence order.
    pub(crate) const SRC_INJECT_PRE: u32 = 0;
    /// Rank of injections scheduled once the run has started — they sort
    /// after every same-instant creation made up to that point.
    pub(crate) const SRC_INJECT_MID: u32 = u32::MAX;

    /// The key a device-created event gets: the processing instant plus
    /// the device's own creation counter.
    #[inline]
    pub(crate) fn device(now: SimTime, device: DeviceId, ctr: u64) -> Self {
        EvKey { birth: now, src: device as u32 + 1, ctr }
    }
}

#[derive(Debug)]
pub(crate) enum EventKind {
    Deliver { device: DeviceId, port: u16, pkt: SimPacket },
    Wake { device: DeviceId, token: u64 },
}

impl EventKind {
    /// The device this event targets.
    pub(crate) fn device(&self) -> DeviceId {
        match *self {
            EventKind::Deliver { device, .. } | EventKind::Wake { device, .. } => device,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Event {
    at: SimTime,
    key: EvKey,
    /// Index of the payload in the queue's slab.  Keeping the
    /// [`EventKind`] out of line shrinks the entries the heap sifts (and
    /// the wheel's slots shift) from ~88 to 40 bytes.
    slot: u32,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// Statistics of a world run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Events processed.
    pub events: u64,
    /// Packets dropped by link fault injection.
    pub link_drops: u64,
    /// Header fields corrupted by link fault injection.
    pub link_corruptions: u64,
    /// Emissions out of ports with no link attached.
    pub dangling_emits: u64,
}

/// Which event-queue implementation a [`World`] uses.
///
/// Both yield the identical `(at, key)` pop order, so results are
/// bit-for-bit equal either way; the choice only affects speed.  The
/// heap is kept for A/B benchmarking against the seed implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// The seed discipline: a binary heap, `O(log n)` per event.
    Heap,
    /// The hierarchical timer wheel ([`TimerWheel`]) — amortized `O(1)`.
    #[default]
    Wheel,
}

/// How many engine threads a partitioned run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimThreads {
    /// Draw extra engine threads from the shared pool configured via
    /// [`crate::parallel::budget`] (zero by default, so worlds stay
    /// serial unless `--sim-threads` granted capacity).
    Auto,
    /// Use exactly this many engines (clamped to the partition count),
    /// bypassing the shared pool.  `Fixed(1)` is the serial loop.
    Fixed(usize),
}

impl Default for SimThreads {
    fn default() -> Self {
        SimThreads::Fixed(1)
    }
}

/// Rejected [`World::builder`] configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldConfigError {
    /// `partitions(SimThreads::Fixed(0))` — a world needs at least one
    /// engine; use `Fixed(1)` for the serial loop.
    ZeroSimThreads,
}

impl std::fmt::Display for WorldConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldConfigError::ZeroSimThreads => {
                write!(f, "sim threads must be at least 1 (use SimThreads::Fixed(1) for serial)")
            }
        }
    }
}

impl std::error::Error for WorldConfigError {}

/// Builder for [`World`] — the only way to construct one.
///
/// Mirrors `TesterConfig::builder()`: chain setters, then
/// [`build`](Self::build) validates and returns the world.
///
/// ```
/// use ht_asic::sim::{QueueKind, SimThreads, World};
/// let w = World::builder()
///     .seed(42)
///     .queue(QueueKind::Wheel)
///     .partitions(SimThreads::Auto)
///     .build()
///     .unwrap();
/// assert_eq!(w.now(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    seed: u64,
    queue: QueueKind,
    partitions: SimThreads,
    trace: usize,
}

impl WorldBuilder {
    /// Seed of the fault-injection RNG (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Event-queue implementation (default: timer wheel).
    pub fn queue(mut self, kind: QueueKind) -> Self {
        self.queue = kind;
        self
    }

    /// Engine-thread policy for partitioned runs (default: serial).
    pub fn partitions(mut self, threads: SimThreads) -> Self {
        self.partitions = threads;
        self
    }

    /// Keep a ring of the last `depth` processed events ([`World::trace`]);
    /// 0 (the default) disables tracing.  The trace is merged
    /// deterministically across engines in partitioned runs.
    pub fn trace(mut self, depth: usize) -> Self {
        self.trace = depth;
        self
    }

    /// Validates the configuration and builds the world.
    pub fn build(self) -> Result<World, WorldConfigError> {
        if self.partitions == SimThreads::Fixed(0) {
            return Err(WorldConfigError::ZeroSimThreads);
        }
        Ok(World {
            devices: Vec::new(),
            links: HashMap::new(),
            link_table: Vec::new(),
            queue: EventQueue::new(self.queue),
            qkind: self.queue,
            scratch: Outbox::default(),
            now: 0,
            ctrs: Vec::new(),
            inj_ctr: 0,
            started: false,
            rng: StdRng::seed_from_u64(self.seed),
            sim_threads: self.partitions,
            trace_depth: self.trace,
            trace: Vec::new(),
            engine_peak: 0,
            stats: WorldStats::default(),
            batch_scratch: Vec::new(),
            batch_hist: [0; metrics::BATCH_BUCKETS],
            by_kind: [0; metrics::KIND_COUNT],
            lookaheads: Vec::new(),
            faulty_links: false,
            window_groups: Vec::new(),
            group_pool: Vec::new(),
        })
    }
}

/// What a [`TraceEntry`] recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A packet delivery.
    Deliver,
    /// A timer wake.
    Wake,
}

/// One processed event in the world's debug trace (see
/// [`WorldBuilder::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Event time.
    pub at: SimTime,
    /// Ordering key (used to merge engine traces deterministically).
    pub key: EvKey,
    /// Target device.
    pub device: DeviceId,
    /// Delivery or wake.
    pub kind: TraceKind,
}

/// The ordering structure of an [`EventQueue`]: entries are `(at, key,
/// slab slot)` triples; payloads live in the owning queue's slab.
#[derive(Debug)]
enum QueueImpl {
    Heap { heap: BinaryHeap<Reverse<Event>>, peak: usize },
    Wheel(TimerWheel<u32, EvKey>),
}

/// The discrete-event queue: a heap or timer-wheel ordering structure
/// plus a slab holding the event payloads out of line, so ordering
/// operations move 40-byte entries instead of full [`EventKind`]s.
#[derive(Debug)]
pub(crate) struct EventQueue {
    q: QueueImpl,
    /// Payload store; `None` marks a free slot.
    slab: Vec<Option<EventKind>>,
    /// Free-slot indices, reused LIFO.
    free: Vec<u32>,
}

impl EventQueue {
    pub(crate) fn new(kind: QueueKind) -> Self {
        let q = match kind {
            QueueKind::Heap => QueueImpl::Heap { heap: BinaryHeap::new(), peak: 0 },
            QueueKind::Wheel => QueueImpl::Wheel(TimerWheel::new()),
        };
        EventQueue { q, slab: Vec::new(), free: Vec::new() }
    }

    fn alloc(&mut self, kind: EventKind) -> u32 {
        if let Some(s) = self.free.pop() {
            self.slab[s as usize] = Some(kind);
            s
        } else {
            self.slab.push(Some(kind));
            (self.slab.len() - 1) as u32
        }
    }

    fn take(&mut self, slot: u32) -> EventKind {
        self.free.push(slot);
        self.slab[slot as usize].take().expect("live slab slot")
    }

    pub(crate) fn push(&mut self, at: SimTime, key: EvKey, kind: EventKind) {
        let slot = self.alloc(kind);
        match &mut self.q {
            QueueImpl::Heap { heap, peak } => {
                heap.push(Reverse(Event { at, key, slot }));
                *peak = (*peak).max(heap.len());
            }
            QueueImpl::Wheel(w) => w.push(at, key, slot),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, EvKey, EventKind)> {
        let (at, key, slot) = match &mut self.q {
            QueueImpl::Heap { heap, .. } => heap.pop().map(|Reverse(e)| (e.at, e.key, e.slot))?,
            QueueImpl::Wheel(w) => w.pop()?,
        };
        Some((at, key, self.take(slot)))
    }

    /// Pops the next event only when `take` approves its `(at, key,
    /// kind)`; leaves the queue untouched otherwise.  The batching loop
    /// uses this instead of pop-then-push-back, which costs two extra
    /// heap sifts (or wheel inserts) every time a batch closes.
    pub(crate) fn pop_if(
        &mut self,
        take: impl FnOnce(SimTime, EvKey, &EventKind) -> bool,
    ) -> Option<(SimTime, EvKey, EventKind)> {
        let (at, key, slot) = match &mut self.q {
            QueueImpl::Heap { heap, .. } => {
                let Reverse(e) = heap.peek()?;
                (e.at, e.key, e.slot)
            }
            QueueImpl::Wheel(w) => {
                let (at, key, slot) = w.peek()?;
                (at, *key, *slot)
            }
        };
        let kind = self.slab[slot as usize].as_ref().expect("live slab slot");
        if !take(at, key, kind) {
            return None;
        }
        match &mut self.q {
            QueueImpl::Heap { heap, .. } => {
                heap.pop();
            }
            QueueImpl::Wheel(w) => {
                w.pop();
            }
        }
        Some((at, key, self.take(slot)))
    }

    /// Arrival time of the next event, without removing it.
    pub(crate) fn peek_min_at(&mut self) -> Option<SimTime> {
        match &mut self.q {
            QueueImpl::Heap { heap, .. } => heap.peek().map(|Reverse(e)| e.at),
            QueueImpl::Wheel(w) => w.peek_min_at(),
        }
    }

    pub(crate) fn peak_len(&self) -> usize {
        match &self.q {
            QueueImpl::Heap { peak, .. } => *peak,
            QueueImpl::Wheel(w) => w.peak_len(),
        }
    }
}

/// The simulation world.
pub struct World {
    pub(crate) devices: Vec<Box<dyn Device>>,
    pub(crate) links: HashMap<(DeviceId, u16), Link>,
    /// Flat `[device][port]` mirror of [`links`](Self::links): the serial
    /// hot loop resolves one link per emission, and a direct index beats
    /// hashing a `(DeviceId, u16)` tuple per event.  Rebuilt by
    /// [`link`](Self::link); the map stays the source of truth for the
    /// partitioned-engine splitter.
    link_table: Vec<Vec<Option<Link>>>,
    pub(crate) queue: EventQueue,
    pub(crate) qkind: QueueKind,
    /// Scratch outbox reused across [`step`](Self::step) calls so the two
    /// per-event `Vec` allocations of the seed implementation disappear.
    scratch: Outbox,
    pub(crate) now: SimTime,
    /// Per-device event-creation counters (the `ctr` of [`EvKey`]).
    pub(crate) ctrs: Vec<u64>,
    /// Injection counter shared by pre- and mid-run injections.
    inj_ctr: u64,
    /// Set once the first event pops; later injections rank
    /// [`EvKey::SRC_INJECT_MID`].
    pub(crate) started: bool,
    rng: StdRng,
    pub(crate) sim_threads: SimThreads,
    pub(crate) trace_depth: usize,
    pub(crate) trace: Vec<TraceEntry>,
    /// Deepest engine-local queue of any partitioned run (folded into
    /// [`peak_queue_depth`](Self::peak_queue_depth)).
    pub(crate) engine_peak: u64,
    /// Run statistics.
    pub stats: WorldStats,
    /// Reused buffer for same-instant batches.
    batch_scratch: Vec<BatchItem>,
    /// Batch-size histogram of this world (folded into [`metrics`] on
    /// drop).
    batch_hist: [u64; metrics::BATCH_BUCKETS],
    /// Events by target device kind (folded into [`metrics`] on drop).
    by_kind: [u64; metrics::KIND_COUNT],
    /// Per-device conservative lookahead ([`Device::lookahead`]), cached
    /// at [`add_device`](Self::add_device) time for the batching hot loop.
    lookaheads: Vec<SimTime>,
    /// Set when any link consumes the fault RNG (drop/corrupt/jitter).
    /// The RNG stream is defined by global flush order, so a faulty world
    /// must not reorder dispatch across devices — windowed batching is
    /// disabled and the same-instant rule applies everywhere.
    faulty_links: bool,
    /// Reused per-device groups of the windowed batcher.
    window_groups: Vec<WindowGroup>,
    /// Spare `(items, times)` buffers for [`WindowGroup`]s.
    group_pool: Vec<(Vec<BatchItem>, Vec<SimTime>)>,
}

/// One device's slice of a lookahead window: its items in pop order plus
/// their event times (parallel vectors; `times[i]` keys the flush segment
/// of `items[i]`).
struct WindowGroup {
    device: DeviceId,
    items: Vec<BatchItem>,
    times: Vec<SimTime>,
}

impl Drop for World {
    fn drop(&mut self) {
        // Fold this world's counters into the per-thread aggregate the
        // experiment harness reads (see [`metrics`]).
        metrics::record(self.stats.events, self.peak_queue_depth());
        metrics::record_batches(self.batch_hist, self.by_kind);
    }
}

impl World {
    /// Starts building a world (seed 1, wheel queue, serial, no trace).
    pub fn builder() -> WorldBuilder {
        WorldBuilder {
            seed: 1,
            queue: QueueKind::default(),
            partitions: SimThreads::default(),
            trace: 0,
        }
    }

    /// The deepest the event queue has ever been in this world (the
    /// engine-local maximum in partitioned runs).
    pub fn peak_queue_depth(&self) -> u64 {
        (self.queue.peak_len() as u64).max(self.engine_peak)
    }

    /// Adds a device, returning its id.
    pub fn add_device(&mut self, dev: Box<dyn Device>) -> DeviceId {
        self.lookaheads.push(dev.lookahead());
        self.devices.push(dev);
        self.ctrs.push(0);
        self.devices.len() - 1
    }

    /// Connects two endpoints bidirectionally as described by `spec`.
    ///
    /// # Panics
    /// Panics when a probability is outside `0..=1`.
    pub fn link(&mut self, a: (DeviceId, u16), b: (DeviceId, u16), spec: LinkSpec) {
        assert!((0.0..=1.0).contains(&spec.drop_chance));
        assert!((0.0..=1.0).contains(&spec.corrupt_chance));
        let mk = |peer| Link {
            peer,
            delay: spec.delay,
            drop_chance: spec.drop_chance,
            corrupt_chance: spec.corrupt_chance,
            jitter: spec.jitter,
        };
        self.links.insert(a, mk(b));
        self.links.insert(b, mk(a));
        self.faulty_links |= self.links[&a].has_faults();
        for (dev, port) in [a, b] {
            if self.link_table.len() <= dev {
                self.link_table.resize_with(dev + 1, Vec::new);
            }
            let ports = &mut self.link_table[dev];
            if ports.len() <= usize::from(port) {
                ports.resize(usize::from(port) + 1, None);
            }
            ports[usize::from(port)] = self.links[&(dev, port)].clone().into();
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The key for an externally injected event.  Pre-run injections rank
    /// before every same-instant device creation (they were queued first);
    /// mid-run injections rank after everything created so far.
    fn injection_key(&mut self) -> EvKey {
        let ctr = self.inj_ctr;
        self.inj_ctr += 1;
        if self.started {
            EvKey { birth: self.now, src: EvKey::SRC_INJECT_MID, ctr }
        } else {
            EvKey { birth: 0, src: EvKey::SRC_INJECT_PRE, ctr }
        }
    }

    /// Schedules a packet delivery straight into a device port (external
    /// traffic injection, e.g. templates from a test driver).
    pub fn schedule_rx(&mut self, device: DeviceId, port: u16, pkt: SimPacket, at: SimTime) {
        let key = self.injection_key();
        self.queue.push(at, key, EventKind::Deliver { device, port, pkt });
    }

    /// Schedules a wake for a device (external timer injection).
    pub fn schedule_wake(&mut self, device: DeviceId, token: u64, at: SimTime) {
        let key = self.injection_key();
        self.queue.push(at, key, EventKind::Wake { device, token });
    }

    /// Records a processed event in the debug trace, keeping the ring at
    /// most `2 * depth` long (the accessor serves the last `depth`).
    pub(crate) fn record_trace(
        trace: &mut Vec<TraceEntry>,
        depth: usize,
        at: SimTime,
        key: EvKey,
        kind: &EventKind,
    ) {
        if depth == 0 {
            return;
        }
        let (device, tk) = match kind {
            EventKind::Deliver { device, .. } => (*device, TraceKind::Deliver),
            EventKind::Wake { device, .. } => (*device, TraceKind::Wake),
        };
        trace.push(TraceEntry { at, key, device, kind: tk });
        if trace.len() >= depth * 2 {
            trace.drain(..trace.len() - depth);
        }
    }

    /// The last `trace` events processed (empty unless
    /// [`WorldBuilder::trace`] enabled tracing).
    pub fn trace(&self) -> &[TraceEntry] {
        let keep = self.trace.len().min(self.trace_depth);
        &self.trace[self.trace.len() - keep..]
    }

    /// Processes a single event.  Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, key, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue went backwards");
        self.started = true;
        self.now = at;
        self.stats.events += 1;
        Self::record_trace(&mut self.trace, self.trace_depth, at, key, &kind);

        // Reuse the scratch outbox (its vectors keep their capacity) —
        // the seed implementation paid two Vec allocations per event.
        let mut out = std::mem::take(&mut self.scratch);
        let device = match kind {
            EventKind::Deliver { device, port, pkt } => {
                self.devices[device].rx(port, pkt, self.now, &mut out);
                device
            }
            EventKind::Wake { device, token } => {
                self.devices[device].wake(token, self.now, &mut out);
                device
            }
        };
        self.batch_hist[0] += 1;
        self.by_kind[self.devices[device].device_kind().index()] += 1;
        self.flush_outbox(device, &mut out);
        self.scratch = out;
        true
    }

    /// Histogram bucket of a dispatched batch of `n` items.
    fn batch_bucket(n: u64) -> usize {
        match n {
            1 => 0,
            2..=3 => 1,
            4..=7 => 2,
            8..=15 => 3,
            16..=31 => 4,
            32..=63 => 5,
            64..=127 => 6,
            _ => 7,
        }
    }

    /// Processes the next ready event *and every immediately following
    /// event it can prove the serial loop would run in the same order*.
    ///
    /// Two proofs are in play, chosen by the first event's device:
    ///
    /// **Same-instant rule** (devices without a lookahead, or any world
    /// with fault-consuming links): followers must share the instant and
    /// the device, and be ordered (by [`EvKey`]) before any event this
    /// batch's own handlers can create.  Handlers can only create keys at
    /// `(now, device, ctr ≥ ctr₀)` where `ctr₀` is the device's counter
    /// when the batch starts, so any queued event below that bound pops
    /// before them under serial execution no matter when the handlers run.
    ///
    /// **Lookahead window** ([`step_window`](Self::step_window)): when the
    /// first event's device declares a nonzero [`Device::lookahead`], the
    /// batch may span instants and devices — see that method's proof.
    ///
    /// At most `max` events (capped at [`Self::MAX_BATCH`]) at or before
    /// `t_bound` are taken; a non-matching successor is never popped
    /// (peek-guarded), so the queue is left exactly as a serial loop
    /// would.  Returns the number of events processed (0 = queue empty).
    fn step_batch(&mut self, max: u64, t_bound: SimTime) -> u64 {
        let Some((at, key, kind)) = self.queue.pop() else {
            return 0;
        };
        debug_assert!(at >= self.now, "event queue went backwards");
        self.started = true;
        self.now = at;
        let device = kind.device();
        Self::record_trace(&mut self.trace, self.trace_depth, at, key, &kind);

        let la0 = self.lookaheads[device];
        if la0 > 0 && !self.faulty_links && max > 1 {
            return self.step_window(at, kind, la0, max, t_bound);
        }

        let bound = EvKey::device(at, device, self.ctrs[device]);
        let into_item = |kind: EventKind| match kind {
            EventKind::Deliver { port, pkt, .. } => BatchItem::Deliver { port, pkt, at },
            EventKind::Wake { token, .. } => BatchItem::Wake { token, at },
        };

        let cap = max.min(Self::MAX_BATCH);
        // Peek-guarded pop: a non-batchable successor (later instant,
        // other device, or not provably ordered before this batch's own
        // children) is never removed, so nothing is pushed back and
        // global order is trivially unchanged.
        let pop_follower = |queue: &mut EventQueue| {
            queue.pop_if(|at2, key2, kind2| at2 == at && kind2.device() == device && key2 < bound)
        };

        let mut out = std::mem::take(&mut self.scratch);
        let n;
        let second = if cap > 1 { pop_follower(&mut self.queue) } else { None };
        if let Some((at2, key2, kind2)) = second {
            Self::record_trace(&mut self.trace, self.trace_depth, at2, key2, &kind2);
            let mut batch = std::mem::take(&mut self.batch_scratch);
            batch.clear();
            batch.push(into_item(kind));
            batch.push(into_item(kind2));
            while (batch.len() as u64) < cap {
                let Some((at2, key2, kind2)) = pop_follower(&mut self.queue) else { break };
                Self::record_trace(&mut self.trace, self.trace_depth, at2, key2, &kind2);
                batch.push(into_item(kind2));
            }
            n = batch.len() as u64;
            self.devices[device].rx_batch(&mut batch, at, &mut out);
            debug_assert!(batch.is_empty(), "rx_batch must drain its items");
            batch.clear();
            self.batch_scratch = batch;
        } else {
            // Single event (the common case): dispatch directly, skipping
            // the batch buffer and checkpoint machinery entirely.
            n = 1;
            match kind {
                EventKind::Deliver { port, pkt, .. } => {
                    self.devices[device].rx(port, pkt, at, &mut out)
                }
                EventKind::Wake { token, .. } => self.devices[device].wake(token, at, &mut out),
            }
        }

        self.stats.events += n;
        self.batch_hist[Self::batch_bucket(n)] += 1;
        self.by_kind[self.devices[device].device_kind().index()] += n;
        self.flush_outbox(device, &mut out);
        self.scratch = out;
        n
    }

    /// Largest batch one [`step_batch`](Self::step_batch) call dispatches.
    const MAX_BATCH: u64 = 256;

    /// Windowed batching across instants and devices, rooted at an event
    /// of a device with conservative lookahead `la0`.
    ///
    /// The window is a *contiguous prefix* of the global `(at, key)` pop
    /// order: each candidate is the queue's current minimum and is taken
    /// only when (a) its time is `≤ t_bound`, (b) its time is strictly
    /// below the window horizon, and (c) its device declares a nonzero
    /// lookahead.  The horizon is `min` over member devices of
    /// `first_occurrence_time + lookahead`; any event a member handler
    /// creates from an item at `t` lands at `≥ t + lookahead ≥ horizon`,
    /// strictly after every window item, so the serial loop would process
    /// exactly these items in exactly this pop order before touching
    /// anything the window creates.
    ///
    /// Items are then dispatched grouped per device (per-device pop order
    /// preserved).  Cross-device dispatch reorder is invisible: devices
    /// interact only through events (which all land past the horizon),
    /// per-device [`EvKey`] counters advance in per-device order, and the
    /// fault RNG is untouched (the window only forms in fault-free
    /// worlds).  Created events take their creating item's time as key
    /// birth and clamp, via per-segment flushing, so keys are identical
    /// to the serial loop's.
    fn step_window(
        &mut self,
        at: SimTime,
        first: EventKind,
        la0: SimTime,
        max: u64,
        t_bound: SimTime,
    ) -> u64 {
        let device = first.device();
        let mut horizon = at.saturating_add(la0);
        let cap = max.min(Self::MAX_BATCH);

        let into_item = |kind: EventKind, at: SimTime| match kind {
            EventKind::Deliver { port, pkt, .. } => BatchItem::Deliver { port, pkt, at },
            EventKind::Wake { token, .. } => BatchItem::Wake { token, at },
        };

        let mut groups = std::mem::take(&mut self.window_groups);
        debug_assert!(groups.is_empty());
        let (items, times) = self.group_pool.pop().unwrap_or_default();
        groups.push(WindowGroup { device, items, times });
        groups[0].items.push(into_item(first, at));
        groups[0].times.push(at);

        let mut n: u64 = 1;
        let mut last_at = at;
        while n < cap {
            let la = &self.lookaheads;
            let popped = self.queue.pop_if(|at2, _key2, kind2| {
                at2 <= t_bound && at2 < horizon && la[kind2.device()] > 0
            });
            let Some((at2, key2, kind2)) = popped else { break };
            Self::record_trace(&mut self.trace, self.trace_depth, at2, key2, &kind2);
            let d2 = kind2.device();
            let mut gi = usize::MAX;
            for (i, g) in groups.iter().enumerate() {
                if g.device == d2 {
                    gi = i;
                    break;
                }
            }
            if gi == usize::MAX {
                // A joining device tightens the horizon; items already
                // taken are at times ≤ at2 < at2 + lookahead, so they
                // remain inside the tightened window.
                horizon = horizon.min(at2.saturating_add(self.lookaheads[d2]));
                let (items, times) = self.group_pool.pop().unwrap_or_default();
                groups.push(WindowGroup { device: d2, items, times });
                gi = groups.len() - 1;
            }
            groups[gi].items.push(into_item(kind2, at2));
            groups[gi].times.push(at2);
            last_at = at2;
            n += 1;
        }

        // The window is fully collected before any handler runs, so
        // advancing `now` to the last item keeps created-event clamping
        // (`at.max(seg_time)`) and the backwards-queue debug check honest.
        self.now = last_at;
        self.stats.events += n;
        let mut out = std::mem::take(&mut self.scratch);
        for g in &mut groups {
            let len = g.items.len() as u64;
            let dev = g.device;
            let base = g.times[0];
            self.batch_hist[Self::batch_bucket(len)] += 1;
            self.by_kind[self.devices[dev].device_kind().index()] += len;
            if len == 1 {
                let item = g.items.pop().expect("single-item group");
                match item {
                    BatchItem::Deliver { port, pkt, at } => {
                        self.devices[dev].rx(port, pkt, at, &mut out)
                    }
                    BatchItem::Wake { token, at } => self.devices[dev].wake(token, at, &mut out),
                }
                let times = [base];
                self.flush_segments(dev, &mut out, &times);
            } else {
                let mut items = std::mem::take(&mut g.items);
                let times = std::mem::take(&mut g.times);
                self.devices[dev].rx_batch(&mut items, base, &mut out);
                debug_assert!(items.is_empty(), "rx_batch must drain its items");
                self.flush_segments(dev, &mut out, &times);
                g.items = items;
                g.times = times;
            }
        }
        self.scratch = out;
        for mut g in groups.drain(..) {
            g.items.clear();
            g.times.clear();
            self.group_pool.push((g.items, g.times));
        }
        self.window_groups = groups;
        n
    }

    fn flush_outbox(&mut self, device: DeviceId, out: &mut Outbox) {
        self.flush_segments(device, out, &[]);
    }

    /// Flushes a batched outbox whose checkpoint segments carry their own
    /// event times: segment `i` (one batch item's output) uses
    /// `times[i]` — falling back to `self.now` past the end of `times` or
    /// when no times were supplied (the same-instant paths) — as the
    /// [`EvKey`] birth and the earliest-schedule clamp, exactly what a
    /// serial flush after that item's handler would have used.
    ///
    /// # Panics
    /// Panics when a device with a nonzero [`Device::lookahead`] requested
    /// a wake or emission earlier than its segment time plus that
    /// lookahead: the windowed batcher's ordering proof rests on the
    /// declaration, so a breach is a device bug, not something to clamp.
    fn flush_segments(&mut self, device: DeviceId, out: &mut Outbox, times: &[SimTime]) {
        let la = self.lookaheads[device];
        // Walk the checkpoint segments (one per batch item; the whole
        // outbox when no checkpoints were recorded), issuing each
        // segment's wakes before its emissions — the same key-assignment
        // and fault-RNG order as flushing after every handler separately.
        let mut wakes = std::mem::take(&mut out.wakes);
        let mut emits = std::mem::take(&mut out.emits);
        let marks = std::mem::take(&mut out.marks);
        let mut wakes_it = wakes.drain(..);
        let mut emits_it = emits.drain(..);
        let (mut w0, mut e0) = (0usize, 0usize);
        let final_mark = std::iter::once((wakes_it.len(), emits_it.len()));
        for (seg, (w1, e1)) in marks.iter().copied().chain(final_mark).enumerate() {
            let seg_now = times.get(seg).copied().unwrap_or(self.now);
            // Zero lookahead promises nothing; such devices keep the
            // clamp to `seg_now` below.
            let floor = if la > 0 { seg_now.saturating_add(la) } else { 0 };
            for (token, at) in wakes_it.by_ref().take(w1 - w0) {
                if at < floor {
                    self.lookahead_breach("a wake", device, seg_now, at, la);
                }
                let key = EvKey::device(seg_now, device, self.ctrs[device]);
                self.ctrs[device] += 1;
                self.queue.push(at.max(seg_now), key, EventKind::Wake { device, token });
            }
            for (port, mut pkt, at) in emits_it.by_ref().take(e1 - e0) {
                if at < floor {
                    self.lookahead_breach("an emission", device, seg_now, at, la);
                }
                let slot =
                    self.link_table.get(device).and_then(|ports| ports.get(usize::from(port)));
                let Some(Some(link)) = slot else {
                    self.stats.dangling_emits += 1;
                    continue;
                };
                let link = link.clone();
                if link.drop_chance > 0.0 && self.rng.gen_bool(link.drop_chance) {
                    self.stats.link_drops += 1;
                    continue;
                }
                if link.corrupt_chance > 0.0 && self.rng.gen_bool(link.corrupt_chance) {
                    // Flip one random bit in a random standard header
                    // field — the PHV-level analogue of a byte corruption
                    // on the wire.
                    let f = FieldId(self.rng.gen_range(0..fields::STANDARD_COUNT));
                    let bit = self.rng.gen_range(0..16u32);
                    let v = pkt.phv.get(f) ^ (1 << bit);
                    pkt.phv.set_masked(f, v, 64);
                    self.stats.link_corruptions += 1;
                }
                let mut delay = link.delay;
                if link.jitter > 0 {
                    delay += self.rng.gen_range(0..=link.jitter);
                }
                let key = EvKey::device(seg_now, device, self.ctrs[device]);
                self.ctrs[device] += 1;
                self.queue.push(
                    at.max(seg_now) + delay,
                    key,
                    EventKind::Deliver { device: link.peer.0, port: link.peer.1, pkt },
                );
            }
            (w0, e0) = (w1, e1);
        }
        drop(wakes_it);
        drop(emits_it);
        // Hand the (now empty) buffers back so their capacity is reused.
        out.wakes = wakes;
        out.emits = emits;
        out.marks = marks;
        out.marks.clear();
    }

    /// The failure path of the lookahead check in
    /// [`flush_segments`](Self::flush_segments), kept out of line so the
    /// flush loop carries only the compare.
    #[cold]
    #[inline(never)]
    fn lookahead_breach(
        &self,
        what: &str,
        device: DeviceId,
        seg_now: SimTime,
        at: SimTime,
        la: SimTime,
    ) -> ! {
        panic!(
            "device {device} ({}) requested {what} at {at} ps from an event at {seg_now} ps, \
             inside its declared lookahead of {la} ps",
            self.devices[device].name()
        );
    }

    /// Runs until the queue drains or simulated time exceeds `t_end`
    /// (events beyond `t_end` stay queued).  Returns the number of events
    /// processed.
    ///
    /// When the topology splits into multiple device groups across
    /// nonzero-delay, fault-free links and the world was granted more than
    /// one engine thread ([`WorldBuilder::partitions`]), the run executes
    /// partitioned under the conservative-lookahead protocol; results are
    /// bit-identical to the serial loop either way.
    pub fn run_until(&mut self, t_end: SimTime) -> u64 {
        if let Some(n) = crate::parallel::try_run_until(self, t_end) {
            return n;
        }
        let mut n = 0;
        while let Some(at) = self.queue.peek_min_at() {
            if at > t_end {
                break;
            }
            // Batches never take an event past `t_end`: same-instant
            // batches share the popped event's instant, and windowed
            // batches bound every follower by `t_bound`.
            n += self.step_batch(u64::MAX, t_end);
        }
        self.now = self.now.max(t_end);
        n
    }

    /// Runs until the queue is empty or `max_events` is hit (a runaway
    /// guard for tests).  Always serial: "the queue is empty" is a global
    /// property no engine can observe locally.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            let k = self.step_batch(max_events - n, SimTime::MAX);
            if k == 0 {
                break;
            }
            n += k;
        }
        n
    }

    /// Typed access to a device after (or during) a run.
    ///
    /// # Panics
    /// Panics when the id is out of range or the type does not match.
    pub fn device<T: 'static>(&self, id: DeviceId) -> &T {
        self.devices[id].as_any().downcast_ref::<T>().expect("device type mismatch")
    }

    /// Typed mutable access to a device.
    pub fn device_mut<T: 'static>(&mut self, id: DeviceId) -> &mut T {
        self.devices[id].as_any_mut().downcast_mut::<T>().expect("device type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::FieldTable;

    /// Echoes every packet back out the port it arrived on after 10 ns.
    struct Echo {
        rx_times: Vec<SimTime>,
    }

    impl Device for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
            self.rx_times.push(now);
            out.emit(port, pkt, now + 10_000);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts received packets.
    struct Counter {
        count: u64,
        woken: Vec<u64>,
    }

    impl Device for Counter {
        fn name(&self) -> &str {
            "counter"
        }

        fn rx(&mut self, _port: u16, _pkt: SimPacket, _now: SimTime, _out: &mut Outbox) {
            self.count += 1;
        }

        fn wake(&mut self, token: u64, _now: SimTime, _out: &mut Outbox) {
            self.woken.push(token);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn world(seed: u64) -> World {
        World::builder().seed(seed).build().unwrap()
    }

    fn blank_packet() -> SimPacket {
        let t = FieldTable::new();
        SimPacket { phv: t.new_phv(), uid: 0 }
    }

    #[test]
    fn delivery_respects_link_delay() {
        let mut w = world(1);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((e, 0), (c, 0), LinkSpec::new().delay(5_000));
        w.schedule_rx(e, 0, blank_packet(), 100);
        w.run_to_idle(100);
        // Echo got it at t=100, re-emitted at 110 ns, counter at 115 ns.
        assert_eq!(w.device::<Echo>(e).rx_times, vec![100]);
        assert_eq!(w.device::<Counter>(c).count, 1);
        assert_eq!(w.now(), 100 + 10_000 + 5_000);
    }

    #[test]
    fn wakes_fire_in_time_order() {
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.schedule_wake(c, 2, 200);
        w.schedule_wake(c, 1, 100);
        w.schedule_wake(c, 3, 300);
        w.run_to_idle(10);
        assert_eq!(w.device::<Counter>(c).woken, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_events_preserve_insertion_order() {
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        for token in 0..10 {
            w.schedule_wake(c, token, 500);
        }
        w.run_to_idle(100);
        assert_eq!(w.device::<Counter>(c).woken, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.schedule_wake(c, 1, 100);
        w.schedule_wake(c, 2, 1_000);
        let n = w.run_until(500);
        assert_eq!(n, 1);
        assert_eq!(w.now(), 500);
        w.run_to_idle(10);
        assert_eq!(w.device::<Counter>(c).woken, vec![1, 2]);
    }

    #[test]
    fn dangling_emission_is_counted_not_fatal() {
        let mut w = world(1);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        w.schedule_rx(e, 7, blank_packet(), 0); // port 7 has no link
        w.run_to_idle(10);
        assert_eq!(w.stats.dangling_emits, 1);
    }

    #[test]
    fn lossy_link_drops_roughly_the_configured_fraction() {
        let mut w = world(42);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((e, 0), (c, 0), LinkSpec::new().loss(0.3));
        for i in 0..1000 {
            w.schedule_rx(e, 0, blank_packet(), i * 100);
        }
        w.run_to_idle(10_000);
        let delivered = w.device::<Counter>(c).count;
        assert_eq!(delivered + w.stats.link_drops, 1000);
        assert!((500..900).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn heap_and_wheel_queues_agree() {
        // The same scripted scenario must produce identical device state
        // and stats under both queue implementations.
        let run = |kind: QueueKind| {
            let mut w = World::builder().seed(42).queue(kind).build().unwrap();
            let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
            let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
            w.link((e, 0), (c, 0), LinkSpec::new().delay(2_500).loss(0.2).corrupt(0.1));
            for i in 0..500 {
                w.schedule_rx(e, 0, blank_packet(), i * 137);
                if i % 7 == 0 {
                    w.schedule_wake(c, i, i * 137);
                }
            }
            w.run_to_idle(10_000);
            (w.device::<Echo>(e).rx_times.clone(), w.device::<Counter>(c).woken.clone(), w.stats)
        };
        assert_eq!(run(QueueKind::Heap), run(QueueKind::Wheel));
    }

    #[test]
    fn corrupting_link_flips_fields() {
        let mut w = world(7);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((e, 0), (c, 0), LinkSpec::new().corrupt(1.0));
        w.schedule_rx(e, 0, blank_packet(), 0);
        w.run_to_idle(10);
        assert_eq!(w.stats.link_corruptions, 1);
        assert_eq!(w.device::<Counter>(c).count, 1, "corrupted packets still deliver");
    }

    #[test]
    fn jittered_link_spreads_deliveries() {
        let mut w = world(5);
        let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((e, 0), (c, 0), LinkSpec::new().delay(1_000).jitter(500));
        for i in 0..50 {
            w.schedule_rx(e, 0, blank_packet(), i * 10_000);
        }
        w.run_to_idle(1_000);
        assert_eq!(w.device::<Counter>(c).count, 50, "jitter never loses packets");
    }

    #[test]
    fn builder_rejects_zero_threads() {
        let err =
            World::builder().partitions(SimThreads::Fixed(0)).build().map(|_| ()).unwrap_err();
        assert_eq!(err, WorldConfigError::ZeroSimThreads);
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn trace_keeps_the_last_events() {
        let mut w = World::builder().trace(3).build().unwrap();
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        for token in 0..10 {
            w.schedule_wake(c, token, 100 + token * 10);
        }
        w.run_to_idle(100);
        let t: Vec<SimTime> = w.trace().iter().map(|e| e.at).collect();
        assert_eq!(t, vec![170, 180, 190]);
        assert!(w.trace().iter().all(|e| e.kind == TraceKind::Wake && e.device == c));
    }

    #[test]
    fn batched_run_matches_single_stepping() {
        // Same-instant bursts exercise step_batch's gather path; the
        // batched loop must leave devices, stats, the clock and the fault
        // RNG exactly where the one-event-at-a-time loop does.
        let script = |w: &mut World| {
            let e = w.add_device(Box::new(Echo { rx_times: Vec::new() }));
            let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
            w.link((e, 0), (c, 0), LinkSpec::new().delay(2_500).loss(0.2).jitter(300));
            for i in 0..400u64 {
                // Four same-instant deliveries per burst, with wakes mixed
                // into some bursts.
                w.schedule_rx(e, 0, blank_packet(), (i / 4) * 1_000);
                if i % 3 == 0 {
                    w.schedule_wake(c, i, (i / 4) * 1_000);
                }
            }
            (e, c)
        };

        let mut serial = world(9);
        let (e1, c1) = script(&mut serial);
        let mut n_serial = 0u64;
        while serial.step() {
            n_serial += 1;
        }

        let mut batched = world(9);
        let (e2, c2) = script(&mut batched);
        let n_batched = batched.run_to_idle(u64::MAX);

        assert_eq!(n_batched, n_serial);
        assert_eq!(batched.device::<Echo>(e2).rx_times, serial.device::<Echo>(e1).rx_times);
        assert_eq!(batched.device::<Counter>(c2).woken, serial.device::<Counter>(c1).woken);
        assert_eq!(batched.device::<Counter>(c2).count, serial.device::<Counter>(c1).count);
        assert_eq!(batched.stats, serial.stats);
        assert_eq!(batched.now(), serial.now());
    }

    /// Emits each packet back out exactly its declared lookahead later —
    /// the minimal device exercising the windowed batcher.
    struct Paced {
        rx_times: Vec<SimTime>,
        la: SimTime,
    }

    impl Device for Paced {
        fn name(&self) -> &str {
            "paced"
        }

        fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
            self.rx_times.push(now);
            out.emit(port, pkt, now + self.la);
        }

        fn lookahead(&self) -> SimTime {
            self.la
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Absorbs packets and promises it never creates events.
    struct Absorb {
        rx_times: Vec<SimTime>,
    }

    impl Device for Absorb {
        fn name(&self) -> &str {
            "absorb"
        }

        fn rx(&mut self, _port: u16, _pkt: SimPacket, now: SimTime, _out: &mut Outbox) {
            self.rx_times.push(now);
        }

        fn lookahead(&self) -> SimTime {
            SimTime::MAX
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn windowed_run_matches_single_stepping() {
        // Dense cross-instant traffic through a lookahead device: the
        // windowed batcher must reproduce the serial loop's per-device
        // event times, stats and clock exactly, while actually forming
        // multi-event windows (the same-instant rule would see only
        // singletons here).
        let script = |w: &mut World| {
            let p = w.add_device(Box::new(Paced { rx_times: Vec::new(), la: 1_000 }));
            let a = w.add_device(Box::new(Absorb { rx_times: Vec::new() }));
            w.link((p, 0), (a, 0), LinkSpec::new());
            w.link((p, 1), (a, 1), LinkSpec::new());
            for i in 0..300u64 {
                w.schedule_rx(p, (i % 2) as u16, blank_packet(), i * 100);
            }
            (p, a)
        };

        let mut serial = world(7);
        let (p1, a1) = script(&mut serial);
        let mut n_serial = 0u64;
        while serial.queue.peek_min_at().is_some_and(|at| at <= 20_000) {
            serial.step();
            n_serial += 1;
        }

        let before = metrics::profile_snapshot();
        let mut batched = world(7);
        let (p2, a2) = script(&mut batched);
        let n_batched = batched.run_until(20_000);

        assert_eq!(n_batched, n_serial);
        assert_eq!(batched.device::<Paced>(p2).rx_times, serial.device::<Paced>(p1).rx_times);
        assert_eq!(batched.device::<Absorb>(a2).rx_times, serial.device::<Absorb>(a1).rx_times);
        assert_eq!(batched.stats, serial.stats);

        // Continuing past the bound still matches a full serial drain.
        while serial.step() {
            n_serial += 1;
        }
        let n2 = batched.run_to_idle(u64::MAX);
        assert_eq!(n_batched + n2, n_serial);
        assert_eq!(batched.device::<Absorb>(a2).rx_times, serial.device::<Absorb>(a1).rx_times);

        drop(batched);
        let d = metrics::profile_snapshot().delta_since(&before);
        assert!(
            d.batch_hist[0] < d.events,
            "windows never formed: {:?} over {} events",
            d.batch_hist,
            d.events
        );
    }

    /// Declares a lookahead, then answers inside it: half of it early
    /// as an emission, or as a wake.
    struct Hasty {
        la: SimTime,
        wake: bool,
    }

    impl Device for Hasty {
        fn name(&self) -> &str {
            "hasty"
        }

        fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
            if self.wake {
                out.wake_at(0, now + self.la / 2);
            } else {
                out.emit(port, pkt, now + self.la / 2);
            }
        }

        fn lookahead(&self) -> SimTime {
            self.la
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn run_hasty(wake: bool) {
        let mut w = world(1);
        let h = w.add_device(Box::new(Hasty { la: 1_000, wake }));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((h, 0), (c, 0), LinkSpec::new().delay(5_000));
        w.schedule_rx(h, 0, blank_packet(), 100);
        w.run_to_idle(10);
    }

    #[test]
    #[should_panic(expected = "device 0 (hasty) requested an emission at 600 ps from an event at \
                               100 ps, inside its declared lookahead of 1000 ps")]
    fn emission_inside_the_declared_lookahead_panics() {
        run_hasty(false);
    }

    #[test]
    #[should_panic(expected = "requested a wake at 600 ps")]
    fn wake_inside_the_declared_lookahead_panics() {
        run_hasty(true);
    }

    #[test]
    #[should_panic(expected = "device 0 (absorb-then-emit)")]
    fn unbounded_lookahead_forbids_any_creation() {
        /// Claims a sink's unbounded lookahead but emits anyway.
        struct Liar;

        impl Device for Liar {
            fn name(&self) -> &str {
                "absorb-then-emit"
            }

            fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
                out.emit(port, pkt, now + 1_000_000);
            }

            fn lookahead(&self) -> SimTime {
                SimTime::MAX
            }

            fn as_any(&self) -> &dyn Any {
                self
            }

            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut w = world(1);
        let l = w.add_device(Box::new(Liar));
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.link((l, 0), (c, 0), LinkSpec::new());
        w.schedule_rx(l, 0, blank_packet(), 0);
        w.run_to_idle(10);
    }

    #[test]
    fn windowed_batches_disable_under_link_faults() {
        // A fault-consuming link pins the world to the same-instant rule
        // (dispatch reorder would shift the fault RNG stream), and the
        // outcome still matches serial stepping.
        let script = |w: &mut World| {
            let p = w.add_device(Box::new(Paced { rx_times: Vec::new(), la: 1_000 }));
            let a = w.add_device(Box::new(Absorb { rx_times: Vec::new() }));
            w.link((p, 0), (a, 0), LinkSpec::new().loss(0.3));
            for i in 0..100u64 {
                w.schedule_rx(p, 0, blank_packet(), i * 100);
            }
            (p, a)
        };
        let mut serial = world(11);
        let (_, a1) = script(&mut serial);
        while serial.step() {}
        let mut batched = world(11);
        let (_, a2) = script(&mut batched);
        batched.run_to_idle(u64::MAX);
        assert_eq!(batched.device::<Absorb>(a2).rx_times, serial.device::<Absorb>(a1).rx_times);
        assert_eq!(batched.stats, serial.stats);
        assert!(batched.stats.link_drops > 0, "faults should have fired");
    }

    #[test]
    fn batched_run_to_idle_respects_the_event_cap() {
        // A burst bigger than the remaining budget must not overshoot.
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        for token in 0..20 {
            w.schedule_wake(c, token, 500);
        }
        assert_eq!(w.run_to_idle(7), 7);
        assert_eq!(w.device::<Counter>(c).woken, (0..7).collect::<Vec<_>>());
        assert_eq!(w.run_to_idle(100), 13);
    }

    #[test]
    fn profile_counters_track_events_and_batches() {
        let before = metrics::profile_snapshot();
        let mut w = world(3);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        for token in 0..32 {
            w.schedule_wake(c, token, 500);
        }
        w.run_to_idle(1_000);
        drop(w); // folds the world's histograms into the thread-locals
        let d = metrics::profile_snapshot().delta_since(&before);
        assert_eq!(d.events, 32);
        assert_eq!(d.by_kind.iter().sum::<u64>(), 32);
        // 32 same-instant wakes for one plain device gather into one
        // 32–63-bucket batch.
        assert_eq!(d.batch_hist, [0, 0, 0, 0, 0, 1, 0, 0]);
        assert_eq!(d.by_kind[DeviceKind::Other.index()], 32);
    }

    #[test]
    fn mid_run_injections_sort_after_prior_creations() {
        // An injection scheduled between runs lands after events the run
        // already created for the same instant — the historical
        // insertion-sequence order.
        let mut w = world(1);
        let c = w.add_device(Box::new(Counter { count: 0, woken: Vec::new() }));
        w.schedule_wake(c, 1, 100);
        w.run_until(200);
        w.schedule_wake(c, 2, 300);
        w.schedule_wake(c, 3, 300);
        w.run_to_idle(10);
        assert_eq!(w.device::<Counter>(c).woken, vec![1, 2, 3]);
    }
}
