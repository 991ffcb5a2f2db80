//! The traced run's instrumentation: wrappers around the three
//! boundaries a simulation crosses (protocol handlers, the protocol
//! context, mobility models), aggregated in memory per worker thread.
//!
//! Nothing here changes what the simulation does. Every wrapper
//! forwards each call unchanged and only adds a count, and for the
//! handler and mobility boundaries a pair of clock reads. The
//! aggregates are a count, total nanoseconds and a log2 duration
//! histogram per boundary — never one record per call, which would be
//! millions of spans at city scale.

use std::cell::RefCell;
use std::time::Instant;

use ag_mobility::{LegSample, Mobility, Vec2};
use ag_net::{Message, NodeId, ProtoCtx, Protocol, RxKind, TimerKey};
use ag_sim::{SimDuration, SimTime};
use rand::rngs::SmallRng;

/// The benchmark's only host-clock read; every duration it reports is
/// a difference of two of these.
#[allow(clippy::disallowed_methods)]
pub fn clock() -> Instant {
    // ag-lint: allow(wall-clock) -- the benchmark measures host time; all its timings read the clock here
    Instant::now()
}

/// Nanoseconds from `t0` to now.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(clock().duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds from `t0` to now.
pub fn secs_since(t0: Instant) -> f64 {
    clock().duration_since(t0).as_secs_f64()
}

/// Number of log2 duration buckets; bucket `b` holds calls of
/// `[2^(b-1), 2^b)` ns, the last one everything longer.
pub const BUCKETS: usize = 32;

/// Count, total time and duration histogram of the calls across one
/// boundary.
#[derive(Debug, Clone, Default)]
pub struct Boundary {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
    /// Log2 histogram of per-call nanoseconds.
    pub hist: [u64; BUCKETS],
}

impl Boundary {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        let bucket = (u64::BITS - ns.leading_zeros()) as usize;
        self.hist[bucket.min(BUCKETS - 1)] += 1;
    }

    /// Adds `other`'s calls to this boundary.
    pub fn merge(&mut self, other: &Boundary) {
        self.calls += other.calls;
        self.ns += other.ns;
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }

    /// The histogram as `2^b:count` pairs of its non-empty buckets.
    pub fn render_hist(&self) -> String {
        self.hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, c)| format!("<2^{b}ns:{c}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The four protocol handler entry points.
#[derive(Debug, Clone, Copy)]
pub enum Hook {
    /// `Protocol::start`.
    Start = 0,
    /// `Protocol::on_packet`.
    OnPacket = 1,
    /// `Protocol::on_timer`.
    OnTimer = 2,
    /// `Protocol::on_send_failure`.
    OnSendFailure = 3,
}

/// Names of [`Hook`]s, indexed by discriminant.
pub const HOOK_NAMES: [&str; 4] = ["start", "on_packet", "on_timer", "on_send_failure"];

/// Effects a protocol requested through its context.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtxCounts {
    /// Unicast frames queued.
    pub sends: u64,
    /// Broadcast frames queued.
    pub broadcasts: u64,
    /// Timers armed.
    pub timers: u64,
    /// String-keyed counter bumps (`count` and `count_n`).
    pub counts: u64,
    /// Named random choices drawn.
    pub choices: u64,
}

impl CtxCounts {
    /// Adds `other` into this tally.
    pub fn merge(&mut self, other: &CtxCounts) {
        self.sends += other.sends;
        self.broadcasts += other.broadcasts;
        self.timers += other.timers;
        self.counts += other.counts;
        self.choices += other.choices;
    }
}

/// Everything the wrappers recorded on one thread since the last
/// [`take`].
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Per-[`Hook`] handler boundaries.
    pub hooks: [Boundary; 4],
    /// Context effects, summed over all handlers.
    pub ctx: CtxCounts,
    /// All calls into mobility models.
    pub mobility: Boundary,
    /// Of those, `Mobility::transition` calls.
    pub transitions: u64,
}

impl Tally {
    /// Nanoseconds inside protocol handlers.
    pub fn proto_ns(&self) -> u64 {
        self.hooks.iter().map(|h| h.ns).sum()
    }

    /// Adds `other` into this tally.
    pub fn merge(&mut self, other: &Tally) {
        for (a, b) in self.hooks.iter_mut().zip(other.hooks.iter()) {
            a.merge(b);
        }
        self.ctx.merge(&other.ctx);
        self.mobility.merge(&other.mobility);
        self.transitions += other.transitions;
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Returns this thread's tally and starts a fresh one. A job calls it
/// at each phase boundary; a job runs on one thread from start to end,
/// so the tally belongs to that job alone.
pub fn take() -> Tally {
    TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// A [`ProtoCtx`] that forwards every call and counts the effects.
struct CountingCtx<'a, C> {
    inner: &'a mut C,
    counts: CtxCounts,
}

impl<M: Message, C: ProtoCtx<M>> ProtoCtx<M> for CountingCtx<'_, C> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send(&mut self, dest: NodeId, msg: M) {
        self.counts.sends += 1;
        self.inner.send(dest, msg);
    }

    fn broadcast(&mut self, msg: M) {
        self.counts.broadcasts += 1;
        self.inner.broadcast(msg);
    }

    fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        self.counts.timers += 1;
        self.inner.set_timer(delay, key);
    }

    fn count(&mut self, name: &'static str) {
        self.counts.counts += 1;
        self.inner.count(name);
    }

    fn count_n(&mut self, name: &'static str, n: u64) {
        self.counts.counts += 1;
        self.inner.count_n(name, n);
    }

    fn jitter(&mut self, bound: u64) -> u64 {
        self.counts.choices += 1;
        self.inner.jitter(bound)
    }

    fn chance(&mut self, p: f64) -> bool {
        self.counts.choices += 1;
        self.inner.chance(p)
    }

    fn pick_index(&mut self, n: usize) -> usize {
        self.counts.choices += 1;
        self.inner.pick_index(n)
    }

    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, weight: F) -> usize {
        self.counts.choices += 1;
        self.inner.pick_weighted(n, weight)
    }
}

/// A protocol stack with every handler call timed and its context
/// effects counted.
#[derive(Debug)]
pub struct Traced<P>(pub P);

impl<P: Protocol> Traced<P> {
    fn call<C, F>(&mut self, hook: Hook, ctx: &mut C, handler: F)
    where
        C: ProtoCtx<P::Msg>,
        F: FnOnce(&mut P, &mut CountingCtx<'_, C>),
    {
        let mut counting = CountingCtx {
            inner: ctx,
            counts: CtxCounts::default(),
        };
        let t0 = clock();
        handler(&mut self.0, &mut counting);
        let ns = ns_since(t0);
        TALLY.with(|t| {
            let mut t = t.borrow_mut();
            t.hooks[hook as usize].record(ns);
            t.ctx.merge(&counting.counts);
        });
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = P::Msg;

    fn start<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C) {
        self.call(Hook::Start, ctx, |p, c| p.start(c));
    }

    fn on_packet<C: ProtoCtx<Self::Msg>>(
        &mut self,
        ctx: &mut C,
        from: NodeId,
        msg: Self::Msg,
        rx: RxKind,
    ) {
        self.call(Hook::OnPacket, ctx, |p, c| p.on_packet(c, from, msg, rx));
    }

    fn on_timer<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C, key: TimerKey) {
        self.call(Hook::OnTimer, ctx, |p, c| p.on_timer(c, key));
    }

    fn on_send_failure<C: ProtoCtx<Self::Msg>>(&mut self, ctx: &mut C, to: NodeId, msg: Self::Msg) {
        self.call(Hook::OnSendFailure, ctx, |p, c| {
            p.on_send_failure(c, to, msg)
        });
    }
}

/// A mobility model with every call timed.
#[derive(Debug)]
pub struct TracedMobility(pub Box<dyn Mobility>);

fn record_mobility(t0: Instant, transition: bool) {
    let ns = ns_since(t0);
    TALLY.with(|t| {
        let mut t = t.borrow_mut();
        t.mobility.record(ns);
        t.transitions += u64::from(transition);
    });
}

impl Mobility for TracedMobility {
    fn position(&self, t: SimTime) -> Vec2 {
        let t0 = clock();
        let p = self.0.position(t);
        record_mobility(t0, false);
        p
    }

    fn next_transition(&self) -> SimTime {
        let t0 = clock();
        let t = self.0.next_transition();
        record_mobility(t0, false);
        t
    }

    fn transition(&mut self, now: SimTime, rng: &mut SmallRng) {
        let t0 = clock();
        self.0.transition(now, rng);
        record_mobility(t0, true);
    }

    fn current_leg(&self) -> LegSample {
        let t0 = clock();
        let leg = self.0.current_leg();
        record_mobility(t0, false);
        leg
    }
}
