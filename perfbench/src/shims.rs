//! Outside-in tracing: wrappers around the public traits the simulator
//! calls through (`Prefetcher`, `PrefetchSink`, `TraceSource` /
//! `BatchStream`). Each wrapper times every call into the layer behind it
//! and counts it. The simulator itself is unchanged; a traced run must give
//! the same report as an untraced one, which the benchmark checks.
//!
//! Wrappers keep plain local totals (no atomics or locks on the hot path)
//! and add them into a shared [`Arc<Mutex<_>>`] when dropped, which
//! happens when the `System` that owns them is dropped.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ipcp_sim::prefetch::{
    AccessInfo, FillInfo, MetadataArrival, PrefetchRequest, PrefetchSink, Prefetcher,
};
use ipcp_sim::Cycle;
use ipcp_trace::{BatchStream, Instr, InstrBatch, TraceSource};

/// Per-trace memo depth of `ipcp_workloads::SynthTrace` (its private
/// `MEMO_CAP`): stream positions past it regenerate the trace instead of
/// replaying the memo.
pub const MEMO_CAP: u64 = 4_000_000;

/// Count and summed duration of a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    /// Spans recorded.
    pub count: u64,
    /// Summed measured duration, in nanoseconds.
    pub ns: u64,
}

impl Spans {
    #[inline]
    fn record(&mut self, t0: Instant) {
        self.count += 1;
        self.ns += t0.elapsed().as_nanos() as u64;
    }

    fn add(&mut self, o: Spans) {
        self.count += o.count;
        self.ns += o.ns;
    }
}

/// Totals of one prefetcher slot.
#[derive(Debug, Default, Clone, Copy)]
pub struct PfTotals {
    /// `on_access`, `on_fill`, `on_prefetch_arrival` and `on_cycle` spans.
    pub hooks: Spans,
    /// Sink calls made from inside those hooks (child spans).
    pub sink: Spans,
    /// Requests handed to the sink, by class bits (NL, CS, CPLX, GS).
    pub requests_by_class: [u64; 4],
}

impl PfTotals {
    fn add(&mut self, o: &PfTotals) {
        self.hooks.add(o.hooks);
        self.sink.add(o.sink);
        for (a, b) in self.requests_by_class.iter_mut().zip(o.requests_by_class) {
            *a += b;
        }
    }
}

/// Totals of the trace layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamTotals {
    /// `next_batch` spans.
    pub batches: Spans,
    /// Instructions delivered.
    pub instrs: u64,
    /// Instructions delivered from stream positions at or past [`MEMO_CAP`].
    pub past_cap: u64,
}

/// A prefetcher wrapper that times every hook.
pub struct Traced {
    inner: Box<dyn Prefetcher>,
    local: PfTotals,
    out: Arc<Mutex<PfTotals>>,
}

impl Traced {
    /// Wraps `inner`; totals go to `out` when the wrapper is dropped.
    pub fn new(inner: Box<dyn Prefetcher>, out: Arc<Mutex<PfTotals>>) -> Self {
        Self {
            inner,
            local: PfTotals::default(),
            out,
        }
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.add(&self.local);
        }
    }
}

/// Wraps `p` in [`Traced`] unless it is a no-op: the simulator skips the
/// hooks of a no-op prefetcher entirely, so there is nothing to time.
pub fn wrap(p: Box<dyn Prefetcher>, out: &Arc<Mutex<PfTotals>>) -> Box<dyn Prefetcher> {
    if p.is_noop() {
        p
    } else {
        Box::new(Traced::new(p, Arc::clone(out)))
    }
}

struct TracedSink<'a> {
    inner: &'a mut dyn PrefetchSink,
    acc: &'a mut PfTotals,
}

impl PrefetchSink for TracedSink<'_> {
    fn prefetch(&mut self, req: PrefetchRequest) -> bool {
        let t0 = Instant::now();
        let ok = self.inner.prefetch(req);
        self.acc.sink.record(t0);
        self.acc.requests_by_class[usize::from(req.pf_class & 3)] += 1;
        ok
    }

    fn prefetch_batch(&mut self, reqs: &[PrefetchRequest]) -> u32 {
        let t0 = Instant::now();
        let mask = self.inner.prefetch_batch(reqs);
        self.acc.sink.record(t0);
        for r in reqs {
            self.acc.requests_by_class[usize::from(r.pf_class & 3)] += 1;
        }
        mask
    }
}

impl Prefetcher for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, info: &AccessInfo, sink: &mut dyn PrefetchSink) {
        let t0 = Instant::now();
        let mut s = TracedSink {
            inner: sink,
            acc: &mut self.local,
        };
        self.inner.on_access(info, &mut s);
        self.local.hooks.record(t0);
    }

    fn on_fill(&mut self, fill: &FillInfo) {
        let t0 = Instant::now();
        self.inner.on_fill(fill);
        self.local.hooks.record(t0);
    }

    fn on_prefetch_arrival(&mut self, arrival: &MetadataArrival, sink: &mut dyn PrefetchSink) {
        let t0 = Instant::now();
        let mut s = TracedSink {
            inner: sink,
            acc: &mut self.local,
        };
        self.inner.on_prefetch_arrival(arrival, &mut s);
        self.local.hooks.record(t0);
    }

    fn on_cycle(&mut self, cycle: Cycle, sink: &mut dyn PrefetchSink) {
        let t0 = Instant::now();
        let mut s = TracedSink {
            inner: sink,
            acc: &mut self.local,
        };
        self.inner.on_cycle(cycle, &mut s);
        self.local.hooks.record(t0);
    }

    fn uses_cycle_hook(&self) -> bool {
        self.inner.uses_cycle_hook()
    }

    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn filter_drops_by_class(&self) -> [u64; 4] {
        self.inner.filter_drops_by_class()
    }
}

/// A trace wrapper whose batch streams time every `next_batch`.
pub struct TracedTrace {
    inner: Arc<dyn TraceSource + Send + Sync>,
    out: Arc<Mutex<StreamTotals>>,
}

impl TracedTrace {
    /// Wraps `inner` as a shared trace handle; stream totals go to `out` as
    /// streams are dropped.
    pub fn shared(
        inner: Arc<dyn TraceSource + Send + Sync>,
        out: &Arc<Mutex<StreamTotals>>,
    ) -> Arc<dyn TraceSource + Send + Sync> {
        Arc::new(Self {
            inner,
            out: Arc::clone(out),
        })
    }
}

impl TraceSource for TracedTrace {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Instr> + Send> {
        self.inner.stream()
    }

    fn batch_stream(&self) -> Box<dyn BatchStream> {
        Box::new(TracedStream {
            inner: self.inner.batch_stream(),
            pos: 0,
            local: StreamTotals::default(),
            out: Arc::clone(&self.out),
        })
    }
}

struct TracedStream {
    inner: Box<dyn BatchStream>,
    pos: u64,
    local: StreamTotals,
    out: Arc<Mutex<StreamTotals>>,
}

impl BatchStream for TracedStream {
    fn next_batch(&mut self, out: &mut InstrBatch) -> usize {
        let t0 = Instant::now();
        let n = self.inner.next_batch(out);
        self.local.batches.record(t0);
        let end = self.pos + n as u64;
        self.local.instrs += n as u64;
        self.local.past_cap += end.saturating_sub(self.pos.max(MEMO_CAP));
        self.pos = end;
        n
    }
}

impl Drop for TracedStream {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.batches.add(self.local.batches);
            out.instrs += self.local.instrs;
            out.past_cap += self.local.past_cap;
        }
    }
}

/// Cost of one span, measured on an empty prefetcher behind [`Traced`].
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// Mean measured duration of an empty span (timer cost that lands
    /// inside the span), in ns.
    pub inside_ns: f64,
    /// Mean added wall time per span, inside and outside it, in ns.
    pub total_ns: f64,
}

struct Empty;

impl Prefetcher for Empty {
    fn name(&self) -> &'static str {
        "empty"
    }

    fn on_access(&mut self, _info: &AccessInfo, _sink: &mut dyn PrefetchSink) {}
}

/// Measures [`SpanCost`] by calling an empty prefetcher `n` times, bare and
/// wrapped, through `&mut dyn Prefetcher` as the simulator does.
pub fn calibrate(n: u64) -> SpanCost {
    let info = ipcp_sim::prefetch::test_access(0x400, 0x1000, true);
    let mut sink = ipcp_sim::prefetch::VecSink::new();
    let call_loop = |p: &mut dyn Prefetcher, sink: &mut ipcp_sim::prefetch::VecSink| {
        let t0 = Instant::now();
        for _ in 0..n {
            p.on_access(std::hint::black_box(&info), sink);
        }
        t0.elapsed().as_nanos() as f64
    };
    let mut bare: Box<dyn Prefetcher> = Box::new(Empty);
    let bare_ns = call_loop(bare.as_mut(), &mut sink);
    let out = Arc::new(Mutex::new(PfTotals::default()));
    let mut traced: Box<dyn Prefetcher> = Box::new(Traced::new(Box::new(Empty), Arc::clone(&out)));
    let traced_ns = call_loop(traced.as_mut(), &mut sink);
    drop(traced);
    let spans = out.lock().expect("calibration totals").hooks;
    SpanCost {
        inside_ns: spans.ns as f64 / spans.count as f64,
        total_ns: ((traced_ns - bare_ns) / n as f64).max(0.0),
    }
}
