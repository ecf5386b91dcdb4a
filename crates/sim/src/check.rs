//! Runtime invariant layer: wrappers that validate every prefetch request
//! against the model invariants the paper's hardware budget implies.
//!
//! The checks are the `ipcp-check` audit subsystem's first pillar (the
//! other two are the `no_fastpath` differential oracle in [`crate::config`]
//! and the trace fuzzer in `ipcp-workloads`):
//!
//! - a prefetch never crosses its trigger's 4 KB page (IPCP trains on
//!   virtual addresses and stops at page bounds — Section IV);
//! - the class tag fits the 2-bit encoding {NL, CS, CPLX, GS};
//! - L1→L2 metadata fits 9 bits: 2-bit class, 7-bit signed stride in
//!   `-63..=63`;
//! - the same target is never issued twice from one trigger (the RR
//!   filter's probe-and-insert makes an intra-trigger duplicate
//!   impossible);
//! - per-trigger, per-class issue counts never exceed a configured degree
//!   bound (the throttle can only lower degrees, so the config defaults
//!   are a hard ceiling).
//!
//! [`CheckedPrefetcher`] wraps any [`Prefetcher`] and applies the checks to
//! everything it emits; violations are *recorded* (bounded), not panicked,
//! so a sweep reports every broken invariant instead of dying on the
//! first. The wrapper forwards every behavioral hook unchanged, so a
//! checked run is byte-identical to an unchecked one.

use std::sync::{Arc, Mutex};

use ipcp_mem::LineAddr;

use crate::config::Cycle;
use crate::prefetch::{
    AccessInfo, FillInfo, MetadataArrival, PrefetchRequest, PrefetchSink, Prefetcher,
};

/// Cap on the recorded violation list: enough to diagnose, bounded so a
/// systematically broken prefetcher cannot eat the heap.
const MAX_RECORDED: usize = 64;

/// Shared tally of one checked prefetcher's audit results.
#[derive(Debug, Default)]
pub struct CheckState {
    /// Requests validated.
    pub checked: u64,
    /// Total violations observed (recorded or not).
    pub violations: u64,
    /// First `MAX_RECORDED` (64) violation descriptions.
    pub recorded: Vec<String>,
}

/// Handle onto a [`CheckedPrefetcher`]'s results, usable after the
/// prefetcher has been moved into a simulation.
#[derive(Debug, Clone, Default)]
pub struct CheckHandle {
    state: Arc<Mutex<CheckState>>,
}

impl CheckHandle {
    /// Requests validated so far.
    pub fn checked(&self) -> u64 {
        self.state.lock().unwrap().checked
    }

    /// Violations observed so far.
    pub fn violations(&self) -> u64 {
        self.state.lock().unwrap().violations
    }

    /// The recorded violation descriptions (the first `MAX_RECORDED`, 64).
    pub fn recorded(&self) -> Vec<String> {
        self.state.lock().unwrap().recorded.clone()
    }

    /// Panics with every recorded violation if any was observed.
    ///
    /// # Panics
    ///
    /// Panics when at least one invariant violation was recorded.
    pub fn assert_clean(&self, context: &str) {
        let s = self.state.lock().unwrap();
        assert!(
            s.violations == 0,
            "{context}: {} invariant violation(s) over {} checked prefetches:\n{}",
            s.violations,
            s.checked,
            s.recorded.join("\n")
        );
    }

    fn note(&self, violation: Option<String>) {
        let mut s = self.state.lock().unwrap();
        s.checked += 1;
        if let Some(v) = violation {
            s.violations += 1;
            if s.recorded.len() < MAX_RECORDED {
                s.recorded.push(v);
            }
        }
    }
}

/// Validates one request against a trigger's virtual/physical lines.
/// Returns a description of the first violated invariant, if any.
fn validate(
    req: &PrefetchRequest,
    trigger_vline: LineAddr,
    trigger_pline: LineAddr,
) -> Option<String> {
    if req.pf_class > 3 {
        return Some(format!(
            "class bits {:#x} exceed the 2-bit encoding (req {req:?})",
            req.pf_class
        ));
    }
    if let Some(m) = req.meta {
        if m.class > 3 {
            return Some(format!(
                "metadata class {:#x} exceeds 2 bits (req {req:?})",
                m.class
            ));
        }
        if !(-63..=63).contains(&m.stride) {
            return Some(format!(
                "metadata stride {} exceeds 7 signed bits (req {req:?})",
                m.stride
            ));
        }
    }
    let trigger = if req.virtual_addr {
        trigger_vline
    } else {
        trigger_pline
    };
    if req.line.vpage() != trigger.vpage() {
        return Some(format!(
            "prefetch {:#x} crosses the 4 KB page of trigger {:#x} (req {req:?})",
            req.line.raw(),
            trigger.raw()
        ));
    }
    None
}

/// Sink wrapper applying the per-request checks relative to one trigger.
struct CheckSink<'a> {
    inner: &'a mut dyn PrefetchSink,
    handle: &'a CheckHandle,
    trigger_vline: LineAddr,
    trigger_pline: LineAddr,
    /// Targets issued from this trigger (intra-trigger dedup check).
    issued: Vec<LineAddr>,
    /// Per-class issue counts from this trigger (degree-bound check).
    per_class: [u32; 4],
    /// Per-class degree ceiling; `None` disables the bound.
    degree_limit: Option<[u8; 4]>,
}

impl PrefetchSink for CheckSink<'_> {
    fn prefetch(&mut self, req: PrefetchRequest) -> bool {
        let mut violation = validate(&req, self.trigger_vline, self.trigger_pline);
        if violation.is_none() && self.issued.contains(&req.line) {
            violation = Some(format!(
                "target {:#x} issued twice from one trigger — RR dedup broken (req {req:?})",
                req.line.raw()
            ));
        }
        let class = (req.pf_class & 0b11) as usize;
        self.per_class[class] += 1;
        if violation.is_none() {
            if let Some(limit) = self.degree_limit {
                if self.per_class[class] > u32::from(limit[class]) {
                    violation = Some(format!(
                        "class {class} issued {} > degree bound {} from one trigger (req {req:?})",
                        self.per_class[class], limit[class]
                    ));
                }
            }
        }
        self.handle.note(violation);
        self.issued.push(req.line);
        self.inner.prefetch(req)
    }
}

/// A [`Prefetcher`] wrapper that audits everything the inner prefetcher
/// emits. Behavior-transparent: every request is forwarded unchanged.
pub struct CheckedPrefetcher<P> {
    inner: P,
    handle: CheckHandle,
    degree_limit: Option<[u8; 4]>,
}

impl<P: Prefetcher> CheckedPrefetcher<P> {
    /// Wraps `inner` with the per-request checks.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            handle: CheckHandle::default(),
            degree_limit: None,
        }
    }

    /// Additionally bounds per-trigger, per-class issue counts (NL, CS,
    /// CPLX, GS order). Pass each class's *configured default* degree —
    /// throttling only ever lowers the effective degree below it.
    #[must_use]
    pub fn with_degree_limit(mut self, limit: [u8; 4]) -> Self {
        self.degree_limit = Some(limit);
        self
    }

    /// A handle that stays valid after the prefetcher moves into a run.
    pub fn handle(&self) -> CheckHandle {
        self.handle.clone()
    }
}

impl<P: Prefetcher> Prefetcher for CheckedPrefetcher<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, info: &AccessInfo, sink: &mut dyn PrefetchSink) {
        // Split the borrow: the sink wrapper holds `&self.handle` fields by
        // value/clone, so build it from locals.
        let handle = self.handle.clone();
        let mut s = CheckSink {
            inner: sink,
            handle: &handle,
            trigger_vline: info.vline,
            trigger_pline: info.pline,
            issued: Vec::new(),
            per_class: [0; 4],
            degree_limit: self.degree_limit,
        };
        self.inner.on_access(info, &mut s);
    }

    fn on_fill(&mut self, fill: &FillInfo) {
        self.inner.on_fill(fill);
    }

    fn on_prefetch_arrival(&mut self, arrival: &MetadataArrival, sink: &mut dyn PrefetchSink) {
        let handle = self.handle.clone();
        let mut s = CheckSink {
            inner: sink,
            handle: &handle,
            trigger_vline: arrival.pline,
            trigger_pline: arrival.pline,
            issued: Vec::new(),
            per_class: [0; 4],
            degree_limit: self.degree_limit,
        };
        self.inner.on_prefetch_arrival(arrival, &mut s);
    }

    fn on_cycle(&mut self, cycle: Cycle, sink: &mut dyn PrefetchSink) {
        // Cycle hooks have no trigger address; forward unchecked (no
        // in-tree prefetcher emits page-relative requests from on_cycle).
        self.inner.on_cycle(cycle, sink);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::{test_access, PrefetchMeta, VecSink};

    /// Emits whatever requests it was built with, relative to nothing.
    struct Emitter(Vec<PrefetchRequest>);
    impl Prefetcher for Emitter {
        fn name(&self) -> &'static str {
            "emitter"
        }
        fn on_access(&mut self, _info: &AccessInfo, sink: &mut dyn PrefetchSink) {
            for r in &self.0 {
                sink.prefetch(*r);
            }
        }
    }

    fn drive(reqs: Vec<PrefetchRequest>, vline: u64) -> CheckHandle {
        let mut p = CheckedPrefetcher::new(Emitter(reqs));
        let h = p.handle();
        let mut sink = VecSink::new();
        p.on_access(&test_access(0x400, vline, false), &mut sink);
        h
    }

    #[test]
    fn clean_requests_pass() {
        let h = drive(
            vec![
                PrefetchRequest::l1(LineAddr::new(0x1001)).with_class(1),
                PrefetchRequest::l1(LineAddr::new(0x1002))
                    .with_class(3)
                    .with_meta(PrefetchMeta {
                        class: 3,
                        stride: -1,
                    }),
            ],
            0x1000,
        );
        assert_eq!(h.checked(), 2);
        assert_eq!(h.violations(), 0);
        h.assert_clean("clean");
    }

    #[test]
    fn page_cross_is_flagged() {
        // Page = 64 lines; 0x103f and 0x1040 are different pages.
        let h = drive(vec![PrefetchRequest::l1(LineAddr::new(0x1040))], 0x103f);
        assert_eq!(h.violations(), 1);
        assert!(h.recorded()[0].contains("crosses the 4 KB page"));
    }

    #[test]
    fn oversized_stride_is_flagged() {
        let h = drive(
            vec![
                PrefetchRequest::l1(LineAddr::new(0x1001)).with_meta(PrefetchMeta {
                    class: 1,
                    stride: 64,
                }),
            ],
            0x1000,
        );
        assert_eq!(h.violations(), 1);
        assert!(h.recorded()[0].contains("stride 64"));
    }

    #[test]
    fn intra_trigger_duplicate_is_flagged() {
        let r = PrefetchRequest::l1(LineAddr::new(0x1003));
        let h = drive(vec![r, r], 0x1000);
        assert_eq!(h.violations(), 1);
        assert!(h.recorded()[0].contains("issued twice"));
    }

    #[test]
    fn degree_bound_is_enforced() {
        let reqs: Vec<_> = (1..=4)
            .map(|k| PrefetchRequest::l1(LineAddr::new(0x1000 + k)).with_class(1))
            .collect();
        let mut p = CheckedPrefetcher::new(Emitter(reqs)).with_degree_limit([1, 3, 3, 6]);
        let h = p.handle();
        let mut sink = VecSink::new();
        p.on_access(&test_access(0x400, 0x1000, false), &mut sink);
        assert_eq!(h.violations(), 1, "4th CS from one trigger exceeds 3");
        assert!(h.recorded()[0].contains("degree bound"));
    }

    #[test]
    fn wrapper_is_transparent() {
        let reqs = vec![PrefetchRequest::l1(LineAddr::new(0x1001)).with_class(2)];
        let mut p = CheckedPrefetcher::new(Emitter(reqs.clone()));
        let mut sink = VecSink::new();
        p.on_access(&test_access(0x400, 0x1000, false), &mut sink);
        assert_eq!(sink.requests, reqs, "requests forwarded unchanged");
        assert_eq!(p.name(), "emitter");
        assert!(!p.is_noop());
    }
}
