//! The simulated system: N cores (ROB + private L1I/L1D/L2) over a shared
//! LLC and DRAM, with per-level prefetchers and the L1→L2 metadata channel.
//!
//! # Timing model
//!
//! The model is ChampSim-class and deliberately latency-composable: a
//! request's completion time is resolved when it is issued, by walking down
//! the hierarchy (each level adds its hit latency; DRAM adds bank/row/bus
//! queueing), and fills are applied when the clock reaches the completion
//! time. Structural limits — L1-D ports, MSHR occupancy at every level, the
//! FIFO prefetch queues that drop requests when full, and the shared DRAM
//! bus — are all enforced, because the paper's arguments (PQ pressure as
//! indirect throttling, MSHR-limited MLP, bandwidth contention in
//! multi-core mixes) live in exactly those structures.
//!
//! # Scheduling
//!
//! The clock is event-driven in two layers. Between cycles, [`System::run`]
//! jumps `now` straight to the next actionable cycle (earliest pending
//! fill, ROB-head completion, or fetch-stall release — each an O(1) read
//! of incrementally maintained state) after executing exactly one idle
//! cycle per gap; that single idle cycle is load-bearing, because stall
//! accounting and MSHR-full retry statistics are defined per *executed*
//! cycle. Within a cycle, each component is touched only when its own
//! cheap gate (cached earliest-fill time, PQ occupancy, pending-queue
//! length) says it can have work; `on_cycle` prefetcher hooks still fire
//! every executed cycle when any attached prefetcher uses them. Both
//! layers are behavior-preserving: the set of executed cycles and the work
//! done in each is identical to the exhaustive cycle-by-cycle sweep, so
//! reports are byte-identical.

use std::sync::Arc;

use ipcp_mem::{Ip, LineAddr, LINES_PER_PAGE, LINE_SHIFT, PAGE_SHIFT};
use ipcp_trace::{
    BatchStream, DerivedCols, Instr, InstrBatch, MemOp, TraceSource, KIND_LOAD, KIND_NONE,
};

use crate::cache::{Cache, Mshr, ProbeResult, QueuedPrefetch, FILL_UNKNOWN};
use crate::config::{Cycle, SimConfig};
use crate::dram::Dram;
use crate::prefetch::{
    AccessInfo, AddrDecode, DemandKind, FillInfo, FillLevel, MetadataArrival, PrefetchRequest,
    Prefetcher, VecSink,
};
use crate::sched::{self, Calendar, SchedStats};
use crate::stats::{CoreReport, CoreStats, PhaseStats, SimReport};
use crate::telemetry::{Occupancy, Sampler, Snapshot};
use crate::tlb::Tlb;
use crate::vmem::PageMapper;

/// Cycles between a demand access and the prefetch requests it generates
/// leaving the prefetcher — the paper's 3-cycle IPCP issue pipeline.
const PF_ISSUE_LATENCY: Cycle = 3;
/// Cycles to forward a fill one level up the hierarchy.
const FILL_FORWARD: Cycle = 1;
/// Prefetch-queue entries drained per cache per cycle.
const PF_DRAIN_PER_CYCLE: usize = 2;
/// Cycles without a retirement after which the simulator declares deadlock.
const WATCHDOG_CYCLES: Cycle = 10_000_000;

/// Per-core wiring handed to [`System::new`].
pub struct CoreSetup {
    /// The instruction trace this core executes (replayed on exhaustion).
    pub trace: Arc<dyn TraceSource + Send + Sync>,
    /// L1-I (instruction-side) prefetcher. Defaults to
    /// [`crate::prefetch::NoPrefetcher`] via [`CoreSetup::new`]; a non-noop
    /// prefetcher here routes every new ifetch line through the full
    /// [`System::ifetch`] path so its hooks fire identically under the fast
    /// and naive schedulers.
    pub l1i_prefetcher: Box<dyn Prefetcher>,
    /// L1-D prefetcher.
    pub l1d_prefetcher: Box<dyn Prefetcher>,
    /// L2 prefetcher.
    pub l2_prefetcher: Box<dyn Prefetcher>,
}

impl CoreSetup {
    /// Wiring with no instruction-side prefetcher (the historical shape —
    /// every data-side figure uses this).
    pub fn new(
        trace: Arc<dyn TraceSource + Send + Sync>,
        l1d_prefetcher: Box<dyn Prefetcher>,
        l2_prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        Self {
            trace,
            l1i_prefetcher: Box::new(crate::prefetch::NoPrefetcher),
            l1d_prefetcher,
            l2_prefetcher,
        }
    }

    /// Attaches an L1-I prefetcher.
    #[must_use]
    pub fn with_l1i_prefetcher(mut self, p: Box<dyn Prefetcher>) -> Self {
        self.l1i_prefetcher = p;
        self
    }
}

impl std::fmt::Debug for CoreSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreSetup")
            .field("trace", &self.trace.name())
            .finish()
    }
}

struct Rob {
    cap: usize,
    head: u64,
    tail: u64,
    /// Ring index of `head` (kept in step with `head` so the retire hot
    /// path never divides by the runtime capacity).
    head_idx: usize,
    /// Ring index of `tail`.
    tail_idx: usize,
    completion: Vec<Cycle>,
}

impl Rob {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            head: 0,
            tail: 0,
            head_idx: 0,
            tail_idx: 0,
            completion: vec![FILL_UNKNOWN; cap],
        }
    }

    fn is_full(&self) -> bool {
        (self.tail - self.head) as usize >= self.cap
    }

    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    fn wrap(&self, idx: usize) -> usize {
        let next = idx + 1;
        if next == self.cap {
            0
        } else {
            next
        }
    }

    /// Pushes an entry; returns its sequence number and ring slot (the slot
    /// lets later completion updates skip the seq→index arithmetic).
    fn push(&mut self, completion: Cycle) -> (u64, usize) {
        debug_assert!(!self.is_full());
        let seq = self.tail;
        let slot = self.tail_idx;
        self.completion[slot] = completion;
        self.tail += 1;
        self.tail_idx = self.wrap(slot);
        (seq, slot)
    }

    /// Free slots.
    fn space(&self) -> usize {
        self.cap - (self.tail - self.head) as usize
    }

    /// Pushes `k` entries sharing one completion time as at most two
    /// contiguous slice fills across the ring wrap (the bulk path for
    /// non-memory instruction runs).
    fn push_n(&mut self, completion: Cycle, k: usize) {
        debug_assert!(k > 0 && k <= self.space());
        let first = self.tail_idx;
        let end1 = (first + k).min(self.cap);
        self.completion[first..end1].fill(completion);
        let rem = k - (end1 - first);
        self.completion[..rem].fill(completion);
        self.tail += k as u64;
        self.tail_idx = if rem > 0 {
            rem
        } else if end1 == self.cap {
            0
        } else {
            end1
        };
    }

    /// How many of the oldest entries (capped at `width`) have completed by
    /// `now`. `c <= now` alone suffices: [`FILL_UNKNOWN`] is `Cycle::MAX`,
    /// which can never be `<= now`.
    fn retire_ready(&self, now: Cycle, width: u32) -> u32 {
        let lim = ((self.tail - self.head) as usize).min(width as usize);
        let first = self.head_idx;
        let end1 = (first + lim).min(self.cap);
        let mut k = 0;
        for &c in &self.completion[first..end1] {
            if c > now {
                return k;
            }
            k += 1;
        }
        for &c in &self.completion[..lim - (end1 - first)] {
            if c > now {
                return k;
            }
            k += 1;
        }
        k
    }

    /// Drops the `k` oldest entries (counted by [`Rob::retire_ready`]).
    fn pop_n(&mut self, k: u32) {
        debug_assert!((k as u64) <= self.tail - self.head);
        self.head += u64::from(k);
        let i = self.head_idx + k as usize;
        self.head_idx = if i >= self.cap { i - self.cap } else { i };
    }

    fn set_completion(&mut self, seq: u64, slot: usize, completion: Cycle) {
        debug_assert!(seq >= self.head && seq < self.tail);
        debug_assert_eq!(slot, (seq % self.cap as u64) as usize);
        self.completion[slot] = completion;
    }

    fn head_completion(&self) -> Option<Cycle> {
        if self.is_empty() {
            None
        } else {
            Some(self.completion[self.head_idx])
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingMem {
    seq: u64,
    slot: usize,
    ip: Ip,
    store: bool,
    /// Virtual line of the access (`vaddr >> LINE_SHIFT`).
    vline: LineAddr,
    /// Virtual page of the access (`vaddr >> PAGE_SHIFT`).
    vpage: u64,
    /// Prefetcher-trigger address fields, decoded once at dispatch (from
    /// the trace's derived columns on the fast path) instead of per issue
    /// attempt.
    decode: AddrDecode,
}

impl PendingMem {
    /// Row-oriented constructor (the naive fetch path): derives the
    /// line/page/decode fields from the raw virtual address.
    fn new(seq: u64, slot: usize, ip: Ip, vaddr: ipcp_mem::VAddr, store: bool) -> Self {
        let vline = vaddr.line();
        Self {
            seq,
            slot,
            ip,
            store,
            vline,
            vpage: vaddr.page().raw(),
            decode: AddrDecode::of(ip, vline),
        }
    }
}

struct Core {
    trace: Arc<dyn TraceSource + Send + Sync>,
    stream: Box<dyn BatchStream>,
    /// Columnar look-ahead buffer: one [`BatchStream::next_batch`] call
    /// refills all [`ipcp_trace::BATCH_CAPACITY`] slots at once, so
    /// materialized traces hand instructions over by per-column `memcpy`
    /// and even generator-backed traces pay the stream dispatch once per
    /// batch.
    ibuf: InstrBatch,
    ibuf_pos: usize,
    /// Derived address columns over `ibuf` (line/page/offset/region/IP-key
    /// per slot), recomputed once per batch refill on the fast path so the
    /// per-instruction dispatch and issue paths read precomputed values.
    /// Unused (left empty) on the naive path, which derives per access.
    derived: DerivedCols,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    tlb: Tlb,
    l1i_pf: Box<dyn Prefetcher>,
    l1d_pf: Box<dyn Prefetcher>,
    l2_pf: Box<dyn Prefetcher>,
    /// Cached `is_noop` of the attached prefetchers: the access hooks
    /// assemble an event struct and make a virtual call on every demand
    /// access, which is dead weight for the ubiquitous `none` baseline.
    /// `l1i_pf_noop` additionally gates the fast repeat-ifetch memo: a
    /// non-noop I-side prefetcher must observe every new ifetch line, so
    /// the memo shortcut stands down and both schedulers take the full
    /// [`System::ifetch`] path (the exactness contract of DESIGN.md §12).
    l1i_pf_noop: bool,
    l1d_pf_noop: bool,
    l2_pf_noop: bool,
    /// Per-core page mapper: each trace is its own process with a private
    /// virtual address space (multi-programmed mixes must not share pages).
    mapper: PageMapper,
    rob: Rob,
    pending: std::collections::VecDeque<PendingMem>,
    last_ifetch_line: Option<LineAddr>,
    fetch_stall_until: Cycle,
    retired_total: u64,
    measure_start_instr: u64,
    measure_start_cycle: Cycle,
    stall_cycles: u64,
    /// L1-D prefetcher RR-filter drop counts at end of warm-up. The
    /// prefetcher's counters are lifetime (never reset), so reported
    /// per-class drops are `lifetime − baseline`, mirroring how cache
    /// stats are reset at the warm-up boundary.
    rr_drop_baseline: [u64; 4],
    finished: Option<CoreStats>,
}

impl Core {
    /// L1-D stats with the prefetcher's measured-phase RR-filter drops
    /// folded in (see `rr_drop_baseline`).
    fn l1d_stats_with_drops(&self) -> crate::stats::CacheStats {
        let mut stats = self.l1d.stats;
        let lifetime = self.l1d_pf.filter_drops_by_class();
        for (slot, (life, base)) in stats
            .rr_drops_by_class
            .iter_mut()
            .zip(lifetime.iter().zip(self.rr_drop_baseline.iter()))
        {
            *slot = life - base;
        }
        stats
    }
}

impl Core {
    #[inline]
    fn next_instr(&mut self) -> Instr {
        if self.ibuf_pos < self.ibuf.len() {
            let i = self.ibuf.get(self.ibuf_pos);
            self.ibuf_pos += 1;
            return i;
        }
        self.refill_ibuf()
    }

    /// Refills the look-ahead buffer, restarting the trace on exhaustion
    /// (traces replay until the instruction budget is met). Returns the
    /// first buffered instruction.
    #[cold]
    fn refill_ibuf(&mut self) -> Instr {
        self.ibuf_pos = 1;
        if self.stream.next_batch(&mut self.ibuf) > 0 {
            return self.ibuf.get(0);
        }
        // Stream exhausted on a batch boundary: reopen from the start.
        self.stream = self.trace.batch_stream();
        assert!(
            self.stream.next_batch(&mut self.ibuf) > 0,
            "trace must be non-empty"
        );
        self.ibuf.get(0)
    }

    /// Fast-path refill: same stream consumption as [`Core::refill_ibuf`]
    /// (so both paths see identical batch boundaries) but positions start
    /// at 0 and the derived address columns are recomputed for the batch.
    #[cold]
    fn refill_batch(&mut self) {
        self.ibuf_pos = 0;
        if self.stream.next_batch(&mut self.ibuf) == 0 {
            self.stream = self.trace.batch_stream();
            assert!(
                self.stream.next_batch(&mut self.ibuf) > 0,
                "trace must be non-empty"
            );
        }
        self.derived.compute(&self.ibuf);
    }
}

/// The full simulated machine.
pub struct System {
    cfg: SimConfig,
    now: Cycle,
    cores: Vec<Core>,
    llc: Cache,
    llc_pf: Box<dyn Prefetcher>,
    dram: Dram,
    warmed_up: bool,
    last_retire_cycle: Cycle,
    /// Interval sampler (`None` unless `cfg.sample_interval` is set — the
    /// disabled path costs one `Option` check per cycle).
    sampler: Option<Sampler>,
    /// Any attached prefetcher implements `on_cycle` (checked once at
    /// construction); when false the per-cycle hook pass is skipped.
    cycle_hooks: bool,
    /// Cached `is_noop` of the LLC prefetcher (see `Core::l1d_pf_noop`).
    llc_pf_noop: bool,
    /// Scratch sink handed to prefetcher hooks, swapped out of `self` for
    /// the duration of each call so its buffer capacity is reused across
    /// the millions of hook invocations per run.
    pf_scratch: VecSink,
    /// Wakeup-driven scheduler enabled (fixed at construction): requires
    /// the component set to fit the `u64` due-mask and stands down
    /// entirely under `no_fastpath`, so the PR 5 oracle compares against
    /// the exhaustive polling walk. See `crate::sched` and DESIGN.md §10.
    fast: bool,
    /// Central wakeup calendar over the fill components (LLC plus
    /// per-core L2/L1D/L1I fill heaps).
    cal: Calendar,
    /// Bitmask of possibly-non-empty prefetch queues (bit layout in
    /// `crate::sched`). Every enqueue site sets its bit, so a clear bit
    /// proves an empty queue; a stale set bit (queue drained empty) is
    /// cleared by the next drain pass at no behavioral cost.
    pq_active: u64,
    /// Per-core earliest cycle the core can possibly act (`0` = hot:
    /// touched every executed cycle). Recomputed at the end of each
    /// touch; exact because only the core's own retire/issue/fetch
    /// mutate its wake inputs (pending queue, resolved ROB completions,
    /// fetch stall, ROB occupancy).
    wake_at: Vec<Cycle>,
    /// Per-core executed-cycle count through which `stall_cycles` is
    /// settled — lazy stall accounting for cycles where the core was
    /// skipped (a skipped core retires nothing, so each skipped executed
    /// cycle is exactly one stall cycle).
    last_touch: Vec<u64>,
    /// Cores still short of `warmup_instructions`; warm-up ends when 0.
    warm_pending: usize,
    /// Cores whose `finished` snapshot has been taken.
    finished_count: usize,
    /// Core-0 `retired_total` at which the next interval sample is due
    /// (`u64::MAX` when sampling is off): the per-cycle sampler check is
    /// one integer compare instead of a `Sampler::due` call.
    sample_due_abs: u64,
    /// Scheduler observability counters (`heap_peak` is folded in at
    /// report time). Maintained unconditionally on the fast path —
    /// plain integer adds — and exported only when `sched_stats_export`.
    sstats: SchedStats,
    /// `IPCP_SCHED_STATS` was set at construction.
    sched_stats_export: bool,
    /// `IPCP_PHASE_STATS` was set at construction: coarse wall-clock phase
    /// timers accumulate into `phases` (observability only — see
    /// [`PhaseStats`]; the disabled path costs one branch per phase).
    phase_on: bool,
    /// Accumulated phase timers (exported only when `phase_on`).
    phases: PhaseStats,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .finish()
    }
}

impl System {
    /// Builds a system. `setups.len()` must equal `cfg.cores`; `llc_prefetcher`
    /// attaches to the shared LLC.
    ///
    /// # Panics
    ///
    /// Panics if the core count does not match the configuration.
    pub fn new(
        cfg: SimConfig,
        setups: Vec<CoreSetup>,
        llc_prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        assert_eq!(
            setups.len(),
            cfg.cores as usize,
            "core setups must match cfg.cores"
        );
        let vmem_seed = cfg.vmem_seed;
        let cores: Vec<Core> = setups
            .into_iter()
            .enumerate()
            .map(|(ci, s)| {
                let stream = s.trace.batch_stream();
                Core {
                    trace: s.trace,
                    stream,
                    ibuf: InstrBatch::new(),
                    ibuf_pos: 0,
                    derived: DerivedCols::default(),
                    mapper: PageMapper::new(vmem_seed.wrapping_add(ci as u64 * 0x9e37_79b9)),
                    l1i: Cache::new_with_mode(&cfg.l1i, 1, cfg.no_fastpath),
                    l1d: Cache::new_with_mode(&cfg.l1d, 1, cfg.no_fastpath),
                    l2: Cache::new_with_mode(&cfg.l2, 1, cfg.no_fastpath),
                    tlb: Tlb::new(&cfg.tlb).with_naive(cfg.no_fastpath),
                    l1i_pf_noop: s.l1i_prefetcher.is_noop(),
                    l1d_pf_noop: s.l1d_prefetcher.is_noop(),
                    l2_pf_noop: s.l2_prefetcher.is_noop(),
                    l1i_pf: s.l1i_prefetcher,
                    l1d_pf: s.l1d_prefetcher,
                    l2_pf: s.l2_prefetcher,
                    rob: Rob::new(cfg.core.rob_entries as usize),
                    pending: std::collections::VecDeque::new(),
                    last_ifetch_line: None,
                    fetch_stall_until: 0,
                    retired_total: 0,
                    measure_start_instr: 0,
                    measure_start_cycle: 0,
                    stall_cycles: 0,
                    rr_drop_baseline: [0; 4],
                    finished: None,
                }
            })
            .collect();
        let llc = Cache::new_with_mode(&cfg.llc, cfg.cores, cfg.no_fastpath);
        let dram = Dram::new(cfg.dram);
        let sampler = cfg.sample_interval.map(Sampler::new);
        let cycle_hooks = llc_prefetcher.uses_cycle_hook()
            || cores.iter().any(|c: &Core| {
                c.l1i_pf.uses_cycle_hook()
                    || c.l1d_pf.uses_cycle_hook()
                    || c.l2_pf.uses_cycle_hook()
            });
        let llc_pf_noop = llc_prefetcher.is_noop();
        let fast = !cfg.no_fastpath && cores.len() <= sched::MAX_FAST_CORES;
        let warm_pending = if cfg.warmup_instructions > 0 {
            cores.len()
        } else {
            0
        };
        let cal = Calendar::new(3 * cores.len() + 1);
        let wake_at = vec![0; cores.len()];
        let last_touch = vec![0; cores.len()];
        Self {
            cfg,
            now: 0,
            cores,
            llc,
            llc_pf: llc_prefetcher,
            dram,
            warmed_up: false,
            last_retire_cycle: 0,
            sampler,
            cycle_hooks,
            llc_pf_noop,
            pf_scratch: VecSink::new(),
            fast,
            cal,
            pq_active: 0,
            wake_at,
            last_touch,
            warm_pending,
            finished_count: 0,
            sample_due_abs: u64::MAX,
            sstats: SchedStats::default(),
            sched_stats_export: env_flag("IPCP_SCHED_STATS"),
            phase_on: env_flag("IPCP_PHASE_STATS"),
            phases: PhaseStats::default(),
        }
    }

    /// Starts a phase timer (`None` when phase stats are off, so the hot
    /// path pays one predictable branch).
    #[inline]
    fn phase_start(&self) -> Option<std::time::Instant> {
        if self.phase_on {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Accumulates a phase timer started by [`System::phase_start`].
    #[inline]
    fn phase_add(field: &mut u64, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            *field += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Runs warm-up plus the measured phase and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the system deadlocks (no retirement for an implausibly long
    /// stretch) — that indicates a simulator bug, not a workload property.
    pub fn run(&mut self) -> SimReport {
        if self.fast {
            self.run_fast();
        } else {
            self.run_naive();
        }
        self.report()
    }

    /// The exhaustive polling walk: every iteration runs [`Self::cycle`],
    /// which probes every component's gate, and idle jumps rescan every
    /// core in [`Self::next_event_time`]. This is the oracle reference the
    /// wakeup scheduler is byte-compared against (`IPCP_NO_FASTPATH`), and
    /// the fallback for core counts past `sched::MAX_FAST_CORES`.
    fn run_naive(&mut self) {
        loop {
            let activity = self.cycle();
            if !self.warmed_up
                && self
                    .cores
                    .iter()
                    .all(|c| c.retired_total >= self.cfg.warmup_instructions)
            {
                self.finish_warmup();
            }
            if self.warmed_up {
                self.maybe_sample();
                if self.cores.iter().all(|c| c.finished.is_some()) {
                    break;
                }
            }
            if activity {
                self.now += 1;
            } else {
                let next = self.next_event_time().unwrap_or(self.now + 1);
                self.now = next.max(self.now + 1);
            }
            assert!(
                self.now - self.last_retire_cycle < WATCHDOG_CYCLES,
                "simulator deadlock: no retirement since cycle {} (now {})",
                self.last_retire_cycle,
                self.now
            );
        }
    }

    /// The wakeup-driven loop. Identical iteration structure to
    /// [`Self::run_naive`] — same executed-cycle sequence, same idle
    /// jumps, same warm-up/sample/finish decision points — but each
    /// per-cycle check is O(1) against cached state (due-wakeup mask,
    /// PQ bitmask, per-core wake cycles, retirement-count thresholds)
    /// instead of a walk over every component.
    fn run_fast(&mut self) {
        loop {
            let activity = self.cycle_fast();
            if !self.warmed_up && self.warm_pending == 0 {
                self.finish_warmup();
            }
            if self.warmed_up {
                if self
                    .cores
                    .first()
                    .is_some_and(|c| c.retired_total >= self.sample_due_abs)
                {
                    self.maybe_sample();
                    self.recompute_sample_due();
                }
                if self.finished_count == self.cores.len() {
                    break;
                }
            }
            if activity {
                self.now += 1;
            } else {
                let next = self.jump_target();
                self.sstats.skipped_cycles += next - self.now - 1;
                self.now = next;
            }
            assert!(
                self.now - self.last_retire_cycle < WATCHDOG_CYCLES,
                "simulator deadlock: no retirement since cycle {} (now {})",
                self.last_retire_cycle,
                self.now
            );
        }
    }

    /// One simulated cycle on the wakeup path. Touches only components
    /// whose wakeup is due: fill heaps via the calendar's due set, PQ
    /// drains via the active-queue bitmask, cores via their wake cycle.
    /// Skipping is behavior-neutral because each skipped call would have
    /// fallen through its own gate (see DESIGN.md §10 for the argument
    /// per component class).
    fn cycle_fast(&mut self) -> bool {
        let now = self.now;
        let mut activity = false;

        // Fill wakeups due this cycle, drained into a component bitmask
        // (ascending component id reproduces the polling walk's order:
        // LLC first, then per-core L2, L1D, L1I).
        let mut due = 0u64;
        while let Some(id) = self.cal.pop_due(now) {
            due |= 1u64 << id;
            self.sstats.wakeups_fired += 1;
        }
        if due != 0 {
            let t0 = self.phase_start();
            activity |= self.process_due_fills(due);
            Self::phase_add(&mut self.phases.fill_ns, t0);
        }

        // PQ drains. The snapshot makes mid-phase enqueues wait for the
        // next executed cycle, exactly like the polling walk's one-pass
        // `pq_len()` checks (the only mid-phase enqueue source, L1-drain
        // metadata arrival, targets the same core's L2 — a queue whose
        // check has already passed in either scheme).
        if self.pq_active != 0 {
            let t0 = self.phase_start();
            let mut bits = self.pq_active;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                if b == sched::PQ_LLC {
                    activity |= self.drain_llc_pq();
                    if self.llc.pq_len() == 0 {
                        self.pq_active &= !(1u64 << b);
                    }
                } else {
                    let ci = ((b - 1) / 3) as usize;
                    match (b - 1) % 3 {
                        0 => {
                            activity |= self.drain_l2_pq(ci);
                            if self.cores[ci].l2.pq_len() == 0 {
                                self.pq_active &= !(1u64 << b);
                            }
                        }
                        1 => {
                            activity |= self.drain_l1_pq(ci);
                            if self.cores[ci].l1d.pq_len() == 0 {
                                self.pq_active &= !(1u64 << b);
                            }
                        }
                        _ => {
                            activity |= self.drain_l1i_pq(ci);
                            if self.cores[ci].l1i.pq_len() == 0 {
                                self.pq_active &= !(1u64 << b);
                            }
                        }
                    }
                }
            }
            Self::phase_add(&mut self.phases.drain_ns, t0);
        }

        // Cores, gated on their wake cycle. A skipped core would have
        // retired nothing (head completion unresolved or future), issued
        // nothing (pending empty), and fetched nothing (stalled or ROB
        // full) — and none of its wake inputs can change while skipped,
        // so freezing it is exact. Stall cycles for the skipped stretch
        // are settled lazily at the next touch.
        for ci in 0..self.cores.len() {
            if self.wake_at[ci] > now {
                continue;
            }
            let missed = self.sstats.executed_cycles - self.last_touch[ci];
            self.cores[ci].stall_cycles += missed;
            self.last_touch[ci] = self.sstats.executed_cycles + 1;
            let t0 = self.phase_start();
            let retired = self.retire(ci);
            if retired == 0 {
                self.cores[ci].stall_cycles += 1;
            } else {
                activity = true;
                self.last_retire_cycle = now;
            }
            if !self.cores[ci].pending.is_empty() {
                activity |= self.issue_fused(ci) > 0;
            }
            Self::phase_add(&mut self.phases.issue_ns, t0);
            let t0 = self.phase_start();
            activity |= self.fetch_fast(ci) > 0;
            Self::phase_add(&mut self.phases.decode_ns, t0);
            self.wake_at[ci] = self.core_wake(ci);
        }

        self.run_on_cycle_hooks();
        self.sstats.executed_cycles += 1;
        activity
    }

    /// Dispatches due fill wakeups in ascending component order and
    /// re-arms each processed component from its post-drain heap minimum
    /// (the re-arm half of the wakeup contract: whoever pops fills must
    /// re-register the remainder).
    fn process_due_fills(&mut self, mut due: u64) -> bool {
        let mut any = false;
        while due != 0 {
            let id = due.trailing_zeros();
            due &= due - 1;
            if id == sched::COMP_LLC {
                any |= self.fill_llc();
                let nf = self.llc.next_fill_raw();
                self.cal.note(sched::COMP_LLC, nf);
            } else {
                let ci = ((id - 1) / 3) as usize;
                match (id - 1) % 3 {
                    0 => {
                        any |= self.fill_l2(ci);
                        let nf = self.cores[ci].l2.next_fill_raw();
                        self.cal.note(id, nf);
                    }
                    1 => {
                        any |= self.fill_l1d(ci);
                        let nf = self.cores[ci].l1d.next_fill_raw();
                        self.cal.note(id, nf);
                    }
                    _ => {
                        any |= self.fill_l1i(ci);
                        let nf = self.cores[ci].l1i.next_fill_raw();
                        self.cal.note(id, nf);
                    }
                }
            }
        }
        any
    }

    /// The earliest cycle core `ci` can possibly act, evaluated after a
    /// touch (`0` = hot). Exact: while the core is skipped nothing can
    /// move any of these inputs earlier — fills resolve future demand
    /// latencies but never rewrite an already-resolved ROB completion,
    /// and `pending`/`fetch_stall_until`/ROB occupancy are written only
    /// by the core's own retire/issue/fetch.
    fn core_wake(&self, ci: usize) -> Cycle {
        let core = &self.cores[ci];
        // An unissued memory op keeps the core hot: issue retries consume
        // L1D ports and touch the TLB every executed cycle.
        if !core.pending.is_empty() {
            return 0;
        }
        let now = self.now;
        let mut wake = Cycle::MAX;
        if let Some(c) = core.rob.head_completion() {
            if c == FILL_UNKNOWN {
                // Unreachable when `pending` is empty (every entry not in
                // `pending` has a resolved completion) — stay hot rather
                // than risk a missed retirement.
                return 0;
            }
            wake = wake.min(c.max(now + 1));
        }
        if !core.rob.is_full() {
            // Fetch runs (and always makes progress — traces replay) as
            // soon as the stall lifts.
            wake = wake.min(core.fetch_stall_until.max(now + 1));
        }
        // A full ROB with a resolved head always yields a finite wake; an
        // empty ROB is never full, so the fetch term applies. Either way
        // `wake` is finite here.
        wake
    }

    /// Fast-path idle jump: same candidate set and filters as
    /// [`Self::next_event_time`] (fill minima — via the calendar — plus
    /// ROB-head completions and pending fetch stalls), collapsed to the
    /// polling walk's `unwrap_or(now + 1).max(now + 1)` advance rule.
    fn jump_target(&mut self) -> Cycle {
        let now = self.now;
        let mut t: Option<Cycle> = self.cal.peek_min();
        let mut consider = |c: Cycle| {
            if c != FILL_UNKNOWN && c > 0 {
                t = Some(t.map_or(c, |x: Cycle| x.min(c)));
            }
        };
        for core in &self.cores {
            if let Some(c) = core.rob.head_completion() {
                consider(c);
            }
            if core.fetch_stall_until > now {
                consider(core.fetch_stall_until);
            }
        }
        match t {
            Some(c) if c > now => c,
            _ => now + 1,
        }
    }

    /// Re-caches the absolute core-0 retirement count of the next due
    /// sample (the satellite `maybe_sample` fast path).
    fn recompute_sample_due(&mut self) {
        self.sample_due_abs = match (&self.sampler, self.cores.first()) {
            (Some(s), Some(c0)) => c0.measure_start_instr.saturating_add(s.next_due()),
            _ => u64::MAX,
        };
    }

    /// Registers a fill component's heap minimum in the calendar (no-op
    /// on the polling path, which rescans heaps directly).
    #[inline]
    fn arm_fill(&mut self, id: u32, t: Cycle) {
        if self.fast {
            self.cal.note(id, t);
        }
    }

    /// Marks a prefetch queue as possibly non-empty (no-op on the polling
    /// path, whose drain phase checks `pq_len` directly).
    #[inline]
    fn mark_pq(&mut self, bit: u32) {
        if self.fast {
            self.pq_active |= 1u64 << bit;
        }
    }

    fn finish_warmup(&mut self) {
        self.warmed_up = true;
        for core in &mut self.cores {
            core.l1i.reset_stats();
            core.l1d.reset_stats();
            core.l2.reset_stats();
            core.tlb.stats.reset();
            core.measure_start_instr = core.retired_total;
            core.measure_start_cycle = self.now;
            core.stall_cycles = 0;
            core.rr_drop_baseline = core.l1d_pf.filter_drops_by_class();
        }
        self.llc.reset_stats();
        self.dram.stats.reset();
        if let Some(s) = &mut self.sampler {
            s.reset_baseline();
        }
        // Fast-scheduler bookkeeping across the measurement boundary:
        // stall accounting restarts from zero (already settled through the
        // reset above), and every core is forced hot for one cycle so the
        // post-warm-up `finished` check runs even if `sim_instructions`
        // needs no further retirement. Harmless on the polling path.
        for ci in 0..self.cores.len() {
            self.last_touch[ci] = self.sstats.executed_cycles;
            self.wake_at[ci] = 0;
        }
        self.recompute_sample_due();
    }

    /// Records an interval sample when core 0's measured instruction count
    /// has crossed the next sampling point. Private-cache counters are
    /// aggregated across cores; occupancies are instantaneous.
    fn maybe_sample(&mut self) {
        let marker = match (&self.sampler, self.cores.first()) {
            (Some(s), Some(c0)) => {
                let marker = c0.retired_total - c0.measure_start_instr;
                if !s.due(marker) {
                    return;
                }
                marker
            }
            _ => return,
        };
        let mut shot = Snapshot {
            cycles: self.now - self.cores[0].measure_start_cycle,
            llc: self.llc.stats,
            dram_busy: self.dram.stats.bus_busy_cycles,
            ..Snapshot::default()
        };
        let mut occ = Occupancy {
            llc_pq: self.llc.pq_len() as u32,
            llc_mshr: self.llc.mshr_occupancy() as u32,
            ..Occupancy::default()
        };
        for c in &self.cores {
            shot.instructions += c.retired_total - c.measure_start_instr;
            shot.l1d.accumulate(&c.l1d_stats_with_drops());
            shot.l2.accumulate(&c.l2.stats);
            occ.l1d_pq += c.l1d.pq_len() as u32;
            occ.l1d_mshr += c.l1d.mshr_occupancy() as u32;
            occ.l2_pq += c.l2.pq_len() as u32;
            occ.l2_mshr += c.l2.mshr_occupancy() as u32;
        }
        let channels = self.cfg.dram.channels;
        self.sampler
            .as_mut()
            .expect("sampler checked above")
            .record(marker, shot, occ, channels);
    }

    fn report(&self) -> SimReport {
        let cores = self
            .cores
            .iter()
            .map(|c| CoreReport {
                trace: c.trace.name().to_string(),
                core: c.finished.unwrap_or(CoreStats {
                    instructions: c.retired_total - c.measure_start_instr,
                    cycles: self.now - c.measure_start_cycle,
                    stall_cycles: c.stall_cycles,
                }),
                l1i: c.l1i.stats,
                l1d: c.l1d_stats_with_drops(),
                l2: c.l2.stats,
                tlb: c.tlb.stats,
            })
            .collect();
        SimReport {
            cores,
            llc: self.llc.stats,
            dram: self.dram.stats,
            cycles: self.now - self.cores.first().map_or(0, |c| c.measure_start_cycle),
            samples: self
                .sampler
                .as_ref()
                .map_or_else(Default::default, |s| s.samples().into()),
            sched: (self.fast && self.sched_stats_export).then(|| {
                let mut st = self.sstats;
                st.heap_peak = self.cal.heap_peak();
                st
            }),
            phases: self.phase_on.then_some(self.phases),
        }
    }

    /// The earliest future event: any pending fill or a known ROB-head
    /// completion or fetch-stall release.
    fn next_event_time(&self) -> Option<Cycle> {
        let mut t: Option<Cycle> = None;
        let mut consider = |c: Option<Cycle>| {
            if let Some(c) = c {
                if c != FILL_UNKNOWN && c > 0 {
                    t = Some(t.map_or(c, |x: Cycle| x.min(c)));
                }
            }
        };
        consider(self.llc.next_fill_time());
        for core in &self.cores {
            consider(core.l1i.next_fill_time());
            consider(core.l1d.next_fill_time());
            consider(core.l2.next_fill_time());
            consider(core.rob.head_completion());
            if core.fetch_stall_until > self.now {
                consider(Some(core.fetch_stall_until));
            }
        }
        t.filter(|&c| c > self.now)
    }

    /// One simulated cycle; returns whether anything happened.
    ///
    /// Event-driven: each component is touched only when its own O(1) state
    /// says it can have work this cycle (a due fill on the cached heap
    /// minimum, a non-empty PQ, a pending/ROB entry). Skipping a component
    /// whose gate is closed is behavior-neutral by construction — the
    /// skipped call would have fallen straight through its first check —
    /// so reports stay byte-identical to the exhaustive per-cycle sweep.
    fn cycle(&mut self) -> bool {
        let now = self.now;
        let mut activity = false;

        let fills_due = self.llc.fill_due(now)
            || self
                .cores
                .iter()
                .any(|c| c.l2.fill_due(now) || c.l1d.fill_due(now) || c.l1i.fill_due(now));
        if fills_due {
            let t0 = self.phase_start();
            activity |= self.process_fills();
            Self::phase_add(&mut self.phases.fill_ns, t0);
        }
        let t0 = self.phase_start();
        if self.llc.pq_len() > 0 {
            activity |= self.drain_llc_pq();
        }
        for ci in 0..self.cores.len() {
            if self.cores[ci].l2.pq_len() > 0 {
                activity |= self.drain_l2_pq(ci);
            }
            if self.cores[ci].l1d.pq_len() > 0 {
                activity |= self.drain_l1_pq(ci);
            }
            if self.cores[ci].l1i.pq_len() > 0 {
                activity |= self.drain_l1i_pq(ci);
            }
        }
        Self::phase_add(&mut self.phases.drain_ns, t0);
        for ci in 0..self.cores.len() {
            let t0 = self.phase_start();
            let retired = self.retire(ci);
            if retired == 0 {
                self.cores[ci].stall_cycles += 1;
            } else {
                activity = true;
                self.last_retire_cycle = now;
            }
            if !self.cores[ci].pending.is_empty() {
                activity |= self.issue(ci) > 0;
            }
            Self::phase_add(&mut self.phases.issue_ns, t0);
            let t0 = self.phase_start();
            activity |= self.fetch(ci) > 0;
            Self::phase_add(&mut self.phases.decode_ns, t0);
        }
        self.run_on_cycle_hooks();
        activity
    }

    fn run_on_cycle_hooks(&mut self) {
        if !self.cycle_hooks {
            return;
        }
        let mut sink = std::mem::take(&mut self.pf_scratch);
        for ci in 0..self.cores.len() {
            self.cores[ci].l1i_pf.on_cycle(self.now, &mut sink);
            for req in sink.requests.drain(..) {
                self.enqueue_l1i_request(ci, req, Ip(0));
            }
            self.cores[ci].l1d_pf.on_cycle(self.now, &mut sink);
            for req in sink.requests.drain(..) {
                self.enqueue_l1_request(ci, req, Ip(0));
            }
            self.cores[ci].l2_pf.on_cycle(self.now, &mut sink);
            for req in sink.requests.drain(..) {
                self.enqueue_l2_request(ci, req, Ip(0));
            }
        }
        self.llc_pf.on_cycle(self.now, &mut sink);
        for req in sink.requests.drain(..) {
            self.enqueue_llc_request(req, Ip(0));
        }
        sink.dropped = 0;
        self.pf_scratch = sink;
    }

    // ------------------------------------------------------------------
    // Retire / issue / fetch
    // ------------------------------------------------------------------

    fn retire(&mut self, ci: usize) -> u32 {
        let now = self.now;
        let width = self.cfg.core.retire_width;
        let core = &mut self.cores[ci];
        let before = core.retired_total;
        // Bulk contiguous scan over the completion ring (shared by both
        // run loops; identical retirement decisions to the one-at-a-time
        // head walk, so the oracle comparison is unaffected).
        let n = core.rob.retire_ready(now, width);
        core.rob.pop_n(n);
        core.retired_total += u64::from(n);
        // Count-maintained replacements for the run loop's per-cycle
        // all-cores scans: a core crosses the warm-up threshold at most
        // once, and `finished` is set at most once.
        if before < self.cfg.warmup_instructions
            && core.retired_total >= self.cfg.warmup_instructions
        {
            self.warm_pending -= 1;
        }
        if self.warmed_up && core.finished.is_none() {
            let measured = core.retired_total - core.measure_start_instr;
            if measured >= self.cfg.sim_instructions {
                core.finished = Some(CoreStats {
                    instructions: measured,
                    cycles: now - core.measure_start_cycle,
                    stall_cycles: core.stall_cycles,
                });
                self.finished_count += 1;
            }
        }
        n
    }

    fn issue(&mut self, ci: usize) -> u32 {
        // Loads issue out of order within a small scheduler window: a
        // structurally rejected access (MSHR full downstream) does not
        // block younger, independent accesses behind it.
        const ISSUE_WINDOW: usize = 8;
        let now = self.now;
        let mut n = 0;
        let mut i = 0;
        loop {
            let core = &mut self.cores[ci];
            if i >= core.pending.len().min(ISSUE_WINDOW) {
                break;
            }
            if !core.l1d.try_take_port(now) {
                break;
            }
            let pm = core.pending[i];
            // Translate. The TLB state mutation on a retried access is
            // harmless (second lookup hits the DTLB).
            let (ppage, penalty) = core
                .tlb
                .translate(ipcp_mem::VPage::new(pm.vpage), &mut core.mapper);
            let pline = phys_line(ppage.raw(), pm.vline);
            let t = now + penalty;
            match self.resolve_l1d_demand(ci, &pm, pline, t) {
                Some(completion) => {
                    let core = &mut self.cores[ci];
                    // Stores retire without waiting for data; loads wait.
                    let c = if pm.store { now + 1 } else { completion };
                    core.rob.set_completion(pm.seq, pm.slot, c);
                    core.pending.remove(i);
                    n += 1;
                }
                None => i += 1, // structural reject: retry next cycle
            }
        }
        n
    }

    fn fetch(&mut self, ci: usize) -> u32 {
        if self.cores[ci].fetch_stall_until > self.now {
            return 0;
        }
        let width = self.cfg.core.fetch_width;
        let alu_latency = self.cfg.core.alu_latency;
        let mut n = 0;
        while n < width {
            if self.cores[ci].rob.is_full() {
                break;
            }
            let instr = self.cores[ci].next_instr();
            // Instruction fetch: touch the L1I once per new line.
            let iline = LineAddr::from_byte_addr(instr.ip.raw());
            if self.cores[ci].last_ifetch_line != Some(iline) {
                if !self.ifetch(ci, iline, instr.ip) {
                    // Port/MSHR reject: re-fetch this line next cycle. The
                    // instruction itself still dispatches (the line will be
                    // re-probed) — simpler and harmless, since traces have
                    // tiny code footprints.
                    self.cores[ci].last_ifetch_line = None;
                } else {
                    self.cores[ci].last_ifetch_line = Some(iline);
                }
            }
            let now = self.now;
            let core = &mut self.cores[ci];
            match instr.mem {
                MemOp::None => {
                    core.rob.push(now + alu_latency);
                }
                MemOp::Load(vaddr) => {
                    let (seq, slot) = core.rob.push(FILL_UNKNOWN);
                    core.pending
                        .push_back(PendingMem::new(seq, slot, instr.ip, vaddr, false));
                }
                MemOp::Store(vaddr) => {
                    let (seq, slot) = core.rob.push(FILL_UNKNOWN);
                    core.pending
                        .push_back(PendingMem::new(seq, slot, instr.ip, vaddr, true));
                }
            }
            n += 1;
            if self.cores[ci].fetch_stall_until > self.now {
                break;
            }
        }
        n
    }

    /// Column-oriented fetch (fast scheduler only): walks the look-ahead
    /// buffer's decoded columns directly instead of materializing one
    /// [`Instr`] per slot, and dispatches runs of non-memory instructions
    /// on an already-fetched instruction line as a single bulk ROB push.
    /// Dispatch decisions are identical to [`System::fetch`]: the bulk run
    /// only covers instructions the naive loop would pass straight through
    /// (same iline ⇒ no L1I probe; no memory op ⇒ no pending entry; a nop
    /// can never set the fetch stall the naive loop re-checks per slot).
    fn fetch_fast(&mut self, ci: usize) -> u32 {
        let now = self.now;
        if self.cores[ci].fetch_stall_until > now {
            return 0;
        }
        let width = self.cfg.core.fetch_width as usize;
        let alu_latency = self.cfg.core.alu_latency;
        let mut n = 0;
        while n < width {
            let core = &mut self.cores[ci];
            if core.rob.is_full() {
                break;
            }
            if core.ibuf_pos >= core.ibuf.len() {
                core.refill_batch();
            }
            let pos = core.ibuf_pos;
            let iline_raw = core.derived.ilines[pos];
            let same_iline = core.last_ifetch_line.is_some_and(|l| l.raw() == iline_raw);
            let (ips, kinds, _addrs) = core.ibuf.columns();
            if kinds[pos] == KIND_NONE && same_iline {
                // Maximal nop run on the resident line, bounded by fetch
                // width, ROB space, and the batch edge.
                let lim = pos + (width - n).min(core.rob.space()).min(core.ibuf.len() - pos);
                let mut end = pos + 1;
                while end < lim && kinds[end] == KIND_NONE && core.derived.ilines[end] == iline_raw
                {
                    end += 1;
                }
                let k = end - pos;
                core.rob.push_n(now + alu_latency, k);
                core.ibuf_pos = end;
                n += k;
                continue;
            }
            let ip = Ip(ips[pos]);
            let kind = kinds[pos];
            core.ibuf_pos = pos + 1;
            if !same_iline {
                let iline = LineAddr::new(iline_raw);
                // Fast repeat ifetch: the line's page sits in the TLB's
                // untimed both-miss memo (so its translation is
                // side-effect-free with a known frame) and the line is
                // armed in the L1I's repeat memo (so its lookup collapses
                // to the two demand counters) — the whole [`System::ifetch`]
                // reduces to one port take and a batched hit commit. Port
                // exhaustion falls through to the slow path, whose first
                // check is the same port take, for the exact reject path.
                // A non-noop L1-I prefetcher disables the memo entirely:
                // its `on_access` hook must observe every new ifetch line,
                // so both schedulers take the full `ifetch` path and the
                // hook stream is identical by construction (DESIGN.md §12).
                let core = &mut self.cores[ci];
                let fast_hit = core.l1i_pf_noop
                    && core
                        .tlb
                        .untimed_memo_frame(iline.vpage().raw())
                        .map(|frame| phys_line(frame, iline))
                        .filter(|&pline| core.l1i.repeat_memo(pline).is_some())
                        .is_some_and(|pline| {
                            if core.l1i.ports_free(now) == 0 {
                                return false;
                            }
                            core.l1i.commit_repeat_hits(pline, 1, false);
                            true
                        });
                if fast_hit {
                    self.cores[ci].last_ifetch_line = Some(iline);
                } else if !self.ifetch(ci, iline, ip) {
                    self.cores[ci].last_ifetch_line = None;
                } else {
                    self.cores[ci].last_ifetch_line = Some(iline);
                }
            }
            let core = &mut self.cores[ci];
            if kind == KIND_NONE {
                core.rob.push(now + alu_latency);
            } else {
                let (seq, slot) = core.rob.push(FILL_UNKNOWN);
                let d = &core.derived;
                core.pending.push_back(PendingMem {
                    seq,
                    slot,
                    ip,
                    store: kind != KIND_LOAD,
                    vline: LineAddr::new(d.lines[pos]),
                    vpage: d.vpages[pos],
                    decode: AddrDecode {
                        page_off: ipcp_mem::LineOffset::new(d.pageoffs[pos]),
                        region: ipcp_mem::RegionId::new(d.regions[pos]),
                        region_off: ipcp_mem::RegionOffset::new(d.pageoffs[pos] & 0x1f),
                        vpage_lsb2: (d.vpages[pos] & 3) as u8,
                        ip_key: d.ipkeys[pos],
                    },
                });
            }
            n += 1;
            if self.cores[ci].fetch_stall_until > now {
                break;
            }
        }
        n as u32
    }

    /// Instruction-line access through the L1I. Returns false on a
    /// structural reject.
    fn ifetch(&mut self, ci: usize, vline: LineAddr, ip: Ip) -> bool {
        let now = self.now;
        let core = &mut self.cores[ci];
        if !core.l1i.try_take_port(now) {
            return false;
        }
        let ppage = core.tlb.translate_untimed(vline.vpage(), &mut core.mapper);
        let pline = phys_line(ppage.raw(), vline);
        let l1i_lat = self.cores[ci].l1i.latency();
        let t = self.now;
        match self.cores[ci].l1i.demand_lookup(pline, ip, false) {
            ProbeResult::Hit {
                first_use_of_prefetch,
                pf_class,
            } => {
                self.run_l1i_prefetcher(
                    ci,
                    vline,
                    pline,
                    ip,
                    true,
                    first_use_of_prefetch,
                    pf_class,
                );
                true
            }
            ProbeResult::MshrMerge { fill_at } => {
                self.run_l1i_prefetcher(ci, vline, pline, ip, false, false, 0);
                self.cores[ci].fetch_stall_until = fill_at;
                true
            }
            ProbeResult::MshrFull => false,
            ProbeResult::Miss => {
                let Some(c2) =
                    self.resolve_l2_demand(ci, pline, ip, DemandKind::IFetch, t + l1i_lat)
                else {
                    return false;
                };
                let fill_at = c2 + FILL_FORWARD;
                let core = &mut self.cores[ci];
                core.l1i.commit_demand_miss();
                core.l1i.alloc_mshr(Mshr {
                    line: pline,
                    fill_at,
                    is_prefetch: false,
                    pf_class: 0,
                    dirty: false,
                    ip,
                });
                core.fetch_stall_until = fill_at;
                let nf = core.l1i.next_fill_raw();
                self.arm_fill(sched::comp_l1i(ci), nf);
                self.run_l1i_prefetcher(ci, vline, pline, ip, false, false, 0);
                true
            }
        }
    }

    // ------------------------------------------------------------------
    // Demand path
    // ------------------------------------------------------------------

    fn resolve_l1d_demand(
        &mut self,
        ci: usize,
        pm: &PendingMem,
        pline: LineAddr,
        t: Cycle,
    ) -> Option<Cycle> {
        let (ip, store) = (pm.ip, pm.store);
        let l1_lat = self.cores[ci].l1d.latency();
        let kind = if store {
            DemandKind::Rfo
        } else {
            DemandKind::Load
        };
        match self.cores[ci].l1d.demand_lookup(pline, ip, store) {
            ProbeResult::Hit {
                first_use_of_prefetch,
                pf_class,
            } => {
                let c = t + l1_lat;
                self.run_l1d_prefetcher(ci, pm, pline, kind, true, first_use_of_prefetch, pf_class);
                Some(c)
            }
            ProbeResult::MshrMerge { fill_at } => {
                self.run_l1d_prefetcher(ci, pm, pline, kind, false, false, 0);
                let c = fill_at.max(t + l1_lat);
                let stats = &mut self.cores[ci].l1d.stats;
                stats.miss_latency_sum += c - t;
                stats.merge_wait_sum += c - t;
                Some(c)
            }
            ProbeResult::MshrFull => None,
            ProbeResult::Miss => {
                let c2 = self.resolve_l2_demand(ci, pline, ip, kind, t + l1_lat)?;
                let fill_at = c2 + FILL_FORWARD;
                let core = &mut self.cores[ci];
                core.l1d.stats.miss_latency_sum += fill_at - t;
                core.l1d.commit_demand_miss();
                core.l1d.alloc_mshr(Mshr {
                    line: pline,
                    fill_at,
                    is_prefetch: false,
                    pf_class: 0,
                    dirty: store,
                    ip,
                });
                let nf = core.l1d.next_fill_raw();
                self.arm_fill(sched::comp_l1d(ci), nf);
                self.run_l1d_prefetcher(ci, pm, pline, kind, false, false, 0);
                Some(fill_at)
            }
        }
    }

    /// The hit-streak fused issue path (fast scheduler only): a maximal
    /// run of pending accesses that repeat the L1D's memoized last demand
    /// hit under the DTLB's memoized translation is committed with one
    /// batched stats/port/ROB update, then the prefetcher is trained once
    /// per access — training is observably stateful (RR-filter recency,
    /// RST touches, NL issue) even on repeated hits, so only the cache,
    /// TLB, and ROB side of the run may batch; the replay is exact,
    /// including the memoized hit's `first_use = false` / memo-class
    /// observation. Everything that falls outside a run takes the same
    /// per-entry walk as [`System::issue`] (whose `demand_lookup` and
    /// `translate` contain the single-access memo paths), so the fused
    /// loop is behavior-identical to the naive one.
    fn issue_fused(&mut self, ci: usize) -> u32 {
        const ISSUE_WINDOW: usize = 8;
        let now = self.now;
        let mut n = 0;
        // Phase 1: hit-streak runs at the head of the pending queue. The
        // run is bounded by free L1D ports (the naive loop's real limiter:
        // every issued access takes a port) and restricted to the exact
        // line of the set's memo — a hit on any *other* line would arm a
        // new memo and touch replacement state, so it ends the run.
        loop {
            let core = &mut self.cores[ci];
            if core.pending.is_empty() {
                return n;
            }
            let pm0 = core.pending[0];
            let Some(memo_frame) = core.tlb.memo_timed_frame(pm0.vpage) else {
                break;
            };
            let pline = phys_line(memo_frame, pm0.vline);
            let Some(memo_class) = core.l1d.repeat_memo(pline) else {
                break;
            };
            let free = core.l1d.ports_free(now) as usize;
            if free == 0 {
                return n;
            }
            let lim = free.min(core.pending.len());
            let vline_raw = pm0.vline.raw();
            let mut k = 0;
            let mut any_write = false;
            while k < lim && core.pending[k].vline.raw() == vline_raw {
                any_write |= core.pending[k].store;
                k += 1;
            }
            debug_assert!(k >= 1, "pending[0] matched the memo line");
            core.l1d.commit_repeat_hits(pline, k as u32, any_write);
            core.tlb.note_memo_hits(k as u64);
            // All loads in the run complete together (memoized translation
            // is penalty-free, so t = now); stores retire at now + 1 as in
            // the naive loop.
            let load_c = now + core.l1d.latency();
            for j in 0..k {
                let pm = core.pending[j];
                let c = if pm.store { now + 1 } else { load_c };
                core.rob.set_completion(pm.seq, pm.slot, c);
            }
            if !self.cores[ci].l1d_pf_noop {
                for j in 0..k {
                    let pm = self.cores[ci].pending[j];
                    let kind = if pm.store {
                        DemandKind::Rfo
                    } else {
                        DemandKind::Load
                    };
                    self.run_l1d_prefetcher(ci, &pm, pline, kind, true, false, memo_class);
                }
            }
            self.cores[ci].pending.drain(..k);
            n += k as u32;
        }
        // Phase 2: the general window, shaped exactly like the naive
        // [`System::issue`] loop but reading the precomputed line/page/
        // decode fields off the pending entry.
        let mut i = 0;
        loop {
            let core = &mut self.cores[ci];
            if i >= core.pending.len().min(ISSUE_WINDOW) {
                break;
            }
            if !core.l1d.try_take_port(now) {
                break;
            }
            let pm = core.pending[i];
            let (ppage, penalty) = core
                .tlb
                .translate(ipcp_mem::VPage::new(pm.vpage), &mut core.mapper);
            let pline = phys_line(ppage.raw(), pm.vline);
            let t = now + penalty;
            match self.resolve_l1d_demand(ci, &pm, pline, t) {
                Some(completion) => {
                    let core = &mut self.cores[ci];
                    let c = if pm.store { now + 1 } else { completion };
                    core.rob.set_completion(pm.seq, pm.slot, c);
                    core.pending.remove(i);
                    n += 1;
                }
                None => i += 1, // structural reject: retry next cycle
            }
        }
        n
    }

    fn resolve_l2_demand(
        &mut self,
        ci: usize,
        pline: LineAddr,
        ip: Ip,
        kind: DemandKind,
        t: Cycle,
    ) -> Option<Cycle> {
        let l2_lat = self.cores[ci].l2.latency();
        match self.cores[ci].l2.demand_lookup(pline, ip, false) {
            ProbeResult::Hit {
                first_use_of_prefetch,
                pf_class,
            } => {
                let c = t + l2_lat;
                self.run_l2_prefetcher_access(
                    ci,
                    pline,
                    ip,
                    kind,
                    true,
                    first_use_of_prefetch,
                    pf_class,
                );
                Some(c)
            }
            ProbeResult::MshrMerge { fill_at } => {
                self.run_l2_prefetcher_access(ci, pline, ip, kind, false, false, 0);
                Some(fill_at.max(t + l2_lat))
            }
            ProbeResult::MshrFull => None,
            ProbeResult::Miss => {
                let c3 = self.resolve_llc_demand(ci, pline, ip, kind, t + l2_lat)?;
                let fill_at = c3 + FILL_FORWARD;
                let core = &mut self.cores[ci];
                core.l2.commit_demand_miss();
                core.l2.alloc_mshr(Mshr {
                    line: pline,
                    fill_at,
                    is_prefetch: false,
                    pf_class: 0,
                    dirty: false,
                    ip,
                });
                let nf = core.l2.next_fill_raw();
                self.arm_fill(sched::comp_l2(ci), nf);
                self.run_l2_prefetcher_access(ci, pline, ip, kind, false, false, 0);
                Some(fill_at)
            }
        }
    }

    fn resolve_llc_demand(
        &mut self,
        ci: usize,
        pline: LineAddr,
        ip: Ip,
        kind: DemandKind,
        t: Cycle,
    ) -> Option<Cycle> {
        let llc_lat = self.llc.latency();
        match self.llc.demand_lookup(pline, ip, false) {
            ProbeResult::Hit {
                first_use_of_prefetch,
                pf_class,
            } => {
                let c = t + llc_lat;
                self.run_llc_prefetcher_access(
                    ci,
                    pline,
                    ip,
                    kind,
                    true,
                    first_use_of_prefetch,
                    pf_class,
                );
                Some(c)
            }
            ProbeResult::MshrMerge { fill_at } => {
                self.run_llc_prefetcher_access(ci, pline, ip, kind, false, false, 0);
                Some(fill_at.max(t + llc_lat))
            }
            ProbeResult::MshrFull => None,
            ProbeResult::Miss => {
                let done = self.dram.schedule_read(t + llc_lat, pline);
                self.llc.commit_demand_miss();
                self.llc.alloc_mshr(Mshr {
                    line: pline,
                    fill_at: done,
                    is_prefetch: false,
                    pf_class: 0,
                    dirty: false,
                    ip,
                });
                let nf = self.llc.next_fill_raw();
                self.arm_fill(sched::COMP_LLC, nf);
                self.run_llc_prefetcher_access(ci, pline, ip, kind, false, false, 0);
                Some(done)
            }
        }
    }

    // ------------------------------------------------------------------
    // Prefetch path
    // ------------------------------------------------------------------

    fn drain_l1_pq(&mut self, ci: usize) -> bool {
        let mut any = false;
        for _ in 0..PF_DRAIN_PER_CYCLE {
            let Some(qp) = self.cores[ci].l1d.peek_prefetch().copied() else {
                break;
            };
            match qp.req.fill {
                FillLevel::L1 => match self.cores[ci].l1d.prefetch_probe(qp.pline) {
                    ProbeResult::Hit { .. } | ProbeResult::MshrMerge { .. } => {
                        self.cores[ci].l1d.pop_prefetch();
                        self.cores[ci].l1d.stats.pf_dropped_present += 1;
                        any = true;
                    }
                    ProbeResult::MshrFull => break,
                    ProbeResult::Miss => {
                        self.cores[ci].l1d.pop_prefetch();
                        match self.resolve_l2_prefetch(ci, &qp, self.now + PF_ISSUE_LATENCY) {
                            Some(c) => {
                                let core = &mut self.cores[ci];
                                core.l1d.alloc_mshr(Mshr {
                                    line: qp.pline,
                                    fill_at: c + FILL_FORWARD,
                                    is_prefetch: true,
                                    pf_class: qp.req.pf_class,
                                    dirty: false,
                                    ip: qp.ip,
                                });
                                let nf = core.l1d.next_fill_raw();
                                self.arm_fill(sched::comp_l1d(ci), nf);
                            }
                            None => {
                                self.cores[ci].l1d.stats.pf_dropped_mshr_full += 1;
                            }
                        }
                        any = true;
                    }
                },
                FillLevel::L2 => {
                    self.cores[ci].l1d.pop_prefetch();
                    if self
                        .resolve_l2_prefetch(ci, &qp, self.now + PF_ISSUE_LATENCY)
                        .is_none()
                    {
                        self.cores[ci].l1d.stats.pf_dropped_mshr_full += 1;
                    }
                    any = true;
                }
                FillLevel::Llc => {
                    self.cores[ci].l1d.pop_prefetch();
                    if self
                        .resolve_llc_prefetch(
                            qp.pline,
                            qp.req.pf_class,
                            qp.ip,
                            self.now + PF_ISSUE_LATENCY,
                        )
                        .is_none()
                    {
                        self.cores[ci].l1d.stats.pf_dropped_mshr_full += 1;
                    }
                    any = true;
                }
            }
        }
        any
    }

    /// Drains the L1I prefetch queue: the I-side twin of
    /// [`System::drain_l1_pq`], sharing the same L2/LLC resolve machinery
    /// (and therefore the same L2 MSHR/PQ pressure and metadata-arrival
    /// path) as the data side — the composition the frontend figures
    /// measure.
    fn drain_l1i_pq(&mut self, ci: usize) -> bool {
        let mut any = false;
        for _ in 0..PF_DRAIN_PER_CYCLE {
            let Some(qp) = self.cores[ci].l1i.peek_prefetch().copied() else {
                break;
            };
            match qp.req.fill {
                FillLevel::L1 => match self.cores[ci].l1i.prefetch_probe(qp.pline) {
                    ProbeResult::Hit { .. } | ProbeResult::MshrMerge { .. } => {
                        self.cores[ci].l1i.pop_prefetch();
                        self.cores[ci].l1i.stats.pf_dropped_present += 1;
                        any = true;
                    }
                    ProbeResult::MshrFull => break,
                    ProbeResult::Miss => {
                        self.cores[ci].l1i.pop_prefetch();
                        match self.resolve_l2_prefetch(ci, &qp, self.now + PF_ISSUE_LATENCY) {
                            Some(c) => {
                                let core = &mut self.cores[ci];
                                core.l1i.alloc_mshr(Mshr {
                                    line: qp.pline,
                                    fill_at: c + FILL_FORWARD,
                                    is_prefetch: true,
                                    pf_class: qp.req.pf_class,
                                    dirty: false,
                                    ip: qp.ip,
                                });
                                let nf = core.l1i.next_fill_raw();
                                self.arm_fill(sched::comp_l1i(ci), nf);
                            }
                            None => {
                                self.cores[ci].l1i.stats.pf_dropped_mshr_full += 1;
                            }
                        }
                        any = true;
                    }
                },
                FillLevel::L2 => {
                    self.cores[ci].l1i.pop_prefetch();
                    if self
                        .resolve_l2_prefetch(ci, &qp, self.now + PF_ISSUE_LATENCY)
                        .is_none()
                    {
                        self.cores[ci].l1i.stats.pf_dropped_mshr_full += 1;
                    }
                    any = true;
                }
                FillLevel::Llc => {
                    self.cores[ci].l1i.pop_prefetch();
                    if self
                        .resolve_llc_prefetch(
                            qp.pline,
                            qp.req.pf_class,
                            qp.ip,
                            self.now + PF_ISSUE_LATENCY,
                        )
                        .is_none()
                    {
                        self.cores[ci].l1i.stats.pf_dropped_mshr_full += 1;
                    }
                    any = true;
                }
            }
        }
        any
    }

    /// Resolves a prefetch (originating at the L1) at the L2: delivers the
    /// metadata to the L2 prefetcher, then brings the block to (at least)
    /// the L2. Returns the cycle the data is available at the L2.
    fn resolve_l2_prefetch(&mut self, ci: usize, qp: &QueuedPrefetch, t: Cycle) -> Option<Cycle> {
        self.run_l2_prefetcher_arrival(ci, qp);
        let l2_lat = self.cores[ci].l2.latency();
        match self.cores[ci].l2.prefetch_probe(qp.pline) {
            ProbeResult::Hit { .. } => Some(t + l2_lat),
            ProbeResult::MshrMerge { fill_at } => Some(fill_at),
            ProbeResult::MshrFull => None,
            ProbeResult::Miss => {
                let c3 = self.resolve_llc_prefetch(qp.pline, qp.req.pf_class, qp.ip, t + l2_lat)?;
                let fill_at = c3 + FILL_FORWARD;
                self.cores[ci].l2.alloc_mshr(Mshr {
                    line: qp.pline,
                    fill_at,
                    is_prefetch: true,
                    pf_class: qp.req.pf_class,
                    dirty: false,
                    ip: qp.ip,
                });
                let nf = self.cores[ci].l2.next_fill_raw();
                self.arm_fill(sched::comp_l2(ci), nf);
                Some(fill_at)
            }
        }
    }

    fn resolve_llc_prefetch(
        &mut self,
        pline: LineAddr,
        pf_class: u8,
        ip: Ip,
        t: Cycle,
    ) -> Option<Cycle> {
        let llc_lat = self.llc.latency();
        match self.llc.prefetch_probe(pline) {
            ProbeResult::Hit { .. } => Some(t + llc_lat),
            ProbeResult::MshrMerge { fill_at } => Some(fill_at),
            ProbeResult::MshrFull => None,
            ProbeResult::Miss => {
                let done = self.dram.schedule_read(t + llc_lat, pline);
                self.llc.alloc_mshr(Mshr {
                    line: pline,
                    fill_at: done,
                    is_prefetch: true,
                    pf_class,
                    dirty: false,
                    ip,
                });
                let nf = self.llc.next_fill_raw();
                self.arm_fill(sched::COMP_LLC, nf);
                Some(done)
            }
        }
    }

    fn drain_l2_pq(&mut self, ci: usize) -> bool {
        let mut any = false;
        for _ in 0..PF_DRAIN_PER_CYCLE {
            let Some(qp) = self.cores[ci].l2.peek_prefetch().copied() else {
                break;
            };
            match qp.req.fill {
                FillLevel::Llc => {
                    self.cores[ci].l2.pop_prefetch();
                    if self
                        .resolve_llc_prefetch(
                            qp.pline,
                            qp.req.pf_class,
                            qp.ip,
                            self.now + PF_ISSUE_LATENCY,
                        )
                        .is_none()
                    {
                        self.cores[ci].l2.stats.pf_dropped_mshr_full += 1;
                    }
                    any = true;
                }
                // L1 targets are clamped to L2 here: an L2 prefetcher cannot
                // fill upward.
                FillLevel::L1 | FillLevel::L2 => match self.cores[ci].l2.prefetch_probe(qp.pline) {
                    ProbeResult::Hit { .. } | ProbeResult::MshrMerge { .. } => {
                        self.cores[ci].l2.pop_prefetch();
                        self.cores[ci].l2.stats.pf_dropped_present += 1;
                        any = true;
                    }
                    ProbeResult::MshrFull => break,
                    ProbeResult::Miss => {
                        self.cores[ci].l2.pop_prefetch();
                        match self.resolve_llc_prefetch(
                            qp.pline,
                            qp.req.pf_class,
                            qp.ip,
                            self.now + PF_ISSUE_LATENCY,
                        ) {
                            Some(c) => {
                                self.cores[ci].l2.alloc_mshr(Mshr {
                                    line: qp.pline,
                                    fill_at: c + FILL_FORWARD,
                                    is_prefetch: true,
                                    pf_class: qp.req.pf_class,
                                    dirty: false,
                                    ip: qp.ip,
                                });
                                let nf = self.cores[ci].l2.next_fill_raw();
                                self.arm_fill(sched::comp_l2(ci), nf);
                            }
                            None => {
                                self.cores[ci].l2.stats.pf_dropped_mshr_full += 1;
                            }
                        }
                        any = true;
                    }
                },
            }
        }
        any
    }

    fn drain_llc_pq(&mut self) -> bool {
        let mut any = false;
        for _ in 0..PF_DRAIN_PER_CYCLE {
            let Some(qp) = self.llc.peek_prefetch().copied() else {
                break;
            };
            match self.llc.prefetch_probe(qp.pline) {
                ProbeResult::Hit { .. } | ProbeResult::MshrMerge { .. } => {
                    self.llc.pop_prefetch();
                    self.llc.stats.pf_dropped_present += 1;
                    any = true;
                }
                ProbeResult::MshrFull => break,
                ProbeResult::Miss => {
                    self.llc.pop_prefetch();
                    let done = self
                        .dram
                        .schedule_read(self.now + PF_ISSUE_LATENCY + self.llc.latency(), qp.pline);
                    self.llc.alloc_mshr(Mshr {
                        line: qp.pline,
                        fill_at: done,
                        is_prefetch: true,
                        pf_class: qp.req.pf_class,
                        dirty: false,
                        ip: qp.ip,
                    });
                    let nf = self.llc.next_fill_raw();
                    self.arm_fill(sched::COMP_LLC, nf);
                    any = true;
                }
            }
        }
        any
    }

    // ------------------------------------------------------------------
    // Prefetcher hooks
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn run_l1d_prefetcher(
        &mut self,
        ci: usize,
        pm: &PendingMem,
        pline: LineAddr,
        kind: DemandKind,
        hit: bool,
        first_use_of_prefetch: bool,
        hit_pf_class: u8,
    ) {
        if self.cores[ci].l1d_pf_noop {
            return;
        }
        let t0 = self.phase_start();
        let (vline, ip) = (pm.vline, pm.ip);
        let dram_utilization = self.dram.utilization();
        let core = &mut self.cores[ci];
        let info = AccessInfo {
            cycle: self.now,
            ip,
            vline,
            pline,
            kind,
            hit,
            first_use_of_prefetch,
            hit_pf_class,
            instructions: core.retired_total,
            demand_misses: core.l1d.lifetime_misses(),
            dram_utilization,
            decode: pm.decode,
        };
        let mut sink = std::mem::take(&mut self.pf_scratch);
        self.cores[ci].l1d_pf.on_access(&info, &mut sink);
        // Same-page translation memo for the burst: every call site sits
        // directly after the trigger's timed translate, so the trigger's
        // page is DTLB-resident with the newest stamp in its set and is the
        // timed memo's page. An untimed translate of that same page would
        // re-stamp the already-newest way and leave the timed memo alone —
        // no observable TLB state changes — so candidates on the trigger
        // page (the common case: L1 classes never cross a page) reuse the
        // trigger's frame directly. Cross-page or physical requests take
        // the full path.
        let trigger_vpage = vline.vpage();
        let trigger_frame = pline.ppage().raw();
        let memo_ok = !self.cfg.no_fastpath;
        for req in sink.requests.drain(..) {
            if memo_ok && req.virtual_addr && req.line.vpage() == trigger_vpage {
                self.enqueue_l1_translated(ci, req, ip, phys_line(trigger_frame, req.line));
            } else {
                self.enqueue_l1_request(ci, req, ip);
            }
        }
        sink.dropped = 0;
        self.pf_scratch = sink;
        Self::phase_add(&mut self.phases.train_ns, t0);
    }

    /// The L1-I twin of [`System::run_l1d_prefetcher`], invoked from every
    /// [`System::ifetch`] outcome. Only reachable with a non-noop I-side
    /// prefetcher attached, in which case the fast repeat-ifetch memo is
    /// disabled and both schedulers deliver the identical access stream.
    #[allow(clippy::too_many_arguments)]
    fn run_l1i_prefetcher(
        &mut self,
        ci: usize,
        vline: LineAddr,
        pline: LineAddr,
        ip: Ip,
        hit: bool,
        first_use_of_prefetch: bool,
        hit_pf_class: u8,
    ) {
        if self.cores[ci].l1i_pf_noop {
            return;
        }
        let t0 = self.phase_start();
        let dram_utilization = self.dram.utilization();
        let core = &mut self.cores[ci];
        let info = AccessInfo {
            cycle: self.now,
            ip,
            vline,
            pline,
            kind: DemandKind::IFetch,
            hit,
            first_use_of_prefetch,
            hit_pf_class,
            instructions: core.retired_total,
            demand_misses: core.l1i.lifetime_misses(),
            dram_utilization,
            decode: AddrDecode::of(ip, vline),
        };
        let mut sink = std::mem::take(&mut self.pf_scratch);
        self.cores[ci].l1i_pf.on_access(&info, &mut sink);
        for req in sink.requests.drain(..) {
            self.enqueue_l1i_request(ci, req, ip);
        }
        sink.dropped = 0;
        self.pf_scratch = sink;
        Self::phase_add(&mut self.phases.train_ns, t0);
    }

    #[allow(clippy::too_many_arguments)]
    fn run_l2_prefetcher_access(
        &mut self,
        ci: usize,
        pline: LineAddr,
        ip: Ip,
        kind: DemandKind,
        hit: bool,
        first_use_of_prefetch: bool,
        hit_pf_class: u8,
    ) {
        if self.cores[ci].l2_pf_noop {
            return;
        }
        let t0 = self.phase_start();
        let dram_utilization = self.dram.utilization();
        let core = &mut self.cores[ci];
        let info = AccessInfo {
            cycle: self.now,
            ip,
            vline: pline,
            pline,
            kind,
            hit,
            first_use_of_prefetch,
            hit_pf_class,
            instructions: core.retired_total,
            demand_misses: core.l2.lifetime_misses(),
            dram_utilization,
            decode: AddrDecode::of(ip, pline),
        };
        let mut sink = std::mem::take(&mut self.pf_scratch);
        self.cores[ci].l2_pf.on_access(&info, &mut sink);
        for req in sink.requests.drain(..) {
            self.enqueue_l2_request(ci, req, ip);
        }
        sink.dropped = 0;
        self.pf_scratch = sink;
        Self::phase_add(&mut self.phases.train_ns, t0);
    }

    fn run_l2_prefetcher_arrival(&mut self, ci: usize, qp: &QueuedPrefetch) {
        if self.cores[ci].l2_pf_noop {
            return;
        }
        let t0 = self.phase_start();
        let core = &mut self.cores[ci];
        let arrival = MetadataArrival {
            cycle: self.now,
            ip: qp.ip,
            pline: qp.pline,
            meta: qp.req.meta,
            instructions: core.retired_total,
            demand_misses: core.l2.lifetime_misses(),
        };
        let mut sink = std::mem::take(&mut self.pf_scratch);
        self.cores[ci]
            .l2_pf
            .on_prefetch_arrival(&arrival, &mut sink);
        for req in sink.requests.drain(..) {
            self.enqueue_l2_request(ci, req, qp.ip);
        }
        sink.dropped = 0;
        self.pf_scratch = sink;
        Self::phase_add(&mut self.phases.train_ns, t0);
    }

    #[allow(clippy::too_many_arguments)]
    fn run_llc_prefetcher_access(
        &mut self,
        _ci: usize,
        pline: LineAddr,
        ip: Ip,
        kind: DemandKind,
        hit: bool,
        first_use_of_prefetch: bool,
        hit_pf_class: u8,
    ) {
        if self.llc_pf_noop {
            return;
        }
        let t0 = self.phase_start();
        let info = AccessInfo {
            cycle: self.now,
            ip,
            vline: pline,
            pline,
            kind,
            hit,
            first_use_of_prefetch,
            hit_pf_class,
            instructions: 0,
            demand_misses: self.llc.lifetime_misses(),
            dram_utilization: self.dram.utilization(),
            decode: AddrDecode::of(ip, pline),
        };
        let mut sink = std::mem::take(&mut self.pf_scratch);
        self.llc_pf.on_access(&info, &mut sink);
        for req in sink.requests.drain(..) {
            self.enqueue_llc_request(req, ip);
        }
        sink.dropped = 0;
        self.pf_scratch = sink;
        Self::phase_add(&mut self.phases.train_ns, t0);
    }

    fn enqueue_l1_request(&mut self, ci: usize, req: PrefetchRequest, ip: Ip) {
        let core = &mut self.cores[ci];
        let pline = if req.virtual_addr {
            let vpage = req.line.vpage();
            let ppage = core.tlb.translate_untimed(vpage, &mut core.mapper);
            phys_line(ppage.raw(), req.line)
        } else {
            req.line
        };
        self.enqueue_l1_translated(ci, req, ip, pline);
    }

    fn enqueue_l1_translated(&mut self, ci: usize, req: PrefetchRequest, ip: Ip, pline: LineAddr) {
        let core = &mut self.cores[ci];
        // A prefetch whose target is already resident (or in flight) at its
        // own fill level is dropped at enqueue so it does not consume PQ
        // slots or drain bandwidth.
        if req.fill == FillLevel::L1
            && !matches!(
                core.l1d.prefetch_probe(pline),
                ProbeResult::Miss | ProbeResult::MshrFull
            )
        {
            core.l1d.stats.pf_dropped_present += 1;
            return;
        }
        core.l1d.enqueue_prefetch(QueuedPrefetch { req, pline, ip });
        self.mark_pq(sched::pq_l1d(ci));
    }

    /// Enqueues an I-side prefetch request into the L1I's PQ. Virtual
    /// targets translate through the untimed ITLB path (code addresses are
    /// virtual, like every L1-fill request); already-resident targets are
    /// dropped at enqueue, mirroring [`System::enqueue_l1_translated`].
    fn enqueue_l1i_request(&mut self, ci: usize, req: PrefetchRequest, ip: Ip) {
        let core = &mut self.cores[ci];
        let pline = if req.virtual_addr {
            let vpage = req.line.vpage();
            let ppage = core.tlb.translate_untimed(vpage, &mut core.mapper);
            phys_line(ppage.raw(), req.line)
        } else {
            req.line
        };
        if req.fill == FillLevel::L1
            && !matches!(
                core.l1i.prefetch_probe(pline),
                ProbeResult::Miss | ProbeResult::MshrFull
            )
        {
            core.l1i.stats.pf_dropped_present += 1;
            return;
        }
        core.l1i.enqueue_prefetch(QueuedPrefetch { req, pline, ip });
        self.mark_pq(sched::pq_l1i(ci));
    }

    fn enqueue_l2_request(&mut self, ci: usize, req: PrefetchRequest, ip: Ip) {
        let core = &mut self.cores[ci];
        let pline = if req.virtual_addr {
            let vpage = req.line.vpage();
            let ppage = core.tlb.translate_untimed(vpage, &mut core.mapper);
            phys_line(ppage.raw(), req.line)
        } else {
            req.line
        };
        // L2 prefetchers fill at most to the L2.
        let req = if req.fill == FillLevel::L1 {
            req.with_fill(FillLevel::L2)
        } else {
            req
        };
        if req.fill == FillLevel::L2
            && !matches!(
                core.l2.prefetch_probe(pline),
                ProbeResult::Miss | ProbeResult::MshrFull
            )
        {
            core.l2.stats.pf_dropped_present += 1;
            return;
        }
        core.l2.enqueue_prefetch(QueuedPrefetch { req, pline, ip });
        self.mark_pq(sched::pq_l2(ci));
    }

    fn enqueue_llc_request(&mut self, req: PrefetchRequest, ip: Ip) {
        let req = req.with_fill(FillLevel::Llc);
        self.llc.enqueue_prefetch(QueuedPrefetch {
            req,
            pline: req.line,
            ip,
        });
        self.mark_pq(sched::PQ_LLC);
    }

    // ------------------------------------------------------------------
    // Fills and write-backs
    // ------------------------------------------------------------------

    fn process_fills(&mut self) -> bool {
        let mut any = false;
        // LLC first, then private levels (order is immaterial: fill times
        // were staggered when the MSHRs were allocated).
        any |= self.fill_llc();
        for ci in 0..self.cores.len() {
            any |= self.fill_l2(ci);
            any |= self.fill_l1d(ci);
            any |= self.fill_l1i(ci);
        }
        any
    }

    fn fill_llc(&mut self) -> bool {
        let now = self.now;
        let mut any = false;
        while let Some(m) = self.llc.pop_ready_fill(now) {
            any = true;
            let evicted = self
                .llc
                .install(m.line, m.ip, m.is_prefetch, m.pf_class, m.dirty);
            if let Some(ev) = evicted {
                if ev.dirty {
                    self.llc.stats.writebacks += 1;
                    self.dram.schedule_write(now, ev.line);
                }
            }
            self.llc_pf.on_fill(&fill_info(now, &m, evicted));
        }
        any
    }

    fn fill_l2(&mut self, ci: usize) -> bool {
        let now = self.now;
        let mut any = false;
        while let Some(m) = self.cores[ci].l2.pop_ready_fill(now) {
            any = true;
            let evicted =
                self.cores[ci]
                    .l2
                    .install(m.line, m.ip, m.is_prefetch, m.pf_class, m.dirty);
            if let Some(ev) = evicted {
                if ev.dirty {
                    self.cores[ci].l2.stats.writebacks += 1;
                    if !self.llc.writeback_hit(ev.line) {
                        self.dram.schedule_write(now, ev.line);
                    }
                }
            }
            let info = fill_info(now, &m, evicted);
            self.cores[ci].l2_pf.on_fill(&info);
        }
        any
    }

    fn fill_l1d(&mut self, ci: usize) -> bool {
        let now = self.now;
        let mut any = false;
        while let Some(m) = self.cores[ci].l1d.pop_ready_fill(now) {
            any = true;
            let evicted =
                self.cores[ci]
                    .l1d
                    .install(m.line, m.ip, m.is_prefetch, m.pf_class, m.dirty);
            if let Some(ev) = evicted {
                if ev.dirty {
                    self.cores[ci].l1d.stats.writebacks += 1;
                    if !self.cores[ci].l2.writeback_hit(ev.line) && !self.llc.writeback_hit(ev.line)
                    {
                        self.dram.schedule_write(now, ev.line);
                    }
                }
            }
            let info = fill_info(now, &m, evicted);
            self.cores[ci].l1d_pf.on_fill(&info);
        }
        any
    }

    fn fill_l1i(&mut self, ci: usize) -> bool {
        let now = self.now;
        let mut any = false;
        while let Some(m) = self.cores[ci].l1i.pop_ready_fill(now) {
            any = true;
            let evicted =
                self.cores[ci]
                    .l1i
                    .install(m.line, m.ip, m.is_prefetch, m.pf_class, m.dirty);
            // Instruction lines are never written, so evictions can't be
            // dirty and there is no writeback leg.
            debug_assert!(evicted.is_none_or(|ev| !ev.dirty));
            if !self.cores[ci].l1i_pf_noop {
                let info = fill_info(now, &m, evicted);
                self.cores[ci].l1i_pf.on_fill(&info);
            }
        }
        any
    }

    /// Direct access to the DRAM stats mid-run (used in tests).
    pub fn dram_utilization(&self) -> f64 {
        self.dram.utilization()
    }
}

fn fill_info(now: Cycle, m: &Mshr, evicted: Option<crate::cache::Evicted>) -> FillInfo {
    FillInfo {
        cycle: now,
        pline: m.line,
        was_prefetch: m.is_prefetch,
        pf_class: m.pf_class,
        evicted: evicted.map(|e| e.line),
        evicted_unused_prefetch: evicted.is_some_and(|e| e.unused_prefetch),
    }
}

/// Boolean observability knob (`IPCP_SCHED_STATS`, `IPCP_PHASE_STATS`)
/// with the env catalogue's semantics (empty, `0`, `false`, `off`, `no`
/// mean disabled), read once at construction.
fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| {
        !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "" | "0" | "false" | "off" | "no"
        )
    })
}

/// Combines a physical frame number with the in-page line offset of `vline`.
fn phys_line(ppage: u64, vline: LineAddr) -> LineAddr {
    LineAddr::new((ppage << (PAGE_SHIFT - LINE_SHIFT)) | (vline.raw() & (LINES_PER_PAGE - 1)))
}

// Parallel experiment harnesses fan whole simulations across worker
// threads, so these types must stay `Send` (the `Prefetcher` trait carries
// the `Send` bound; `CoreSetup`'s trace is `Arc<dyn TraceSource + Send +
// Sync>`). Compile-time check so a regression fails the build, not a
// downstream crate.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<CoreSetup>();
    assert_send::<Box<dyn Prefetcher>>();
    assert_send::<SimReport>();
};

/// Convenience: runs a single-core simulation (no I-side prefetcher).
pub fn run_single(
    cfg: SimConfig,
    trace: Arc<dyn TraceSource + Send + Sync>,
    l1d_prefetcher: Box<dyn Prefetcher>,
    l2_prefetcher: Box<dyn Prefetcher>,
    llc_prefetcher: Box<dyn Prefetcher>,
) -> SimReport {
    run_single_with_l1i(
        cfg,
        trace,
        Box::new(crate::prefetch::NoPrefetcher),
        l1d_prefetcher,
        l2_prefetcher,
        llc_prefetcher,
    )
}

/// Convenience: runs a single-core simulation with an L1-I prefetcher in
/// the frontend slot.
pub fn run_single_with_l1i(
    cfg: SimConfig,
    trace: Arc<dyn TraceSource + Send + Sync>,
    l1i_prefetcher: Box<dyn Prefetcher>,
    l1d_prefetcher: Box<dyn Prefetcher>,
    l2_prefetcher: Box<dyn Prefetcher>,
    llc_prefetcher: Box<dyn Prefetcher>,
) -> SimReport {
    let mut cfg = cfg;
    cfg.cores = 1;
    let mut sys = System::new(
        cfg,
        vec![CoreSetup::new(trace, l1d_prefetcher, l2_prefetcher)
            .with_l1i_prefetcher(l1i_prefetcher)],
        llc_prefetcher,
    );
    sys.run()
}

/// Weighted speedup of a multi-core run against per-core alone IPCs
/// (Section VI's metric): `Σ IPC_together(i) / IPC_alone(i)`.
pub fn weighted_speedup(together: &SimReport, alone_ipcs: &[f64]) -> f64 {
    assert_eq!(
        together.cores.len(),
        alone_ipcs.len(),
        "core-count mismatch"
    );
    together
        .cores
        .iter()
        .zip(alone_ipcs)
        .map(|(c, &alone)| {
            if alone <= 0.0 {
                0.0
            } else {
                c.core.ipc() / alone
            }
        })
        .sum()
}

#[allow(unused_imports)]
#[allow(clippy::items_after_test_module)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::NoPrefetcher;
    use ipcp_trace::VecTrace;

    fn quick_cfg() -> SimConfig {
        SimConfig::default().with_instructions(2_000, 10_000)
    }

    fn seq_trace(lines: u64, stride: u64) -> Arc<VecTrace> {
        // One load per 4 instructions, striding through memory.
        let mut v = Vec::new();
        let mut i = 0u64;
        let mut addr = 0x100_0000u64;
        while v.len() < lines as usize * 4 {
            v.push(Instr::load(0x40_0000 + (i % 8) * 4, addr));
            v.push(Instr::nop(0x40_0100));
            v.push(Instr::nop(0x40_0104));
            v.push(Instr::nop(0x40_0108));
            addr += stride * 64;
            i += 1;
        }
        Arc::new(VecTrace::new("seq", v))
    }

    #[test]
    fn runs_to_completion_and_counts() {
        let report = run_single(
            quick_cfg(),
            seq_trace(20_000, 1),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
        );
        assert_eq!(report.cores.len(), 1);
        let c = &report.cores[0];
        assert!(c.core.instructions >= 10_000);
        assert!(c.core.cycles > 0);
        assert!(c.core.ipc() > 0.0);
        // A pure streaming load with no prefetching misses a lot.
        assert!(
            c.l1d.demand_misses > 1000,
            "misses: {}",
            c.l1d.demand_misses
        );
        assert!(report.dram.reads > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            run_single(
                quick_cfg(),
                seq_trace(20_000, 1),
                Box::new(NoPrefetcher),
                Box::new(NoPrefetcher),
                Box::new(NoPrefetcher),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn repeated_working_set_hits_cache() {
        // 16 KB working set fits L1D after the first pass.
        let mut v = Vec::new();
        for rep in 0..200 {
            for l in 0..256u64 {
                v.push(Instr::load(0x40_0000, 0x50_0000 + l * 64));
                if rep % 4 == 0 {
                    v.push(Instr::nop(0x40_0004));
                }
            }
        }
        let report = run_single(
            quick_cfg(),
            Arc::new(VecTrace::new("resident", v)),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
        );
        let c = &report.cores[0];
        let hit_rate = c.l1d.demand_hits as f64 / c.l1d.demand_accesses as f64;
        assert!(hit_rate > 0.95, "hit rate {hit_rate}");
    }

    struct NextLinesL1(i64);
    impl Prefetcher for NextLinesL1 {
        fn name(&self) -> &'static str {
            "nl-test"
        }
        fn on_access(&mut self, info: &AccessInfo, sink: &mut dyn crate::prefetch::PrefetchSink) {
            for k in 1..=self.0 {
                if let Some(next) = info.vline.offset_within_page(k) {
                    sink.prefetch(PrefetchRequest::l1(next));
                }
            }
        }
    }

    /// A latency-bound (not bandwidth-bound) stream: ~100 instructions per
    /// missing load, so prefetching has headroom on the DRAM bus.
    fn sparse_stream_trace() -> Arc<VecTrace> {
        let mut v = Vec::new();
        let mut addr = 0x100_0000u64;
        for _ in 0..2_000u64 {
            v.push(Instr::load(0x40_0000, addr));
            for k in 0..99u64 {
                v.push(Instr::nop(0x40_0100 + (k % 16) * 4));
            }
            addr += 64;
        }
        Arc::new(VecTrace::new("sparse-stream", v))
    }

    #[test]
    fn next_line_prefetcher_improves_latency_bound_streaming() {
        let base = run_single(
            quick_cfg(),
            sparse_stream_trace(),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
        );
        let pf = run_single(
            quick_cfg(),
            sparse_stream_trace(),
            Box::new(NextLinesL1(4)),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
        );
        assert!(
            pf.ipc() > base.ipc() * 1.05,
            "NL-4 should speed up a latency-bound stream: {} vs {}",
            pf.ipc(),
            base.ipc()
        );
        assert!(pf.cores[0].l1d.pf_issued > 0);
        // Prefetches may land as timely fills or as late MSHR merges; both
        // count as useful.
        assert!(pf.cores[0].l1d.useful_prefetch_hits > 0);
    }

    #[test]
    fn multicore_runs_and_reports_per_core() {
        let mut cfg = SimConfig::multicore(2).with_instructions(1_000, 5_000);
        cfg.llc.size_bytes = 1024 * 1024; // keep the test fast
        let mk = |_: u32| {
            CoreSetup::new(
                seq_trace(20_000, 1),
                Box::new(NoPrefetcher),
                Box::new(NoPrefetcher),
            )
        };
        let mut sys = System::new(cfg, vec![mk(0), mk(1)], Box::new(NoPrefetcher));
        let r = sys.run();
        assert_eq!(r.cores.len(), 2);
        for c in &r.cores {
            assert!(c.core.instructions >= 5_000);
            assert!(c.core.ipc() > 0.0);
        }
    }

    #[test]
    fn sampler_series_is_deterministic() {
        let run = || {
            run_single(
                quick_cfg().with_sample_interval(1_000),
                seq_trace(20_000, 1),
                Box::new(NextLinesL1(4)),
                Box::new(NoPrefetcher),
                Box::new(NoPrefetcher),
            )
        };
        let a = run();
        let b = run();
        assert!(
            a.samples.len() >= 9,
            "10k measured instructions at interval 1k should yield ~10 samples, got {}",
            a.samples.len()
        );
        assert_eq!(a.samples, b.samples);
        assert_eq!(a, b);
        // Samples sit on the measured-phase instruction clock and carry
        // interval activity.
        assert!(a.samples[0].instructions >= 1_000);
        assert!(a
            .samples
            .windows(2)
            .all(|w| w[0].instructions < w[1].instructions));
        assert!(a.samples.iter().any(|s| s.ipc > 0.0));
        assert!(a.samples.iter().any(|s| s.l1d_mpki > 0.0));
    }

    #[test]
    fn disabled_sampler_leaves_report_identical() {
        let run = |interval: Option<u64>| {
            let mut cfg = quick_cfg();
            cfg.sample_interval = interval;
            run_single(
                cfg,
                seq_trace(20_000, 1),
                Box::new(NextLinesL1(4)),
                Box::new(NoPrefetcher),
                Box::new(NoPrefetcher),
            )
        };
        let off = run(None);
        assert!(off.samples.is_empty());
        // Sampling is pure observation: every counter matches the disabled
        // run; only the embedded series differs.
        let mut on = run(Some(2_000));
        assert!(!on.samples.is_empty());
        on.samples = Default::default();
        assert_eq!(on, off);
    }

    #[test]
    fn weighted_speedup_math() {
        let mut r = SimReport::default();
        r.cores.push(CoreReport {
            trace: "a".into(),
            core: CoreStats {
                instructions: 100,
                cycles: 100,
                stall_cycles: 0,
            },
            ..Default::default()
        });
        r.cores.push(CoreReport {
            trace: "b".into(),
            core: CoreStats {
                instructions: 100,
                cycles: 200,
                stall_cycles: 0,
            },
            ..Default::default()
        });
        let ws = weighted_speedup(&r, &[1.0, 1.0]);
        assert!((ws - 1.5).abs() < 1e-12);
    }
}
