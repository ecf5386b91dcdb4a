//! Counters and reports: everything the paper's figures are computed from.

use std::fmt;

/// Number of prefetch-class slots tracked per cache line (2 class bits per
/// line in the paper's Table I ⇒ 4 classes).
pub const PF_CLASSES: usize = 4;

/// Per-cache-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand (load + RFO) accesses.
    pub demand_accesses: u64,
    /// Demand hits.
    pub demand_hits: u64,
    /// Demand misses (MSHR merges with an in-flight prefetch count as
    /// misses here but are also recorded in `late_prefetch_hits`).
    pub demand_misses: u64,
    /// Demand misses that merged into an in-flight *prefetch* MSHR
    /// ("late" prefetches: issued, not yet filled).
    pub late_prefetch_hits: u64,
    /// Demand hits whose line was brought in by a prefetch and had not been
    /// used before (prefetch usefulness, the paper's accuracy numerator).
    pub useful_prefetch_hits: u64,
    /// `useful_prefetch_hits` broken down by the 2-bit prefetch class.
    pub useful_by_class: [u64; PF_CLASSES],
    /// Prefetch requests accepted into the prefetch queue.
    pub pf_issued: u64,
    /// Prefetch requests dropped because the PQ was full.
    pub pf_dropped_pq_full: u64,
    /// Prefetch requests dropped at PQ drain because the line was already
    /// present or already in flight.
    pub pf_dropped_present: u64,
    /// Prefetch requests dropped because no MSHR was available.
    pub pf_dropped_mshr_full: u64,
    /// Prefetch fills into this level.
    pub pf_fills: u64,
    /// `pf_fills` broken down by class.
    pub fills_by_class: [u64; PF_CLASSES],
    /// Prefetched lines evicted without ever being demanded
    /// (over-predictions, Fig. 11).
    pub pf_useless_evicted: u64,
    /// Prefetch candidates the attached prefetcher itself filtered before
    /// issuing, per class (NL, CS, CPLX, GS order) — IPCP's RR filter.
    /// Attribution for fig11-style overprediction analysis: a candidate
    /// dropped here never reached the PQ, so it appears in no other
    /// counter.
    pub rr_drops_by_class: [u64; PF_CLASSES],
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
    /// Demand accesses rejected because the MSHR was full (retried).
    pub mshr_full_rejects: u64,
    /// Sum of demand-miss service latencies (issue → data), cycles.
    /// Divide by `demand_misses` for the average.
    pub miss_latency_sum: u64,
    /// Sum of residual waits for demands that merged into an in-flight
    /// MSHR (how late the in-flight fill was relative to the demand).
    pub merge_wait_sum: u64,
}

impl CacheStats {
    /// Prefetch accuracy: useful prefetch hits over prefetches that landed
    /// (fills plus in-flight prefetches a demand merged into — the latter
    /// convert to demand fills and are both useful and "arrived").
    /// Returns `None` when nothing landed.
    pub fn accuracy(&self) -> Option<f64> {
        let landed = self.pf_fills + self.late_prefetch_hits;
        (landed > 0).then(|| self.useful_prefetch_hits as f64 / landed as f64)
    }

    /// Fraction of would-be demand misses covered by prefetching:
    /// `useful / (useful + misses)`. This is the in-run coverage metric
    /// (Fig. 10); cross-run coverage against a no-prefetch baseline is
    /// computed by the bench harness.
    pub fn coverage(&self) -> Option<f64> {
        let denom = self.useful_prefetch_hits + self.demand_misses;
        (denom > 0).then(|| self.useful_prefetch_hits as f64 / denom as f64)
    }

    /// Demand misses per kilo-instruction.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.demand_misses as f64 * 1000.0 / instructions as f64
    }

    /// Resets all counters (end of warm-up).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Adds another stats block counter-by-counter (aggregating private
    /// caches across cores for the interval sampler).
    pub fn accumulate(&mut self, other: &Self) {
        self.demand_accesses += other.demand_accesses;
        self.demand_hits += other.demand_hits;
        self.demand_misses += other.demand_misses;
        self.late_prefetch_hits += other.late_prefetch_hits;
        self.useful_prefetch_hits += other.useful_prefetch_hits;
        self.pf_issued += other.pf_issued;
        self.pf_dropped_pq_full += other.pf_dropped_pq_full;
        self.pf_dropped_present += other.pf_dropped_present;
        self.pf_dropped_mshr_full += other.pf_dropped_mshr_full;
        self.pf_fills += other.pf_fills;
        self.pf_useless_evicted += other.pf_useless_evicted;
        self.writebacks += other.writebacks;
        self.mshr_full_rejects += other.mshr_full_rejects;
        self.miss_latency_sum += other.miss_latency_sum;
        self.merge_wait_sum += other.merge_wait_sum;
        for i in 0..PF_CLASSES {
            self.useful_by_class[i] += other.useful_by_class[i];
            self.fills_by_class[i] += other.fills_by_class[i];
            self.rr_drops_by_class[i] += other.rr_drops_by_class[i];
        }
    }

    /// Counter-by-counter difference `self - earlier` (saturating), giving
    /// the activity of one sampling interval from two cumulative snapshots.
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        let mut d = Self {
            demand_accesses: self.demand_accesses.saturating_sub(earlier.demand_accesses),
            demand_hits: self.demand_hits.saturating_sub(earlier.demand_hits),
            demand_misses: self.demand_misses.saturating_sub(earlier.demand_misses),
            late_prefetch_hits: self
                .late_prefetch_hits
                .saturating_sub(earlier.late_prefetch_hits),
            useful_prefetch_hits: self
                .useful_prefetch_hits
                .saturating_sub(earlier.useful_prefetch_hits),
            pf_issued: self.pf_issued.saturating_sub(earlier.pf_issued),
            pf_dropped_pq_full: self
                .pf_dropped_pq_full
                .saturating_sub(earlier.pf_dropped_pq_full),
            pf_dropped_present: self
                .pf_dropped_present
                .saturating_sub(earlier.pf_dropped_present),
            pf_dropped_mshr_full: self
                .pf_dropped_mshr_full
                .saturating_sub(earlier.pf_dropped_mshr_full),
            pf_fills: self.pf_fills.saturating_sub(earlier.pf_fills),
            pf_useless_evicted: self
                .pf_useless_evicted
                .saturating_sub(earlier.pf_useless_evicted),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            mshr_full_rejects: self
                .mshr_full_rejects
                .saturating_sub(earlier.mshr_full_rejects),
            miss_latency_sum: self
                .miss_latency_sum
                .saturating_sub(earlier.miss_latency_sum),
            merge_wait_sum: self.merge_wait_sum.saturating_sub(earlier.merge_wait_sum),
            ..Self::default()
        };
        for i in 0..PF_CLASSES {
            d.useful_by_class[i] =
                self.useful_by_class[i].saturating_sub(earlier.useful_by_class[i]);
            d.fills_by_class[i] = self.fills_by_class[i].saturating_sub(earlier.fills_by_class[i]);
            d.rr_drops_by_class[i] =
                self.rr_drops_by_class[i].saturating_sub(earlier.rr_drops_by_class[i]);
        }
        d
    }
}

/// DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Number of channels (set by the DRAM model; utilization divides by it).
    pub channels: u32,
    /// Read bursts serviced.
    pub reads: u64,
    /// Write (write-back) bursts serviced.
    pub writes: u64,
    /// Row-buffer hits among reads.
    pub row_hits: u64,
    /// Row-buffer misses among reads.
    pub row_misses: u64,
    /// Total cycles the data bus was occupied.
    pub bus_busy_cycles: u64,
}

impl DramStats {
    /// Total data traffic in bytes (64 B per burst).
    pub fn traffic_bytes(&self) -> u64 {
        (self.reads + self.writes) * ipcp_mem::LINE_BYTES
    }

    /// Resets all counters (the channel count is preserved).
    pub fn reset(&mut self) {
        *self = Self {
            channels: self.channels,
            ..Self::default()
        };
    }
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// DTLB lookups.
    pub dtlb_accesses: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
    /// STLB misses (page walks).
    pub stlb_misses: u64,
}

impl TlbStats {
    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Per-core statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired (measured phase).
    pub instructions: u64,
    /// Cycles elapsed (measured phase).
    pub cycles: u64,
    /// Cycles in which no instruction retired.
    pub stall_cycles: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }
}

/// The complete result of one simulated core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreReport {
    /// Trace name.
    pub trace: String,
    /// Core counters.
    pub core: CoreStats,
    /// L1-I stats.
    pub l1i: CacheStats,
    /// L1-D stats.
    pub l1d: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// TLB stats.
    pub tlb: TlbStats,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Per-core results.
    pub cores: Vec<CoreReport>,
    /// Shared LLC stats.
    pub llc: CacheStats,
    /// DRAM stats.
    pub dram: DramStats,
    /// Total cycles simulated in the measured phase.
    pub cycles: u64,
    /// Interval time-series (empty unless `SimConfig::sample_interval` is
    /// set — see [`crate::telemetry::Sampler`]). Stored as a shared slice
    /// so cloning a report (or attaching its series to a figure sidecar)
    /// never copies samples.
    pub samples: std::sync::Arc<[crate::telemetry::Sample]>,
    /// Wakeup-scheduler observability counters (`None` unless the
    /// `IPCP_SCHED_STATS` knob is set *and* the fast scheduler ran — see
    /// [`crate::sched::SchedStats`]). Absent from the serialized report
    /// when `None`, so figure outputs stay byte-identical by default.
    pub sched: Option<crate::sched::SchedStats>,
}

impl SimReport {
    /// IPC of core 0 — the headline metric for single-core runs.
    pub fn ipc(&self) -> f64 {
        self.cores.first().map_or(0.0, |c| c.core.ipc())
    }

    /// LLC demand MPKI summed over all cores' instructions — the paper's
    /// "memory intensive" criterion is LLC MPKI ≥ 1.
    pub fn llc_mpki(&self) -> f64 {
        let instr: u64 = self.cores.iter().map(|c| c.core.instructions).sum();
        self.llc.mpki(instr)
    }

    /// DRAM bandwidth utilization in the measured window (0..=1), averaged
    /// across channels.
    pub fn dram_bus_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.dram.bus_busy_cycles as f64
            / (self.cycles as f64 * f64::from(self.dram.channels.max(1)))
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.cores.iter().enumerate() {
            writeln!(
                f,
                "core{i} {}: IPC {:.4}  L1D MPKI {:.2}  L2 MPKI {:.2}",
                c.trace,
                c.core.ipc(),
                c.l1d.mpki(c.core.instructions),
                c.l2.mpki(c.core.instructions),
            )?;
        }
        let instr: u64 = self.cores.iter().map(|c| c.core.instructions).sum();
        writeln!(
            f,
            "LLC MPKI {:.2}  DRAM reads {} writes {} busy {:.1}%",
            self.llc.mpki(instr),
            self.dram.reads,
            self.dram.writes,
            100.0 * self.dram_bus_utilization(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_and_coverage() {
        let mut s = CacheStats::default();
        assert_eq!(s.accuracy(), None);
        assert_eq!(s.coverage(), None);
        s.pf_fills = 100;
        s.useful_prefetch_hits = 80;
        s.demand_misses = 20;
        assert!((s.accuracy().unwrap() - 0.8).abs() < 1e-12);
        assert!((s.coverage().unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn mpki_zero_instructions() {
        let s = CacheStats {
            demand_misses: 5,
            ..Default::default()
        };
        assert_eq!(s.mpki(0), 0.0);
        assert!((s.mpki(1000) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dram_traffic() {
        let d = DramStats {
            reads: 3,
            writes: 1,
            ..Default::default()
        };
        assert_eq!(d.traffic_bytes(), 4 * 64);
    }

    #[test]
    fn core_ipc() {
        let c = CoreStats {
            instructions: 400,
            cycles: 100,
            stall_cycles: 0,
        };
        assert!((c.ipc() - 4.0).abs() < 1e-12);
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn report_display_nonempty() {
        let r = SimReport {
            cores: vec![CoreReport {
                trace: "t".into(),
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(!format!("{r}").is_empty());
    }
}
