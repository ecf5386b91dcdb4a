//! A ChampSim-like trace-driven timing simulator, built as the substrate for
//! reproducing *Bouquet of Instruction Pointers* (ISCA 2020).
//!
//! The simulator models the Table II machine: a 4-wide, 256-entry-ROB core
//! per trace; private L1I/L1D/L2 caches with MSHRs, demand ports, and FIFO
//! prefetch queues; a shared LLC; TLBs over a deterministic virtual-memory
//! mapper; and a banked, bus-limited DRAM. Prefetchers attach at L1-D, L2,
//! and LLC via the [`prefetch::Prefetcher`] trait, and the L1→L2 metadata
//! channel that multi-level IPCP uses is a first-class citizen
//! ([`prefetch::MetadataArrival`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use ipcp_sim::{SimConfig, run_single, prefetch::NoPrefetcher};
//! use ipcp_trace::{Instr, VecTrace};
//!
//! // A tiny streaming trace.
//! let instrs: Vec<Instr> = (0..50_000u64)
//!     .map(|i| Instr::load(0x400000, 0x1000000 + i * 64))
//!     .collect();
//! let cfg = SimConfig::default().with_instructions(1_000, 10_000);
//! let report = run_single(
//!     cfg,
//!     Arc::new(VecTrace::new("stream", instrs)),
//!     Box::new(NoPrefetcher),
//!     Box::new(NoPrefetcher),
//!     Box::new(NoPrefetcher),
//! );
//! assert!(report.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod check;
pub mod config;
pub mod dram;
pub mod prefetch;
pub mod replacement;
pub mod sched;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod tlb;
pub mod vmem;

pub use check::{CheckHandle, CheckedPrefetcher};
pub use config::{
    CacheConfig, CoreConfig, Cycle, DramConfig, ReplacementKind, SimConfig, TlbConfig,
};
pub use sched::SchedStats;
pub use stats::{CacheStats, CoreReport, CoreStats, DramStats, SimReport, TlbStats};
pub use system::{run_single, run_single_with_l1i, weighted_speedup, CoreSetup, System};
pub use telemetry::{FromJson, JsonValue, Sample, Sampler, ToJson};
