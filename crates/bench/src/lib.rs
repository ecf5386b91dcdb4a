//! Figure/table regeneration harness for the IPCP reproduction.
//!
//! One binary per figure and table of the paper (see `src/bin/`); this
//! library provides the named prefetcher [`combos`], the shared [`runner`]
//! machinery (scales, baselines, speedup tables), the parallel [`harness`]
//! (worker pool, alone-IPC cache, JSON result manifests), and the
//! jobs-first sweep surface: typed [`env`] knobs, [`jobspec`] job
//! descriptions and their spec-authoritative executor, the on-disk
//! [`simcache`] that makes a re-run resume a killed sweep, and the
//! [`store`] content-key hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combos;
pub mod env;
pub mod harness;
pub mod jobspec;
pub mod runner;
pub mod simcache;
pub mod store;
