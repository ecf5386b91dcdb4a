//! Figure/table regeneration harness for the IPCP reproduction.
//!
//! Every figure and table of the paper is a function in [`figures`],
//! registered in one ordered table; the `experiments` driver runs them in
//! its own process, and each also has a one-line binary (see `src/bin/`).
//! This library provides the named prefetcher [`combos`], the shared
//! [`runner`] machinery (scales, the [`runner::Experiment`] builder and
//! its simulation memo, speedup tables), the driver's worker pool and
//! JSON results ([`harness`]), typed [`mod@env`] knobs, the [`jobspec`]
//! settings every figure job runs under and its in-process executor, the
//! on-disk [`simcache`] that makes a re-run resume a killed sweep, and the
//! [`store`] content-key hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combos;
pub mod env;
pub mod figures;
pub mod harness;
pub mod jobspec;
pub mod runner;
pub mod simcache;
pub mod store;
