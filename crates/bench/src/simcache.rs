//! Content-addressed, cross-process simulation result cache.
//!
//! Every simulation in this workspace is deterministic: a [`SimReport`] is
//! a pure function of (traces, prefetcher combo, effective [`SimConfig`],
//! simulator code). Different figures — and re-runs of the same sweep —
//! therefore repeat identical simulations; the 27-figure default sweep
//! shares per-trace baselines, alone-IPC denominators, and whole combo
//! runs across experiments. This module memoizes those runs on disk
//! so a warm sweep replays them instead of re-simulating. Every figure
//! simulation is cacheable: registry combos and custom constructions
//! alike.
//!
//! **Key scheme.** A cache key is the plain string
//!
//! ```text
//! v<SIM_BEHAVIOR_VERSION>;traces=<name>+<name>...;combo=<name>;cfg=<Debug of SimConfig>
//! ```
//!
//! The `Debug` rendering of the *effective* config (after any experiment
//! tweak) captures every knob that can change a result — geometry,
//! latencies, instruction counts, seeds, sample interval — so two runs
//! share an entry only when they are the same simulation.
//!
//! `<name>` is a combo-registry name, or `custom:<key>` for prefetchers
//! a figure constructs itself (`Experiment::run_custom`). A custom key is
//! a canonical description of the construction: every constructor with
//! its arguments, and the `Debug` form of any `IpcpConfig`, e.g.
//!
//! ```text
//! custom:l1=IpcpL1(IpcpConfig { .. });l2=Mlop::new(L2);llc=none
//! ```
//!
//! so a figure that edits a table size, an associativity, a priority
//! order or a class subset changes its key without further thought. An
//! IPCP config the registry builds (`ipcp`, `ipcp-l1`, `ipcp-nometa`)
//! runs under the registry name instead (`Experiment::run_ipcp`) and
//! shares its entries with every figure that names the combo. The key is
//! hashed (FNV-1a, 64-bit) into the entry filename, and stored verbatim
//! inside the entry; a load compares the stored key against the requested
//! one, so a hash collision or stale file degrades to a miss, never to a
//! wrong result.
//!
//! **Invalidation rule.** Any change to simulator *behavior* — anything
//! that alters a single counter in any report — MUST bump
//! [`SIM_BEHAVIOR_VERSION`]. That includes changing what a registry combo
//! builds, and what a custom construction builds without changing its
//! key (a new constructor argument the key does not spell out, a changed
//! `*_default()`); a change the key does spell out needs no bump, since
//! it lands in fresh entries. Pure refactors and wall-clock optimizations
//! that keep reports byte-identical (the repo's standing invariant) keep
//! the version. There is no partial invalidation: the version is part of
//! every key, so a bump orphans the whole cache (stale files are inert and
//! can be deleted at will — the default cache lives under `target/`).
//!
//! **Knobs.** The cache is *off* by default (experiments re-simulate,
//! exactly as before). `IPCP_SIMCACHE=1` (or `true`/`on`/`yes`) enables
//! it; `IPCP_SIMCACHE_DIR=<dir>` overrides the default `target/simcache`
//! location. One process shares one cache ([`global`]); each
//! `Experiment` counts its own hits, misses and stores from what
//! [`SimCache::lookup`] reports, so the `experiments` manifest carries
//! them per figure.
//!
//! **Cost of a hit.** A hit reads one entry file (~3.6 KB, about a third
//! of it the stored key) and parses it with the linear-time
//! [`JsonValue::parse`]: ~0.05 ms per hit in perfbench's traced `sweep`
//! run (`bench.simcache.hit_ms`; 2-vCPU x86-64 VM). A warm default-scale
//! serial sweep (27 figures, 2772 hits) takes 0.11–0.18 s there.
//!
//! Corrupt or unreadable entries are *loud*: a warning naming the file and
//! the parse error goes to stderr, then the run recomputes (and rewrites
//! the entry). Silence would hide cache rot; a hard error would couple
//! experiment success to scratch-file health.

use std::ops::AddAssign;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use ipcp_sim::telemetry::{FromJson, JsonValue, ToJson};
use ipcp_sim::{SimConfig, SimReport};

use crate::store::fnv1a_64;

/// Version tag of simulator *behavior*, part of every cache key. Bump on
/// any change that alters any report; keep on byte-identical refactors.
/// v2: the L1 class-suppression fix (a fully RR-filtered class no longer
/// counts toward the 2-class cap, so NL and lower-priority classes fire
/// more often) plus per-class RR-drop counters in the report schema.
/// v3: the MPKI tracker charges misses to one fixed-size window
/// (normalized by `WINDOW_INSTR`, re-anchored to the window grid) instead
/// of averaging over the whole span since the last update — an update
/// that jumps several windows no longer dilutes a bursty miss phase, so
/// NL enable/disable flips on traces with idle gaps or drifting rates.
/// v4: the IP-stride baseline clamps trained strides to its modeled
/// 7-bit signed field (out-of-range deltas no longer train or prefetch),
/// and MLOP's `storage_bits` charges the per-zone prefetched bitmap and
/// rank-based LRU it always kept (4230 → 4758 B in Table III's storage
/// column). The L1-I prefetcher slot itself is report-neutral with the
/// default noop attached.
pub const SIM_BEHAVIOR_VERSION: u32 = 4;

/// Entry-file schema version (the JSON envelope, not the simulator).
const ENTRY_SCHEMA: u64 = 1;

/// The cache key for one simulation (see the module docs for the scheme).
pub fn cache_key(trace_names: &[&str], combo: &str, cfg: &SimConfig) -> String {
    format!(
        "v{SIM_BEHAVIOR_VERSION};traces={};combo={combo};cfg={cfg:?}",
        trace_names.join("+")
    )
}

/// Hit/miss/store counts: of one lookup ([`SimCache::lookup`]), or summed
/// over a figure's or a sweep's lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Simulations answered from disk.
    pub hits: u64,
    /// Simulations actually run (entry absent, corrupt, or mismatched).
    pub misses: u64,
    /// Entries successfully written after a miss.
    pub stores: u64,
}

impl AddAssign for CacheStatsSnapshot {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stores += other.stores;
    }
}

/// A content-addressed on-disk cache of [`SimReport`]s.
#[derive(Debug)]
pub struct SimCache {
    dir: PathBuf,
}

impl SimCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file for a key.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fnv1a_64(key)))
    }

    /// Returns the cached report for (traces, combo, cfg), running `run`
    /// and storing its result on a miss. Concurrent callers with the same
    /// key may both simulate; determinism makes both writes identical and
    /// the atomic rename keeps the entry well-formed either way.
    pub fn get_or_run(
        &self,
        trace_names: &[&str],
        combo: &str,
        cfg: &SimConfig,
        run: impl FnOnce() -> SimReport,
    ) -> SimReport {
        self.lookup(&cache_key(trace_names, combo, cfg), run).0
    }

    /// [`SimCache::get_or_run`] by [`cache_key`], also reporting what the
    /// lookup did: one hit, or one miss plus one store if the entry was
    /// written.
    pub fn lookup(
        &self,
        key: &str,
        run: impl FnOnce() -> SimReport,
    ) -> (SimReport, CacheStatsSnapshot) {
        let path = self.entry_path(key);
        match self.load_report(&path, key) {
            Ok(Some(report)) => {
                let hit = CacheStatsSnapshot {
                    hits: 1,
                    ..CacheStatsSnapshot::default()
                };
                return (report, hit);
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!(
                    "warning: simcache: discarding unusable entry {}: {e}; re-simulating",
                    path.display()
                );
            }
        }
        let report = run();
        let stored = match self.store_report(&path, key, &report) {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "warning: simcache: could not write {}: {e}; result not cached",
                    path.display()
                );
                false
            }
        };
        let miss = CacheStatsSnapshot {
            hits: 0,
            misses: 1,
            stores: u64::from(stored),
        };
        (report, miss)
    }

    /// Loads the report of an entry. `Ok(None)` means "no entry" (a clean
    /// miss); `Err` means the file exists but is unreadable, ill-formed,
    /// or carries a different key (hash collision / stale schema) —
    /// callers warn and recompute.
    fn load_report(&self, path: &Path, key: &str) -> Result<Option<SimReport>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read failed: {e}")),
        };
        let doc = JsonValue::parse(&text).map_err(|e| format!("not valid JSON: {e}"))?;
        match doc.get("schema").and_then(JsonValue::as_u64) {
            Some(ENTRY_SCHEMA) => {}
            other => return Err(format!("entry schema {other:?}, expected {ENTRY_SCHEMA}")),
        }
        match doc.get("key").and_then(JsonValue::as_str) {
            Some(stored) if stored == key => {}
            Some(_) => return Err("key mismatch (hash collision or stale entry)".to_string()),
            None => return Err("entry has no key".to_string()),
        }
        let report = doc.get("report").ok_or("entry has no report")?;
        SimReport::from_json(report)
            .map(Some)
            .map_err(|e| format!("bad report: {e}"))
    }

    /// Writes an entry atomically: temp file in the cache dir, then rename
    /// (readers never observe a partial entry).
    fn store_report(&self, path: &Path, key: &str, report: &SimReport) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let doc = JsonValue::obj()
            .set("schema", ENTRY_SCHEMA)
            .set("key", key)
            .set("report", canonical(report).to_json());
        let tmp = self.dir.join(format!(
            ".tmp-{}-{:016x}",
            std::process::id(),
            fnv1a_64(key)
        ));
        std::fs::write(&tmp, doc.to_json_string())?;
        std::fs::rename(&tmp, path)
    }
}

/// The report as a cache hit returns it: wakeup-scheduler observability
/// counters (`IPCP_SCHED_STATS`) are a per-run diagnostic that no part of
/// the content key captures, so they are stripped before an entry is
/// published, and a warm hit replays the same bytes whether or not the
/// knob was set when the entry was produced.
pub(crate) fn canonical(report: &SimReport) -> SimReport {
    let mut canonical = report.clone();
    canonical.sched = None;
    canonical
}

// ---------------------------------------------------------------------
// The process-global cache (environment-controlled)
// ---------------------------------------------------------------------

/// `Some(cache)` when `IPCP_SIMCACHE` enables caching for this process,
/// `None` otherwise. Resolved once, when the first `Experiment` is
/// created; changing the environment afterwards has no effect.
/// Parsed through the consolidated [`crate::env`] module: a malformed
/// `IPCP_SIMCACHE` value exits loudly instead of silently disabling the
/// cache (the pre-consolidation behavior).
pub fn global() -> Option<&'static SimCache> {
    static GLOBAL: OnceLock<Option<SimCache>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            if !crate::env::or_die(crate::env::simcache_enabled()) {
                return None;
            }
            let dir = crate::env::or_die(crate::env::simcache_dir())
                .unwrap_or_else(|| PathBuf::from("target/simcache"));
            Some(SimCache::new(dir))
        })
        .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combos;
    use ipcp_sim::run_single;
    use ipcp_trace::TraceSource;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipcp-simcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// [`SimCache::lookup`] by the key of (`names`, `combo`, `cfg`),
    /// adding what it did to `stats`.
    fn counted(
        cache: &SimCache,
        stats: &mut CacheStatsSnapshot,
        names: &[&str],
        combo: &str,
        cfg: &SimConfig,
        run: impl FnOnce() -> SimReport,
    ) -> SimReport {
        let (report, did) = cache.lookup(&cache_key(names, combo, cfg), run);
        *stats += did;
        report
    }

    fn quick_cfg() -> SimConfig {
        SimConfig::default().with_instructions(2_000, 10_000)
    }

    fn simulate(combo: &str, cfg: &SimConfig) -> SimReport {
        let traces = ipcp_workloads::memory_intensive_suite();
        let c = combos::build(combo);
        run_single(cfg.clone(), Arc::new(traces[0].clone()), c.l1, c.l2, c.llc)
    }

    #[test]
    fn cached_report_equals_uncached_and_counts_hits() {
        let dir = tmp_dir("roundtrip");
        let cache = SimCache::new(&dir);
        let mut stats = CacheStatsSnapshot::default();
        let cfg = quick_cfg();
        let traces = ipcp_workloads::memory_intensive_suite();
        let names = [traces[0].name()];

        let direct = simulate("ipcp", &cfg);
        let cold = counted(&cache, &mut stats, &names, "ipcp", &cfg, || {
            simulate("ipcp", &cfg)
        });
        assert_eq!(cold, direct, "cold run must return the computed report");
        assert_eq!(
            stats,
            CacheStatsSnapshot {
                hits: 0,
                misses: 1,
                stores: 1
            }
        );

        let warm = counted(&cache, &mut stats, &names, "ipcp", &cfg, || {
            panic!("warm lookup must not re-simulate")
        });
        assert_eq!(warm, direct, "cached report must round-trip exactly");
        assert_eq!(stats.hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Key sensitivity: every input that can change a result must change
    /// the key — traces, combo, and any config field (captured via Debug).
    #[test]
    fn cache_key_separates_distinct_simulations() {
        let cfg = quick_cfg();
        let base = cache_key(&["a"], "ipcp", &cfg);
        assert_ne!(base, cache_key(&["b"], "ipcp", &cfg), "trace in key");
        assert_ne!(base, cache_key(&["a", "b"], "ipcp", &cfg), "mix in key");
        assert_ne!(base, cache_key(&["a"], "none", &cfg), "combo in key");

        let mut c2 = cfg.clone();
        c2.sim_instructions += 1;
        assert_ne!(base, cache_key(&["a"], "ipcp", &c2), "instructions in key");
        let mut c3 = cfg.clone();
        c3.l1d.size_bytes *= 2;
        assert_ne!(base, cache_key(&["a"], "ipcp", &c3), "geometry in key");
        let mut c4 = cfg.clone();
        c4.vmem_seed ^= 1;
        assert_ne!(base, cache_key(&["a"], "ipcp", &c4), "seed in key");
        let mut c5 = cfg.clone();
        c5.sample_interval = Some(1_000);
        assert_ne!(base, cache_key(&["a"], "ipcp", &c5), "sampler in key");

        assert!(
            base.starts_with(&format!("v{SIM_BEHAVIOR_VERSION};")),
            "behavior version prefixes every key: {base}"
        );
    }

    #[test]
    fn corrupt_or_mismatched_entries_recompute_and_repair() {
        let dir = tmp_dir("corrupt");
        let cache = SimCache::new(&dir);
        let mut stats = CacheStatsSnapshot::default();
        let cfg = quick_cfg();
        let traces = ipcp_workloads::memory_intensive_suite();
        let names = [traces[0].name()];
        let direct = simulate("none", &cfg);

        let path = cache.entry_path(&cache_key(&names, "none", &cfg));
        std::fs::create_dir_all(&dir).unwrap();

        // Truncated JSON, well-formed JSON with a different key, and a
        // valid envelope with a mangled report: all must fall back to a
        // recompute that returns the right answer and repairs the entry.
        for garbage in [
            "{\"schema\": 1, \"key\": \"trunc".to_string(),
            JsonValue::obj()
                .set("schema", 1u64)
                .set("key", "some other simulation")
                .set("report", JsonValue::obj())
                .to_json_string(),
            JsonValue::obj()
                .set("schema", 1u64)
                .set("key", cache_key(&names, "none", &cfg))
                .set("report", JsonValue::obj().set("cores", "nope"))
                .to_json_string(),
        ] {
            std::fs::write(&path, garbage).unwrap();
            let got = counted(&cache, &mut stats, &names, "none", &cfg, || {
                simulate("none", &cfg)
            });
            assert_eq!(got, direct, "corrupt entry must recompute, not fail");
        }
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 3);

        // The last recompute rewrote the entry: now a clean hit.
        let warm = counted(&cache, &mut stats, &names, "none", &cfg, || {
            panic!("must hit")
        });
        assert_eq!(warm, direct);
        assert_eq!(stats.hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A custom key with non-ASCII text (2-, 3- and 4-byte characters
    /// and an escaped quote) is stored verbatim and matches on reload.
    #[test]
    fn non_ascii_custom_key_round_trips_as_a_hit() {
        let dir = tmp_dir("utf8");
        let cache = SimCache::new(&dir);
        let mut stats = CacheStatsSnapshot::default();
        let cfg = quick_cfg();
        let combo = "custom:l1=Ipcp(\"é\");l2=Señal(€ 😀);llc=none";
        let direct = simulate("none", &cfg);
        let cold = counted(&cache, &mut stats, &["t"], combo, &cfg, || {
            simulate("none", &cfg)
        });
        assert_eq!(cold, direct);
        assert_eq!(stats.stores, 1);
        let warm = counted(&cache, &mut stats, &["t"], combo, &cfg, || {
            panic!("must hit")
        });
        assert_eq!(warm, direct, "cached report must round-trip exactly");
        assert_eq!(stats.hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_configs_do_not_share_entries() {
        let dir = tmp_dir("distinct");
        let cache = SimCache::new(&dir);
        let mut stats = CacheStatsSnapshot::default();
        let cfg_a = quick_cfg();
        let mut cfg_b = quick_cfg();
        cfg_b.sim_instructions = 12_000;
        let a = counted(&cache, &mut stats, &["t"], "none", &cfg_a, || {
            simulate("none", &cfg_a)
        });
        let b = counted(&cache, &mut stats, &["t"], "none", &cfg_b, || {
            simulate("none", &cfg_b)
        });
        assert_ne!(a, b, "different instruction counts, different reports");
        assert_eq!(stats.misses, 2, "no false sharing between configs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
