//! Shared experiment machinery for the figure/table binaries.
//!
//! The centerpiece is the [`Experiment`] builder: a figure/table binary
//! declares its name, runs simulations through the builder's helpers, and
//! appends [`Table`]s and note lines. [`Experiment::finish`] then renders
//! the same structure three ways:
//!
//! * **aligned text** on stdout (the historical, human-readable form —
//!   byte-identical to the old per-binary `println!` output),
//! * **CSV** per table when `IPCP_CSV=<dir>` is set,
//! * a **JSON sidecar** (`<dir>/<name>.data.json`) when `IPCP_JSON=<dir>`
//!   is set — schema below — carrying every table with *typed* cells plus
//!   any interval time-series collected during the runs
//!   (`IPCP_INTERVAL=<n>` enables the sampler for all runs made through
//!   the builder).
//!
//! Sidecar schema (`schema: 1`):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "name": "fig07_l1_only",
//!   "scale": {"warmup": 100000, "instructions": 400000, "spec": "default"},
//!   "tables": [{"title": "...", "columns": ["trace", ...],
//!               "rows": [["gather", 1.234, ...], ...]}],
//!   "notes": ["paper: ..."],
//!   "series": [{"label": "gather/ipcp", "samples": [{"instructions": ...,
//!               "ipc": ..., "l1d_mpki": ..., ...}, ...]}]
//! }
//! ```
//!
//! Every simulation the builder runs goes through the [`crate::simcache`]
//! layer: a registry combo is stored under its name
//! ([`Experiment::run_combo`]), an explicitly constructed placement under
//! `custom:<key>`, where the key describes the construction
//! ([`Experiment::run_custom`], [`Experiment::run_ipcp`]).
//!
//! The free helpers (`run_combo`, `geomean`, `print_table`, `write_csv`,
//! [`BaselineCache`]) remain available for tests and ad-hoc tools.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ipcp::{IpcpConfig, IpcpL1, IpcpL2};
use ipcp_sim::prefetch::{NoPrefetcher, Prefetcher};
use ipcp_sim::telemetry::{JsonValue, ToJson};
use ipcp_sim::{run_single_with_l1i, SimConfig, SimReport};
use ipcp_trace::TraceSource;
use ipcp_workloads::SynthTrace;

use crate::combos::{self, Combo};
use crate::simcache::{self, SimCache};

/// Warm-up / measured instruction counts for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instructions: u64,
}

/// A malformed `IPCP_SCALE` value, carrying the offending spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidScale {
    /// The spec as given.
    pub spec: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for InvalidScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid IPCP_SCALE {:?}: {} (expected \"paper\" or \"<warmup>,<instructions>\")",
            self.spec, self.reason
        )
    }
}

impl std::error::Error for InvalidScale {}

impl RunScale {
    /// The paper-depth scale selected by `IPCP_SCALE=paper`.
    pub const PAPER: Self = Self {
        warmup: 1_000_000,
        instructions: 4_000_000,
    };

    /// Parses an `IPCP_SCALE` spec: `paper`, or `<warmup>,<instructions>`.
    ///
    /// # Errors
    ///
    /// Any other shape — trailing fields, empty fields, unparseable
    /// numbers, a zero measured count — is an error naming the offending
    /// value; nothing silently falls back to the default.
    pub fn parse(spec: &str) -> Result<Self, InvalidScale> {
        let err = |reason: &str| InvalidScale {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        if spec.trim() == "paper" {
            return Ok(Self::PAPER);
        }
        let fields: Vec<&str> = spec.split(',').collect();
        if fields.len() != 2 {
            return Err(err("expected exactly two comma-separated counts"));
        }
        let parse = |field: &str, what: &str| {
            field.trim().parse::<u64>().map_err(|_| {
                err(&format!(
                    "cannot parse {what} {:?} as a count",
                    field.trim()
                ))
            })
        };
        let warmup = parse(fields[0], "warm-up")?;
        let instructions = parse(fields[1], "instruction count")?;
        if instructions == 0 {
            return Err(err("measured instruction count must be positive"));
        }
        Ok(Self {
            warmup,
            instructions,
        })
    }
}

impl Default for RunScale {
    fn default() -> Self {
        Self {
            warmup: 100_000,
            instructions: 400_000,
        }
    }
}

/// The interval-sampler period selected by `IPCP_INTERVAL` (retired
/// instructions per sample), or `None` when unset/empty. Parsed through
/// the consolidated [`crate::env`] module: a malformed or zero value
/// prints the offending value and exits with status 2 (it used to panic).
pub fn sample_interval_from_env() -> Option<u64> {
    crate::env::or_die(crate::env::interval())
}

/// The config of a single-core run at `scale`. `IPCP_INTERVAL` (if set)
/// enables the interval sampler; config tweaks run afterwards, so they can
/// still override it.
fn run_config(scale: RunScale) -> SimConfig {
    let mut cfg = SimConfig::default().with_instructions(scale.warmup, scale.instructions);
    cfg.sample_interval = sample_interval_from_env();
    cfg
}

/// One single-core simulation of `trace` at `cfg`, answered from `cache`
/// when it holds the entry for (`trace`, `combo`, `cfg`), else built by
/// `build` and run (and stored). `combo` is the registry name or the
/// `custom:<key>` the entry lives under; `build` is called on a miss only.
fn simulate(
    cache: Option<&SimCache>,
    trace: &SynthTrace,
    combo: &str,
    cfg: &SimConfig,
    build: impl FnOnce() -> Combo,
) -> SimReport {
    let run = || {
        let c = build();
        run_single_with_l1i(cfg.clone(), trace.handle(), c.l1i, c.l1, c.l2, c.llc)
    };
    match cache {
        Some(cache) => cache.get_or_run(&[trace.name()], combo, cfg, run),
        None => run(),
    }
}

/// [`run_combo_with`] through an explicit cache (`None`: uncached).
fn run_combo_in(
    cache: Option<&SimCache>,
    combo: &str,
    trace: &SynthTrace,
    scale: RunScale,
    tweak: impl FnOnce(&mut SimConfig),
) -> SimReport {
    let mut cfg = run_config(scale);
    tweak(&mut cfg);
    simulate(cache, trace, combo, &cfg, || combos::build(combo))
}

/// Runs one trace under a named combo with an optional config tweak.
/// `IPCP_INTERVAL` (if set) enables the interval sampler before the tweak
/// runs, so tweaks can still override it.
///
/// Goes through the [`crate::simcache`] layer: with `IPCP_SIMCACHE=1` the
/// run is answered from disk when an identical simulation (same trace,
/// combo, and effective post-tweak config) already ran.
pub fn run_combo_with(
    combo: &str,
    trace: &SynthTrace,
    scale: RunScale,
    tweak: impl FnOnce(&mut SimConfig),
) -> SimReport {
    run_combo_in(simcache::global(), combo, trace, scale, tweak)
}

/// Runs one trace under a named combo at the given scale.
pub fn run_combo(combo: &str, trace: &SynthTrace, scale: RunScale) -> SimReport {
    run_combo_with(combo, trace, scale, |_| {})
}

/// The registry combo that builds IPCP under `cfg` (at the L1, and at the
/// L2 too when `with_l2`), if there is one.
fn ipcp_registry_combo(cfg: &IpcpConfig, with_l2: bool) -> Option<&'static str> {
    let default = IpcpConfig::default();
    if *cfg == default {
        Some(if with_l2 { "ipcp" } else { "ipcp-l1" })
    } else if with_l2 && *cfg == default.without_metadata() {
        Some("ipcp-nometa")
    } else {
        None
    }
}

/// The construction key of IPCP under `cfg` outside the registry: the
/// config's `Debug` form, so editing any of its fields changes the key.
fn ipcp_custom_key(cfg: &IpcpConfig, with_l2: bool) -> String {
    let l2 = if with_l2 {
        format!("IpcpL2({cfg:?})")
    } else {
        "none".to_string()
    };
    format!("l1=IpcpL1({cfg:?});l2={l2};llc=none")
}

/// Geometric mean of a slice (1.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A cache of per-trace baseline (no-prefetching) reports so figures that
/// share traces do not re-run the baseline.
#[derive(Default)]
pub struct BaselineCache {
    scale_key: Option<(u64, u64)>,
    reports: HashMap<String, Arc<SimReport>>,
}

impl BaselineCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (computing if needed) the baseline report for a trace.
    /// The report is shared: cloning the returned `Arc` is free, so callers
    /// that keep the baseline around don't copy counters or samples.
    pub fn get(&mut self, trace: &SynthTrace, scale: RunScale) -> &Arc<SimReport> {
        self.get_in(simcache::global(), trace, scale)
    }

    /// [`BaselineCache::get`] through an explicit simulation cache.
    fn get_in(
        &mut self,
        cache: Option<&SimCache>,
        trace: &SynthTrace,
        scale: RunScale,
    ) -> &Arc<SimReport> {
        let key = (scale.warmup, scale.instructions);
        if self.scale_key != Some(key) {
            self.reports.clear();
            self.scale_key = Some(key);
        }
        let name = trace.name().to_string();
        self.reports
            .entry(name)
            .or_insert_with(|| Arc::new(run_combo_in(cache, "none", trace, scale, |_| {})))
    }
}

// ---------------------------------------------------------------------
// Cells, tables, experiments
// ---------------------------------------------------------------------

/// One table cell: the exact text shown on stdout/CSV plus, for numeric
/// cells, the typed value emitted in the JSON sidecar.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A plain text cell (trace names, storage formulas, ...).
    Text(String),
    /// A numeric cell: `text` is what stdout/CSV show, `value` is what the
    /// sidecar carries.
    Num {
        /// Rendered form, e.g. `"1.234"` or `"87%"`.
        text: String,
        /// The underlying number.
        value: f64,
    },
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Self {
        Self::Text(s.into())
    }

    /// A numeric cell with explicit rendering.
    pub fn num(value: f64, text: impl Into<String>) -> Self {
        Self::Num {
            text: text.into(),
            value,
        }
    }

    /// A numeric cell rendered `{:.3}` — the speedup format.
    pub fn f3(value: f64) -> Self {
        Self::num(value, format!("{value:.3}"))
    }

    /// A numeric cell rendered `{:.2}`.
    pub fn f2(value: f64) -> Self {
        Self::num(value, format!("{value:.2}"))
    }

    /// An integer cell.
    pub fn int(value: u64) -> Self {
        Self::num(value as f64, value.to_string())
    }

    /// A percentage cell: `value` is in percent and rendered with
    /// `decimals` fraction digits plus a `%` sign.
    pub fn pct(value: f64, decimals: usize) -> Self {
        Self::num(value, format!("{value:.decimals$}%"))
    }

    /// The rendered text (stdout / CSV form).
    pub fn as_text(&self) -> &str {
        match self {
            Self::Text(s) => s,
            Self::Num { text, .. } => text,
        }
    }

    fn to_json(&self) -> JsonValue {
        match self {
            Self::Text(s) => JsonValue::Str(s.clone()),
            Self::Num { value, .. } => {
                // Integral values serialize as JSON integers so counters
                // stay exact and diffs stay clean.
                if value.fract() == 0.0 && value.abs() < 9e15 {
                    JsonValue::Int(*value as i64)
                } else {
                    JsonValue::Num(*value)
                }
            }
        }
    }
}

/// One titled table: columns plus typed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title, printed as `== title`.
    pub title: String,
    /// Subtitle lines printed verbatim under the title (e.g. the scale
    /// note); not part of the CSV/JSON payload.
    pub subtitles: Vec<String>,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A new empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            subtitles: Vec::new(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a subtitle line (builder style).
    #[must_use]
    pub fn subtitle(mut self, line: impl Into<String>) -> Self {
        self.subtitles.push(line.into());
        self
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        self.rows.push(cells);
    }

    fn text_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|r| r.iter().map(|c| c.as_text().to_string()).collect())
            .collect()
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("title", self.title.as_str())
            .set(
                "columns",
                JsonValue::Arr(
                    self.columns
                        .iter()
                        .map(|c| JsonValue::Str(c.clone()))
                        .collect(),
                ),
            )
            .set(
                "rows",
                JsonValue::Arr(
                    self.rows
                        .iter()
                        .map(|r| JsonValue::Arr(r.iter().map(Cell::to_json).collect()))
                        .collect(),
                ),
            )
    }
}

/// Renders an aligned table (header, dash rule, rows) to a string — the
/// workspace's canonical text-table form.
pub fn format_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |row: &[String]| {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i.min(cols - 1)]))
            .collect();
        cells.join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  "),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    print!("{}", format_table(header, rows));
}

/// An ordered output item of an experiment.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    Table(Table),
    Note(String),
    Blank,
}

/// A labeled interval time-series collected from one simulation run. The
/// samples are shared with the originating [`SimReport`] — attaching a
/// series is an `Arc` bump, not a copy.
#[derive(Debug, Clone, PartialEq)]
struct SeriesEntry {
    label: String,
    samples: Arc<[ipcp_sim::telemetry::Sample]>,
}

/// Aggregate of the wakeup-scheduler counters over every report attached
/// to an experiment (non-empty only when `IPCP_SCHED_STATS` was set for
/// the runs). Sums are totals across runs; `heap_peak` is the maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SchedAgg {
    runs: u64,
    wakeups_fired: u64,
    executed_cycles: u64,
    skipped_cycles: u64,
    heap_peak: u64,
}

/// One figure/table experiment: owns the run scale, the baseline cache,
/// and the ordered output (tables and notes), and renders everything on
/// [`Experiment::finish`]. See the module docs for the three output forms.
pub struct Experiment {
    name: String,
    scale: RunScale,
    /// The raw `IPCP_SCALE` spec, or `None` when the scale came from the
    /// default (possibly overridden by [`Experiment::default_scale`]).
    scale_spec: Option<String>,
    baselines: BaselineCache,
    /// The simulation cache every run goes through: the process-global
    /// one (`None` when `IPCP_SIMCACHE` is off).
    cache: Option<&'static SimCache>,
    items: Vec<Item>,
    series: Vec<SeriesEntry>,
    sched: SchedAgg,
}

impl Experiment {
    /// Starts an experiment, resolving the scale from `IPCP_SCALE`. On a
    /// malformed value this prints the offending spec and exits with
    /// status 2 — experiments must never silently run at the wrong scale.
    pub fn new(name: &str) -> Self {
        let scale = crate::env::or_die(crate::env::scale());
        let scale_spec = crate::env::or_die(crate::env::raw("IPCP_SCALE"));
        Self::with_scale_spec(name, scale, scale_spec)
    }

    /// Starts an experiment at an explicit scale, ignoring the environment
    /// (used by tests).
    pub fn with_scale(name: &str, scale: RunScale) -> Self {
        Self::with_scale_spec(name, scale, None)
    }

    fn with_scale_spec(name: &str, scale: RunScale, scale_spec: Option<String>) -> Self {
        Self {
            name: name.to_string(),
            scale,
            scale_spec,
            baselines: BaselineCache::new(),
            cache: simcache::global(),
            items: Vec::new(),
            series: Vec::new(),
            sched: SchedAgg::default(),
        }
    }

    /// The experiment name (binary name, sidecar stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resolved run scale.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// Overrides the scale used when `IPCP_SCALE` is *unset* — for
    /// experiments whose defaults differ from the global quick scale
    /// (fig15's mixes, ext_temporal's long recurrence distances). An
    /// explicit `IPCP_SCALE` still wins.
    pub fn default_scale(&mut self, scale: RunScale) {
        if self.scale_spec.is_none() {
            self.scale = scale;
        }
    }

    // -- running simulations ------------------------------------------

    /// Runs `trace` under `combo` at the experiment scale, collecting any
    /// interval series under the label `<trace>/<combo>`.
    pub fn run_combo(&mut self, combo: &str, trace: &SynthTrace) -> SimReport {
        self.run_combo_with(combo, trace, |_| {})
    }

    /// [`Experiment::run_combo`] with a config tweak.
    pub fn run_combo_with(
        &mut self,
        combo: &str,
        trace: &SynthTrace,
        tweak: impl FnOnce(&mut SimConfig),
    ) -> SimReport {
        let r = run_combo_in(self.cache, combo, trace, self.scale, tweak);
        self.attach_series(format!("{}/{combo}", trace.name()), &r);
        r
    }

    /// Runs prefetchers constructed outside the combo registry: `build`
    /// returns the (L1-D, L2, LLC) prefetchers (the L1-I slot stays
    /// empty) and is called only when the simulation cache misses. Any
    /// series is labeled `<trace>/<label>`.
    ///
    /// The entry is stored under `custom:<key>`, so `key` must describe
    /// the construction canonically: two calls share an entry exactly when
    /// their keys match. Spell out every constructor and its arguments,
    /// with `{cfg:?}` for any [`IpcpConfig`], so that editing what `build`
    /// constructs changes the key by itself (see the [`crate::simcache`]
    /// invalidation rule).
    pub fn run_custom(
        &mut self,
        label: &str,
        key: &str,
        trace: &SynthTrace,
        build: impl FnOnce() -> (
            Box<dyn Prefetcher>,
            Box<dyn Prefetcher>,
            Box<dyn Prefetcher>,
        ),
    ) -> SimReport {
        let cfg = run_config(self.scale);
        let r = simulate(self.cache, trace, &format!("custom:{key}"), &cfg, || {
            let (l1, l2, llc) = build();
            Combo {
                l1i: Box::new(NoPrefetcher),
                l1,
                l2,
                llc,
            }
        });
        self.attach_series(format!("{}/{label}", trace.name()), &r);
        r
    }

    /// Runs IPCP under `cfg` at the L1, and at the L2 too when `with_l2`,
    /// labeling any series `<trace>/<label>`. A config the combo registry
    /// builds (`ipcp`, `ipcp-l1`, `ipcp-nometa`) runs as that combo, so it
    /// shares its cache entries with every figure that names the combo;
    /// any other config runs as a custom construction keyed by its
    /// `Debug` form.
    pub fn run_ipcp(
        &mut self,
        label: &str,
        trace: &SynthTrace,
        cfg: &IpcpConfig,
        with_l2: bool,
    ) -> SimReport {
        let Some(combo) = ipcp_registry_combo(cfg, with_l2) else {
            return self.run_custom(label, &ipcp_custom_key(cfg, with_l2), trace, || {
                let l2: Box<dyn Prefetcher> = if with_l2 {
                    Box::new(IpcpL2::new(cfg.clone()))
                } else {
                    Box::new(NoPrefetcher)
                };
                (
                    Box::new(IpcpL1::new(cfg.clone())),
                    l2,
                    Box::new(NoPrefetcher),
                )
            });
        };
        let r = run_combo_in(self.cache, combo, trace, self.scale, |_| {});
        self.attach_series(format!("{}/{label}", trace.name()), &r);
        r
    }

    /// The cached no-prefetching baseline report for a trace (a shared
    /// handle — cloning it does not copy the report).
    pub fn baseline(&mut self, trace: &SynthTrace) -> Arc<SimReport> {
        Arc::clone(self.baselines.get_in(self.cache, trace, self.scale))
    }

    /// The cached no-prefetching baseline IPC for a trace.
    pub fn baseline_ipc(&mut self, trace: &SynthTrace) -> f64 {
        self.baselines.get_in(self.cache, trace, self.scale).ipc()
    }

    /// Attaches a report's interval time-series (if any) to the sidecar
    /// under `label`. Runs made through the experiment helpers attach
    /// automatically; use this for reports produced by hand-rolled
    /// [`ipcp_sim::System`] setups.
    pub fn attach_series(&mut self, label: impl Into<String>, report: &SimReport) {
        // Scheduler observability rides along with series attachment: every
        // run helper funnels its report through here, so a sidecar's
        // `sched` block covers the same runs its tables do — with the
        // simulation cache on, only those that missed (cached entries are
        // stored without scheduler counters).
        if let Some(st) = report.sched {
            self.sched.runs += 1;
            self.sched.wakeups_fired += st.wakeups_fired;
            self.sched.executed_cycles += st.executed_cycles;
            self.sched.skipped_cycles += st.skipped_cycles;
            self.sched.heap_peak = self.sched.heap_peak.max(st.heap_peak);
        }
        if !report.samples.is_empty() {
            self.series.push(SeriesEntry {
                label: label.into(),
                samples: report.samples.clone(),
            });
        }
    }

    // -- collecting output --------------------------------------------

    /// Appends a table.
    pub fn table(&mut self, table: Table) {
        self.items.push(Item::Table(table));
    }

    /// Appends a free-form note line (the `paper: ...` footers).
    pub fn note(&mut self, line: impl Into<String>) {
        self.items.push(Item::Note(line.into()));
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.items.push(Item::Blank);
    }

    /// The standard speedup comparison: every trace × every combo,
    /// normalized to no prefetching, as a table with a geomean footer.
    /// Returns per-combo speedup lists in trace order.
    ///
    /// The (trace × combo) simulations — including the per-trace
    /// baselines — are independent, so they fan out across `IPCP_JOBS`
    /// workers through [`crate::harness::parallel_map`]. Results are
    /// assembled in input order and every simulation is deterministic, so
    /// the output is byte-identical for any worker count.
    pub fn speedup_comparison(
        &mut self,
        title: &str,
        traces: &[SynthTrace],
        combo_names: &[&str],
    ) -> HashMap<String, Vec<f64>> {
        let scale = self.scale;
        // One baseline job per trace, then one job per (trace, combo).
        let mut jobs: Vec<(SynthTrace, String)> = Vec::new();
        for trace in traces {
            jobs.push((trace.clone(), "none".to_string()));
            for &combo in combo_names {
                jobs.push((trace.clone(), combo.to_string()));
            }
        }
        let reports = crate::harness::parallel_map(
            crate::harness::jobs_from_env(),
            jobs.clone(),
            |(t, c)| run_combo(&c, &t, scale),
        );
        for ((trace, combo), report) in jobs.iter().zip(&reports) {
            self.attach_series(format!("{}/{combo}", trace.name()), report);
        }
        let mut results: HashMap<String, Vec<f64>> = HashMap::new();
        let mut columns = vec!["trace"];
        columns.extend_from_slice(combo_names);
        let mut table = Table::new(title, &columns).subtitle(format!(
            "   (scale: {}k warm-up + {}k measured instructions; speedups normalized to no prefetching)",
            scale.warmup / 1000,
            scale.instructions / 1000
        ));
        let per_trace = 1 + combo_names.len();
        for (ti, trace) in traces.iter().enumerate() {
            let base_ipc = reports[ti * per_trace].ipc();
            let mut row = vec![Cell::text(trace.name())];
            for (ci, &combo) in combo_names.iter().enumerate() {
                let sp = reports[ti * per_trace + 1 + ci].ipc() / base_ipc;
                results.entry(combo.to_string()).or_default().push(sp);
                row.push(Cell::f3(sp));
            }
            table.row(row);
        }
        let mut footer = vec![Cell::text("GEOMEAN")];
        for &combo in combo_names {
            footer.push(Cell::f3(geomean(&results[combo])));
        }
        table.row(footer);
        self.table(table);
        results
    }

    // -- rendering -----------------------------------------------------

    /// The aligned-text rendering (exactly what `finish` prints).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            match item {
                Item::Table(t) => {
                    out.push_str(&format!("== {}\n", t.title));
                    for s in &t.subtitles {
                        out.push_str(s);
                        out.push('\n');
                    }
                    out.push_str(&format_table(&t.columns, &t.text_rows()));
                }
                Item::Note(line) => {
                    out.push_str(line);
                    out.push('\n');
                }
                Item::Blank => out.push('\n'),
            }
        }
        out
    }

    /// The JSON sidecar document.
    pub fn sidecar_json(&self) -> JsonValue {
        let mut v = JsonValue::obj()
            .set("schema", 1i64)
            .set("name", self.name.as_str())
            .set(
                "scale",
                JsonValue::obj()
                    .set("warmup", self.scale.warmup)
                    .set("instructions", self.scale.instructions)
                    .set(
                        "spec",
                        self.scale_spec.clone().unwrap_or_else(|| "default".into()),
                    ),
            )
            .set(
                "tables",
                JsonValue::Arr(
                    self.items
                        .iter()
                        .filter_map(|i| match i {
                            Item::Table(t) => Some(t.to_json()),
                            _ => None,
                        })
                        .collect(),
                ),
            )
            .set(
                "notes",
                JsonValue::Arr(
                    self.items
                        .iter()
                        .filter_map(|i| match i {
                            Item::Note(line) => Some(JsonValue::Str(line.clone())),
                            _ => None,
                        })
                        .collect(),
                ),
            );
        if !self.series.is_empty() {
            v.insert(
                "series",
                JsonValue::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            JsonValue::obj().set("label", s.label.as_str()).set(
                                "samples",
                                JsonValue::Arr(s.samples.iter().map(ToJson::to_json).collect()),
                            )
                        })
                        .collect(),
                ),
            );
        }
        // Present only when the runs carried scheduler counters
        // (`IPCP_SCHED_STATS`): default sidecars stay byte-identical.
        if self.sched.runs > 0 {
            v.insert(
                "sched",
                JsonValue::obj()
                    .set("runs", self.sched.runs)
                    .set("wakeups_fired", self.sched.wakeups_fired)
                    .set("executed_cycles", self.sched.executed_cycles)
                    .set("skipped_cycles", self.sched.skipped_cycles)
                    .set("heap_peak", self.sched.heap_peak),
            );
        }
        v
    }

    /// Writes the JSON sidecar to `<dir>/<name>.data.json`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_sidecar(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.data.json", self.name));
        std::fs::write(&path, self.sidecar_json().to_pretty_string())?;
        Ok(path)
    }

    /// Writes each table as `<dir>/<slug>.csv` (slug: title with
    /// non-alphanumerics mapped to `_`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the files.
    pub fn write_csvs(&self, dir: &Path) -> std::io::Result<()> {
        for item in &self.items {
            let Item::Table(t) = item else { continue };
            let slug: String = t
                .title
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            write_csv(
                &Path::new(dir).join(format!("{slug}.csv")),
                &t.columns,
                &t.text_rows(),
            )?;
        }
        Ok(())
    }

    /// Renders everything: aligned text to stdout, CSVs when
    /// `IPCP_CSV=<dir>` is set, the JSON sidecar when `IPCP_JSON=<dir>` is
    /// set (an empty value disables it). Render failures on the CSV/JSON
    /// side paths warn but do not fail the experiment.
    pub fn finish(self) {
        print!("{}", self.render_text());
        crate::simcache::flush_stats();
        if let Some(dir) = crate::env::or_die(crate::env::csv_dir()) {
            if let Err(e) = self.write_csvs(&dir) {
                eprintln!("warning: could not write CSVs to {}: {e}", dir.display());
            }
        }
        if let Some(dir) = crate::env::or_die(crate::env::json_dir()) {
            if let Err(e) = self.write_sidecar(&dir) {
                eprintln!(
                    "warning: could not write {}.data.json to {}: {e}",
                    self.name,
                    dir.display()
                );
            }
        }
    }
}

/// Writes a header + rows as CSV.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_csv(
    path: &std::path::Path,
    header: &[String],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn scale_parse_accepts_valid_specs() {
        assert_eq!(RunScale::parse("paper").unwrap(), RunScale::PAPER);
        assert_eq!(
            RunScale::parse("10000,40000").unwrap(),
            RunScale {
                warmup: 10_000,
                instructions: 40_000
            }
        );
        assert_eq!(
            RunScale::parse(" 5000 , 20000 ").unwrap(),
            RunScale {
                warmup: 5_000,
                instructions: 20_000
            }
        );
    }

    /// Satellite regression: malformed IPCP_SCALE values must be errors
    /// carrying the offending spec, never silent defaults.
    #[test]
    fn scale_parse_rejects_malformed_specs() {
        for bad in [
            "paper,",
            "",
            ",",
            "10000",
            "10a,40000",
            "10000,40b",
            "1,2,3",
            "10000,",
            ",40000",
            "10000,0",
            "-5,100",
        ] {
            let err = RunScale::parse(bad).unwrap_err();
            assert_eq!(err.spec, bad, "error must carry the offending value");
            assert!(
                err.to_string().contains(&format!("{bad:?}")),
                "message must show the spec: {err}"
            );
        }
    }

    #[test]
    fn baseline_cache_reuses() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[0];
        let scale = RunScale {
            warmup: 5_000,
            instructions: 20_000,
        };
        let mut cache = BaselineCache::new();
        let a = cache.get(t, scale).ipc();
        let b = cache.get(t, scale).ipc();
        assert_eq!(a, b);
    }

    #[test]
    fn run_combo_quick_smoke() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let scale = RunScale {
            warmup: 5_000,
            instructions: 20_000,
        };
        let r = run_combo("ipcp", &traces[1], scale);
        assert!(r.ipc() > 0.0);
        assert!(r.cores[0].l1d.pf_issued > 0);
    }

    #[test]
    fn format_table_aligns_and_rules() {
        let header = vec!["trace".to_string(), "ipcp".to_string()];
        let rows = vec![
            vec!["gather".to_string(), "1.234".to_string()],
            vec!["s".to_string(), "0.9".to_string()],
        ];
        let out = format_table(&header, &rows);
        assert_eq!(
            out,
            " trace   ipcp\n------  -----\ngather  1.234\n     s    0.9\n"
        );
    }

    #[test]
    fn experiment_renders_items_in_order() {
        let mut exp = Experiment::with_scale("demo", RunScale::default());
        let mut t = Table::new("Demo table", &["trace", "x"]).subtitle("   (sub)");
        t.row(vec![Cell::text("a"), Cell::f3(1.5)]);
        exp.table(t);
        exp.blank();
        exp.note("paper: demo note");
        let text = exp.render_text();
        assert_eq!(
            text,
            "== Demo table\n   (sub)\ntrace      x\n-----  -----\n    a  1.500\n\npaper: demo note\n"
        );
    }

    #[test]
    fn experiment_sidecar_schema() {
        let mut exp = Experiment::with_scale(
            "demo",
            RunScale {
                warmup: 5_000,
                instructions: 20_000,
            },
        );
        let mut t = Table::new("Demo table", &["trace", "speedup", "count", "share"]);
        t.row(vec![
            Cell::text("a"),
            Cell::f3(1.2345),
            Cell::int(42),
            Cell::pct(87.3, 1),
        ]);
        exp.table(t);
        exp.note("n1");
        let j = exp.sidecar_json();
        assert_eq!(j.get("schema").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("name").unwrap().as_str(), Some("demo"));
        let scale = j.get("scale").unwrap();
        assert_eq!(scale.get("warmup").unwrap().as_u64(), Some(5_000));
        assert_eq!(scale.get("spec").unwrap().as_str(), Some("default"));
        let tables = j.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        let row = &tables[0].get("rows").unwrap().as_array().unwrap()[0];
        let cells = row.as_array().unwrap();
        assert_eq!(cells[0].as_str(), Some("a"));
        assert_eq!(cells[1].as_f64(), Some(1.2345));
        assert_eq!(cells[2].as_u64(), Some(42), "integral cells are integers");
        assert_eq!(cells[3].as_f64(), Some(87.3), "pct cells carry percent");
        assert!(j.get("series").is_none(), "no runs ⇒ no series key");
        // The document survives a parse round-trip.
        let rendered = j.to_pretty_string();
        assert_eq!(
            JsonValue::parse(&rendered).unwrap().to_pretty_string(),
            rendered
        );
    }

    #[test]
    fn experiment_sidecar_writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("ipcp-sidecar-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut exp = Experiment::with_scale("demo_exp", RunScale::default());
        exp.table(Table::new("T", &["a"]));
        let path = exp.write_sidecar(&dir).unwrap();
        assert_eq!(path, dir.join("demo_exp.data.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("demo_exp"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_collects_series_from_sampled_runs() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let mut exp = Experiment::with_scale(
            "series_demo",
            RunScale {
                warmup: 2_000,
                instructions: 10_000,
            },
        );
        // No IPCP_INTERVAL in the test env: enable sampling via the tweak.
        let r = exp.run_combo_with("ipcp", &traces[0], |cfg| {
            cfg.sample_interval = Some(2_000);
        });
        assert!(!r.samples.is_empty());
        let j = exp.sidecar_json();
        let series = j.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(
            series[0].get("label").unwrap().as_str(),
            Some(format!("{}/ipcp", traces[0].name()).as_str())
        );
        let samples = series[0].get("samples").unwrap().as_array().unwrap();
        assert_eq!(samples.len(), r.samples.len());
        for key in ["instructions", "ipc", "l1d_mpki", "dram_bus_utilization"] {
            assert!(samples[0].get(key).is_some(), "sample missing {key}");
        }
    }

    const QUICK: RunScale = RunScale {
        warmup: 2_000,
        instructions: 10_000,
    };

    /// An experiment at [`QUICK`] scale whose runs go through a fresh
    /// cache in a temp dir (leaked: the field wants the global's lifetime).
    fn cached_experiment(tag: &str) -> (Experiment, &'static SimCache, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ipcp-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache: &'static SimCache = Box::leak(Box::new(SimCache::new(&dir)));
        let mut exp = Experiment::with_scale(tag, QUICK);
        exp.cache = Some(cache);
        (exp, cache, dir)
    }

    fn counts(cache: &SimCache) -> (u64, u64) {
        let s = cache.stats();
        (s.hits, s.misses)
    }

    #[test]
    fn custom_runs_are_cached_under_their_key() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[1];
        let cfg = IpcpConfig::with_only(&[ipcp::IpClass::Cs]);
        let direct = ipcp_sim::run_single(
            run_config(QUICK),
            t.handle(),
            Box::new(IpcpL1::new(cfg.clone())),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
        );
        let (mut exp, cache, dir) = cached_experiment("custom");
        let key = ipcp_custom_key(&cfg, false);
        let cold = exp.run_custom("cs", &key, t, || {
            (
                Box::new(IpcpL1::new(cfg.clone())),
                Box::new(NoPrefetcher),
                Box::new(NoPrefetcher),
            )
        });
        assert_eq!(cold, direct, "a keyed run equals the uncached run_single");
        assert_eq!(counts(cache), (0, 1));
        let warm = exp.run_custom("cs", &key, t, || panic!("a hit must not build"));
        assert_eq!(
            warm.to_json().to_json_string(),
            direct.to_json().to_json_string()
        );
        assert_eq!(counts(cache), (1, 1));
        // The entry is keyed by the construction, not the label.
        let other = exp.run_custom("another label", &key, t, || panic!("must hit"));
        assert_eq!(other, direct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_ipcp_shares_the_registry_combos_entries() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[1];
        let (mut exp, cache, dir) = cached_experiment("registry");
        let default = IpcpConfig::default();
        for (combo, cfg, with_l2) in [
            ("ipcp", default.clone(), true),
            ("ipcp-l1", default.clone(), false),
            ("ipcp-nometa", default.clone().without_metadata(), true),
        ] {
            let (hits, misses) = counts(cache);
            let by_name = exp.run_combo(combo, t);
            assert_eq!(counts(cache), (hits, misses + 1), "{combo} is a cold miss");
            let by_cfg = exp.run_ipcp("variant", t, &cfg, with_l2);
            assert_eq!(
                counts(cache),
                (hits + 1, misses + 1),
                "run_ipcp must hit the {combo} entry"
            );
            assert_eq!(
                by_cfg.to_json().to_json_string(),
                by_name.to_json().to_json_string(),
                "{combo}"
            );
            assert_eq!(ipcp_registry_combo(&cfg, with_l2), Some(combo));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every IPCP variant the ablation and sensitivity figures run gets a
    /// key of its own; variants equal to a registry combo share its key.
    #[test]
    fn ipcp_figure_variants_have_distinct_keys() {
        use ipcp::IpClass::{Cplx, Cs, Gs, NoClass};
        let default = IpcpConfig::default();
        let mut variants: Vec<(IpcpConfig, bool)> = vec![
            // fig13a: class subsets, L1 only, plus the full bouquet.
            (IpcpConfig::with_only(&[Cs]), false),
            (IpcpConfig::with_only(&[Cplx]), false),
            (IpcpConfig::with_only(&[Gs]), false),
            (IpcpConfig::with_only(&[Cs, Cplx]), false),
            (IpcpConfig::with_only(&[Cs, Cplx, NoClass]), false),
            (default.clone(), false),
            (default.clone(), true),
            // Not a figure row: the L2 choice is part of a custom key.
            (IpcpConfig::with_only(&[Cs]), true),
            // fig13b: priority orders and the metadata ablation.
            (default.clone().without_metadata(), true),
        ];
        for order in [
            [Gs, Cs, Cplx],
            [Cs, Gs, Cplx],
            [Cplx, Cs, Gs],
            [Cs, Cplx, Gs],
        ] {
            variants.push((default.clone().with_priority(order), true));
        }
        // sens_tables: table-size multipliers.
        for mult in [1, 2, 4, 16] {
            let cfg = IpcpConfig {
                ip_table_entries: default.ip_table_entries * mult,
                cspt_entries: default.cspt_entries * mult,
                rst_entries: default.rst_entries * mult,
                ..default.clone()
            };
            variants.push((cfg, true));
        }
        // sens_ip_assoc: IP-table shapes.
        for (entries, ways) in [(64, 1), (256, 4), (1024, 16), (4096, 64)] {
            let cfg = IpcpConfig {
                ip_table_entries: entries,
                ip_table_ways: ways,
                ..default.clone()
            };
            variants.push((cfg, true));
        }
        let key = |cfg: &IpcpConfig, with_l2: bool| {
            ipcp_registry_combo(cfg, with_l2).map_or_else(
                || format!("custom:{}", ipcp_custom_key(cfg, with_l2)),
                str::to_string,
            )
        };
        for (i, a) in variants.iter().enumerate() {
            for b in &variants[i + 1..] {
                assert_eq!(
                    key(&a.0, a.1) == key(&b.0, b.1),
                    a == b,
                    "keys must match exactly when constructions do:\n{a:?}\n{b:?}"
                );
            }
        }
        assert_eq!(key(&default, true), "ipcp", "the paper config is the combo");
    }

    #[test]
    fn default_scale_yields_to_explicit_env_spec() {
        let mut exp = Experiment::with_scale_spec(
            "demo",
            RunScale {
                warmup: 1,
                instructions: 2,
            },
            Some("1,2".into()),
        );
        exp.default_scale(RunScale::PAPER);
        assert_eq!(
            exp.scale(),
            RunScale {
                warmup: 1,
                instructions: 2
            },
            "explicit IPCP_SCALE wins over an experiment default"
        );
        let mut exp = Experiment::with_scale("demo", RunScale::default());
        exp.default_scale(RunScale::PAPER);
        assert_eq!(exp.scale(), RunScale::PAPER);
    }
}
