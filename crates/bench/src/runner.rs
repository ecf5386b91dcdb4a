//! Shared experiment machinery for the figures.
//!
//! The centerpiece is the [`Experiment`] builder: a figure (see
//! [`crate::figures`]) runs simulations through the builder's helpers and
//! appends [`Table`]s and note lines. The builder then renders the same
//! structure three ways:
//!
//! * **aligned text** ([`Experiment::render_text`]; the figure binaries
//!   print it, the `experiments` driver writes it to `<name>.txt`),
//! * **CSV** per table when the job's `csv_dir` (`IPCP_CSV`) is set,
//! * a **JSON sidecar** (`<dir>/<name>.data.json`) when its `json_dir`
//!   (`IPCP_JSON`) is set — schema below — carrying every table with
//!   *typed* cells plus any interval time-series collected during the runs
//!   (the `interval` setting, `IPCP_INTERVAL`, enables the sampler for all
//!   runs made through the builder).
//!
//! Everything an experiment depends on comes in as a typed [`JobSpec`];
//! nothing here reads the environment.
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
//! Every simulation the builder runs is keyed by [`simcache::cache_key`]:
//! a registry combo under its name ([`Experiment::run_combo`]), an
//! explicitly constructed placement under `custom:<key>`, where the key
//! describes the construction ([`Experiment::run_custom`],
//! [`Experiment::run_ipcp`]). A key runs at most once per experiment: the
//! experiment memoizes every report it gets, in front of the on-disk
//! [`crate::simcache`] tier (when that is on).

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ipcp::{IpcpConfig, IpcpL1, IpcpL2};
use ipcp_sim::prefetch::{NoPrefetcher, Prefetcher};
use ipcp_sim::telemetry::{JsonValue, ToJson};
use ipcp_sim::{run_single_with_l1i, CoreSetup, SimConfig, SimReport, System};
use ipcp_trace::TraceSource;
use ipcp_workloads::SynthTrace;

use crate::combos::{self, Combo};
use crate::jobspec::JobSpec;
use crate::simcache::{self, CacheStatsSnapshot, SimCache};

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

/// One figure/table experiment: owns its settings, the run scale, the
/// memo of its simulations, and the ordered output (tables and notes).
/// See the module docs for the three output forms.
pub struct Experiment {
    name: String,
    spec: JobSpec,
    scale: RunScale,
    /// The on-disk tier every run goes through: the process-global cache
    /// (`None` when `IPCP_SIMCACHE` is off).
    cache: Option<&'static SimCache>,
    /// What this experiment's disk-tier lookups did.
    cache_stats: CacheStatsSnapshot,
    /// Every report this experiment got, by [`simcache::cache_key`], as a
    /// disk-tier hit returns it ([`simcache::canonical`]).
    memo: HashMap<String, SimReport>,
    items: Vec<Item>,
    series: Vec<SeriesEntry>,
    sched: SchedAgg,
}

impl Experiment {
    /// Starts experiment `name` under `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec.scale` is not a valid `IPCP_SCALE` spec
    /// ([`JobSpec::from_ambient`] and [`JobSpec::scale_spec`] reject those
    /// up front).
    pub fn new(name: &str, spec: &JobSpec) -> Self {
        let scale = spec.scale.as_deref().map_or_else(RunScale::default, |s| {
            RunScale::parse(s).unwrap_or_else(|e| panic!("{e}"))
        });
        Self {
            name: name.to_string(),
            spec: spec.clone(),
            scale,
            cache: simcache::global(),
            cache_stats: CacheStatsSnapshot::default(),
            memo: HashMap::new(),
            items: Vec::new(),
            series: Vec::new(),
            sched: SchedAgg::default(),
        }
    }

    /// Starts an experiment at an explicit scale under default settings
    /// (used by tests).
    pub fn with_scale(name: &str, scale: RunScale) -> Self {
        let mut exp = Self::new(name, &JobSpec::default());
        exp.scale = scale;
        exp
    }

    /// The experiment name (figure name, output stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The settings the experiment runs under.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The resolved run scale.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// What this experiment's simulation-cache lookups did, or `None` when
    /// the cache is off.
    pub fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.cache.map(|_| self.cache_stats)
    }

    /// Overrides the scale used when the spec sets none — for experiments
    /// whose defaults differ from the global quick scale (fig15's mixes,
    /// ext_temporal's long recurrence distances). An explicit `IPCP_SCALE`
    /// still wins.
    pub fn default_scale(&mut self, scale: RunScale) {
        if self.spec.scale.is_none() {
            self.scale = scale;
        }
    }

    // -- running simulations ------------------------------------------

    /// Applies the settings every simulation runs under to `cfg`: the
    /// experiment scale, and the naive (oracle) paths when the spec asks.
    fn configure(&self, cfg: SimConfig) -> SimConfig {
        let mut cfg = cfg.with_instructions(self.scale.warmup, self.scale.instructions);
        cfg.no_fastpath = self.spec.no_fastpath;
        cfg
    }

    /// The config of a single-core run. The interval sampler is on when
    /// the spec sets an interval; config tweaks run afterwards, so they can
    /// still override it.
    fn run_config(&self) -> SimConfig {
        let mut cfg = self.configure(SimConfig::default());
        cfg.sample_interval = self.spec.interval;
        cfg
    }

    /// One simulation of `traces` (one per core) under `combo` at `cfg`:
    /// from the memo when this experiment already has the report, else
    /// from the disk tier (when on), else `run`. A memo hit returns what a
    /// disk hit would ([`simcache::canonical`]); only disk-tier lookups
    /// count in [`Experiment::cache_stats`].
    fn simulate(
        &mut self,
        traces: &[&str],
        combo: &str,
        cfg: &SimConfig,
        run: impl FnOnce() -> SimReport,
    ) -> SimReport {
        let key = simcache::cache_key(traces, combo, cfg);
        if let Some(report) = self.memo.get(&key) {
            return report.clone();
        }
        let report = match self.cache {
            Some(cache) => {
                let (report, did) = cache.lookup(&key, run);
                self.cache_stats += did;
                report
            }
            None => run(),
        };
        self.memo.insert(key, simcache::canonical(&report));
        report
    }

    /// One single-core simulation of `trace` at `cfg`; `build` constructs
    /// the prefetchers when it has to run.
    fn simulate_single(
        &mut self,
        trace: &SynthTrace,
        combo: &str,
        cfg: &SimConfig,
        build: impl FnOnce() -> Combo,
    ) -> SimReport {
        self.simulate(&[trace.name()], combo, cfg, || {
            let c = build();
            run_single_with_l1i(cfg.clone(), trace.handle(), c.l1i, c.l1, c.l2, c.llc)
        })
    }

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
        let mut cfg = self.run_config();
        tweak(&mut cfg);
        let r = self.simulate_single(trace, combo, &cfg, || combos::build(combo));
        self.attach_series(format!("{}/{combo}", trace.name()), &r);
        r
    }

    /// Runs prefetchers constructed outside the combo registry: `build`
    /// returns the (L1-D, L2, LLC) prefetchers (the L1-I slot stays
    /// empty) and is called only when the simulation has to run. Any
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
        let cfg = self.run_config();
        let r = self.simulate_single(trace, &format!("custom:{key}"), &cfg, || {
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
        let run_cfg = self.run_config();
        let r = self.simulate_single(trace, combo, &run_cfg, || combos::build(combo));
        self.attach_series(format!("{}/{label}", trace.name()), &r);
        r
    }

    /// The no-prefetching baseline report for a trace (simulated once per
    /// experiment, like every key).
    pub fn baseline(&mut self, trace: &SynthTrace) -> SimReport {
        let cfg = self.run_config();
        self.simulate_single(trace, "none", &cfg, || combos::build("none"))
    }

    /// The no-prefetching baseline IPC for a trace.
    pub fn baseline_ipc(&mut self, trace: &SynthTrace) -> f64 {
        self.baseline(trace).ipc()
    }

    /// Runs a multi-programmed mix (one trace per core) under a named
    /// combo. The key carries every trace name in core order, so permuted
    /// mixes stay distinct.
    pub fn run_mix(&mut self, mix: &[SynthTrace], combo: &str) -> SimReport {
        let cfg = self.configure(SimConfig::multicore(mix.len() as u32));
        let names: Vec<&str> = mix.iter().map(TraceSource::name).collect();
        self.simulate(&names, combo, &cfg, || {
            let setups = mix
                .iter()
                .map(|t| {
                    let c = combos::build(combo);
                    CoreSetup::new(t.handle(), c.l1, c.l2).with_l1i_prefetcher(c.l1i)
                })
                .collect();
            let llc = combos::build(combo).llc;
            System::new(cfg.clone(), setups, llc).run()
        })
    }

    /// The alone IPC of `trace` under `combo` on a `cores`-core machine —
    /// the denominator of Section VI's weighted speedup: "IPC_alone(i) is
    /// the IPC of core i when it runs alone on \[the\] N-core system", one
    /// core but the N-core LLC capacity and DRAM. The scaled LLC keeps
    /// these keys distinct from plain single-core runs.
    pub fn alone_ipc(&mut self, trace: &SynthTrace, combo: &str, cores: u32) -> f64 {
        let mut cfg = self.configure(SimConfig::multicore(cores));
        cfg.cores = 1;
        cfg.llc.size_bytes *= u64::from(cores);
        self.simulate(&[trace.name()], combo, &cfg, || {
            let c = combos::build(combo);
            let core = CoreSetup::new(trace.handle(), c.l1, c.l2).with_l1i_prefetcher(c.l1i);
            System::new(cfg.clone(), vec![core], c.llc).run()
        })
        .ipc()
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
    /// Takes the traces by value and drops each one (and its memoized
    /// stream) as soon as its row is done, so only one trace's memo is
    /// alive at a time.
    pub fn speedup_comparison(
        &mut self,
        title: &str,
        traces: Vec<SynthTrace>,
        combo_names: &[&str],
    ) -> HashMap<String, Vec<f64>> {
        let scale = self.scale;
        let mut results: HashMap<String, Vec<f64>> = HashMap::new();
        let mut columns = vec!["trace"];
        columns.extend_from_slice(combo_names);
        let mut table = Table::new(title, &columns).subtitle(format!(
            "   (scale: {}k warm-up + {}k measured instructions; speedups normalized to no prefetching)",
            scale.warmup / 1000,
            scale.instructions / 1000
        ));
        for trace in traces {
            let base_ipc = self.run_combo("none", &trace).ipc();
            let mut row = vec![Cell::text(trace.name())];
            for &combo in combo_names {
                let sp = self.run_combo(combo, &trace).ipc() / base_ipc;
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

    /// The aligned-text rendering (what a figure binary prints and the
    /// driver writes to `<name>.txt`).
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
                    .set("spec", self.spec.scale.as_deref().unwrap_or("default")),
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

    /// Writes the CSVs when the spec's `csv_dir` is set and the JSON
    /// sidecar when its `json_dir` is (an empty value disables either).
    /// Returns the sidecar's path when one was written. Failures warn on
    /// stderr but do not fail the experiment.
    pub fn write_outputs(&self) -> Option<PathBuf> {
        let dir = |d: &Option<String>| d.as_deref().filter(|d| !d.is_empty()).map(PathBuf::from);
        if let Some(dir) = dir(&self.spec.csv_dir) {
            if let Err(e) = self.write_csvs(&dir) {
                eprintln!("warning: could not write CSVs to {}: {e}", dir.display());
            }
        }
        let dir = dir(&self.spec.json_dir)?;
        self.write_sidecar(&dir)
            .map_err(|e| {
                eprintln!(
                    "warning: could not write {}.data.json to {}: {e}",
                    self.name,
                    dir.display()
                );
            })
            .ok()
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
        let mut exp = Experiment::with_scale("baselines", scale);
        let a = exp.baseline(t);
        assert_eq!(exp.memo.len(), 1);
        assert_eq!(exp.baseline(t), a);
        assert_eq!(exp.baseline_ipc(t), a.ipc());
        // The registry `none` run is the same simulation, so the same key.
        assert_eq!(exp.run_combo("none", t), a);
        assert_eq!(exp.memo.len(), 1, "repeated lookups are memo hits");
        let c = combos::build("none");
        let direct = run_single_with_l1i(exp.run_config(), t.handle(), c.l1i, c.l1, c.l2, c.llc);
        assert_eq!(a, direct, "the memo returns the uncached report");
    }

    #[test]
    fn run_combo_quick_smoke() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let scale = RunScale {
            warmup: 5_000,
            instructions: 20_000,
        };
        let r = Experiment::with_scale("smoke", scale).run_combo("ipcp", &traces[1]);
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

    /// An experiment at [`QUICK`] scale whose runs go through `cache`.
    fn cached_experiment(tag: &str, cache: &'static SimCache) -> Experiment {
        let mut exp = Experiment::with_scale(tag, QUICK);
        exp.cache = Some(cache);
        exp
    }

    /// A fresh cache in a temp dir (leaked: the field wants the global's
    /// lifetime).
    fn temp_cache(tag: &str) -> (&'static SimCache, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ipcp-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Box::leak(Box::new(SimCache::new(&dir))), dir)
    }

    fn counts(exp: &Experiment) -> (u64, u64) {
        let s = exp.cache_stats().unwrap();
        (s.hits, s.misses)
    }

    #[test]
    fn custom_runs_are_cached_under_their_key() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[1];
        let cfg = IpcpConfig::with_only(&[ipcp::IpClass::Cs]);
        let (cache, dir) = temp_cache("custom");
        let mut exp = cached_experiment("custom", cache);
        let direct = ipcp_sim::run_single(
            exp.run_config(),
            t.handle(),
            Box::new(IpcpL1::new(cfg.clone())),
            Box::new(NoPrefetcher),
            Box::new(NoPrefetcher),
        );
        let key = ipcp_custom_key(&cfg, false);
        let cold = exp.run_custom("cs", &key, t, || {
            (
                Box::new(IpcpL1::new(cfg.clone())),
                Box::new(NoPrefetcher),
                Box::new(NoPrefetcher),
            )
        });
        assert_eq!(cold, direct, "a keyed run equals the uncached run_single");
        assert_eq!(counts(&exp), (0, 1));
        // A second experiment finds the entry on disk.
        let mut exp = cached_experiment("custom", cache);
        let warm = exp.run_custom("cs", &key, t, || panic!("a hit must not build"));
        assert_eq!(
            warm.to_json().to_json_string(),
            direct.to_json().to_json_string()
        );
        assert_eq!(counts(&exp), (1, 0));
        // The entry is keyed by the construction, not the label.
        let other = exp.run_custom("another label", &key, t, || panic!("must hit"));
        assert_eq!(other, direct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_ipcp_shares_the_registry_combos_entries() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[1];
        let (cache, dir) = temp_cache("registry");
        let default = IpcpConfig::default();
        for (combo, cfg, with_l2) in [
            ("ipcp", default.clone(), true),
            ("ipcp-l1", default.clone(), false),
            ("ipcp-nometa", default.clone().without_metadata(), true),
        ] {
            let mut by_name_exp = cached_experiment("registry", cache);
            let by_name = by_name_exp.run_combo(combo, t);
            assert_eq!(counts(&by_name_exp), (0, 1), "{combo} is a cold miss");
            let mut by_cfg_exp = cached_experiment("registry", cache);
            let by_cfg = by_cfg_exp.run_ipcp("variant", t, &cfg, with_l2);
            assert_eq!(
                counts(&by_cfg_exp),
                (1, 0),
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

    /// The alone-IPC denominators go through the experiment's memo: a
    /// repeated key simulates once, and the memoized value equals the
    /// uncached run on the scaled machine.
    #[test]
    fn alone_ipc_cache_matches_uncached_and_memoizes() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[0];
        let mut exp = Experiment::with_scale("alone", QUICK);
        let mut cfg = SimConfig::multicore(4).with_instructions(QUICK.warmup, QUICK.instructions);
        cfg.cores = 1;
        cfg.llc.size_bytes *= 4;
        let c = combos::build("none");
        let core = CoreSetup::new(t.handle(), c.l1, c.l2).with_l1i_prefetcher(c.l1i);
        let direct = System::new(cfg, vec![core], c.llc).run().ipc();
        assert_eq!(exp.alone_ipc(t, "none", 4), direct);
        assert_eq!(exp.memo.len(), 1);
        assert_eq!(exp.alone_ipc(t, "none", 4), direct);
        assert_eq!(exp.memo.len(), 1, "second lookup is a hit, not a rerun");
        // A different core count is a different machine — distinct entry.
        let _ = exp.alone_ipc(t, "none", 8);
        assert_eq!(exp.memo.len(), 2);
        // A repeated custom key does not even build its prefetchers.
        let key = "l1=none;l2=none;llc=none";
        let first = exp.run_custom("a", key, t, || {
            let c = combos::build("none");
            (c.l1, c.l2, c.llc)
        });
        let again = exp.run_custom("b", key, t, || panic!("a memo hit must not build"));
        assert_eq!(first, again);
    }

    /// The `no_fastpath` setting reaches every simulation's config (and so
    /// its cache key), and the naive paths give the fast paths' report.
    #[test]
    fn no_fastpath_setting_runs_the_naive_paths() {
        let traces = ipcp_workloads::memory_intensive_suite();
        let t = &traces[1];
        let (cache, dir) = temp_cache("naive");
        let spec = JobSpec {
            no_fastpath: true,
            ..JobSpec::default()
        };
        let mut naive = Experiment::new("naive", &spec);
        naive.scale = QUICK;
        naive.cache = Some(cache);
        assert!(naive.run_config().no_fastpath);
        let slow = naive.run_combo("ipcp", t);
        let _ = naive.alone_ipc(t, "none", 4);
        let _ = naive.run_mix(std::slice::from_ref(t), "none");
        let mut keys = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            let key = JsonValue::parse(&text).unwrap().get("key").unwrap().clone();
            let key = key.as_str().unwrap();
            assert!(key.contains("no_fastpath: true"), "{key}");
            keys += 1;
        }
        assert_eq!(keys, 3, "one entry per simulation");
        let fast = Experiment::with_scale("fast", QUICK).run_combo("ipcp", t);
        assert_eq!(slow, fast, "naive and fast paths give the same report");
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
        let spec = JobSpec {
            scale: Some("1,2".into()),
            ..JobSpec::default()
        };
        let mut exp = Experiment::new("demo", &spec);
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

    #[test]
    fn empty_string_dirs_disable_outputs() {
        let dir = std::env::temp_dir().join(format!("ipcp-empty-dirs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Some("") is "explicitly disabled": no CSVs, no sidecar.
        let spec = JobSpec {
            csv_dir: Some(String::new()),
            json_dir: Some(String::new()),
            ..JobSpec::default()
        };
        let mut exp = Experiment::new("demo_off", &spec);
        exp.table(Table::new("T", &["a"]));
        assert_eq!(exp.write_outputs(), None);
        // A directory gets both.
        let spec = JobSpec {
            csv_dir: Some(dir.join("csv").display().to_string()),
            json_dir: Some(dir.display().to_string()),
            ..JobSpec::default()
        };
        let mut exp = Experiment::new("demo_on", &spec);
        exp.table(Table::new("T", &["a"]));
        assert_eq!(exp.write_outputs(), Some(dir.join("demo_on.data.json")));
        assert!(dir.join("csv").join("t.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
