//! `validate_results` — structural validation of an experiments results
//! directory, for CI and for catching schema drift.
//!
//! ```text
//! validate_results [--results-dir results] [--compare DIR]
//!                  [--min-simcache-hits N] [--max-simcache-misses N]
//!                  [name ...]
//! validate_results --bench BENCH_perf.json
//! ```
//!
//! Checks that `manifest.json` parses, carries the expected schema (5),
//! a positive `jobs` count and a `peak_rss_mb` that is positive or
//! `null`, that every experiment
//! the manifest marks as having a sidecar actually has one on disk, and
//! that every `*.data.json` sidecar in the directory
//! is a well-formed figure document (schema, name, scale, rectangular
//! tables, monotone series).
//! Positional names must each appear in the manifest with `ok: true` and
//! a sidecar — the CI job uses this to pin the subset it ran.
//!
//! `--bench FILE` validates the frozen `BENCH_perf.json` throughput
//! history (written by earlier versions of `perf_smoke`) instead of a
//! results directory: the document schema must be the supported version,
//! every entry must carry a label, a positive wall clock and throughput,
//! and a well-formed scale, and the entry list must be monotone
//! (non-decreasing) in its `unix_time` stamps — append-only history, with
//! pre-timestamp legacy entries allowed only at the front.
//!
//! `--compare DIR` is the determinism check: every positional
//! experiment's `.txt` and `.data.json` must be byte-identical between the
//! results dir and `DIR` (one sweep cached and one not, or one pooled and
//! one serial — any divergence means the cache or the pool changed
//! results). `--min-simcache-hits N` asserts the manifest's aggregate
//! cache hit counter is at least `N` (a warm CI sweep that somehow missed
//! every entry is a silent failure of the cache, not a pass), and
//! `--max-simcache-misses N` that its miss counter is at most `N` (with
//! `0` on a warm re-run, any figure that re-simulates — one whose runs
//! bypass the cache — fails, named with its miss count).
//!
//! Exit status: 0 when everything validates, 1 otherwise, with one line
//! per problem on stderr; 2 with the usage on an unknown option, an
//! option without its value, a gate value that is not a count, or
//! `--compare` without experiment names (a mistyped gate such as
//! `--max-simcache-mises` must not pass by being ignored).

use std::path::{Path, PathBuf};

use ipcp_sim::telemetry::JsonValue;
use ipcp_tools::{outln, Args, Cli};

struct Checker {
    problems: Vec<String>,
}

impl Checker {
    fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    fn load(&mut self, path: &Path) -> Option<JsonValue> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                self.problem(format!("{}: unreadable: {e}", path.display()));
                return None;
            }
        };
        match JsonValue::parse(&text) {
            Ok(v) => Some(v),
            Err(e) => {
                self.problem(format!("{}: invalid JSON: {e}", path.display()));
                None
            }
        }
    }

    /// Validate one `<name>.data.json` figure sidecar.
    fn check_sidecar(&mut self, path: &Path) {
        let Some(doc) = self.load(path) else { return };
        let loc = path.display().to_string();
        if doc.get("schema").and_then(JsonValue::as_u64) != Some(1) {
            self.problem(format!("{loc}: missing or wrong \"schema\" (want 1)"));
        }
        let stem = path
            .file_name()
            .and_then(|s| s.to_str())
            .and_then(|s| s.strip_suffix(".data.json"))
            .unwrap_or_default();
        match doc.get("name").and_then(JsonValue::as_str) {
            Some(name) if name == stem => {}
            Some(name) => self.problem(format!(
                "{loc}: \"name\" is {name:?} but the file is named {stem:?}"
            )),
            None => self.problem(format!("{loc}: missing \"name\"")),
        }
        match doc.get("scale") {
            Some(scale) => {
                for key in ["warmup", "instructions"] {
                    if scale.get(key).and_then(JsonValue::as_u64).is_none() {
                        self.problem(format!("{loc}: scale.{key} missing or not an integer"));
                    }
                }
            }
            None => self.problem(format!("{loc}: missing \"scale\"")),
        }
        let Some(tables) = doc.get("tables").and_then(JsonValue::as_array) else {
            self.problem(format!("{loc}: missing \"tables\" array"));
            return;
        };
        if tables.is_empty() {
            self.problem(format!("{loc}: \"tables\" is empty"));
        }
        for (ti, table) in tables.iter().enumerate() {
            if table
                .get("title")
                .and_then(JsonValue::as_str)
                .is_none_or(str::is_empty)
            {
                self.problem(format!("{loc}: tables[{ti}] has no title"));
            }
            let Some(columns) = table.get("columns").and_then(JsonValue::as_array) else {
                self.problem(format!("{loc}: tables[{ti}] has no columns"));
                continue;
            };
            let Some(rows) = table.get("rows").and_then(JsonValue::as_array) else {
                self.problem(format!("{loc}: tables[{ti}] has no rows"));
                continue;
            };
            if rows.is_empty() {
                self.problem(format!("{loc}: tables[{ti}] has zero rows"));
            }
            for (ri, row) in rows.iter().enumerate() {
                match row.as_array() {
                    Some(cells) if cells.len() == columns.len() => {}
                    Some(cells) => self.problem(format!(
                        "{loc}: tables[{ti}].rows[{ri}] has {} cells for {} columns",
                        cells.len(),
                        columns.len()
                    )),
                    None => self.problem(format!("{loc}: tables[{ti}].rows[{ri}] is not an array")),
                }
            }
        }
        // `series` is optional (present only under IPCP_INTERVAL), but when
        // present it must be well-formed and monotone in instructions.
        if let Some(series) = doc.get("series") {
            let Some(entries) = series.as_array() else {
                self.problem(format!("{loc}: \"series\" is not an array"));
                return;
            };
            for (si, entry) in entries.iter().enumerate() {
                if entry.get("label").and_then(JsonValue::as_str).is_none() {
                    self.problem(format!("{loc}: series[{si}] has no label"));
                }
                let Some(samples) = entry.get("samples").and_then(JsonValue::as_array) else {
                    self.problem(format!("{loc}: series[{si}] has no samples"));
                    continue;
                };
                let mut prev = 0u64;
                for (pi, sample) in samples.iter().enumerate() {
                    let Some(at) = sample.get("instructions").and_then(JsonValue::as_u64) else {
                        self.problem(format!(
                            "{loc}: series[{si}].samples[{pi}] has no instruction count"
                        ));
                        continue;
                    };
                    if at <= prev && pi > 0 {
                        self.problem(format!(
                            "{loc}: series[{si}] instructions not increasing at sample {pi}"
                        ));
                    }
                    prev = at;
                }
            }
        }
        // `sched` is optional (present only under IPCP_SCHED_STATS), but
        // when present it must carry the full wakeup-scheduler counter set
        // and describe at least one run — a present-but-empty block means
        // event-pruning observability silently broke.
        if let Some(sched) = doc.get("sched") {
            for key in [
                "runs",
                "wakeups_fired",
                "executed_cycles",
                "skipped_cycles",
                "heap_peak",
            ] {
                if sched.get(key).and_then(JsonValue::as_u64).is_none() {
                    self.problem(format!("{loc}: \"sched\" missing counter {key:?}"));
                }
            }
            if sched.get("runs").and_then(JsonValue::as_u64) == Some(0) {
                self.problem(format!("{loc}: \"sched\" present but covers zero runs"));
            }
            if sched.get("executed_cycles").and_then(JsonValue::as_u64) == Some(0) {
                self.problem(format!("{loc}: \"sched\" reports zero executed cycles"));
            }
        }
    }
}

/// The `--bench` mode: structural + monotonicity checks on the frozen
/// `BENCH_perf.json` throughput history.
fn check_bench(c: &mut Checker, path: &Path) {
    let Some(doc) = c.load(path) else { return };
    let loc = path.display().to_string();
    if doc.get("schema").and_then(JsonValue::as_u64) != Some(1) {
        c.problem(format!("{loc}: missing or wrong \"schema\" (want 1)"));
    }
    let Some(entries) = doc.get("entries").and_then(JsonValue::as_array) else {
        c.problem(format!("{loc}: missing \"entries\" array"));
        return;
    };
    if entries.is_empty() {
        c.problem(format!("{loc}: \"entries\" is empty"));
    }
    let mut prev_time = 0u64;
    for (ei, e) in entries.iter().enumerate() {
        if e.get("label")
            .and_then(JsonValue::as_str)
            .is_none_or(str::is_empty)
        {
            c.problem(format!("{loc}: entries[{ei}] has no label"));
        }
        for key in ["wall_secs", "instr_per_sec"] {
            match e.get(key).and_then(JsonValue::as_f64) {
                Some(v) if v > 0.0 => {}
                Some(v) => c.problem(format!("{loc}: entries[{ei}].{key} = {v} is not positive")),
                None => c.problem(format!("{loc}: entries[{ei}] has no {key}")),
            }
        }
        match e.get("scale") {
            Some(scale) => {
                for key in ["warmup", "instructions"] {
                    if scale.get(key).and_then(JsonValue::as_u64).is_none() {
                        c.problem(format!(
                            "{loc}: entries[{ei}].scale.{key} missing or not an integer"
                        ));
                    }
                }
            }
            None => c.problem(format!("{loc}: entries[{ei}] has no scale")),
        }
        // Timestamps must be non-decreasing: the file is append-only
        // history. Legacy entries without a stamp count as time 0, so they
        // are only legal before any stamped entry.
        let t = e.get("unix_time").and_then(JsonValue::as_u64).unwrap_or(0);
        if t < prev_time {
            c.problem(format!(
                "{loc}: entries[{ei}] unix_time {t} is older than the previous entry ({prev_time}) — entries must be appended in order"
            ));
        }
        prev_time = t;
    }
    // The optional sweep record, when present, must be self-consistent.
    if let Some(sweep) = doc.get("sweep") {
        for key in ["cold_secs", "warm_secs", "speedup"] {
            match sweep.get(key).and_then(JsonValue::as_f64) {
                Some(v) if v > 0.0 => {}
                _ => c.problem(format!("{loc}: sweep.{key} missing or not positive")),
            }
        }
    }
}

const CLI: Cli = Cli {
    usage: "usage: validate_results [--results-dir DIR] [--compare DIR] [--min-simcache-hits N] \
            [--max-simcache-misses N] [name ...]\n       validate_results --bench FILE",
    options: &[
        "results-dir",
        "compare",
        "min-simcache-hits",
        "max-simcache-misses",
        "bench",
    ],
    flags: &[],
};

fn main() {
    let args = Args::parse(&CLI);

    // --bench FILE is a standalone mode: validate the throughput record
    // and exit without touching a results directory.
    if let Some(bench) = args.options.get("bench") {
        let mut c = Checker {
            problems: Vec::new(),
        };
        let path = PathBuf::from(bench);
        check_bench(&mut c, &path);
        if c.problems.is_empty() {
            outln!("ok: {} validates", path.display());
            return;
        }
        for p in &c.problems {
            eprintln!("FAIL {p}");
        }
        eprintln!("{} problem(s) in {}", c.problems.len(), path.display());
        std::process::exit(1);
    }

    let dir = PathBuf::from(
        args.options
            .get("results-dir")
            .cloned()
            .unwrap_or_else(|| "results".to_string()),
    );
    let mut c = Checker {
        problems: Vec::new(),
    };

    // The manifest: schema, experiment list, and sidecar cross-references.
    let manifest_path = dir.join("manifest.json");
    let mut manifest_names: Vec<(String, bool, bool)> = Vec::new();
    let mut manifest_cache: Option<JsonValue> = None;
    // "name: misses" for every experiment whose simcache counters show a miss.
    let mut missed_in: Vec<String> = Vec::new();
    if let Some(manifest) = c.load(&manifest_path) {
        let loc = manifest_path.display().to_string();
        if manifest.get("schema").and_then(JsonValue::as_u64) != Some(5) {
            c.problem(format!("{loc}: missing or wrong \"schema\" (want 5)"));
        }
        match manifest.get("jobs").and_then(JsonValue::as_u64) {
            Some(n) if n > 0 => {}
            _ => c.problem(format!("{loc}: \"jobs\" must be a positive count")),
        }
        match manifest.get("peak_rss_mb") {
            Some(v) if v.is_null() || v.as_f64().is_some_and(|mb| mb > 0.0) => {}
            _ => c.problem(format!(
                "{loc}: \"peak_rss_mb\" must be a positive number or null"
            )),
        }
        match manifest.get("experiments").and_then(JsonValue::as_array) {
            Some(experiments) if !experiments.is_empty() => {
                for (ei, e) in experiments.iter().enumerate() {
                    let Some(name) = e.get("name").and_then(JsonValue::as_str) else {
                        c.problem(format!("{loc}: experiments[{ei}] has no name"));
                        continue;
                    };
                    let Some(ok) = e.get("ok").and_then(JsonValue::as_bool) else {
                        c.problem(format!("{loc}: experiments[{ei}] ({name}) has no \"ok\""));
                        continue;
                    };
                    let data = e.get("data").and_then(JsonValue::as_str);
                    if let Some(data) = data {
                        if !Path::new(data).exists() {
                            c.problem(format!(
                                "{loc}: {name} claims sidecar {data} but it does not exist"
                            ));
                        }
                    }
                    let misses = e
                        .get("simcache")
                        .and_then(|s| s.get("misses"))
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0);
                    if misses > 0 {
                        missed_in.push(format!("{name}: {misses}"));
                    }
                    manifest_names.push((name.to_string(), ok, data.is_some()));
                }
            }
            _ => c.problem(format!("{loc}: missing or empty \"experiments\" array")),
        }
        manifest_cache = manifest.get("simcache").cloned();
    }

    // The sweep-level cache counters (CI's warm-run assertions): a hit
    // floor, and a miss ceiling — 0 on a warm re-run means no figure
    // re-simulated anything.
    for (option, counter, is_floor) in [
        ("min-simcache-hits", "hits", true),
        ("max-simcache-misses", "misses", false),
    ] {
        if !args.options.contains_key(option) {
            continue;
        }
        let limit: u64 = args.get_or(option, 0).unwrap_or_else(|e| CLI.fail(&e));
        let loc = manifest_path.display();
        match manifest_cache
            .as_ref()
            .and_then(|s| s.get(counter))
            .and_then(JsonValue::as_u64)
        {
            None => c.problem(format!(
                "{loc}: no aggregate \"simcache\" counters (was IPCP_SIMCACHE on?)"
            )),
            Some(n) if is_floor && n < limit => {
                c.problem(format!("{loc}: simcache hits {n} < required {limit}"));
            }
            Some(n) if !is_floor && n > limit => c.problem(format!(
                "{loc}: simcache misses {n} > allowed {limit} ({})",
                missed_in.join(", ")
            )),
            Some(_) => {}
        }
    }

    // Determinism: cached and uncached, pooled and serial sweeps must be
    // byte-identical.
    if let Some(ref_dir) = args.options.get("compare").map(PathBuf::from) {
        if args.positional.is_empty() {
            CLI.fail("--compare needs positional experiment names to compare");
        }
        for name in &args.positional {
            for suffix in [".txt", ".data.json"] {
                let a = dir.join(format!("{name}{suffix}"));
                let b = ref_dir.join(format!("{name}{suffix}"));
                match (std::fs::read(&a), std::fs::read(&b)) {
                    (Ok(x), Ok(y)) => {
                        if x != y {
                            c.problem(format!(
                                "{} differs from {} (results diverge)",
                                a.display(),
                                b.display()
                            ));
                        }
                    }
                    (Err(e), Ok(_)) => {
                        c.problem(format!("{}: unreadable for --compare: {e}", a.display()));
                    }
                    (Ok(_), Err(e)) => {
                        c.problem(format!("{}: unreadable for --compare: {e}", b.display()));
                    }
                    // Absent on both sides (e.g. sidecars disabled): not a
                    // divergence — the structural checks police presence.
                    (Err(_), Err(_)) => {}
                }
            }
        }
    }

    // Every requested experiment must be in the manifest, ok, with a sidecar.
    for want in &args.positional {
        match manifest_names.iter().find(|(n, _, _)| n == want) {
            None => c.problem(format!("manifest: expected experiment {want} is absent")),
            Some((_, false, _)) => c.problem(format!("manifest: {want} did not succeed")),
            Some((_, true, false)) => {
                c.problem(format!("manifest: {want} succeeded but has no sidecar"))
            }
            Some((_, true, true)) => {}
        }
    }

    // Every sidecar on disk must be structurally valid.
    let mut sidecars: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|s| s.to_str())
                    .is_some_and(|s| s.ends_with(".data.json"))
            })
            .collect(),
        Err(e) => {
            c.problem(format!("{}: unreadable results dir: {e}", dir.display()));
            Vec::new()
        }
    };
    sidecars.sort();
    let n_sidecars = sidecars.len();
    for path in &sidecars {
        c.check_sidecar(path);
    }

    if c.problems.is_empty() {
        outln!(
            "ok: manifest ({} experiments) and {} sidecar(s) in {} validate",
            manifest_names.len(),
            n_sidecars,
            dir.display()
        );
    } else {
        for p in &c.problems {
            eprintln!("FAIL {p}");
        }
        eprintln!("{} problem(s) in {}", c.problems.len(), dir.display());
        std::process::exit(1);
    }
}
