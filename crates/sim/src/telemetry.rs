//! Structured reporting and run-level observability.
//!
//! Everything a simulation measures leaves this crate through two doors:
//! the typed [`crate::stats`] structs and — since the reporting redesign —
//! their machine-readable form built here. The module is deliberately
//! dependency-free (the crates registry is unreachable in CI sandboxes):
//!
//! * [`JsonValue`] — a minimal JSON document model with a writer (compact
//!   and pretty) and a parser, used by every JSON artifact in the
//!   workspace: `SimReport::to_json()`, the bench sidecars
//!   (`results/<figure>.data.json`), and the experiments driver's
//!   `manifest.json`.
//! * [`ToJson`] — implemented by all the stats types so any report can be
//!   serialized without hand-rolled string assembly.
//! * [`Sampler`] / [`Sample`] — the interval sampler: when
//!   `SimConfig::sample_interval` is set, the system snapshots IPC,
//!   per-level MPKI, per-class prefetch accuracy, PQ/MSHR occupancy, and
//!   DRAM bus utilization every N retired instructions into a time-series
//!   embedded in the [`crate::SimReport`]. Disabled (the default) it costs
//!   one branch per simulated cycle and leaves the report bit-identical.

use std::fmt;

use crate::stats::{CacheStats, CoreReport, CoreStats, DramStats, SimReport, TlbStats, PF_CLASSES};

// ---------------------------------------------------------------------
// JsonValue: the mini-serializer
// ---------------------------------------------------------------------

/// A JSON document. Object keys keep insertion order so emitted documents
/// are deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (emitted losslessly, unlike `Num`).
    Int(i64),
    /// An unsigned integer beyond `i64` range.
    UInt(u64),
    /// A float. Non-finite values serialize as `null` (JSON has no NaN).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (ordered key → value pairs).
    Obj(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        Self::Int(v)
    }
}
impl From<i32> for JsonValue {
    fn from(v: i32) -> Self {
        Self::Int(v.into())
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Self::UInt(v), Self::Int)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        Self::Int(v.into())
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        Self::from(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        Self::Num(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}
impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        Self::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Copy + Into<JsonValue>> From<&[T]> for JsonValue {
    fn from(v: &[T]) -> Self {
        Self::Arr(v.iter().map(|&x| x.into()).collect())
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(Self::Null, Into::into)
    }
}

/// Escapes a string for embedding in a JSON document (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float the way the workspace's JSON consumers expect: shortest
/// round-trippable decimal, `null` for non-finite values.
fn fmt_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
        // `{}` prints integral floats without a fraction ("3"); that is
        // valid JSON and parses back to the same value.
    } else {
        out.push_str("null");
    }
}

impl JsonValue {
    /// An empty object, for builder-style assembly.
    pub fn obj() -> Self {
        Self::Obj(Vec::new())
    }

    /// Adds a key to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn set(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.insert(key, value);
        self
    }

    /// Adds a key to an object in place.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: &str, value: impl Into<JsonValue>) {
        match self {
            Self::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("insert on non-object JsonValue: {other:?}"),
        }
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, unifying the three numeric variants.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::Int(v) => Some(v as f64),
            Self::UInt(v) => Some(v as f64),
            Self::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Self::Int(v) => u64::try_from(v).ok(),
            Self::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a signed integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Self::Int(v) => Some(v),
            Self::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Self::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Self::Null)
    }

    /// Renders on one line (still with `": "` / `", "` separators, so
    /// simple substring checks keep working across compact and pretty).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation and a trailing newline — the
    /// format of every `.json` artifact the workspace writes to disk.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth)),
            None => ("", String::new(), String::new()),
        };
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(v) => out.push_str(&v.to_string()),
            Self::UInt(v) => out.push_str(&v.to_string()),
            Self::Num(v) => fmt_f64(*v, out),
            Self::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Self::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Self::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict on structure, tolerant on
    /// whitespace). Every simulation-cache hit goes through here (the
    /// bench crate's `simcache` parses one entry, ~3.6 KB with a ~1 KB key
    /// string, per hit), as do `validate_results` and the round-trip
    /// tests. The parse is linear in the document length: runs of plain
    /// string characters are copied as slices of `text`, never
    /// re-validated. Not a general-purpose parser — no comments, no
    /// trailing commas, `\uXXXX` escapes limited to the BMP.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(v)
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    /// The document; runs of string characters and numbers are sliced
    /// from it directly (it is valid UTF-8 by type).
    text: &'a str,
    /// `text.as_bytes()`, for the byte-level scan.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next `"`, `\` or
            // control character in one go. Every stop byte is ASCII, so the
            // run ends on a char boundary of `text` and needs no UTF-8
            // re-validation.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("control character in string"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits: `from_str_radix` alone
                            // would also take a sign (`\\u+0e9`).
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(self.err("bad \\u escape"));
                            }
                            let s = std::str::from_utf8(hex).expect("ASCII hex digits");
                            let code = u32::from_str_radix(s, 16).expect("four hex digits");
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape outside the BMP"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Consumes a run of ASCII digits; errors at the current offset when
    /// there is none.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// A number in JSON's grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?` — no leading zeros, no bare `.` or exponent.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(self.err("leading zero in number"));
            }
        } else {
            self.digits()?;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        // Every byte consumed above is ASCII, so the slice is on char
        // boundaries.
        let s = &self.text[start..self.pos];
        if !float {
            if let Ok(v) = s.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
            if let Ok(v) = s.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("bad number {s:?}")))
    }
}

// ---------------------------------------------------------------------
// ToJson: the stats types, serialized
// ---------------------------------------------------------------------

/// Serialization into the workspace's [`JsonValue`] document model.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for CacheStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("demand_accesses", self.demand_accesses)
            .set("demand_hits", self.demand_hits)
            .set("demand_misses", self.demand_misses)
            .set("late_prefetch_hits", self.late_prefetch_hits)
            .set("useful_prefetch_hits", self.useful_prefetch_hits)
            .set("useful_by_class", &self.useful_by_class[..])
            .set("pf_issued", self.pf_issued)
            .set("pf_dropped_pq_full", self.pf_dropped_pq_full)
            .set("pf_dropped_present", self.pf_dropped_present)
            .set("pf_dropped_mshr_full", self.pf_dropped_mshr_full)
            .set("pf_fills", self.pf_fills)
            .set("fills_by_class", &self.fills_by_class[..])
            .set("pf_useless_evicted", self.pf_useless_evicted)
            .set("rr_drops_by_class", &self.rr_drops_by_class[..])
            .set("writebacks", self.writebacks)
            .set("mshr_full_rejects", self.mshr_full_rejects)
            .set("miss_latency_sum", self.miss_latency_sum)
            .set("merge_wait_sum", self.merge_wait_sum)
            .set("accuracy", self.accuracy())
            .set("coverage", self.coverage())
    }
}

impl ToJson for DramStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("channels", self.channels)
            .set("reads", self.reads)
            .set("writes", self.writes)
            .set("row_hits", self.row_hits)
            .set("row_misses", self.row_misses)
            .set("bus_busy_cycles", self.bus_busy_cycles)
            .set("traffic_bytes", self.traffic_bytes())
    }
}

impl ToJson for TlbStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("dtlb_accesses", self.dtlb_accesses)
            .set("dtlb_misses", self.dtlb_misses)
            .set("stlb_misses", self.stlb_misses)
    }
}

impl ToJson for CoreStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("instructions", self.instructions)
            .set("cycles", self.cycles)
            .set("stall_cycles", self.stall_cycles)
            .set("ipc", self.ipc())
    }
}

impl ToJson for CoreReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("trace", self.trace.as_str())
            .set("core", self.core.to_json())
            .set("l1i", self.l1i.to_json())
            .set("l1d", self.l1d.to_json())
            .set("l2", self.l2.to_json())
            .set("tlb", self.tlb.to_json())
    }
}

impl ToJson for Sample {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("instructions", self.instructions)
            .set("cycles", self.cycles)
            .set("ipc", self.ipc)
            .set("l1d_mpki", self.l1d_mpki)
            .set("l2_mpki", self.l2_mpki)
            .set("llc_mpki", self.llc_mpki)
            .set("l1d_accuracy", self.l1d_accuracy)
            .set("l1d_coverage", self.l1d_coverage)
            .set("class_accuracy", &self.class_accuracy[..])
            .set("class_useful", &self.class_useful[..])
            .set("l1d_pq", self.l1d_pq)
            .set("l1d_mshr", self.l1d_mshr)
            .set("l2_pq", self.l2_pq)
            .set("l2_mshr", self.l2_mshr)
            .set("llc_pq", self.llc_pq)
            .set("llc_mshr", self.llc_mshr)
            .set("dram_bus_utilization", self.dram_bus_utilization)
    }
}

impl ToJson for SimReport {
    fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::obj()
            .set(
                "cores",
                JsonValue::Arr(self.cores.iter().map(ToJson::to_json).collect()),
            )
            .set("llc", self.llc.to_json())
            .set("dram", self.dram.to_json())
            .set("cycles", self.cycles)
            .set("ipc", self.ipc())
            .set("llc_mpki", self.llc_mpki())
            .set("dram_bus_utilization", self.dram_bus_utilization());
        // The time-series is present only when the interval sampler ran:
        // a disabled sampler leaves the serialized report exactly as it
        // was before the sampler existed.
        if !self.samples.is_empty() {
            v.insert(
                "series",
                JsonValue::Arr(self.samples.iter().map(ToJson::to_json).collect()),
            );
        }
        // Scheduler counters are present only when observability was
        // explicitly requested (`IPCP_SCHED_STATS`): the default document
        // is byte-identical to the pre-scheduler schema.
        if let Some(sched) = self.sched {
            v.insert("sched", sched.to_json());
        }
        // Phase timers likewise appear only under `IPCP_PHASE_STATS`; the
        // simcache strips them before persisting (wall-clock values are
        // never deterministic).
        if let Some(phases) = self.phases {
            v.insert("phases", phases.to_json());
        }
        v
    }
}

impl ToJson for crate::stats::PhaseStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .set("decode_ns", self.decode_ns)
            .set("issue_ns", self.issue_ns)
            .set("fill_ns", self.fill_ns)
            .set("train_ns", self.train_ns)
            .set("drain_ns", self.drain_ns)
    }
}

impl FromJson for crate::stats::PhaseStats {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("phases: missing or non-integer `{name}`"))
        };
        Ok(Self {
            decode_ns: field("decode_ns")?,
            issue_ns: field("issue_ns")?,
            fill_ns: field("fill_ns")?,
            train_ns: field("train_ns")?,
            drain_ns: field("drain_ns")?,
        })
    }
}

// ---------------------------------------------------------------------
// FromJson: the stats types, deserialized
// ---------------------------------------------------------------------

/// Reconstruction from the workspace's [`JsonValue`] document model —
/// the inverse of [`ToJson`], used by the bench simcache to reload
/// persisted [`SimReport`]s. Derived fields the serializer embeds for
/// human consumers (`ipc`, `accuracy`, `coverage`, `traffic_bytes`,
/// `llc_mpki`, `dram_bus_utilization` at the report level) are ignored on
/// the way back in: they are recomputed from the counters on demand.
pub trait FromJson: Sized {
    /// Rebuilds `Self` from its [`ToJson`] document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    fn from_json(v: &JsonValue) -> Result<Self, String>;
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

fn u32_field(v: &JsonValue, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(v, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn class_array<T, F>(v: &JsonValue, key: &str, get: F) -> Result<[T; PF_CLASSES], String>
where
    T: Copy + Default,
    F: Fn(&JsonValue) -> Option<T>,
{
    let arr = field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} is not an array"))?;
    if arr.len() != PF_CLASSES {
        return Err(format!(
            "field {key:?} has {} entries, want {PF_CLASSES}",
            arr.len()
        ));
    }
    let mut out = [T::default(); PF_CLASSES];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = get(item).ok_or_else(|| format!("field {key:?} has an ill-typed entry"))?;
    }
    Ok(out)
}

impl FromJson for CacheStats {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            demand_accesses: u64_field(v, "demand_accesses")?,
            demand_hits: u64_field(v, "demand_hits")?,
            demand_misses: u64_field(v, "demand_misses")?,
            late_prefetch_hits: u64_field(v, "late_prefetch_hits")?,
            useful_prefetch_hits: u64_field(v, "useful_prefetch_hits")?,
            useful_by_class: class_array(v, "useful_by_class", JsonValue::as_u64)?,
            pf_issued: u64_field(v, "pf_issued")?,
            pf_dropped_pq_full: u64_field(v, "pf_dropped_pq_full")?,
            pf_dropped_present: u64_field(v, "pf_dropped_present")?,
            pf_dropped_mshr_full: u64_field(v, "pf_dropped_mshr_full")?,
            pf_fills: u64_field(v, "pf_fills")?,
            fills_by_class: class_array(v, "fills_by_class", JsonValue::as_u64)?,
            pf_useless_evicted: u64_field(v, "pf_useless_evicted")?,
            rr_drops_by_class: class_array(v, "rr_drops_by_class", JsonValue::as_u64)?,
            writebacks: u64_field(v, "writebacks")?,
            mshr_full_rejects: u64_field(v, "mshr_full_rejects")?,
            miss_latency_sum: u64_field(v, "miss_latency_sum")?,
            merge_wait_sum: u64_field(v, "merge_wait_sum")?,
        })
    }
}

impl FromJson for DramStats {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            channels: u32_field(v, "channels")?,
            reads: u64_field(v, "reads")?,
            writes: u64_field(v, "writes")?,
            row_hits: u64_field(v, "row_hits")?,
            row_misses: u64_field(v, "row_misses")?,
            bus_busy_cycles: u64_field(v, "bus_busy_cycles")?,
        })
    }
}

impl FromJson for TlbStats {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            dtlb_accesses: u64_field(v, "dtlb_accesses")?,
            dtlb_misses: u64_field(v, "dtlb_misses")?,
            stlb_misses: u64_field(v, "stlb_misses")?,
        })
    }
}

impl FromJson for CoreStats {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            instructions: u64_field(v, "instructions")?,
            cycles: u64_field(v, "cycles")?,
            stall_cycles: u64_field(v, "stall_cycles")?,
        })
    }
}

impl FromJson for CoreReport {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            trace: str_field(v, "trace")?.to_string(),
            core: CoreStats::from_json(field(v, "core")?)?,
            l1i: CacheStats::from_json(field(v, "l1i")?)?,
            l1d: CacheStats::from_json(field(v, "l1d")?)?,
            l2: CacheStats::from_json(field(v, "l2")?)?,
            tlb: TlbStats::from_json(field(v, "tlb")?)?,
        })
    }
}

impl FromJson for Sample {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            instructions: u64_field(v, "instructions")?,
            cycles: u64_field(v, "cycles")?,
            ipc: f64_field(v, "ipc")?,
            l1d_mpki: f64_field(v, "l1d_mpki")?,
            l2_mpki: f64_field(v, "l2_mpki")?,
            llc_mpki: f64_field(v, "llc_mpki")?,
            l1d_accuracy: f64_field(v, "l1d_accuracy")?,
            l1d_coverage: f64_field(v, "l1d_coverage")?,
            class_accuracy: class_array(v, "class_accuracy", JsonValue::as_f64)?,
            class_useful: class_array(v, "class_useful", JsonValue::as_u64)?,
            l1d_pq: u32_field(v, "l1d_pq")?,
            l1d_mshr: u32_field(v, "l1d_mshr")?,
            l2_pq: u32_field(v, "l2_pq")?,
            l2_mshr: u32_field(v, "l2_mshr")?,
            llc_pq: u32_field(v, "llc_pq")?,
            llc_mshr: u32_field(v, "llc_mshr")?,
            dram_bus_utilization: f64_field(v, "dram_bus_utilization")?,
        })
    }
}

impl FromJson for SimReport {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let cores = field(v, "cores")?
            .as_array()
            .ok_or_else(|| "field \"cores\" is not an array".to_string())?
            .iter()
            .map(CoreReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // `series` is absent when the sampler was disabled.
        let samples = match v.get("series") {
            None => Default::default(),
            Some(series) => series
                .as_array()
                .ok_or_else(|| "field \"series\" is not an array".to_string())?
                .iter()
                .map(Sample::from_json)
                .collect::<Result<Vec<_>, _>>()?
                .into(),
        };
        // `sched` is absent unless scheduler observability was enabled.
        let sched = match v.get("sched") {
            None => None,
            Some(s) => Some(crate::sched::SchedStats::from_json(s)?),
        };
        // `phases` is absent unless phase timing was enabled.
        let phases = match v.get("phases") {
            None => None,
            Some(p) => Some(crate::stats::PhaseStats::from_json(p)?),
        };
        Ok(Self {
            cores,
            llc: CacheStats::from_json(field(v, "llc")?)?,
            dram: DramStats::from_json(field(v, "dram")?)?,
            cycles: u64_field(v, "cycles")?,
            samples,
            sched,
            phases,
        })
    }
}

// ---------------------------------------------------------------------
// Interval sampler
// ---------------------------------------------------------------------

/// One snapshot of the running system, taken every
/// `SimConfig::sample_interval` retired instructions (core 0's measured
/// count is the clock). Rate metrics (`ipc`, MPKI, accuracy, coverage,
/// DRAM utilization) cover the *interval since the previous sample*, not
/// the whole run; occupancy fields are instantaneous. Cache counters are
/// aggregated across cores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Core-0 measured instructions at the sample point.
    pub instructions: u64,
    /// Measured cycles at the sample point.
    pub cycles: u64,
    /// Interval IPC: retired instructions (all cores) per cycle.
    pub ipc: f64,
    /// Interval L1-D demand MPKI (all cores).
    pub l1d_mpki: f64,
    /// Interval L2 demand MPKI (all cores).
    pub l2_mpki: f64,
    /// Interval LLC demand MPKI.
    pub llc_mpki: f64,
    /// Interval L1-D prefetch accuracy (0 when nothing landed).
    pub l1d_accuracy: f64,
    /// Interval L1-D coverage (0 when no misses and no useful prefetches).
    pub l1d_coverage: f64,
    /// Interval per-class L1-D accuracy: `useful_by_class / fills_by_class`
    /// (0 when that class filled nothing). Classes are IPCP's
    /// no-class/CS/CPLX/GS encoding.
    pub class_accuracy: [f64; PF_CLASSES],
    /// Interval per-class useful prefetch hits (the coverage attribution).
    pub class_useful: [u64; PF_CLASSES],
    /// Instantaneous L1-D prefetch-queue occupancy, summed over cores.
    pub l1d_pq: u32,
    /// Instantaneous L1-D MSHR occupancy, summed over cores.
    pub l1d_mshr: u32,
    /// Instantaneous L2 prefetch-queue occupancy, summed over cores.
    pub l2_pq: u32,
    /// Instantaneous L2 MSHR occupancy, summed over cores.
    pub l2_mshr: u32,
    /// Instantaneous LLC prefetch-queue occupancy.
    pub llc_pq: u32,
    /// Instantaneous LLC MSHR occupancy.
    pub llc_mshr: u32,
    /// Interval DRAM data-bus utilization (0..=1, averaged over channels).
    pub dram_bus_utilization: f64,
}

/// Aggregate counter snapshot the system hands to the sampler. All cache
/// stats are summed across cores; `instructions`/`cycles` are measured-
/// phase totals.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Measured instructions summed over all cores.
    pub instructions: u64,
    /// Measured cycles (core 0's measured-phase clock).
    pub cycles: u64,
    /// L1-D stats summed over cores.
    pub l1d: CacheStats,
    /// L2 stats summed over cores.
    pub l2: CacheStats,
    /// LLC stats.
    pub llc: CacheStats,
    /// DRAM bus-busy cycle counter.
    pub dram_busy: u64,
}

/// Instantaneous queue occupancies at the sample point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Occupancy {
    /// L1-D PQ entries in use (summed over cores).
    pub l1d_pq: u32,
    /// L1-D MSHR entries in use (summed over cores).
    pub l1d_mshr: u32,
    /// L2 PQ entries in use (summed over cores).
    pub l2_pq: u32,
    /// L2 MSHR entries in use (summed over cores).
    pub l2_mshr: u32,
    /// LLC PQ entries in use.
    pub llc_pq: u32,
    /// LLC MSHR entries in use.
    pub llc_mshr: u32,
}

/// The interval sampler: owns the previous snapshot and the accumulated
/// series. Deterministic by construction — the trigger is an instruction
/// count, never wall time.
#[derive(Debug, Clone)]
pub struct Sampler {
    interval: u64,
    next_at: u64,
    prev: Snapshot,
    samples: Vec<Sample>,
}

impl Sampler {
    /// Creates a sampler that fires every `interval` retired instructions.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "sample interval must be positive");
        Self {
            interval,
            next_at: interval,
            prev: Snapshot::default(),
            samples: Vec::new(),
        }
    }

    /// True once the instruction clock has reached the next sample point.
    pub fn due(&self, instructions: u64) -> bool {
        instructions >= self.next_at
    }

    /// The next marker (measured-instruction count) at which a sample is
    /// due. The wakeup scheduler caches this so its per-burst check is a
    /// single integer compare instead of a `due` call per cycle.
    pub fn next_due(&self) -> u64 {
        self.next_at
    }

    /// Re-arms after warm-up: counters were just reset, so the baseline is
    /// zero and any samples taken so far are discarded.
    pub fn reset_baseline(&mut self) {
        self.prev = Snapshot::default();
        self.next_at = self.interval;
        self.samples.clear();
    }

    /// Records one sample. `marker_instructions` is the core-0 measured
    /// instruction count used for the trigger; `channels` the DRAM channel
    /// count for utilization normalization. Advances the trigger past the
    /// marker (a burst of retirements crossing several interval boundaries
    /// in one cycle yields one sample covering the whole gap).
    pub fn record(
        &mut self,
        marker_instructions: u64,
        cur: Snapshot,
        occ: Occupancy,
        channels: u32,
    ) {
        let d_instr = cur.instructions.saturating_sub(self.prev.instructions);
        let d_cycles = cur.cycles.saturating_sub(self.prev.cycles);
        let l1d = cur.l1d.delta(&self.prev.l1d);
        let l2 = cur.l2.delta(&self.prev.l2);
        let llc = cur.llc.delta(&self.prev.llc);
        let mpki = |misses: u64| {
            if d_instr == 0 {
                0.0
            } else {
                misses as f64 * 1000.0 / d_instr as f64
            }
        };
        let mut class_accuracy = [0.0f64; PF_CLASSES];
        for (i, acc) in class_accuracy.iter_mut().enumerate() {
            if l1d.fills_by_class[i] > 0 {
                *acc = l1d.useful_by_class[i] as f64 / l1d.fills_by_class[i] as f64;
            }
        }
        self.samples.push(Sample {
            instructions: marker_instructions,
            cycles: cur.cycles,
            ipc: if d_cycles == 0 {
                0.0
            } else {
                d_instr as f64 / d_cycles as f64
            },
            l1d_mpki: mpki(l1d.demand_misses),
            l2_mpki: mpki(l2.demand_misses),
            llc_mpki: mpki(llc.demand_misses),
            l1d_accuracy: l1d.accuracy().unwrap_or(0.0),
            l1d_coverage: l1d.coverage().unwrap_or(0.0),
            class_accuracy,
            class_useful: l1d.useful_by_class,
            l1d_pq: occ.l1d_pq,
            l1d_mshr: occ.l1d_mshr,
            l2_pq: occ.l2_pq,
            l2_mshr: occ.l2_mshr,
            llc_pq: occ.llc_pq,
            llc_mshr: occ.llc_mshr,
            dram_bus_utilization: if d_cycles == 0 {
                0.0
            } else {
                cur.dram_busy.saturating_sub(self.prev.dram_busy) as f64
                    / (d_cycles as f64 * f64::from(channels.max(1)))
            },
        });
        self.prev = cur;
        while self.next_at <= marker_instructions {
            self.next_at += self.interval;
        }
    }

    /// The samples recorded so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Consumes the sampler, returning the series.
    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn render_compact_and_pretty() {
        let v = JsonValue::obj()
            .set("name", "fig07")
            .set("ok", true)
            .set("exit", JsonValue::Null)
            .set("vals", vec![1i64, 2, 3])
            .set("pi", 3.25);
        let compact = v.to_json_string();
        assert_eq!(
            compact,
            r#"{"name": "fig07", "ok": true, "exit": null, "vals": [1, 2, 3], "pi": 3.25}"#
        );
        let pretty = v.to_pretty_string();
        assert!(pretty.contains("  \"name\": \"fig07\",\n"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn integral_floats_render_without_fraction() {
        assert_eq!(JsonValue::Num(3.0).to_json_string(), "3");
        assert_eq!(JsonValue::Num(1.234).to_json_string(), "1.234");
        assert_eq!(JsonValue::Num(f64::NAN).to_json_string(), "null");
    }

    #[test]
    fn parse_round_trips() {
        let v = JsonValue::obj()
            .set("schema", 1i64)
            .set("name", "a \"quoted\" name\nwith lines")
            .set("wall", 1.234)
            .set("big", u64::MAX)
            .set("neg", -17i64)
            .set(
                "items",
                JsonValue::Arr(vec![JsonValue::Null, JsonValue::Bool(false)]),
            )
            .set("empty_obj", JsonValue::obj())
            .set("empty_arr", JsonValue::Arr(vec![]));
        for rendered in [v.to_json_string(), v.to_pretty_string()] {
            let parsed = JsonValue::parse(&rendered).unwrap();
            // Compare through a second render: Int/UInt/Num unify on text.
            assert_eq!(parsed.to_json_string(), v.to_json_string());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\": 1} extra").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    /// Raw multi-byte UTF-8 runs — 2-, 3- and 4-byte characters, alone,
    /// mixed with ASCII, in keys and in values — parse to the same text
    /// and render back to the same bytes.
    #[test]
    fn parse_multibyte_utf8_runs() {
        for s in [
            "é",
            "aé",
            "ü€",
            "x€y€z",
            "😀",
            "a😀b",
            "é€😀 plain ß",
            "ßßß",
        ] {
            let doc = JsonValue::obj()
                .set(s, s)
                .set("k", vec![s])
                .to_json_string();
            let v = JsonValue::parse(&doc).unwrap();
            assert_eq!(v.get(s).and_then(JsonValue::as_str), Some(s), "{doc}");
            assert_eq!(v.to_json_string(), doc);
        }
    }

    /// Escapes at the start, middle and end of a string, back to back,
    /// and next to multi-byte characters.
    #[test]
    fn parse_escapes_anywhere_in_a_string() {
        for (doc, want) in [
            (r#""\"a\\""#, "\"a\\"),
            (r#""\u00e9x""#, "éx"),
            (r#""\nab""#, "\nab"),
            (r#""a\tb""#, "a\tb"),
            (r#""ab\/""#, "ab/"),
            (r#""\\\"\n\u0041\b\f\r""#, "\\\"\nA\u{8}\u{c}\r"),
            (r#""é\u00e9€\"😀""#, "éé€\"😀"),
        ] {
            let v = JsonValue::parse(doc).unwrap();
            assert_eq!(v.as_str(), Some(want), "{doc}");
            // The canonical rendering parses back to the same value.
            assert_eq!(JsonValue::parse(&v.to_json_string()).unwrap(), v);
        }
    }

    #[test]
    fn parse_empty_string() {
        assert_eq!(JsonValue::parse(r#""""#).unwrap().as_str(), Some(""));
        let v = JsonValue::parse(r#"{"": ""}"#).unwrap();
        assert_eq!(v.get("").and_then(JsonValue::as_str), Some(""));
        assert_eq!(v.to_json_string(), r#"{"": ""}"#);
    }

    /// Malformed strings fail at a pinned byte offset — among them
    /// unterminated strings whose last character is multi-byte, where the
    /// offset is the document length.
    #[test]
    fn parse_string_errors_name_their_offset() {
        for (doc, offset, message) in [
            ("\"aé", 4, "unterminated string"),
            ("\"😀", 5, "unterminated string"),
            ("{\"k\": \"x€", 11, "unterminated string"),
            ("\"a\\", 3, "bad escape"),
            ("\"\\q\"", 2, "bad escape"),
            ("\"\\u00", 2, "truncated \\u escape"),
            ("\"\\ué", 2, "truncated \\u escape"),
            ("\"\\u00é\"", 2, "bad \\u escape"),
            ("\"\\uD800\"", 2, "\\u escape outside the BMP"),
            ("\"é\" x", 5, "trailing content after document"),
        ] {
            let e = JsonValue::parse(doc).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{doc:?}");
        }
    }

    /// A `\u` escape takes exactly four hex digits; a sign is not one.
    #[test]
    fn parse_rejects_signed_unicode_escapes() {
        for doc in ["\"\\u+0e9\"", "\"\\u-0e9\"", "\"\\u 0e9\""] {
            let e = JsonValue::parse(doc).unwrap_err();
            assert_eq!(
                (e.offset, e.message.as_str()),
                (2, "bad \\u escape"),
                "{doc:?}"
            );
        }
        assert_eq!(
            JsonValue::parse("\"\\u00e9\\u00E9\"").unwrap().as_str(),
            Some("éé")
        );
    }

    /// JSON numbers have no leading zeros (and no bare `.` or exponent).
    #[test]
    fn parse_rejects_leading_zeros() {
        for (doc, offset, message) in [
            ("01", 1, "leading zero in number"),
            ("-01", 2, "leading zero in number"),
            ("[1, 007]", 5, "leading zero in number"),
            ("00.5", 1, "leading zero in number"),
            ("1.", 2, "expected a digit"),
            ("-.5", 1, "expected a digit"),
            ("1e", 2, "expected a digit"),
            ("-", 1, "expected a digit"),
        ] {
            let e = JsonValue::parse(doc).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{doc:?}");
        }
        for (doc, value) in [("0", 0.0), ("-0", 0.0), ("0.25", 0.25), ("10e-2", 0.1)] {
            assert_eq!(
                JsonValue::parse(doc).unwrap().as_f64(),
                Some(value),
                "{doc}"
            );
        }
        assert_eq!(JsonValue::parse("-17").unwrap().as_i64(), Some(-17));
    }

    /// Control characters inside a string must be escaped; the serializer
    /// escapes every one of them, so its output still parses.
    #[test]
    fn parse_rejects_raw_control_characters() {
        for (doc, offset) in [("\"a\u{1}b\"", 2), ("\"é\nx\"", 3), ("{\"k\": \"\t\"}", 7)] {
            let e = JsonValue::parse(doc).unwrap_err();
            assert_eq!(
                (e.offset, e.message.as_str()),
                (offset, "control character in string"),
                "{doc:?}"
            );
        }
        let all: String = (0u8..0x20).map(char::from).collect();
        let doc = JsonValue::Str(all.clone()).to_json_string();
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str(), Some(all.as_str()));
    }

    /// A 1 MiB string next to a ~2 KB simcache-key-like string round-trips
    /// byte-identically. A parser that re-validates the rest of the
    /// document per character would scan ~0.5 TB here.
    #[test]
    fn parse_large_strings_round_trip() {
        let mut blob = String::new();
        while blob.len() < 1 << 20 {
            blob.push_str("plain ascii é€😀 \"q\" \\ / \n\t");
        }
        let key = format!(
            "v4;traces=a+b;combo=custom:l1=IpcpL1({});cfg={}",
            "IpcpConfig { ip_table_entries: 64, cspt: 128 } ".repeat(16),
            "SimConfig { l1d: Geometry { sets: 64, ways: 12 } } ".repeat(26)
        );
        assert!(key.len() > 2000, "{}", key.len());
        let doc = JsonValue::obj()
            .set("schema", 1u64)
            .set("key", key.as_str())
            .set("blob", blob.as_str())
            .to_json_string();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("key").and_then(JsonValue::as_str), Some(key.as_str()));
        assert_eq!(
            v.get("blob").and_then(JsonValue::as_str),
            Some(blob.as_str())
        );
        assert_eq!(v.to_json_string(), doc);
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"a": 3, "b": [1.5], "c": "x", "d": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("a").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    /// Golden serialization of a handcrafted report: the exact document a
    /// fixed set of counters produces. Guards the sidecar/report schema.
    #[test]
    fn simreport_golden_json() {
        let mut r = SimReport {
            cycles: 100,
            ..Default::default()
        };
        r.llc.demand_misses = 4;
        r.dram.channels = 1;
        r.dram.bus_busy_cycles = 25;
        r.cores.push(CoreReport {
            trace: "t".into(),
            core: CoreStats {
                instructions: 400,
                cycles: 100,
                stall_cycles: 10,
            },
            ..Default::default()
        });
        let j = r.to_json();
        assert_eq!(j.get("ipc").unwrap().as_f64(), Some(4.0));
        assert_eq!(j.get("llc_mpki").unwrap().as_f64(), Some(10.0));
        assert_eq!(j.get("dram_bus_utilization").unwrap().as_f64(), Some(0.25));
        assert!(j.get("series").is_none(), "no sampler, no series key");
        let core = &j.get("cores").unwrap().as_array().unwrap()[0];
        assert_eq!(core.get("trace").unwrap().as_str(), Some("t"));
        assert_eq!(
            core.get("core")
                .unwrap()
                .get("instructions")
                .unwrap()
                .as_u64(),
            Some(400)
        );
        // The document parses back to the same rendered form.
        let rendered = j.to_pretty_string();
        let reparsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(reparsed.to_pretty_string(), rendered);
    }

    /// A fully populated report survives serialize → render → parse →
    /// deserialize exactly, including samples. This is the invariant the
    /// bench simcache relies on: a reloaded report must be
    /// indistinguishable from the freshly computed one.
    #[test]
    fn simreport_from_json_round_trips() {
        let mut r = SimReport {
            cycles: 12345,
            ..Default::default()
        };
        r.llc.demand_accesses = 900;
        r.llc.demand_hits = 600;
        r.llc.demand_misses = 300;
        r.llc.useful_by_class = [1, 2, 3, 4];
        r.llc.fills_by_class = [5, 6, 7, 8];
        r.llc.miss_latency_sum = 98765;
        r.dram = DramStats {
            channels: 2,
            reads: 100,
            writes: 40,
            row_hits: 70,
            row_misses: 30,
            bus_busy_cycles: 2222,
        };
        r.cores.push(CoreReport {
            trace: "kernel_2d_stencil".into(),
            core: CoreStats {
                instructions: 400_000,
                cycles: 123_456,
                stall_cycles: 9_876,
            },
            ..Default::default()
        });
        r.cores[0].l1d.pf_issued = 777;
        r.cores[0].tlb.dtlb_accesses = 555;
        r.samples = std::sync::Arc::new([Sample {
            instructions: 100_000,
            cycles: 31_000,
            ipc: 3.225_806_451_612_903,
            l1d_mpki: 1.25,
            l2_mpki: 0.5,
            llc_mpki: 0.125,
            l1d_accuracy: 0.75,
            l1d_coverage: 0.5,
            class_accuracy: [0.0, 0.9, 0.1, 0.0],
            class_useful: [0, 9, 1, 0],
            l1d_pq: 3,
            l1d_mshr: 7,
            l2_pq: 1,
            l2_mshr: 2,
            llc_pq: 0,
            llc_mshr: 5,
            dram_bus_utilization: 0.375,
        }]);
        let rendered = r.to_json().to_pretty_string();
        let back = SimReport::from_json(&JsonValue::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, r);
        // And an empty sample list stays empty (no "series" key at all).
        let empty = SimReport::default();
        let back = SimReport::from_json(&empty.to_json()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn simreport_from_json_rejects_missing_and_ill_typed_fields() {
        let good = SimReport {
            cores: vec![CoreReport::default()],
            ..Default::default()
        }
        .to_json();
        assert!(SimReport::from_json(&good).is_ok());
        // Drop a required counter from the LLC block.
        let mut doc = good.clone();
        if let JsonValue::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "llc" {
                    if let JsonValue::Obj(llc) = v {
                        llc.retain(|(k, _)| k != "writebacks");
                    }
                }
            }
        }
        let err = SimReport::from_json(&doc).unwrap_err();
        assert!(err.contains("writebacks"), "error was: {err}");
        // Wrong type for cycles (mutate the existing key: `insert` appends
        // and `get` returns the first occurrence).
        let mut bad = good.clone();
        if let JsonValue::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "cycles" {
                    *v = JsonValue::Str("not a number".into());
                }
            }
        }
        assert!(SimReport::from_json(&bad).is_err());
        // Not an object at all.
        assert!(SimReport::from_json(&JsonValue::Null).is_err());
    }

    #[test]
    fn sampler_interval_math() {
        let mut s = Sampler::new(1000);
        assert!(!s.due(999));
        assert!(s.due(1000));
        let mut cur = Snapshot {
            instructions: 1000,
            cycles: 500,
            ..Default::default()
        };
        cur.l1d.demand_misses = 10;
        cur.l1d.pf_fills = 8;
        cur.l1d.useful_prefetch_hits = 4;
        cur.l1d.useful_by_class = [0, 4, 0, 0];
        cur.l1d.fills_by_class = [0, 8, 0, 0];
        cur.dram_busy = 250;
        s.record(1000, cur.clone(), Occupancy::default(), 1);
        let sm = &s.samples()[0];
        assert_eq!(sm.instructions, 1000);
        assert!((sm.ipc - 2.0).abs() < 1e-12);
        assert!((sm.l1d_mpki - 10.0).abs() < 1e-12);
        assert!((sm.l1d_accuracy - 0.5).abs() < 1e-12);
        assert!((sm.class_accuracy[1] - 0.5).abs() < 1e-12);
        assert!((sm.dram_bus_utilization - 0.5).abs() < 1e-12);
        assert!(!s.due(1500));
        assert!(s.due(2000));
        // Second interval: deltas, not cumulative values.
        let mut cur2 = cur.clone();
        cur2.instructions = 2000;
        cur2.cycles = 1500;
        cur2.dram_busy = 250; // idle bus this interval
        s.record(2000, cur2, Occupancy::default(), 1);
        let sm2 = &s.samples()[1];
        assert!((sm2.ipc - 1.0).abs() < 1e-12);
        assert_eq!(sm2.l1d_mpki, 0.0);
        assert_eq!(sm2.dram_bus_utilization, 0.0);
    }

    #[test]
    fn sampler_burst_crossing_advances_once() {
        let mut s = Sampler::new(100);
        // One retirement burst jumps from 0 to 350 instructions: one
        // sample, trigger re-armed at 400.
        s.record(
            350,
            Snapshot {
                instructions: 350,
                cycles: 100,
                ..Default::default()
            },
            Occupancy::default(),
            1,
        );
        assert_eq!(s.samples().len(), 1);
        assert!(!s.due(399));
        assert!(s.due(400));
    }
}
