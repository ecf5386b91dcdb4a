//! Instruction-trace format and streaming sources.
//!
//! The paper drives ChampSim with SPEC CPU 2017 sim-point traces. This crate
//! defines the equivalent artifact for the reproduction: a stream of
//! [`Instr`] records, each an instruction with an optional single memory
//! operand. Streams come either from a synthetic generator (see the
//! `ipcp-workloads` crate) or from a compact binary file written by
//! [`write_trace`] and read back with [`TraceReader`].
//!
//! # Examples
//!
//! ```
//! use ipcp_trace::{Instr, MemOp, write_trace, TraceReader};
//!
//! # fn main() -> std::io::Result<()> {
//! let instrs = vec![
//!     Instr::load(0x400000, 0x10000),
//!     Instr::nop(0x400004),
//!     Instr::store(0x400008, 0x10040),
//! ];
//! let mut buf = Vec::new();
//! write_trace(&mut buf, instrs.iter().copied())?;
//! let back: Vec<Instr> = TraceReader::new(&buf[..]).collect::<Result<_, _>>()?;
//! assert_eq!(back, instrs);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Read, Write};

use ipcp_mem::{Ip, VAddr};

/// The memory behaviour of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemOp {
    /// No memory operand (ALU/branch/...).
    #[default]
    None,
    /// A data load from the given virtual address.
    Load(VAddr),
    /// A data store to the given virtual address.
    Store(VAddr),
}

/// One traced instruction: an instruction pointer plus at most one memory
/// operand. This is a deliberate simplification of ChampSim's up-to-four
/// source / two destination operands: the workloads in this reproduction are
/// memory-pattern generators, and one operand per instruction reaches the
/// same cache-access stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Instr {
    /// The instruction pointer.
    pub ip: Ip,
    /// The instruction's memory operand, if any.
    pub mem: MemOp,
}

impl Instr {
    /// A non-memory instruction at `ip`.
    pub fn nop(ip: u64) -> Self {
        Self {
            ip: Ip(ip),
            mem: MemOp::None,
        }
    }

    /// A load instruction.
    pub fn load(ip: u64, vaddr: u64) -> Self {
        Self {
            ip: Ip(ip),
            mem: MemOp::Load(VAddr::new(vaddr)),
        }
    }

    /// A store instruction.
    pub fn store(ip: u64, vaddr: u64) -> Self {
        Self {
            ip: Ip(ip),
            mem: MemOp::Store(VAddr::new(vaddr)),
        }
    }

    /// True when the instruction has a memory operand.
    pub fn is_mem(&self) -> bool {
        !matches!(self.mem, MemOp::None)
    }

    /// The memory operand's virtual address, if any.
    pub fn vaddr(&self) -> Option<VAddr> {
        match self.mem {
            MemOp::None => None,
            MemOp::Load(a) | MemOp::Store(a) => Some(a),
        }
    }
}

/// Capacity of one decode/ingestion batch. Matches the simulator's
/// instruction look-ahead buffer so one `next_batch` call refills it
/// exactly once.
pub const BATCH_CAPACITY: usize = 256;

/// Memory-operand kind encodings shared by the row and columnar binary
/// formats and by [`InstrBatch`]'s kind column.
pub const KIND_NONE: u8 = 0;
/// Kind byte of a load.
pub const KIND_LOAD: u8 = 1;
/// Kind byte of a store.
pub const KIND_STORE: u8 = 2;

/// A struct-of-arrays batch of instructions: parallel `ip`/`kind`/`vaddr`
/// columns. This is the unit of batch ingestion — trace sources fill one,
/// the simulator's fetch stage drains it — and of columnar decode (see
/// [`ColumnarTraceReader`]).
#[derive(Debug, Clone, Default)]
pub struct InstrBatch {
    ips: Vec<u64>,
    kinds: Vec<u8>,
    addrs: Vec<u64>,
}

impl InstrBatch {
    /// An empty batch with [`BATCH_CAPACITY`] reserved per column.
    pub fn new() -> Self {
        Self {
            ips: Vec::with_capacity(BATCH_CAPACITY),
            kinds: Vec::with_capacity(BATCH_CAPACITY),
            addrs: Vec::with_capacity(BATCH_CAPACITY),
        }
    }

    /// Number of instructions in the batch.
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// True when the batch holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }

    /// Empties all three columns (capacity is retained).
    pub fn clear(&mut self) {
        self.ips.clear();
        self.kinds.clear();
        self.addrs.clear();
    }

    /// Appends one instruction, splitting it across the columns.
    pub fn push(&mut self, instr: Instr) {
        let (kind, addr) = match instr.mem {
            MemOp::None => (KIND_NONE, 0),
            MemOp::Load(a) => (KIND_LOAD, a.raw()),
            MemOp::Store(a) => (KIND_STORE, a.raw()),
        };
        self.push_raw(instr.ip.raw(), kind, addr);
    }

    /// Appends one instruction from already-split column values.
    pub fn push_raw(&mut self, ip: u64, kind: u8, addr: u64) {
        debug_assert!(kind <= KIND_STORE);
        self.ips.push(ip);
        self.kinds.push(kind);
        self.addrs.push(addr);
    }

    /// Bulk-appends parallel column slices (one `memcpy` per column).
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    pub fn extend_from_columns(&mut self, ips: &[u64], kinds: &[u8], addrs: &[u64]) {
        assert!(ips.len() == kinds.len() && kinds.len() == addrs.len());
        self.ips.extend_from_slice(ips);
        self.kinds.extend_from_slice(kinds);
        self.addrs.extend_from_slice(addrs);
    }

    /// Appends the `n` rows of a packed run that follow `at`, and moves
    /// `at` past them. The run is an [`IpCodeCol`] with the IP and kind of
    /// every row, and a sparse `addrs` column holding one address per
    /// memory instruction, in order, and none for the rest.
    ///
    /// The codes are decoded into the IP and kind columns, the addresses
    /// scattered back in place with 0 for every non-memory instruction,
    /// and the address column's exception rows patched through `at`'s
    /// cursor into its exception list, so the batch gets the same columns
    /// [`InstrBatch::push`] builds. Patching costs one compare per call
    /// plus one write per exception row.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` rows follow `at`, or if `addrs` holds
    /// fewer addresses than those rows have memory instructions.
    pub fn extend_from_packed(
        &mut self,
        ips: &IpCodeCol,
        addrs: &Low32Col,
        at: &mut PackedCursor,
        n: usize,
    ) {
        let codes = &ips.codes[at.row..at.row + n];
        let start = self.ips.len();
        self.ips.resize(start + n, 0);
        self.kinds.resize(start + n, 0);
        self.addrs.resize(start + n, 0);
        let (high, lows) = (addrs.high, &addrs.lows);
        // One length for both dictionary columns, so one bounds check.
        let dict_ips = &ips.dict_ips[..];
        let dict_kinds = &ips.dict_kinds[..dict_ips.len()];
        let (mut prev, mut next) = (at.prev_ip, at.addr);
        let rows = self.ips[start..]
            .iter_mut()
            .zip(&mut self.kinds[start..])
            .zip(&mut self.addrs[start..]);
        for (((ip, kind), addr), &code) in rows.zip(codes) {
            // Decoded into locals: reading `prev` back from the batch
            // would put a store-to-load round trip on every row.
            let (i, k) = match code.checked_sub(SEQ_CODE) {
                Some(k) => (prev.wrapping_add(4), k),
                None => (dict_ips[usize::from(code)], dict_kinds[usize::from(code)]),
            };
            (*ip, *kind, prev) = (i, k, i);
            if k != KIND_NONE {
                *addr = high | u64::from(lows[next]);
                next += 1;
            }
        }
        (at.prev_ip, at.addr) = (prev, next);
        at.addr_exc = addrs.patch(&mut self.addrs[start..], at.row, at.addr_exc);
        at.row += n;
    }

    /// Reassembles the `i`-th instruction from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Instr {
        let mem = match self.kinds[i] {
            KIND_NONE => MemOp::None,
            KIND_LOAD => MemOp::Load(VAddr::new(self.addrs[i])),
            _ => MemOp::Store(VAddr::new(self.addrs[i])),
        };
        Instr {
            ip: Ip(self.ips[i]),
            mem,
        }
    }

    /// The three parallel columns: `(ips, kinds, addrs)`.
    pub fn columns(&self) -> (&[u64], &[u8], &[u64]) {
        (&self.ips, &self.kinds, &self.addrs)
    }

    /// Row-order iterator over the batch (tests and adapters).
    pub fn iter(&self) -> impl Iterator<Item = Instr> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// The high 32 bits of a `u64`.
const HIGH_MASK: u64 = !0xffff_ffff;

/// A sparse `u64` column (the addresses of a packed run's memory
/// instructions) packed into its low 32 bits: one high word for the whole
/// column, taken from its first value, plus an exception list of
/// `(instruction row, full value)` for the values whose high 32 bits
/// differ from it. A column whose values share one 4 GiB window costs 4
/// bytes a value and has no exceptions. [`InstrBatch::extend_from_packed`]
/// reads it back.
#[derive(Debug, Clone, Default)]
pub struct Low32Col {
    /// The first value's high 32 bits, in place.
    high: u64,
    lows: Vec<u32>,
    /// By ascending row.
    exceptions: Vec<(u32, u64)>,
}

impl Low32Col {
    /// An empty column with room for `n` values.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            high: 0,
            lows: Vec::with_capacity(n),
            exceptions: Vec::new(),
        }
    }

    /// Appends `v`. `row` is the row of the instruction it belongs to,
    /// which keys its exception if it has one. Rows must ascend.
    ///
    /// # Panics
    ///
    /// Panics if an exception's `row` does not fit in 32 bits.
    pub fn push(&mut self, row: usize, v: u64) {
        if v & HIGH_MASK != self.high {
            if self.lows.is_empty() {
                self.high = v & HIGH_MASK;
            } else {
                let row = u32::try_from(row).expect("packed column row fits in 32 bits");
                self.exceptions.push((row, v));
            }
        }
        self.lows.push(v as u32);
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.lows.len()
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.lows.is_empty()
    }

    /// Number of exception rows.
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// Bytes the column's buffers hold on the heap (their capacity).
    pub fn heap_bytes(&self) -> usize {
        self.lows.capacity() * std::mem::size_of::<u32>()
            + self.exceptions.capacity() * std::mem::size_of::<(u32, u64)>()
    }

    /// Writes the exceptions from index `next` on whose rows fall in
    /// `out`, which holds rows `first..first + out.len()`. Returns the
    /// index of the first exception past `out`.
    fn patch(&self, out: &mut [u64], first: usize, mut next: usize) -> usize {
        while let Some(&(row, v)) = self.exceptions.get(next) {
            let i = row as usize - first;
            if i >= out.len() {
                break;
            }
            out[i] = v;
            next += 1;
        }
        next
    }
}

/// The first sequential code of an [`IpCodeCol`]: code `SEQ_CODE + kind`
/// is the previous row's IP + 4 with that kind. The codes below it index
/// the dictionary, which so holds at most `SEQ_CODE` entries.
const SEQ_CODE: u8 = 253;

/// Entries an [`IpCodeCol`]'s dictionary holds at most.
const DICT_CAP: usize = SEQ_CODE as usize;

/// Slots of [`IpCodeBuilder`]'s open-addressed pair table: a power of two
/// over twice [`DICT_CAP`], so linear probing stays short.
const KEY_SLOTS: usize = 512;

/// An empty slot of [`IpCodeBuilder`]'s table (no code is this).
const EMPTY: u8 = u8::MAX;

/// The IPs and memory-operand kinds of a packed run, one code byte per
/// row. Codes 0..=252 index a dictionary of the run's distinct
/// `(IP, kind)` pairs; codes 253/254/255 are the previous row's IP + 4
/// (wrapping) with kind none/load/store. Row 0 always takes a dictionary
/// code, so a reader that starts at a run needs no state. The dictionary
/// is kept as an IP and a kind column: 9 bytes an entry, where a tuple
/// would pad to 16. Built by an [`IpCodeBuilder`];
/// [`InstrBatch::extend_from_packed`] reads it back.
#[derive(Debug, Clone, Default)]
pub struct IpCodeCol {
    codes: Box<[u8]>,
    dict_ips: Box<[u64]>,
    dict_kinds: Box<[u8]>,
}

impl IpCodeCol {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Bytes the column's buffers hold on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.codes.len() + self.dict_ips.len() * std::mem::size_of::<u64>() + self.dict_kinds.len()
    }
}

/// Codes rows into an [`IpCodeCol`]. A row at the previous IP + 4 takes a
/// sequential code; any other finds its pair's code, or adds the pair,
/// through an open-addressed table of the codes given so far.
///
/// The builder keeps the table and the dictionary inline (under 3 KB,
/// which a fill writes once per run), so a fill allocates nothing per
/// pair, and [`IpCodeBuilder::finish`] copies the dictionary out at its
/// exact size.
#[derive(Debug, Clone)]
pub struct IpCodeBuilder {
    codes: Vec<u8>,
    /// The previous row's IP.
    last_ip: u64,
    dict_ips: [u64; DICT_CAP],
    dict_kinds: [u8; DICT_CAP],
    dict_len: usize,
    /// The table, by slot: a pair's code, or [`EMPTY`] for a free slot.
    slots: [u8; KEY_SLOTS],
}

impl IpCodeBuilder {
    /// An empty column with room for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            codes: Vec::with_capacity(n),
            last_ip: 0,
            dict_ips: [0; DICT_CAP],
            dict_kinds: [0; DICT_CAP],
            dict_len: 0,
            slots: [EMPTY; KEY_SLOTS],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no row has been pushed.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Appends a row with `ip` and `kind` ([`KIND_NONE`]/[`KIND_LOAD`]/
    /// [`KIND_STORE`]). Returns false, and appends nothing, when its
    /// pair needs a new dictionary entry and the dictionary is full.
    #[inline]
    pub fn push(&mut self, ip: u64, kind: u8) -> bool {
        debug_assert!(kind <= KIND_STORE);
        let code = if !self.codes.is_empty() && ip == self.last_ip.wrapping_add(4) {
            SEQ_CODE + kind
        } else if let Some(code) = self.dict_code(ip, kind) {
            code
        } else {
            return false;
        };
        self.codes.push(code);
        self.last_ip = ip;
        true
    }

    /// The dictionary code of `(ip, kind)`, adding the pair if it is new;
    /// `None` when it is new and the dictionary is full. The home slot is
    /// taken from the IP's word-address bits, which keeps a loop's IPs
    /// apart without a multiply; the second term spreads IPs 2 KiB apart.
    #[inline]
    fn dict_code(&mut self, ip: u64, kind: u8) -> Option<u8> {
        let mut slot = ((ip >> 2) ^ (ip >> 11)) as usize % KEY_SLOTS;
        loop {
            let code = self.slots[slot];
            if code == EMPTY {
                let code = self.dict_len;
                if code == DICT_CAP {
                    return None;
                }
                self.slots[slot] = code as u8;
                self.dict_ips[code] = ip;
                self.dict_kinds[code] = kind;
                self.dict_len += 1;
                return Some(code as u8);
            }
            let c = usize::from(code);
            if self.dict_ips[c] == ip && self.dict_kinds[c] == kind {
                return Some(code);
            }
            slot = (slot + 1) % KEY_SLOTS;
        }
    }

    /// The coded column: the codes in their buffer, shrunk to fit, and the
    /// dictionary copied out at its exact size.
    pub fn finish(self) -> IpCodeCol {
        IpCodeCol {
            codes: self.codes.into_boxed_slice(),
            dict_ips: self.dict_ips[..self.dict_len].into(),
            dict_kinds: self.dict_kinds[..self.dict_len].into(),
        }
    }
}

/// A sequential reader's place in a packed run (see
/// [`InstrBatch::extend_from_packed`]): its next row, its next sparse
/// address, the next exception of the address column, and the IP of the
/// row before `row`, which a sequential code continues.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedCursor {
    row: usize,
    addr: usize,
    addr_exc: usize,
    prev_ip: u64,
}

impl PackedCursor {
    /// The next row to be read.
    pub fn row(&self) -> usize {
        self.row
    }
}

/// Derived address columns for one [`InstrBatch`]: everything the demand
/// path downstream of decode needs from an address — instruction line,
/// data line, page number, page offset, RST region index and the IP-table
/// index/tag key — computed once per batch refill instead of re-derived
/// per access in the core, the caches, the TLBs and the prefetcher.
///
/// The columns are parallel to the batch's; entries of non-memory
/// instructions hold the derivation of address 0 and are never read.
#[derive(Debug, Clone, Default)]
pub struct DerivedCols {
    /// Instruction-fetch line: `ip >> LINE_SHIFT`.
    pub ilines: Vec<u64>,
    /// Data line address: `vaddr >> LINE_SHIFT`.
    pub lines: Vec<u64>,
    /// Virtual page number: `vaddr >> PAGE_SHIFT`.
    pub vpages: Vec<u64>,
    /// Line offset within the page (`0..LINES_PER_PAGE`).
    pub pageoffs: Vec<u8>,
    /// RST region index: `line >> (REGION_SHIFT - LINE_SHIFT)`.
    pub regions: Vec<u64>,
    /// IP-table index/tag source bits: `ip >> 2` (the table's set index
    /// and tag are both slices of this key).
    pub ipkeys: Vec<u64>,
}

impl DerivedCols {
    /// Recomputes every derived column from `batch` in one pass.
    pub fn compute(&mut self, batch: &InstrBatch) {
        let region_shift = ipcp_mem::REGION_SHIFT - ipcp_mem::LINE_SHIFT;
        let page_shift = ipcp_mem::PAGE_SHIFT - ipcp_mem::LINE_SHIFT;
        let off_mask = ipcp_mem::LINES_PER_PAGE - 1;
        self.ilines.clear();
        self.lines.clear();
        self.vpages.clear();
        self.pageoffs.clear();
        self.regions.clear();
        self.ipkeys.clear();
        self.ilines
            .extend(batch.ips.iter().map(|ip| ip >> ipcp_mem::LINE_SHIFT));
        self.ipkeys.extend(batch.ips.iter().map(|ip| ip >> 2));
        self.lines
            .extend(batch.addrs.iter().map(|a| a >> ipcp_mem::LINE_SHIFT));
        self.vpages
            .extend(self.lines.iter().map(|l| l >> page_shift));
        self.pageoffs
            .extend(self.lines.iter().map(|l| (l & off_mask) as u8));
        self.regions
            .extend(self.lines.iter().map(|l| l >> region_shift));
    }
}

/// A batch-oriented instruction stream: refills a caller-owned
/// [`InstrBatch`] instead of yielding one [`Instr`] per call, so the
/// per-instruction virtual dispatch of a boxed iterator is paid once per
/// [`BATCH_CAPACITY`] instructions.
pub trait BatchStream: Send {
    /// Clears `out` and refills it with up to [`BATCH_CAPACITY`]
    /// instructions, returning how many were written. `0` means the stream
    /// is exhausted (a partial final batch is returned first).
    fn next_batch(&mut self, out: &mut InstrBatch) -> usize;
}

/// Adapts a row iterator to [`BatchStream`] — the default path for sources
/// without a columnar representation (e.g. infinite synthetic generators).
struct IterBatchStream(Box<dyn Iterator<Item = Instr> + Send>);

impl BatchStream for IterBatchStream {
    fn next_batch(&mut self, out: &mut InstrBatch) -> usize {
        out.clear();
        for instr in self.0.by_ref().take(BATCH_CAPACITY) {
            out.push(instr);
        }
        out.len()
    }
}

/// A restartable instruction stream.
///
/// Multi-core mixes replay a workload "until all benchmarks finish their
/// 200 M instructions" (Section VI); restartability is what makes that
/// possible without buffering whole traces in memory. Streams are
/// `'static` so the simulator can own them outright; synthetic generators
/// capture their (cheaply cloned) parameters.
pub trait TraceSource {
    /// A short, stable identifier (used in result tables, e.g. `bwaves-like`).
    fn name(&self) -> &str;

    /// Opens a fresh stream from the beginning of the trace.
    fn stream(&self) -> Box<dyn Iterator<Item = Instr> + Send>;

    /// Opens a fresh batch-oriented stream. The default adapts
    /// [`TraceSource::stream`] (identical instruction sequence, batched
    /// hand-off); sources holding a columnar image override this to fill
    /// batches by per-column `memcpy` instead of per-instruction decode.
    fn batch_stream(&self) -> Box<dyn BatchStream> {
        Box::new(IterBatchStream(self.stream()))
    }
}

/// Columnar (struct-of-arrays) image of a materialized trace: the same
/// instructions as a `[Instr]` slice, split into three parallel arrays.
#[derive(Debug, Clone, Default)]
pub struct TraceColumns {
    /// Instruction pointers.
    pub ips: Vec<u64>,
    /// Memory-operand kinds ([`KIND_NONE`]/[`KIND_LOAD`]/[`KIND_STORE`]).
    pub kinds: Vec<u8>,
    /// Memory-operand virtual addresses (0 for non-memory instructions).
    pub addrs: Vec<u64>,
}

impl TraceColumns {
    /// Transposes a row-order slice into columns.
    pub fn from_rows(instrs: &[Instr]) -> Self {
        let mut ips = Vec::with_capacity(instrs.len());
        let mut kinds = Vec::with_capacity(instrs.len());
        let mut addrs = Vec::with_capacity(instrs.len());
        for instr in instrs {
            let (kind, addr) = match instr.mem {
                MemOp::None => (KIND_NONE, 0),
                MemOp::Load(a) => (KIND_LOAD, a.raw()),
                MemOp::Store(a) => (KIND_STORE, a.raw()),
            };
            ips.push(instr.ip.raw());
            kinds.push(kind);
            addrs.push(addr);
        }
        Self { ips, kinds, addrs }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ips.len()
    }

    /// True when no instructions are held.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty()
    }

    /// Reassembles row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> Instr {
        let mem = match self.kinds[i] {
            KIND_NONE => MemOp::None,
            KIND_LOAD => MemOp::Load(VAddr::new(self.addrs[i])),
            _ => MemOp::Store(VAddr::new(self.addrs[i])),
        };
        Instr {
            ip: Ip(self.ips[i]),
            mem,
        }
    }
}

/// A [`TraceSource`] backed by an in-memory slice. Mostly for tests.
///
/// The payload is shared both row-order (`Arc<[Instr]>`) and columnar
/// (`Arc<TraceColumns>`, transposed once at construction): cloning the
/// trace or opening a stream never copies instructions, so a materialized
/// trace can be fanned out across cores and worker threads zero-copy, and
/// batch streams refill by per-column `memcpy` from the shared columns.
#[derive(Debug, Clone, Default)]
pub struct VecTrace {
    name: String,
    instrs: std::sync::Arc<[Instr]>,
    cols: std::sync::Arc<TraceColumns>,
}

impl VecTrace {
    /// Wraps a vector of instructions as a named trace.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        let cols = std::sync::Arc::new(TraceColumns::from_rows(&instrs));
        Self {
            name: name.into(),
            instrs: instrs.into(),
            cols,
        }
    }

    /// Number of instructions in the trace.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Zero-copy view of the trace's columnar image.
    pub fn columns(&self) -> &TraceColumns {
        &self.cols
    }
}

/// Cursor over a shared [`TraceColumns`]: each refill is three slice
/// copies, no per-instruction decode or dispatch.
struct ColumnBatchStream {
    cols: std::sync::Arc<TraceColumns>,
    pos: usize,
}

impl BatchStream for ColumnBatchStream {
    fn next_batch(&mut self, out: &mut InstrBatch) -> usize {
        out.clear();
        let n = BATCH_CAPACITY.min(self.cols.len() - self.pos);
        let (a, b) = (self.pos, self.pos + n);
        out.extend_from_columns(
            &self.cols.ips[a..b],
            &self.cols.kinds[a..b],
            &self.cols.addrs[a..b],
        );
        self.pos = b;
        n
    }
}

impl TraceSource for VecTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Instr> + Send> {
        let v = std::sync::Arc::clone(&self.instrs);
        let mut i = 0;
        Box::new(std::iter::from_fn(move || {
            let instr = v.get(i).copied();
            i += 1;
            instr
        }))
    }

    fn batch_stream(&self) -> Box<dyn BatchStream> {
        Box::new(ColumnBatchStream {
            cols: std::sync::Arc::clone(&self.cols),
            pos: 0,
        })
    }
}

const RECORD_BYTES: usize = 17;
/// Magic header identifying a row-format trace file.
pub const TRACE_MAGIC: &[u8; 8] = b"IPCPTRC1";
/// Magic header identifying a columnar trace file (see
/// [`write_trace_columnar`]).
pub const TRACE_MAGIC_COLUMNAR: &[u8; 8] = b"IPCPTRC2";

/// Writes a trace in the crate's compact binary format.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace<W: Write>(mut w: W, instrs: impl IntoIterator<Item = Instr>) -> io::Result<u64> {
    w.write_all(TRACE_MAGIC)?;
    let mut n = 0u64;
    for instr in instrs {
        let mut rec = [0u8; RECORD_BYTES];
        rec[..8].copy_from_slice(&instr.ip.raw().to_le_bytes());
        let (kind, addr) = match instr.mem {
            MemOp::None => (KIND_NONE, 0),
            MemOp::Load(a) => (KIND_LOAD, a.raw()),
            MemOp::Store(a) => (KIND_STORE, a.raw()),
        };
        rec[8] = kind;
        rec[9..].copy_from_slice(&addr.to_le_bytes());
        w.write_all(&rec)?;
        n += 1;
    }
    Ok(n)
}

/// Streaming reader for the binary trace format produced by [`write_trace`].
#[derive(Debug)]
pub struct TraceReader<R> {
    inner: R,
    checked_magic: bool,
}

impl<R: Read> TraceReader<R> {
    /// Wraps a reader positioned at the start of a trace file.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            checked_magic: false,
        }
    }

    /// Consumes the reader, returning the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn read_record(&mut self) -> io::Result<Option<Instr>> {
        if !self.checked_magic {
            let mut magic = [0u8; 8];
            self.inner.read_exact(&mut magic)?;
            if &magic != TRACE_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad trace magic",
                ));
            }
            self.checked_magic = true;
        }
        let mut rec = [0u8; RECORD_BYTES];
        match self.inner.read_exact(&mut rec[..1]) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        // First byte of the record is the low byte of the IP; read the rest.
        self.inner.read_exact(&mut rec[1..])?;
        let ip = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
        let addr = u64::from_le_bytes(rec[9..].try_into().expect("8 bytes"));
        let mem = match rec[8] {
            KIND_NONE => MemOp::None,
            KIND_LOAD => MemOp::Load(VAddr::new(addr)),
            KIND_STORE => MemOp::Store(VAddr::new(addr)),
            k => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad mem-op kind {k}"),
                ));
            }
        };
        Ok(Some(Instr { ip: Ip(ip), mem }))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<Instr>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

/// Writes a trace in the columnar binary format: after the magic, a
/// sequence of blocks, each `u32 LE count` (1..=[`BATCH_CAPACITY`])
/// followed by the block's three parallel columns — `count × u64 LE` IPs,
/// `count × u8` kinds, `count × u64 LE` addresses. Block-local columns keep
/// the file streamable while letting the reader decode a whole batch with
/// three contiguous reads.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace_columnar<W: Write>(
    mut w: W,
    instrs: impl IntoIterator<Item = Instr>,
) -> io::Result<u64> {
    w.write_all(TRACE_MAGIC_COLUMNAR)?;
    let mut batch = InstrBatch::new();
    let mut n = 0u64;
    let mut iter = instrs.into_iter();
    loop {
        batch.clear();
        for instr in iter.by_ref().take(BATCH_CAPACITY) {
            batch.push(instr);
        }
        if batch.is_empty() {
            return Ok(n);
        }
        let (ips, kinds, addrs) = batch.columns();
        w.write_all(&(ips.len() as u32).to_le_bytes())?;
        for ip in ips {
            w.write_all(&ip.to_le_bytes())?;
        }
        w.write_all(kinds)?;
        for addr in addrs {
            w.write_all(&addr.to_le_bytes())?;
        }
        n += ips.len() as u64;
    }
}

/// Batch-decoding reader for the columnar format written by
/// [`write_trace_columnar`]. Primarily driven via
/// [`ColumnarTraceReader::next_batch`]; the [`Iterator`] impl reassembles
/// rows from an internal batch for compatibility with row-order consumers.
#[derive(Debug)]
pub struct ColumnarTraceReader<R> {
    inner: R,
    checked_magic: bool,
    /// Row-iteration state over the most recently decoded batch.
    batch: InstrBatch,
    pos: usize,
}

impl<R: Read> ColumnarTraceReader<R> {
    /// Wraps a reader positioned at the start of a columnar trace file.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            checked_magic: false,
            batch: InstrBatch::default(),
            pos: 0,
        }
    }

    /// Consumes the reader, returning the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Decodes the next block into `out` (cleared first), returning the
    /// number of instructions decoded; `Ok(0)` at end of file.
    ///
    /// # Errors
    ///
    /// Fails on a bad magic, a malformed block header, an out-of-range
    /// kind byte, or any underlying I/O error.
    pub fn next_batch(&mut self, out: &mut InstrBatch) -> io::Result<usize> {
        out.clear();
        if !self.checked_magic {
            let mut magic = [0u8; 8];
            self.inner.read_exact(&mut magic)?;
            if &magic != TRACE_MAGIC_COLUMNAR {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad columnar trace magic",
                ));
            }
            self.checked_magic = true;
        }
        let mut header = [0u8; 4];
        match self.inner.read_exact(&mut header[..1]) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(0),
            Err(e) => return Err(e),
        }
        self.inner.read_exact(&mut header[1..])?;
        let count = u32::from_le_bytes(header) as usize;
        if count == 0 || count > BATCH_CAPACITY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad columnar block count {count}"),
            ));
        }
        let mut ips = vec![0u8; count * 8];
        let mut kinds = vec![0u8; count];
        let mut addrs = vec![0u8; count * 8];
        self.inner.read_exact(&mut ips)?;
        self.inner.read_exact(&mut kinds)?;
        self.inner.read_exact(&mut addrs)?;
        for i in 0..count {
            let kind = kinds[i];
            if kind > KIND_STORE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad mem-op kind {kind}"),
                ));
            }
            out.push_raw(
                u64::from_le_bytes(ips[i * 8..i * 8 + 8].try_into().expect("8 bytes")),
                kind,
                u64::from_le_bytes(addrs[i * 8..i * 8 + 8].try_into().expect("8 bytes")),
            );
        }
        Ok(count)
    }
}

impl<R: Read> Iterator for ColumnarTraceReader<R> {
    type Item = io::Result<Instr>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.batch.len() {
            let mut batch = std::mem::take(&mut self.batch);
            match self.next_batch(&mut batch) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(e)),
            }
            self.batch = batch;
            self.pos = 0;
        }
        let instr = self.batch.get(self.pos);
        self.pos += 1;
        Some(Ok(instr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_constructors() {
        let l = Instr::load(0x10, 0x2000);
        assert!(l.is_mem());
        assert_eq!(l.vaddr(), Some(VAddr::new(0x2000)));
        let n = Instr::nop(0x14);
        assert!(!n.is_mem());
        assert_eq!(n.vaddr(), None);
        let s = Instr::store(0x18, 0x3000);
        assert_eq!(s.mem, MemOp::Store(VAddr::new(0x3000)));
    }

    #[test]
    fn vec_trace_restartable() {
        let t = VecTrace::new("t", vec![Instr::nop(1), Instr::load(2, 64)]);
        assert_eq!(t.name(), "t");
        assert_eq!(t.len(), 2);
        let a: Vec<_> = t.stream().collect();
        let b: Vec<_> = t.stream().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        let n = write_trace(&mut buf, std::iter::empty()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(buf.len(), 8);
        let back: Vec<Instr> = TraceReader::new(&buf[..])
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTATRCE".to_vec();
        let err = TraceReader::new(&buf[..]).next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_kind_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, [Instr::nop(0)]).unwrap();
        buf[8 + 8] = 9; // corrupt the kind byte of the first record
        let err = TraceReader::new(&buf[..])
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_record_is_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, [Instr::load(1, 64)]).unwrap();
        buf.truncate(buf.len() - 3);
        let results: Vec<_> = TraceReader::new(&buf[..]).collect();
        assert!(results.last().unwrap().is_err());
    }

    fn sample_instrs(n: usize) -> Vec<Instr> {
        // Deterministic mix of all three kinds, crossing batch boundaries.
        (0..n as u64)
            .map(|i| match i % 3 {
                0 => Instr::nop(0x400000 + i * 4),
                1 => Instr::load(0x400000 + i * 4, 0x10000 + i * 64),
                _ => Instr::store(0x400000 + i * 4, 0x20000 + i * 64),
            })
            .collect()
    }

    #[test]
    fn instr_batch_round_trips_rows() {
        let instrs = sample_instrs(10);
        let mut b = InstrBatch::new();
        assert!(b.is_empty());
        for &i in &instrs {
            b.push(i);
        }
        assert_eq!(b.len(), 10);
        let back: Vec<Instr> = b.iter().collect();
        assert_eq!(back, instrs);
        let (ips, kinds, addrs) = b.columns();
        assert_eq!(ips.len(), 10);
        assert_eq!(kinds[0], KIND_NONE);
        assert_eq!(kinds[1], KIND_LOAD);
        assert_eq!(kinds[2], KIND_STORE);
        assert_eq!(addrs[1], 0x10000 + 64);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn sparse_addresses_scatter_into_the_dense_column() {
        let mut instrs = sample_instrs(20);
        // One row outside the address column's 4 GiB window, at an IP
        // whose + 4 wraps to the next row's IP 0.
        instrs[10] = Instr::load(u64::MAX - 3, 0x7_0000_0040);
        instrs[11] = Instr::store(0, 0x20000 + 11 * 64);
        let mut dense = InstrBatch::new();
        let (mut ips, mut addrs) = (IpCodeBuilder::with_capacity(20), Low32Col::default());
        for (row, &i) in instrs.iter().enumerate() {
            dense.push(i);
            assert!(ips.push(i.ip.raw(), dense.columns().1[row]));
            if let Some(a) = i.vaddr() {
                addrs.push(row, a.raw());
            }
        }
        let ips = ips.finish();
        // Rows 0, 10 and 12 are not at the previous IP + 4.
        assert_eq!(*ips.dict_ips, [0x40_0000, u64::MAX - 3, 0x40_0030]);
        assert_eq!(ips.codes[11], SEQ_CODE + KIND_STORE);
        assert_eq!(addrs.exception_count(), 1);
        // Two appends with a running cursor, split mid-stream ahead of the
        // exception row.
        let mut b = InstrBatch::new();
        let mut at = PackedCursor::default();
        b.extend_from_packed(&ips, &addrs, &mut at, 8);
        assert_eq!(
            (at.row(), at.addr, at.addr_exc, at.prev_ip),
            (8, 5, 0, 0x40_001c)
        );
        b.extend_from_packed(&ips, &addrs, &mut at, 12);
        assert_eq!(
            (at.row(), at.addr, at.addr_exc, at.prev_ip),
            (20, addrs.len(), 1, 0x40_004c)
        );
        assert_eq!(b.columns(), dense.columns());
    }

    /// The dictionary holds 253 pairs: a new pair after that is refused
    /// and leaves the column as it was, while known pairs and sequential
    /// rows still go in.
    #[test]
    fn a_full_dictionary_refuses_new_pairs() {
        let mut ips = IpCodeBuilder::with_capacity(300);
        for i in 0..253u64 {
            assert!(ips.push(0x1000 + i * 64, KIND_LOAD), "pair {i}");
        }
        assert!(!ips.push(0x9_0000, KIND_LOAD));
        assert!(!ips.push(0x1000, KIND_STORE), "same IP, new kind");
        assert_eq!(ips.len(), 253);
        assert!(ips.push(0x1000, KIND_LOAD));
        assert!(ips.push(0x1004, KIND_STORE));
        let ips = ips.finish();
        assert_eq!((ips.len(), ips.dict_ips.len()), (255, 253));
        assert_eq!(ips.codes[253..], [0, SEQ_CODE + KIND_STORE]);
    }

    #[test]
    fn trace_columns_transpose_round_trips() {
        let instrs = sample_instrs(7);
        let cols = TraceColumns::from_rows(&instrs);
        assert_eq!(cols.len(), 7);
        let back: Vec<Instr> = (0..cols.len()).map(|i| cols.row(i)).collect();
        assert_eq!(back, instrs);
    }

    #[test]
    fn vec_trace_batch_stream_matches_row_stream() {
        // Three batches' worth plus a partial tail: the batched hand-off
        // must reproduce the row stream exactly, including the short final
        // batch and end-of-stream.
        let instrs = sample_instrs(2 * BATCH_CAPACITY + 37);
        let t = VecTrace::new("t", instrs.clone());
        assert_eq!(t.columns().len(), instrs.len());
        let mut bs = t.batch_stream();
        let mut batch = InstrBatch::new();
        let mut batched = Vec::new();
        let mut sizes = Vec::new();
        loop {
            let n = bs.next_batch(&mut batch);
            if n == 0 {
                break;
            }
            sizes.push(n);
            batched.extend(batch.iter());
        }
        assert_eq!(batched, instrs);
        assert_eq!(sizes, vec![BATCH_CAPACITY, BATCH_CAPACITY, 37]);
        // Exhausted stays exhausted.
        assert_eq!(bs.next_batch(&mut batch), 0);
    }

    #[test]
    fn default_batch_stream_adapts_row_stream() {
        // A source without a columnar override batches via the adapter.
        struct RowOnly(Vec<Instr>);
        impl TraceSource for RowOnly {
            fn name(&self) -> &str {
                "rows"
            }
            fn stream(&self) -> Box<dyn Iterator<Item = Instr> + Send> {
                Box::new(self.0.clone().into_iter())
            }
        }
        let instrs = sample_instrs(BATCH_CAPACITY + 5);
        let src = RowOnly(instrs.clone());
        let mut bs = src.batch_stream();
        let mut batch = InstrBatch::new();
        let mut got = Vec::new();
        while bs.next_batch(&mut batch) > 0 {
            got.extend(batch.iter());
        }
        assert_eq!(got, instrs);
    }

    #[test]
    fn columnar_round_trip() {
        for n in [
            0usize,
            1,
            BATCH_CAPACITY - 1,
            BATCH_CAPACITY,
            BATCH_CAPACITY + 1,
            1000,
        ] {
            let instrs = sample_instrs(n);
            let mut buf = Vec::new();
            let written = write_trace_columnar(&mut buf, instrs.iter().copied()).unwrap();
            assert_eq!(written as usize, n);
            let back: Vec<Instr> = ColumnarTraceReader::new(&buf[..])
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(back, instrs, "row read-back at n={n}");
            // Batch-wise decode sees the same instructions.
            let mut r = ColumnarTraceReader::new(&buf[..]);
            let mut batch = InstrBatch::new();
            let mut got = Vec::new();
            while r.next_batch(&mut batch).unwrap() > 0 {
                got.extend(batch.iter());
            }
            assert_eq!(got, instrs, "batch read-back at n={n}");
        }
    }

    #[test]
    fn columnar_bad_magic_rejected() {
        let err = ColumnarTraceReader::new(&b"IPCPTRC1"[..])
            .next_batch(&mut InstrBatch::new())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn columnar_bad_kind_and_count_rejected() {
        let mut buf = Vec::new();
        write_trace_columnar(&mut buf, [Instr::nop(0)]).unwrap();
        // Corrupt the kind byte (after magic + u32 count + 8-byte IP).
        let mut bad_kind = buf.clone();
        bad_kind[8 + 4 + 8] = 9;
        let err = ColumnarTraceReader::new(&bad_kind[..])
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Corrupt the block count beyond the batch capacity.
        let mut bad_count = buf;
        bad_count[8..12].copy_from_slice(&(BATCH_CAPACITY as u32 + 1).to_le_bytes());
        let err = ColumnarTraceReader::new(&bad_count[..])
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn columnar_truncated_block_is_error() {
        let mut buf = Vec::new();
        write_trace_columnar(&mut buf, sample_instrs(3)).unwrap();
        buf.truncate(buf.len() - 5);
        let results: Vec<_> = ColumnarTraceReader::new(&buf[..]).collect();
        assert!(results.last().unwrap().is_err());
    }

    // Property tests require the external `proptest` crate (see the
    // `proptest` feature in Cargo.toml).
    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_instr() -> impl Strategy<Value = Instr> {
            (any::<u64>(), 0u8..3, any::<u64>()).prop_map(|(ip, kind, addr)| match kind {
                0 => Instr::nop(ip),
                1 => Instr::load(ip, addr),
                _ => Instr::store(ip, addr),
            })
        }

        proptest! {
            #[test]
            fn round_trip(instrs in proptest::collection::vec(arb_instr(), 0..200)) {
                let mut buf = Vec::new();
                let n = write_trace(&mut buf, instrs.iter().copied()).unwrap();
                prop_assert_eq!(n as usize, instrs.len());
                prop_assert_eq!(buf.len(), 8 + instrs.len() * RECORD_BYTES);
                let back: Vec<Instr> = TraceReader::new(&buf[..]).collect::<Result<_, _>>().unwrap();
                prop_assert_eq!(back, instrs);
            }

            #[test]
            fn columnar_round_trip_prop(instrs in proptest::collection::vec(arb_instr(), 0..600)) {
                let mut buf = Vec::new();
                let n = write_trace_columnar(&mut buf, instrs.iter().copied()).unwrap();
                prop_assert_eq!(n as usize, instrs.len());
                let back: Vec<Instr> =
                    ColumnarTraceReader::new(&buf[..]).collect::<Result<_, _>>().unwrap();
                prop_assert_eq!(back, instrs);
            }
        }
    }
}
