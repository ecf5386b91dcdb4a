//! The synthetic workload generators.
//!
//! Each generator reproduces one *access-pattern class* that the paper
//! attributes to SPEC CPU 2017 / CloudSuite / CNN benchmarks (Section III's
//! motivation examples): constant strides, complex (repeating non-constant)
//! strides, jumbled global streams within dense 2 KB regions, nested-loop
//! compounds, pointer-chasing irregularity, cache-resident loops, and
//! multi-stream tensor kernels. See `DESIGN.md` §4 for the substitution
//! rationale.
//!
//! All generators are infinite, deterministic iterators: the simulator stops
//! at its instruction budget and A/B comparisons see identical streams.

use std::sync::{Arc, Mutex};

use ipcp_trace::{
    BatchStream, Instr, InstrBatch, MemOp, TraceSource, BATCH_CAPACITY, KIND_LOAD, KIND_NONE,
    KIND_STORE,
};

use crate::rng::Rng64;

/// Bytes per cache line, re-exported for address math in generators.
const LINE: u64 = ipcp_mem::LINE_BYTES;

/// Cap on the memoized stream prefix, in instructions. A memoized
/// instruction costs 9 bytes (its IP and kind byte) plus 8 more when it
/// accesses memory: ~13.1 bytes each on the memory-intensive suite, ~10.4
/// on the front-end suite. Below the cap a trace's generator closure runs
/// once per process; every batch stream after the first replays the memo.
/// Past the cap a stream falls back to a private generator — the exact
/// cost the un-memoized path paid for every stream.
const MEMO_CAP: usize = 4_000_000;

/// Instructions per memo chunk: the memo's allocation unit, and how much
/// is pulled from the generator at a time (amortizing the lock and the
/// per-instruction closure dispatch).
const MEMO_CHUNK: usize = 16 * BATCH_CAPACITY;

/// The generator closure every stream of one trace is made from.
type MakeStream = Arc<dyn Fn() -> Box<dyn Iterator<Item = Instr> + Send> + Send + Sync>;

/// One immutable run of a trace's memo: [`MEMO_CHUNK`] instructions, fewer
/// only in the last chunk (at [`MEMO_CAP`], or where a finite generator
/// ran dry). Its columns are allocated at full-chunk size and never grow;
/// only a partial last chunk is shrunk to fit.
struct MemoChunk {
    ips: Box<[u64]>,
    kinds: Box<[u8]>,
    /// The addresses of the chunk's memory instructions only, in order;
    /// a reader walks it with its own running cursor.
    addrs: Box<[u64]>,
}

/// The memoized stream prefix of one [`SynthTrace`], shared by all of its
/// batch streams. The canonical generator is parked exactly at `len`, so
/// extension is pure continuation — instruction values are identical to
/// direct iteration by construction.
#[derive(Default)]
struct MemoCols {
    chunks: Vec<Arc<MemoChunk>>,
    /// Instructions memoized (the chunks' total).
    len: usize,
    gen: Option<Box<dyn Iterator<Item = Instr> + Send>>,
    /// The generator ran dry (finite stream): the memo is the whole trace.
    exhausted: bool,
}

impl MemoCols {
    /// Appends the next chunk from the canonical generator. Call only
    /// while the memo is below [`MEMO_CAP`] and not exhausted.
    fn push_chunk(&mut self, make: &MakeStream) {
        let n = MEMO_CHUNK.min(MEMO_CAP - self.len);
        let gen = self.gen.get_or_insert_with(|| make());
        let mut ips = Vec::with_capacity(n);
        let mut kinds = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for instr in gen.by_ref().take(n) {
            ips.push(instr.ip.raw());
            kinds.push(match instr.mem {
                MemOp::None => KIND_NONE,
                MemOp::Load(a) => {
                    addrs.push(a.raw());
                    KIND_LOAD
                }
                MemOp::Store(a) => {
                    addrs.push(a.raw());
                    KIND_STORE
                }
            });
        }
        self.len += ips.len();
        if ips.len() < n {
            self.exhausted = true;
        }
        if self.exhausted || self.len == MEMO_CAP {
            // The canonical generator will never advance again, so its
            // (potentially large) state can go.
            self.gen = None;
        }
        if !ips.is_empty() {
            self.chunks.push(Arc::new(MemoChunk {
                ips: ips.into_boxed_slice(),
                kinds: kinds.into_boxed_slice(),
                // An exact-size copy: the full-size fill buffer is freed.
                addrs: addrs.as_slice().into(),
            }));
        }
    }
}

/// Batch stream over a [`SynthTrace`]: replays the shared memo chunk by
/// chunk while inside the memoized prefix, and reads a private
/// continuation generator past [`MEMO_CAP`]. The memo's lock is taken
/// once per chunk, to fetch (or first fill) the next one.
struct MemoBatchStream {
    memo: Arc<Mutex<MemoCols>>,
    make: MakeStream,
    /// The chunk being replayed, and the index of the one after it.
    chunk: Option<Arc<MemoChunk>>,
    next_chunk: usize,
    /// Cursors into `chunk`: its next row, and that row's place in the
    /// chunk's sparse address column.
    row: usize,
    addr: usize,
    /// Instructions delivered so far.
    pos: usize,
    tail: Option<Box<dyn Iterator<Item = Instr> + Send>>,
}

impl MemoBatchStream {
    /// Moves to the next memo chunk, filling it first if no stream has
    /// yet. Past the cap, switches to a private generator instead. Returns
    /// false once a finite trace has run dry.
    fn advance(&mut self) -> bool {
        let mut m = self.memo.lock().expect("trace memo poisoned");
        if self.next_chunk == m.chunks.len() && !m.exhausted && m.len < MEMO_CAP {
            m.push_chunk(&self.make);
        }
        if let Some(c) = m.chunks.get(self.next_chunk) {
            self.chunk = Some(Arc::clone(c));
            self.next_chunk += 1;
            (self.row, self.addr) = (0, 0);
            return true;
        }
        if m.exhausted {
            return false;
        }
        drop(m);
        // Past the cap: regenerate privately and skip the memoized prefix
        // (once per stream — the cost every stream used to pay anyway).
        let mut it = (self.make)();
        if it.by_ref().take(self.pos).count() < self.pos {
            return false;
        }
        self.chunk = None;
        self.tail = Some(it);
        true
    }
}

impl BatchStream for MemoBatchStream {
    fn next_batch(&mut self, out: &mut InstrBatch) -> usize {
        out.clear();
        while out.len() < BATCH_CAPACITY {
            if let Some(tail) = &mut self.tail {
                let before = out.len();
                for instr in tail.by_ref().take(BATCH_CAPACITY - before) {
                    out.push(instr);
                }
                self.pos += out.len() - before;
                break;
            }
            let Some(c) = self.chunk.as_deref().filter(|c| self.row < c.ips.len()) else {
                if self.advance() {
                    continue;
                }
                break;
            };
            let n = (c.ips.len() - self.row).min(BATCH_CAPACITY - out.len());
            let rows = self.row..self.row + n;
            self.addr +=
                out.extend_from_sparse(&c.ips[rows.clone()], &c.kinds[rows], &c.addrs[self.addr..]);
            self.row += n;
            self.pos += n;
        }
        out.len()
    }
}

/// A named synthetic trace: a factory of fresh, identical instruction
/// streams.
///
/// The name and the generator closure live in one ref-counted allocation:
/// `clone()` is an `Arc` bump (no `String` copy), and [`SynthTrace::handle`]
/// re-shares that same allocation as the `Arc<dyn TraceSource>` the
/// simulator wants — so a trace travels through job queues, result caches,
/// and per-run core setups zero-copy end to end.
#[derive(Clone)]
pub struct SynthTrace {
    inner: Arc<SynthTraceInner>,
}

struct SynthTraceInner {
    name: String,
    make: MakeStream,
    /// Shared columnar memo of the stream prefix (see [`MemoCols`]).
    memo: Arc<Mutex<MemoCols>>,
}

impl SynthTraceInner {
    fn open_batches(&self) -> Box<dyn BatchStream> {
        Box::new(MemoBatchStream {
            memo: Arc::clone(&self.memo),
            make: Arc::clone(&self.make),
            chunk: None,
            next_chunk: 0,
            row: 0,
            addr: 0,
            pos: 0,
            tail: None,
        })
    }
}

impl TraceSource for SynthTraceInner {
    fn name(&self) -> &str {
        &self.name
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Instr> + Send> {
        (self.make)()
    }

    fn batch_stream(&self) -> Box<dyn BatchStream> {
        self.open_batches()
    }
}

impl std::fmt::Debug for SynthTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthTrace")
            .field("name", &self.inner.name)
            .finish()
    }
}

impl SynthTrace {
    /// Wraps a stream factory under a name.
    pub fn new(
        name: impl Into<String>,
        make: impl Fn() -> Box<dyn Iterator<Item = Instr> + Send> + Send + Sync + 'static,
    ) -> Self {
        Self {
            inner: Arc::new(SynthTraceInner {
                name: name.into(),
                make: Arc::new(make),
                memo: Arc::new(Mutex::new(MemoCols::default())),
            }),
        }
    }

    /// Shares this trace's single allocation as an `Arc<dyn TraceSource>`
    /// for the simulator. Pure pointer work: no allocation, no copy.
    pub fn handle(&self) -> Arc<dyn TraceSource + Send + Sync> {
        Arc::clone(&self.inner) as Arc<dyn TraceSource + Send + Sync>
    }

    /// Consuming variant of [`SynthTrace::handle`] (kept for callers that
    /// own the trace).
    pub fn shared(self) -> Arc<dyn TraceSource + Send + Sync> {
        self.handle()
    }

    /// Materializes the first `n` instructions into a columnar
    /// [`VecTrace`](ipcp_trace::VecTrace): the generator runs once, and the
    /// result is shared zero-copy thereafter (its batch streams refill by
    /// per-column `memcpy` instead of re-running the generator). Generators
    /// are infinite, so a finite prefix is the only materializable view.
    pub fn materialize(&self, n: usize) -> ipcp_trace::VecTrace {
        let instrs: Vec<Instr> = self.stream().take(n).collect();
        ipcp_trace::VecTrace::new(self.name().to_string(), instrs)
    }
}

impl TraceSource for SynthTrace {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Instr> + Send> {
        (self.inner.make)()
    }

    fn batch_stream(&self) -> Box<dyn BatchStream> {
        self.inner.open_batches()
    }
}

/// `(x + 1) % n` for `x < n` — every generator's wrap counter — as a
/// compare-and-reset instead of a division.
fn next_wrapping<T: Copy + PartialEq + std::ops::Add<Output = T> + From<u8>>(x: T, n: T) -> T {
    let y = x + T::from(1);
    if y == n {
        T::from(0)
    } else {
        y
    }
}

/// Shared emission state: interleaves `pad` non-memory instructions after
/// every memory instruction, with a code footprint of `code_ips` static IPs
/// for the pad instructions (models I-side pressure where wanted).
struct Mixer {
    pad: u32,
    pad_left: u32,
    code_base: u64,
    code_ips: u64,
    pad_cursor: u64,
}

impl Mixer {
    fn new(pad: u32, code_base: u64, code_ips: u64) -> Self {
        Self {
            pad,
            pad_left: 0,
            code_base,
            code_ips: code_ips.max(1),
            pad_cursor: 0,
        }
    }

    /// If padding is due, returns the next pad instruction.
    fn pad_instr(&mut self) -> Option<Instr> {
        if self.pad_left == 0 {
            return None;
        }
        self.pad_left -= 1;
        self.pad_cursor = next_wrapping(self.pad_cursor, self.code_ips);
        Some(Instr::nop(self.code_base + self.pad_cursor * 4))
    }

    /// Arms the padding counter after a memory instruction.
    fn arm(&mut self) {
        self.pad_left = self.pad;
    }
}

/// Constant-stride workload (`bwaves`-like, Section III's IP *A*):
/// `ips` static load IPs, each striding by `stride_lines` cache lines. IPs
/// come in *pairs sharing an array* at a fixed line gap, and the accessing
/// IP is chosen pseudo-randomly each step — so every IP's own stride is
/// perfectly constant while the page-local delta stream is jumbled, exactly
/// the structure that motivates IP classification over global/page delta
/// tracking (Section III). Every 8th access is a store striding through an
/// output array.
pub fn constant_stride(
    name: &str,
    ips: u32,
    stride_lines: i64,
    pad: u32,
    footprint_lines: u64,
    seed: u64,
) -> SynthTrace {
    let name = name.to_string();
    assert!(ips > 0 && footprint_lines > 0 && stride_lines != 0);
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        let mut mixer = Mixer::new(pad, 0x40_0000, 16);
        // Pairs of IPs share an array and one logical index: member 0 reads
        // the element at the cursor, member 1 reads a field 9 lines away.
        // The intra-pair emission order is random per iteration, so the
        // page-local delta stream is permanently jumbled while each IP's
        // own stride stays exactly `stride_lines`.
        let npairs = ips.div_ceil(2) as usize;
        let mut cursor: Vec<u64> = (0..npairs)
            .map(|_| rng.below(footprint_lines / 2))
            .collect();
        let mut store_cursor = 0u64;
        let mut count = 0u64;
        let mut pair = 0usize;
        let mut pending: Option<(usize, u32)> = None; // (pair, member)
        Box::new(std::iter::from_fn(move || {
            if let Some(i) = mixer.pad_instr() {
                return Some(i);
            }
            count += 1;
            mixer.arm();
            // Every 8th memory op is a store striding through its own
            // output array; loads keep their pure per-IP constant strides.
            if count.is_multiple_of(8) {
                store_cursor = store_cursor
                    .wrapping_add_signed(stride_lines)
                    .rem_euclid(footprint_lines);
                let addr =
                    0x1800_0000 + u64::from(ips) * footprint_lines * LINE * 2 + store_cursor * LINE;
                return Some(Instr::store(0x50_8094, addr));
            }
            let (p, member, advance) = match pending.take() {
                Some((p, m)) => (p, m, true),
                None => {
                    let p = pair;
                    pair = next_wrapping(pair, npairs);
                    let first = rng.below(2) as u32;
                    // Odd total IP count: the last pair has one member only.
                    if (p as u32 * 2 + 1) < ips {
                        pending = Some((p, 1 - first));
                        (p, first, false)
                    } else {
                        (p, 0, true)
                    }
                }
            };
            let line = cursor[p] % footprint_lines;
            if advance {
                cursor[p] = cursor[p]
                    .wrapping_add_signed(stride_lines)
                    .rem_euclid(footprint_lines);
            }
            let k = p as u32 * 2 + member;
            let base = 0x1000_0000 + p as u64 * footprint_lines * LINE * 2;
            let addr = base + ((line + u64::from(member) * 9) % footprint_lines) * LINE;
            let ip = 0x50_0010 + u64::from(k) * 36;
            Some(Instr::load(ip, addr))
        }))
    })
}

/// Complex-stride workload (`mcf`-like, Section III's IP *B*): each IP walks
/// a repeating non-constant line-stride `pattern` (e.g. `[1, 2]` for the
/// paper's 1,2,1,2 example, or `[3, 3, 4]`).
pub fn complex_stride(
    name: &str,
    pattern: &[i64],
    ips: u32,
    pad: u32,
    footprint_lines: u64,
    seed: u64,
) -> SynthTrace {
    assert!(!pattern.is_empty() && ips > 0);
    let pattern: Vec<i64> = pattern.to_vec();
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        let mut mixer = Mixer::new(pad, 0x41_0000, 16);
        // Pairs of IPs share a cursor/pattern phase over one array (see
        // constant_stride): per-IP stride patterns stay exact while the
        // page-local delta stream is permanently jumbled.
        let npairs = ips.div_ceil(2) as usize;
        let mut cursor: Vec<u64> = (0..npairs)
            .map(|_| rng.below(footprint_lines / 2))
            .collect();
        let mut phase: Vec<usize> = vec![0; npairs];
        let pattern = pattern.clone();
        let mut pair = 0usize;
        let mut pending: Option<(usize, u32)> = None;
        Box::new(std::iter::from_fn(move || {
            if let Some(i) = mixer.pad_instr() {
                return Some(i);
            }
            mixer.arm();
            let (p, member, advance) = match pending.take() {
                Some((p, m)) => (p, m, true),
                None => {
                    let p = pair;
                    pair = next_wrapping(pair, npairs);
                    let first = rng.below(2) as u32;
                    if (p as u32 * 2 + 1) < ips {
                        pending = Some((p, 1 - first));
                        (p, first, false)
                    } else {
                        (p, 0, true)
                    }
                }
            };
            let line = cursor[p] % footprint_lines;
            if advance {
                let step = pattern[phase[p]];
                phase[p] = next_wrapping(phase[p], pattern.len());
                cursor[p] = cursor[p]
                    .wrapping_add_signed(step)
                    .rem_euclid(footprint_lines);
            }
            let k = p as u32 * 2 + member;
            let base = 0x2000_0000 + p as u64 * footprint_lines * LINE * 2;
            let addr = base + ((line + u64::from(member) * 9) % footprint_lines) * LINE;
            Some(Instr::load(0x51_0148 + u64::from(k) * 36, addr))
        }))
    })
}

/// Global-stream workload (`lbm`/`gcc`-like, Section III's IPs *C,D,E*):
/// advances through 2 KB regions in `direction` (±1), visiting
/// `dense_lines` of each region's 32 lines. Within a region the visit order
/// is split into consecutive chunks handled by different IPs, each chunk
/// locally jumbled — the paper's "contiguous but jumbled by program order"
/// stream.
pub fn global_stream(
    name: &str,
    direction: i64,
    dense_lines: u32,
    chunk: usize,
    pad: u32,
    seed: u64,
) -> SynthTrace {
    assert!(direction == 1 || direction == -1);
    assert!((1..=32).contains(&dense_lines));
    assert!(chunk >= 1);
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        let mut mixer = Mixer::new(pad, 0x42_0000, 16);
        let mut region: i64 = if direction > 0 { 0 } else { 1 << 20 };
        let mut order: Vec<u8> = Vec::new();
        let mut pos = 0usize;
        let total_regions: i64 = 1 << 20; // 2 GB footprint, wraps
        Box::new(std::iter::from_fn(move || {
            if let Some(i) = mixer.pad_instr() {
                return Some(i);
            }
            if pos >= order.len() {
                // Build the next region's visit order.
                let mut lines: Vec<u8> = (0..32).collect();
                // Drop (32 - dense) random lines.
                while lines.len() as u32 > dense_lines {
                    let kill = rng.below(lines.len() as u64) as usize;
                    lines.remove(kill);
                }
                if direction < 0 {
                    lines.reverse();
                }
                // Jumble within consecutive chunks.
                for c in lines.chunks_mut(chunk) {
                    rng.shuffle(c);
                }
                order = lines;
                pos = 0;
                region = (region + direction).rem_euclid(total_regions);
            }
            let off = u64::from(order[pos]);
            let ip = 0x52_0058 + (pos / chunk) as u64 % 6 * 36;
            pos += 1;
            let addr = 0x8000_0000 + region as u64 * 2048 + off * LINE;
            mixer.arm();
            Some(Instr::load(ip, addr))
        }))
    })
}

/// Pointer-chasing irregular workload (`mcf-1536B`/`omnetpp`-like): a
/// deterministic random walk over `footprint_lines` lines. One jump in
/// four stays within ±8 lines of the current node — the allocator locality
/// real linked structures exhibit, and the reason the paper's Fig. 12
/// credits CPLX/NL with covering "some of the complex and irregular
/// strides" on mcf/omnetpp rather than none.
pub fn pointer_chase(name: &str, footprint_lines: u64, pad: u32, seed: u64) -> SynthTrace {
    assert!(footprint_lines > 1);
    SynthTrace::new(name, move || {
        let mut mixer = Mixer::new(pad, 0x43_0000, 64);
        let mut rng = Rng64::new(seed);
        let mut line = 0u64;
        Box::new(std::iter::from_fn(move || {
            if let Some(i) = mixer.pad_instr() {
                return Some(i);
            }
            line = if rng.chance(1, 4) {
                let jitter = rng.below(17) as i64 - 8;
                line.wrapping_add_signed(jitter).rem_euclid(footprint_lines)
            } else {
                rng.below(footprint_lines)
            };
            let addr = 0x4000_0000 + line * LINE;
            mixer.arm();
            Some(Instr::load(0x53_019c, addr))
        }))
    })
}

/// Nested-loop workload (Section IV-B's "loops at various levels"): an
/// inner IP makes `inner_len` accesses with `inner_stride`, then the outer
/// loop jumps by `outer_stride` lines — a repeating complex stride pattern
/// for the inner IP — while a second IP makes clean constant strides.
pub fn nested_loop(
    name: &str,
    inner_len: u64,
    inner_stride: i64,
    outer_stride: i64,
    pad: u32,
    footprint_lines: u64,
) -> SynthTrace {
    assert!(inner_len > 0);
    SynthTrace::new(name, move || {
        let mut mixer = Mixer::new(pad, 0x44_0000, 16);
        let mut i = 0u64; // outer index
        let mut j = 0u64; // inner index
        let mut toggle = false;
        let mut outer_cursor = 0u64;
        Box::new(std::iter::from_fn(move || {
            if let Some(ins) = mixer.pad_instr() {
                return Some(ins);
            }
            mixer.arm();
            toggle = !toggle;
            if toggle {
                // Inner IP.
                let line = (i as i64 * outer_stride + j as i64 * inner_stride)
                    .rem_euclid(footprint_lines as i64) as u64;
                j += 1;
                if j == inner_len {
                    j = 0;
                    i += 1;
                }
                Some(Instr::load(0x54_00c4, 0x6000_0000 + line * LINE))
            } else {
                // Outer CS IP on a second array.
                outer_cursor = (outer_cursor + 2) % footprint_lines;
                Some(Instr::load(0x54_0230, 0x7000_0000 + outer_cursor * LINE))
            }
        }))
    })
}

/// Huge-code-footprint workload (`cactuBSSN`-like): `static_ips` distinct
/// load IPs used round-robin, each with its own small constant stride. The
/// IP reuse distance equals `static_ips`, which defeats any direct-mapped
/// 64-entry IP table (Section VI-B's cactuBSSN discussion).
pub fn large_code(
    name: &str,
    static_ips: u32,
    pad: u32,
    footprint_lines: u64,
    seed: u64,
) -> SynthTrace {
    assert!(static_ips > 0);
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        let mut mixer = Mixer::new(pad, 0x45_0000, u64::from(static_ips));
        let mut cursor: Vec<u64> = (0..static_ips)
            .map(|_| rng.below(footprint_lines))
            .collect();
        let mut which = 0usize;
        Box::new(std::iter::from_fn(move || {
            if let Some(ins) = mixer.pad_instr() {
                return Some(ins);
            }
            let k = which;
            which = next_wrapping(which, static_ips as usize);
            cursor[k] = (cursor[k] + 2) % footprint_lines;
            let addr = 0x9000_0000 + (k as u64 * footprint_lines + cursor[k]) * LINE;
            mixer.arm();
            // IPs spaced a line apart: real I-side pressure as well.
            Some(Instr::load(0x100_0000 + k as u64 * 64, addr))
        }))
    })
}

/// Cache-resident workload (low-MPKI `leela`/`povray`-like): loops over a
/// `ws_lines`-line working set that fits in cache after the first pass.
pub fn resident(name: &str, ws_lines: u64, pad: u32) -> SynthTrace {
    assert!(ws_lines > 0);
    SynthTrace::new(name, move || {
        let mut mixer = Mixer::new(pad, 0x46_0000, 16);
        let mut cursor = 0u64;
        let mut count = 0u64;
        Box::new(std::iter::from_fn(move || {
            if let Some(ins) = mixer.pad_instr() {
                return Some(ins);
            }
            cursor = next_wrapping(cursor, ws_lines);
            count += 1;
            mixer.arm();
            let addr = 0xa000_0000 + cursor * LINE;
            Some(if count.is_multiple_of(16) {
                Instr::store(0x55_02d4, addr)
            } else {
                Instr::load(0x55_01c8, addr)
            })
        }))
    })
}

/// Mostly-resident workload with sparse random far misses (post-325 B
/// `xalancbmk`-like): one access in `miss_every` goes to a random line in a
/// huge footprint. No prefetcher covers the random component.
pub fn sparse(
    name: &str,
    ws_lines: u64,
    miss_every: u64,
    footprint_lines: u64,
    seed: u64,
    pad: u32,
) -> SynthTrace {
    assert!(miss_every > 1);
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        let mut mixer = Mixer::new(pad, 0x47_0000, 32);
        let mut cursor = 0u64;
        let mut count = 0u64;
        Box::new(std::iter::from_fn(move || {
            if let Some(ins) = mixer.pad_instr() {
                return Some(ins);
            }
            count += 1;
            mixer.arm();
            if count.is_multiple_of(miss_every) {
                let line = rng.below(footprint_lines);
                Some(Instr::load(0x56_0248, 0xc000_0000 + line * LINE))
            } else {
                cursor = next_wrapping(cursor, ws_lines);
                Some(Instr::load(0x56_0124, 0xb000_0000 + cursor * LINE))
            }
        }))
    })
}

/// Deep-call-chain workload (cloud-microservice front end): a static call
/// tree over `fns` functions of `body_instrs` instructions each, walked by
/// a depth-bounded interpreter. Each function has two fixed call sites
/// whose targets are chosen once per stream from the seed, so control flow
/// *repeats* — a front-end prefetcher has real transitions to learn —
/// while the instruction footprint is `fns × body_instrs × 4` bytes
/// (multi-MB at the suite's configurations), far beyond any L1-I. Every
/// 6th instruction is a load striding a shared data array, so the D-side
/// sees a clean prefetchable stream alongside the I-side pressure.
pub fn deep_calls(
    name: &str,
    fns: u32,
    body_instrs: u32,
    max_depth: u32,
    data_lines: u64,
    seed: u64,
) -> SynthTrace {
    assert!(fns >= 2 && body_instrs >= 8 && max_depth >= 1 && data_lines > 0);
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        // The static call graph: two call sites per function, targets fixed
        // at stream start.
        let callees: Vec<[u32; 2]> = (0..fns)
            .map(|_| {
                [
                    rng.below(u64::from(fns)) as u32,
                    rng.below(u64::from(fns)) as u32,
                ]
            })
            .collect();
        let site = [body_instrs / 3, 2 * body_instrs / 3];
        let code_base = 0x10_0000u64;
        let mut stack: Vec<(u32, u32)> = Vec::new(); // (function, resume pos)
        let mut cur = 0u32;
        let mut pos = 0u32;
        let mut root = 0u32;
        let mut count = 0u64;
        let mut data_cursor = 0u64;
        Box::new(std::iter::from_fn(move || {
            let ip = code_base + (u64::from(cur) * u64::from(body_instrs) + u64::from(pos)) * 4;
            count += 1;
            let instr = if count.is_multiple_of(6) {
                data_cursor = next_wrapping(data_cursor, data_lines);
                Instr::load(ip, 0x3000_0000 + data_cursor * LINE)
            } else {
                Instr::nop(ip)
            };
            pos += 1;
            if pos >= body_instrs {
                // Return — or start the next root walk when the stack
                // drains (roots rotate so every function is eventually a
                // chain head).
                match stack.pop() {
                    Some((f, p)) => {
                        cur = f;
                        pos = p;
                    }
                    None => {
                        root = next_wrapping(root, fns);
                        cur = root;
                        pos = 0;
                    }
                }
            } else if stack.len() < max_depth as usize && (pos == site[0] || pos == site[1]) {
                let s = usize::from(pos == site[1]);
                stack.push((cur, pos));
                cur = callees[cur as usize][s];
                pos = 0;
            }
            Some(instr)
        }))
    })
}

/// Hot/cold code-mix workload (server request loop): a small set of
/// `hot_fns` functions executes round-robin (the dispatch loop — L1-I
/// resident), and every `cold_every`-th function body is a randomly chosen
/// one of `cold_fns` cold functions (handler tails — a multi-MB footprint
/// revisited rarely). Hot code loads from a small resident array; cold
/// code loads randomly from `data_lines` cold data.
pub fn hot_cold_code(
    name: &str,
    hot_fns: u32,
    cold_fns: u32,
    body_instrs: u32,
    cold_every: u32,
    data_lines: u64,
    seed: u64,
) -> SynthTrace {
    assert!(hot_fns >= 1 && cold_fns >= 1 && body_instrs >= 4 && cold_every >= 2);
    assert!(data_lines > 0);
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        let hot_base = 0x20_0000u64;
        let cold_base = hot_base + u64::from(hot_fns) * u64::from(body_instrs) * 4;
        let mut in_cold = false;
        let mut cur = 0u32;
        let mut pos = 0u32;
        let mut bodies = 0u64;
        let mut hot_rr = 0u32;
        let mut count = 0u64;
        let mut hot_cursor = 0u64;
        Box::new(std::iter::from_fn(move || {
            let base = if in_cold { cold_base } else { hot_base };
            let ip = base + (u64::from(cur) * u64::from(body_instrs) + u64::from(pos)) * 4;
            count += 1;
            let instr = if count.is_multiple_of(5) {
                if in_cold {
                    let l = rng.below(data_lines);
                    Instr::load(ip, 0x5000_0000 + l * LINE)
                } else {
                    hot_cursor = (hot_cursor + 1) % 512;
                    Instr::load(ip, 0x4000_0000 + hot_cursor * LINE)
                }
            } else {
                Instr::nop(ip)
            };
            pos += 1;
            if pos >= body_instrs {
                pos = 0;
                bodies += 1;
                if bodies.is_multiple_of(u64::from(cold_every)) {
                    in_cold = true;
                    cur = rng.below(u64::from(cold_fns)) as u32;
                } else {
                    in_cold = false;
                    hot_rr = next_wrapping(hot_rr, hot_fns);
                    cur = hot_rr;
                }
            }
            Some(instr)
        }))
    })
}

/// Interleaves several traces instruction-by-instruction with integer
/// weights: out of `Σ weights` consecutive instructions, each part
/// contributes its weight's worth, round-robin.
///
/// This is how the suites build *realistic* memory intensity: a pattern
/// stream (every access a fresh line) blended with a cache-resident
/// component models the hit/miss mix of a real benchmark, instead of the
/// 100 %-miss firehose a raw generator produces. The instructions-per-miss
/// ratio — which sets MPKI and the DRAM-bandwidth headroom prefetchers
/// exploit — is `Σ weights` per stream-side memory access.
pub fn blend(name: &str, parts: Vec<(SynthTrace, u32)>) -> SynthTrace {
    assert!(!parts.is_empty() && parts.iter().all(|&(_, w)| w > 0));
    SynthTrace::new(name, move || {
        let mut streams: Vec<_> = parts.iter().map(|(p, _)| p.stream()).collect();
        let weights: Vec<u32> = parts.iter().map(|&(_, w)| w).collect();
        let mut idx = 0usize;
        let mut left = weights[0];
        Box::new(std::iter::from_fn(move || {
            while left == 0 {
                idx = next_wrapping(idx, streams.len());
                left = weights[idx];
            }
            left -= 1;
            streams[idx].next()
        }))
    })
}

/// Phase-alternating workload: cycles through `parts`, running each for
/// `phase_len` instructions before switching (IPs migrate between classes,
/// Section III: "a particular IP can move from one access pattern to
/// another").
pub fn phased(name: &str, parts: Vec<SynthTrace>, phase_len: u64) -> SynthTrace {
    assert!(!parts.is_empty() && phase_len > 0);
    SynthTrace::new(name, move || {
        let mut streams: Vec<_> = parts.iter().map(|p| p.stream()).collect();
        let mut idx = 0usize;
        let mut left = phase_len;
        Box::new(std::iter::from_fn(move || {
            if left == 0 {
                idx = next_wrapping(idx, streams.len());
                left = phase_len;
            }
            left -= 1;
            streams[idx].next()
        }))
    })
}

/// Server-style workload (CloudSuite-like): large instruction footprint plus
/// a *temporal* (repeating but spatially random) data reference stream —
/// the pattern class on which all spatial prefetchers fail (Section VI-D).
pub fn server(
    name: &str,
    code_ips: u64,
    temporal_len: usize,
    footprint_lines: u64,
    pad: u32,
    seed: u64,
) -> SynthTrace {
    assert!(temporal_len > 0);
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        // The recorded temporal sequence: visited over and over.
        let seq: Vec<u64> = (0..temporal_len)
            .map(|_| rng.below(footprint_lines))
            .collect();
        let mut mixer = Mixer::new(pad, 0x2000_0000, code_ips);
        let mut pos = 0usize;
        Box::new(std::iter::from_fn(move || {
            if let Some(ins) = mixer.pad_instr() {
                return Some(ins);
            }
            let line = seq[pos];
            pos = next_wrapping(pos, seq.len());
            mixer.arm();
            let ip = 0x2100_0000 + (line % 997) * 16; // many data IPs too
            Some(Instr::load(ip, 0xd000_0000 + line * LINE))
        }))
    })
}

/// Tensor-kernel workload (CNN/RNN-like): `streams` forward sequential
/// streams (activations / im2col patches) interleaved with a looping reuse
/// stream (weights) and a store stream (outputs). Heavily stream-dominated,
/// which is why the paper's NN suite favors IPCP's GS class.
pub fn tensor_streams(
    name: &str,
    streams: u32,
    reuse_lines: u64,
    pad: u32,
    seed: u64,
) -> SynthTrace {
    assert!(streams > 0);
    SynthTrace::new(name, move || {
        let mut rng = Rng64::new(seed);
        let mut mixer = Mixer::new(pad, 0x48_0000, 64);
        let mut cursors: Vec<u64> = (0..streams).map(|_| rng.below(1 << 16)).collect();
        let mut reuse_cursor = 0u64;
        let mut out_cursor = 0u64;
        let mut slot = 0u32;
        Box::new(std::iter::from_fn(move || {
            if let Some(ins) = mixer.pad_instr() {
                return Some(ins);
            }
            mixer.arm();
            let n = streams + 2;
            let s = slot % n;
            slot += 1;
            if s < streams {
                let k = s as usize;
                cursors[k] += 1;
                let addr = 0xe000_0000 + (s as u64) * (1 << 30) + (cursors[k] % (1 << 22)) * LINE;
                Some(Instr::load(0x57_009c + u64::from(s) * 36, addr))
            } else if s == streams {
                reuse_cursor = next_wrapping(reuse_cursor, reuse_lines.max(1));
                Some(Instr::load(0x57_8134, 0xf000_0000 + reuse_cursor * LINE))
            } else {
                out_cursor += 1;
                Some(Instr::store(
                    0x57_8260,
                    0xf800_0000 + (out_cursor % (1 << 22)) * LINE,
                ))
            }
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp_mem::LINES_PER_REGION;
    use ipcp_trace::MemOp;

    fn mem_lines(t: &SynthTrace, n: usize) -> Vec<(u64, u64)> {
        t.stream()
            .filter(|i| i.is_mem())
            .take(n)
            .map(|i| (i.ip.raw(), i.vaddr().unwrap().line().raw()))
            .collect()
    }

    #[test]
    fn next_wrapping_is_increment_modulo_n() {
        for n in 1..40u64 {
            for x in 0..n {
                assert_eq!(next_wrapping(x, n), (x + 1) % n);
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        for t in [
            constant_stride("cs", 2, 3, 2, 1 << 16, 1),
            complex_stride("cplx", &[1, 2], 1, 2, 1 << 16, 2),
            global_stream("gs", 1, 30, 3, 2, 3),
            pointer_chase("irr", 1 << 16, 2, 4),
            tensor_streams("nn", 3, 4096, 2, 5),
            server("srv", 1024, 1 << 12, 1 << 18, 2, 6),
        ] {
            let a: Vec<_> = t.stream().take(5000).collect();
            let b: Vec<_> = t.stream().take(5000).collect();
            assert_eq!(a, b, "{} must be deterministic", TraceSource::name(&t));
        }
    }

    #[test]
    fn constant_stride_has_constant_per_ip_stride() {
        let t = constant_stride("cs", 2, 3, 0, 1 << 20, 7);
        let accesses = mem_lines(&t, 400);
        for ip in [0x50_0010u64, 0x50_0010 + 36] {
            let lines: Vec<u64> = accesses
                .iter()
                .filter(|(i, _)| *i == ip)
                .map(|&(_, l)| l)
                .collect();
            assert!(lines.len() > 20);
            let mut constant = 0;
            for w in lines.windows(2) {
                if w[1] as i64 - w[0] as i64 == 3 {
                    constant += 1;
                }
            }
            // All but footprint wraps are stride 3.
            assert!(constant as f64 / (lines.len() - 1) as f64 > 0.95);
        }
    }

    #[test]
    fn complex_stride_follows_pattern() {
        let t = complex_stride("cplx", &[1, 2], 1, 0, 1 << 20, 9);
        let lines: Vec<u64> = mem_lines(&t, 100).iter().map(|&(_, l)| l).collect();
        let deltas: Vec<i64> = lines
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        // Alternating 1,2 (in either phase).
        let ok = deltas
            .windows(2)
            .filter(|d| (d[0] == 1 && d[1] == 2) || (d[0] == 2 && d[1] == 1))
            .count();
        assert!(
            ok as f64 / (deltas.len() - 1) as f64 > 0.9,
            "deltas: {deltas:?}"
        );
    }

    #[test]
    fn global_stream_regions_are_dense_and_ordered() {
        let t = global_stream("gs", 1, 30, 3, 0, 11);
        let lines: Vec<u64> = mem_lines(&t, 3000).iter().map(|&(_, l)| l).collect();
        // Group by region; all but the partial first/last region must have
        // ~30 of 32 lines visited.
        use std::collections::{BTreeMap, BTreeSet};
        let mut regions: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        for l in &lines {
            regions
                .entry(l / LINES_PER_REGION)
                .or_default()
                .insert(l % LINES_PER_REGION);
        }
        let dense = regions.values().filter(|s| s.len() >= 29).count();
        assert!(
            dense >= regions.len() - 2,
            "{} of {} regions dense",
            dense,
            regions.len()
        );
        // Regions advance monotonically (positive direction).
        let keys: Vec<u64> = regions.keys().copied().collect();
        assert!(keys.windows(2).all(|w| w[1] == w[0] + 1));
        // Multiple IPs participate.
        let ips: BTreeSet<u64> = mem_lines(&t, 3000).iter().map(|&(ip, _)| ip).collect();
        assert!(ips.len() >= 3, "GS must involve several IPs, got {ips:?}");
    }

    #[test]
    fn negative_global_stream_descends() {
        let t = global_stream("gs-neg", -1, 32, 4, 0, 13);
        let lines: Vec<u64> = mem_lines(&t, 2000).iter().map(|&(_, l)| l).collect();
        let regions: Vec<u64> = lines.iter().map(|l| l / LINES_PER_REGION).collect();
        let mut uniq = regions.clone();
        uniq.dedup();
        assert!(uniq.windows(2).all(|w| w[1] < w[0]), "regions must descend");
    }

    #[test]
    fn pointer_chase_is_unpredictable() {
        let t = pointer_chase("irr", 1 << 20, 0, 5);
        let lines: Vec<u64> = mem_lines(&t, 1000).iter().map(|&(_, l)| l).collect();
        let mut deltas: std::collections::HashMap<i64, u32> = std::collections::HashMap::new();
        for w in lines.windows(2) {
            *deltas.entry(w[1] as i64 - w[0] as i64).or_default() += 1;
        }
        let max_repeat = deltas.values().copied().max().unwrap();
        // Local jumps put a little mass on small deltas (allocator
        // locality) but nothing approaching a learnable dominant stride.
        assert!(
            max_repeat < 60,
            "no delta should dominate, max {max_repeat}"
        );
    }

    #[test]
    fn server_stream_is_temporal() {
        let len = 1 << 10;
        let t = server("srv", 256, len, 1 << 20, 0, 17);
        let first: Vec<u64> = mem_lines(&t, len).iter().map(|&(_, l)| l).collect();
        let second: Vec<u64> = mem_lines(&t, 2 * len)[len..]
            .iter()
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(first, second, "temporal sequence must repeat exactly");
    }

    #[test]
    fn phased_switches_sources() {
        let a = resident("a", 64, 0);
        let b = pointer_chase("b", 1 << 16, 0, 1);
        let t = phased("ph", vec![a, b], 100);
        let instrs: Vec<Instr> = t.stream().take(400).collect();
        let resident_ips = instrs[..100]
            .iter()
            .filter(|i| i.ip.raw() >= 0x55_0000 && i.ip.raw() < 0x56_0000)
            .count();
        assert!(resident_ips > 50);
        let chase_ips = instrs[100..200]
            .iter()
            .filter(|i| i.ip.raw() == 0x53_019c)
            .count();
        assert!(chase_ips > 50);
    }

    #[test]
    fn mixer_produces_pads() {
        let t = resident("r", 64, 3);
        let instrs: Vec<Instr> = t.stream().take(400).collect();
        let mem = instrs.iter().filter(|i| i.is_mem()).count();
        let nops = instrs.len() - mem;
        assert!(
            (nops as f64 / mem as f64 - 3.0).abs() < 0.2,
            "{nops} pads for {mem} mems"
        );
    }

    #[test]
    fn stores_present_where_expected() {
        let t = constant_stride("cs", 1, 1, 0, 1 << 16, 3);
        let stores = t
            .stream()
            .take(1000)
            .filter(|i| matches!(i.mem, MemOp::Store(_)))
            .count();
        assert!(stores > 50);
    }

    #[test]
    fn large_code_cycles_many_ips() {
        let t = large_code("big", 2048, 1, 1 << 10, 19);
        let ips: std::collections::BTreeSet<u64> = t
            .stream()
            .take(20_000)
            .filter(|i| i.is_mem())
            .map(|i| i.ip.raw())
            .collect();
        assert!(ips.len() > 2000, "got {} distinct IPs", ips.len());
    }

    #[test]
    fn deep_calls_has_multi_mb_code_footprint() {
        // 4096 functions × 256 instructions × 4 B = 4 MB of code; a long
        // prefix must touch far more instruction lines than any L1-I holds
        // (the structural point of the workload).
        let t = deep_calls("deep", 4096, 256, 8, 4096, 31);
        let lines: std::collections::BTreeSet<u64> =
            t.stream().take(400_000).map(|i| i.ip.raw() / 64).collect();
        assert!(
            lines.len() > 4096,
            "code footprint too small: {} lines",
            lines.len()
        );
        // Determinism (the static call graph is seed-fixed).
        let a: Vec<Instr> = t.stream().take(5000).collect();
        let b: Vec<Instr> = t.stream().take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn deep_calls_control_flow_repeats() {
        // The same call-graph walk recurs: the set of (ip, next-ip)
        // transitions saturates — most transitions seen late in the stream
        // were already seen earlier, which is what a record-based front-end
        // prefetcher exploits.
        let t = deep_calls("deep", 32, 32, 4, 256, 33);
        let ips: Vec<u64> = t.stream().take(120_000).map(|i| i.ip.raw()).collect();
        let mut seen = std::collections::HashSet::new();
        for w in ips[..60_000].windows(2) {
            seen.insert((w[0], w[1]));
        }
        let late: Vec<_> = ips[60_000..].windows(2).collect();
        let repeats = late.iter().filter(|w| seen.contains(&(w[0], w[1]))).count();
        assert!(
            repeats as f64 / late.len() as f64 > 0.9,
            "{repeats} of {} late transitions repeat",
            late.len()
        );
    }

    #[test]
    fn hot_cold_code_splits_fetch_traffic() {
        let t = hot_cold_code("hc", 8, 4096, 32, 5, 1 << 14, 37);
        let hot_base = 0x20_0000u64;
        let cold_base = hot_base + 8 * 32 * 4;
        let ips: Vec<u64> = t.stream().take(100_000).map(|i| i.ip.raw()).collect();
        let hot = ips.iter().filter(|&&ip| ip < cold_base).count();
        let cold_lines: std::collections::BTreeSet<u64> = ips
            .iter()
            .filter(|&&ip| ip >= cold_base)
            .map(|&ip| ip / 64)
            .collect();
        // Hot dispatch dominates instruction count; cold code still spans
        // a large footprint of rarely revisited lines.
        assert!(
            hot as f64 / ips.len() as f64 > 0.6,
            "{hot} hot of {}",
            ips.len()
        );
        assert!(cold_lines.len() > 500, "{} cold lines", cold_lines.len());
    }

    #[test]
    fn nested_loop_inner_pattern_repeats() {
        let t = nested_loop("nest", 4, 1, 16, 0, 1 << 20);
        let inner: Vec<u64> = mem_lines(&t, 200)
            .iter()
            .filter(|(ip, _)| *ip == 0x54_00c4)
            .map(|&(_, l)| l)
            .collect();
        let deltas: Vec<i64> = inner
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        // Pattern is 1,1,1,13 repeating (3 inner steps then jump to next
        // outer row: 16 - 3 = 13).
        assert_eq!(&deltas[..8], &[1, 1, 1, 13, 1, 1, 1, 13]);
    }
}
