//! The trace memo is invisible: every batch stream of a [`SynthTrace`]
//! delivers exactly the rows its generator yields through `stream()`.
//!
//! A `SynthTrace` memoizes its stream prefix once per process and replays
//! it to every later batch stream, so a memo bug would feed the simulator
//! a different trace than the generator defines without any figure
//! noticing. These tests compare the two paths row for row over every
//! suite trace and the fuzz corpus, and over the memo's edge cases:
//! streams that interleave at different depths, reads across chunk edges,
//! reads past the memo cap, finite generators that run dry, and values
//! outside a chunk's 4 GiB window.

use ipcp_trace::{BatchStream, Instr, InstrBatch, TraceSource, BATCH_CAPACITY};
use ipcp_workloads::fuzz;
use ipcp_workloads::gen::{resident, SynthTrace};
use ipcp_workloads::{cloud_suite, frontend_suite, full_suite, memory_intensive_suite, nn_suite};

/// Instructions per memo chunk (`MEMO_CHUNK` in `gen.rs`).
const CHUNK: usize = 4096;

/// Memo depth in instructions (`MEMO_CAP` in `gen.rs`): past it a batch
/// stream regenerates privately.
const MEMO_CAP: usize = 4_000_000;

/// Depth each suite trace is checked to: three chunk edges and a ragged
/// tail.
const DEPTH: usize = 3 * CHUNK + 700;

/// Pulls batches from `s` until `n` rows have arrived or it runs dry.
fn pull(s: &mut dyn BatchStream, batch: &mut InstrBatch, n: usize) -> Vec<Instr> {
    let mut rows = Vec::new();
    while rows.len() < n {
        if s.next_batch(batch) == 0 {
            break;
        }
        assert!(batch.len() <= BATCH_CAPACITY);
        rows.extend(batch.iter());
    }
    rows
}

/// Checks the first `n` rows of a fresh batch stream against `stream()`.
fn check_prefix(t: &dyn TraceSource, n: usize) {
    let want: Vec<Instr> = t.stream().take(n).collect();
    let got = pull(&mut *t.batch_stream(), &mut InstrBatch::new(), n);
    assert!(
        got.len() >= n,
        "{}: stream ended at {}",
        t.name(),
        got.len()
    );
    assert_eq!(&got[..n], &want[..], "{}: memo rows differ", t.name());
}

fn check_suite(traces: Vec<SynthTrace>) {
    for t in &traces {
        // The first batch stream fills the memo, the second replays it.
        check_prefix(t, DEPTH);
        check_prefix(t, DEPTH);
    }
}

#[test]
fn memory_intensive_suite_replays_its_generators() {
    check_suite(memory_intensive_suite());
}

#[test]
fn full_suite_replays_its_generators() {
    check_suite(full_suite());
}

#[test]
fn frontend_suite_replays_its_generators() {
    check_suite(frontend_suite());
}

#[test]
fn cloud_and_nn_suites_replay_their_generators() {
    check_suite(cloud_suite());
    check_suite(nn_suite());
}

#[test]
fn fuzz_corpus_replays_its_generators() {
    check_suite(fuzz::corpus(0xc0ffee, 2));
}

/// Two streams of one trace read in turns, at different depths: the
/// leader extends the memo while the follower replays behind it.
#[test]
fn interleaved_streams_each_see_the_whole_trace() {
    for t in [
        memory_intensive_suite().swap_remove(3),
        fuzz::fuzz_trace(fuzz::FuzzPattern::RandomChurn, 9),
        frontend_suite().swap_remove(0),
    ] {
        let want: Vec<Instr> = t.stream().take(4 * CHUNK).collect();
        let (mut a, mut b) = (t.batch_stream(), t.batch_stream());
        let (mut ba, mut bb) = (InstrBatch::new(), InstrBatch::new());
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        // A leads by seven batches, then each takes a different stride.
        got_a.extend(pull(&mut *a, &mut ba, 7 * BATCH_CAPACITY));
        while got_a.len() < want.len() || got_b.len() < want.len() {
            if got_a.len() < want.len() {
                got_a.extend(pull(&mut *a, &mut ba, 3 * BATCH_CAPACITY));
            }
            if got_b.len() < want.len() {
                got_b.extend(pull(&mut *b, &mut bb, 5 * BATCH_CAPACITY));
            }
        }
        let name = t.name();
        assert_eq!(&got_a[..want.len()], &want[..], "{name}: leading stream");
        assert_eq!(&got_b[..want.len()], &want[..], "{name}: following stream");
    }
}

/// A finite generator of `len` instructions, with loads, stores and
/// non-memory instructions in an irregular mix.
fn finite(len: usize) -> SynthTrace {
    SynthTrace::new(format!("finite-{len}"), move || {
        Box::new((0..len as u64).map(|i| {
            let ip = 0x40_0000 + (i % 97) * 4;
            match (i * 7 + i / 5) % 5 {
                0 | 3 => Instr::load(ip, 0x1000_0000 + i * 72),
                1 => Instr::store(ip, 0x2000_0000 + i * 8),
                _ => Instr::nop(ip),
            }
        }))
    })
}

/// A generator that runs dry ends every batch stream at its last row, at
/// a chunk edge or inside a chunk, and the stream stays ended.
#[test]
fn finite_generators_run_dry_at_their_last_row() {
    for len in [
        0,
        1,
        BATCH_CAPACITY - 1,
        BATCH_CAPACITY,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        2 * CHUNK + 300,
    ] {
        let t = finite(len);
        let want: Vec<Instr> = t.stream().collect();
        assert_eq!(want.len(), len);
        for pass in 0..2 {
            let mut s = t.batch_stream();
            let mut batch = InstrBatch::new();
            let got = pull(&mut *s, &mut batch, usize::MAX);
            assert_eq!(got, want, "finite-{len} pass {pass}");
            for _ in 0..3 {
                assert_eq!(s.next_batch(&mut batch), 0, "finite-{len}: ended");
                assert!(batch.is_empty());
            }
        }
    }
}

/// Reading past the memo cap hands over to a private generator without a
/// seam, both for the stream that fills the memo and for a later one.
#[test]
fn reads_past_the_memo_cap_continue_the_trace() {
    let t = resident("cap", 64, 1);
    let n = MEMO_CAP + CHUNK + 300;
    for pass in 0..2 {
        let mut want = t.stream();
        let mut s = t.batch_stream();
        let mut batch = InstrBatch::new();
        let mut seen = 0usize;
        while seen < n {
            assert!(s.next_batch(&mut batch) > 0, "pass {pass}: ended at {seen}");
            for (i, got) in batch.iter().enumerate() {
                let row = seen + i;
                assert_eq!(Some(got), want.next(), "pass {pass}: row {row}");
            }
            seen += batch.len();
        }
    }
}

/// Rows of [`straddling`] outside their chunk's 4 GiB window: both sides
/// of 256-row batch edges and 4096-row chunk edges, including the first
/// row of the second chunk, which sets that chunk's high words.
const OUTLIER_ROWS: [u64; 10] = [255, 256, 511, 4095, 4096, 4351, 4352, 8191, 8448, 12287];

/// A finite trace whose IPs and addresses cross 2^32 inside a chunk, with
/// outliers near `u64::MAX` and more than 4 GiB above the rest, every
/// outlier a load.
fn straddling(len: u64) -> SynthTrace {
    SynthTrace::new(format!("straddle-{len}"), move || {
        Box::new((0..len).map(|i| {
            if OUTLIER_ROWS.contains(&i) || i % 1021 == 17 {
                let (ip, addr) = if i % 2 == 0 {
                    (u64::MAX - 3 - (i % 5) * 4, u64::MAX - (i % 61))
                } else {
                    (0x7_0000_0000 + i * 4, 0x5_0000_0000 + i * 8)
                };
                return Instr::load(ip, addr);
            }
            // Both columns cross 2^32 once every 2048 rows.
            let ip = 0xffff_f000 + (i % 2048) * 4;
            let addr = 0xffff_8000 + (i * 72) % 0x1_0000;
            match i % 3 {
                0 => Instr::nop(ip),
                1 => Instr::load(ip, addr),
                _ => Instr::store(ip, addr),
            }
        }))
    })
}

/// Values outside a chunk's shared high word come back whole, wherever
/// they sit in the chunk and in the batch, for the stream that fills the
/// memo and for one that replays it.
#[test]
fn values_outside_a_chunks_window_replay_whole() {
    let len = 3 * CHUNK as u64 + 300;
    let t = straddling(len);
    let want: Vec<Instr> = t.stream().collect();
    assert!(want.iter().any(|i| i.ip.raw() >> 32 == 0xffff_ffff));
    for pass in 0..2 {
        let got = pull(&mut *t.batch_stream(), &mut InstrBatch::new(), usize::MAX);
        assert_eq!(got.len(), want.len(), "pass {pass}: length");
        for (row, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "pass {pass}: row {row}");
        }
    }
}

/// Checks every row of a finite trace, for the stream that fills the memo
/// and for one that replays it, and that both end at its last row.
fn check_whole(t: &SynthTrace) {
    let want: Vec<Instr> = t.stream().collect();
    for pass in 0..2 {
        let mut s = t.batch_stream();
        let mut batch = InstrBatch::new();
        let got = pull(&mut *s, &mut batch, usize::MAX);
        assert_eq!(got.len(), want.len(), "{} pass {pass}: length", t.name());
        for (row, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{} pass {pass}: row {row}", t.name());
        }
        assert_eq!(s.next_batch(&mut batch), 0, "{}: ended", t.name());
    }
}

/// The kind of row `i` in the coded-IP cases: an irregular mix, so a
/// sequential code with the wrong kind shows.
fn mixed(ip: u64, i: u64) -> Instr {
    match (i * 7 + i / 3) % 4 {
        0 => Instr::load(ip, 0x1000_0000 + i * 64),
        1 => Instr::store(ip, 0x2000_0000 + i * 8),
        _ => Instr::nop(ip),
    }
}

/// Runs of IPs at the previous IP + 4 that cross 256-row batch edges and
/// 4096-row chunk edges, so that a chunk's row 0 continues a run, with
/// every kind on sequential rows.
#[test]
fn sequential_runs_cross_batch_and_chunk_edges() {
    let t = SynthTrace::new("sequential", || {
        Box::new((0..3 * CHUNK as u64 + 500).map(|i| {
            // One long run over both chunk edges, broken by jumps at a
            // few rows on either side of batch and chunk edges.
            let ip = if [250, 700, 4090, 8200].contains(&i) {
                0x9_0000 + i * 64
            } else {
                0x40_0000 + i * 4
            };
            mixed(ip, i)
        }))
    });
    check_whole(&t);
}

/// More than the dictionary holds (253 pairs) of distinct (IP, kind)
/// pairs off any sequential run in one chunk's worth of rows: chunks end
/// early, the rows after a cut start the next chunk, and the stream goes
/// on to the end.
#[test]
fn dictionary_overflow_cuts_chunks_early() {
    let t = SynthTrace::new("scattered", || {
        Box::new((0..3 * CHUNK as u64 + 77).map(|i| {
            // 300 IPs 64 bytes apart, revisited in a scrambled order,
            // with runs of 1-3 sequential IPs after some of them.
            let ip = 0x50_0000 + ((i / 4 * 37) % 300) * 64 + (i % 4) * 4 * u64::from(i % 3 == 0);
            mixed(ip, i)
        }))
    });
    check_whole(&t);
}

/// A finite generator whose last row is the one a full dictionary cuts
/// off, or the row just before it: the memo ends with the stream, not at
/// the short chunk.
#[test]
fn finite_generators_end_at_an_early_cut() {
    for len in [253, 254, 255, 4 * 253] {
        let t = SynthTrace::new(format!("distinct-{len}"), move || {
            Box::new((0..len).map(|i| mixed(0x60_0000 + i * 64, i)))
        });
        check_whole(&t);
    }
}

/// An IP at `u64::MAX - 3` followed by 0 is a sequential pair (the + 4
/// wraps), inside a chunk, at a batch edge, and across a chunk edge.
#[test]
fn sequential_ips_wrap_past_u64_max() {
    let top = u64::MAX - 3;
    let t = SynthTrace::new("wrapping", move || {
        Box::new((0..2 * CHUNK as u64 + 300).map(move |i| {
            let ip = match i {
                100 | 255 | 4095 => top,
                101 | 256 | 4096 => 0,
                102 | 257 | 4097 => 4,
                _ => 0x40_0000 + (i % 50) * 4,
            };
            mixed(ip, i)
        }))
    });
    check_whole(&t);
}

/// Rows of the stride-predictor cases: two chunks and a ragged tail.
const STRIDE_ROWS: u64 = 2 * CHUNK as u64 + 300;

/// A finite trace of [`STRIDE_ROWS`] rows: row `i` is `row(i)`, or a
/// non-memory row from a loop of eight IPs where `row` gives `None`, so
/// no chunk fills its dictionary and every chunk edge is at a multiple
/// of [`CHUNK`].
fn stride_case(
    name: &str,
    row: impl Fn(u64) -> Option<Instr> + Send + Sync + Copy + 'static,
) -> SynthTrace {
    SynthTrace::new(name, move || {
        Box::new(
            (0..STRIDE_ROWS)
                .map(move |i| row(i).unwrap_or_else(|| Instr::nop(0x70_0000 + (i % 8) * 4))),
        )
    })
}

/// A load IP striding +64 and a store IP striding -8 (its addresses
/// wrap below 0 along the way), each predicted from its last stride
/// across 256-row batch edges and the 4096-row chunk edge, where the
/// slots start over.
#[test]
fn constant_strides_cross_batch_and_chunk_edges() {
    check_whole(&stride_case("constant-stride", |i| match i % 5 {
        0 => Some(Instr::load(0x40_0000, 0x2000_0000 + 64 * i)),
        3 => Some(Instr::store(0x40_1000, 0x4000u64.wrapping_sub(8 * i))),
        _ => None,
    }));
}

/// A load IP whose stride changes, inside a batch, on the rows either
/// side of batch edges, and on a chunk's row 0.
#[test]
fn stride_changes_are_relearned() {
    check_whole(&stride_case("stride-change", |i| {
        let addr = match i {
            0..=999 => 0x1000_0000 + 64 * i,
            1000..=1279 => 0x1100_0000 + 24 * i,
            1280..=4095 => 0x1200_0000 - 128 * i,
            _ => 0x1300_0000 + 40 * i,
        };
        (i % 2 == 0).then(|| Instr::load(0x41_0000, addr))
    }));
}

/// A load IP that reads the same address twice every fourth turn (a
/// stride of 0 between two strides of 64), and a store IP that writes
/// one address 300 times over before it moves on, across the chunk edge.
#[test]
fn repeated_addresses_predict_with_stride_zero() {
    check_whole(&stride_case("same-address", |i| match i % 4 {
        1 => {
            let k = i / 4;
            Some(Instr::load(0x42_0000, 0x3000_0000 + 64 * (k - k / 4)))
        }
        2 => Some(Instr::store(0x42_0800, 0x5000_0000 + 0x40 * (i / 1200))),
        _ => None,
    }));
}

/// Loads and stores on sequential codes share one stride slot: a block
/// whose two sequential memory rows, a load and a store, step 8 bytes
/// through one array between them, with some blocks starting on a batch
/// or chunk edge.
#[test]
fn sequential_codes_share_one_stride_slot() {
    let t = SynthTrace::new("sequential-slot", || {
        Box::new((0..STRIDE_ROWS).map(|i| {
            // Blocks start on rows 1 mod 3: on the first chunk edge (row
            // 4096) and on batch edges such as rows 256 and 1024.
            let j = i + 2;
            let ip = 0x43_0000 + (j % 3) * 4;
            let addr = 0x6000_0000 + 16 * (j / 3);
            match j % 3 {
                0 => Instr::nop(ip),
                1 => Instr::load(ip, addr),
                _ => Instr::store(ip, addr + 8),
            }
        }))
    });
    check_whole(&t);
}

/// A load IP that jumps above 4 GiB from its chunk's window, keeps its
/// stride there (the rows after the jump are predicted from the stored
/// exception), crosses the chunk edge, whose chunk takes the high window
/// for its own, and jumps back down.
#[test]
fn exceptions_seed_the_predictions_after_them() {
    check_whole(&stride_case("exception-stride", |i| {
        let k = i / 3;
        let addr = if (85..1500).contains(&k) {
            0x9_0000_0000 + 64 * (k - 85)
        } else {
            0x1000_0000 + 64 * k
        };
        (i % 3 == 2).then(|| Instr::load(0x44_0000, addr))
    }));
}
