//! The trace memo is invisible: every batch stream of a [`SynthTrace`]
//! delivers exactly the rows its generator yields through `stream()`.
//!
//! A `SynthTrace` memoizes its stream prefix once per process and replays
//! it to every later batch stream, so a memo bug would feed the simulator
//! a different trace than the generator defines without any figure
//! noticing. These tests compare the two paths row for row over every
//! suite trace and the fuzz corpus, and over the memo's edge cases:
//! streams that interleave at different depths, reads across chunk edges,
//! reads past the memo cap, and finite generators that run dry.

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
