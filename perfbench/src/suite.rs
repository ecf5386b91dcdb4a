//! Seeded copies of the library's benchmark suites.
//!
//! `memory_intensive_suite()` and `frontend_suite()` fix every generator
//! seed. The benchmark needs the same generator parameters under other
//! seeds, so this module restates both tables with each generator seed
//! offset by the benchmark seed. Seed 0 adds nothing and so rebuilds the
//! library suites exactly, which every run checks.

use ipcp_workloads::gen::{
    blend, complex_stride, constant_stride, deep_calls, global_stream, hot_cold_code, large_code,
    nested_loop, phased, pointer_chase, resident,
};
use ipcp_workloads::SynthTrace;

/// 64 MB footprint in cache lines (the library's `BIG`).
const BIG: u64 = (64 << 20) / 64;
/// 16 MB footprint in cache lines (the library's `MID`).
const MID: u64 = (16 << 20) / 64;

/// A generator seed under benchmark seed `seed` (identity at seed 0).
fn s(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn intensive(name: &str, pattern: SynthTrace, dilution: u32) -> SynthTrace {
    blend(
        name,
        vec![(pattern, 1), (resident("hot", 512, 1), dilution)],
    )
}

/// The 20 memory-intensive traces, generator seeds offset by `seed`.
pub fn memory_intensive(seed: u64) -> Vec<SynthTrace> {
    vec![
        intensive(
            "bwaves-cs1",
            constant_stride("p", 4, 1, 0, BIG, s(101, seed)),
            60,
        ),
        intensive(
            "bwaves-cs3",
            constant_stride("p", 4, 3, 0, BIG, s(102, seed)),
            40,
        ),
        intensive(
            "fotonik-cs2",
            constant_stride("p", 8, 2, 0, MID, s(103, seed)),
            25,
        ),
        intensive(
            "roms-cs-neg",
            constant_stride("p", 4, -2, 0, BIG, s(104, seed)),
            35,
        ),
        intensive(
            "cam4-cs7",
            constant_stride("p", 2, 7, 0, BIG, s(105, seed)),
            150,
        ),
        intensive(
            "mcf-cplx-12",
            complex_stride("p", &[1, 2], 4, 0, BIG, s(111, seed)),
            25,
        ),
        intensive(
            "xz-cplx-334",
            complex_stride("p", &[3, 3, 4], 4, 0, BIG, s(112, seed)),
            50,
        ),
        intensive(
            "roms-cplx-neg",
            complex_stride("p", &[-1, -2], 4, 0, MID, s(113, seed)),
            45,
        ),
        intensive(
            "wrf-cplx-1124",
            complex_stride("p", &[1, 1, 2, 4], 2, 0, BIG, s(114, seed)),
            120,
        ),
        intensive(
            "lbm-gs-pos",
            global_stream("p", 1, 30, 3, 0, s(121, seed)),
            55,
        ),
        intensive(
            "gcc-gs-2226",
            global_stream("p", 1, 28, 4, 0, s(122, seed)),
            100,
        ),
        intensive(
            "wrf-gs-neg",
            global_stream("p", -1, 29, 3, 0, s(123, seed)),
            70,
        ),
        intensive(
            "lbm-gs-dense",
            global_stream("p", 1, 32, 4, 0, s(124, seed)),
            45,
        ),
        intensive("pop2-nest", nested_loop("p", 6, 1, 24, 0, BIG), 40),
        intensive("cam4-nest", nested_loop("p", 4, 2, 32, 0, BIG), 60),
        intensive(
            "mcf-irr-994",
            pointer_chase("p", 2 * BIG, 0, s(131, seed)),
            14,
        ),
        intensive("omnetpp-irr", pointer_chase("p", MID, 0, s(132, seed)), 16),
        intensive(
            "cactu-bigip",
            large_code("p", 4096, 1, 1 << 10, s(141, seed)),
            40,
        ),
        phased(
            "xalanc-phase",
            vec![
                intensive("p0", constant_stride("q", 4, 3, 0, MID, s(151, seed)), 40),
                intensive("p1", pointer_chase("q", MID, 0, s(152, seed)), 16),
                intensive("p2", global_stream("q", 1, 30, 3, 0, s(153, seed)), 40),
            ],
            200_000,
        ),
        phased(
            "blender-mixed",
            vec![
                intensive(
                    "p0",
                    complex_stride("q", &[1, 2], 4, 0, MID, s(154, seed)),
                    35,
                ),
                resident("p1", 2048, 2),
            ],
            150_000,
        ),
    ]
}

/// The 6 front-end (code-footprint) traces, generator seeds offset by `seed`.
pub fn frontend(seed: u64) -> Vec<SynthTrace> {
    vec![
        deep_calls("fe-deep-256k", 256, 256, 6, 4096, s(201, seed)),
        deep_calls("fe-deep-1m", 1024, 256, 8, 4096, s(202, seed)),
        deep_calls("fe-deep-4m", 4096, 256, 8, 4096, s(203, seed)),
        deep_calls("fe-deep-8m", 8192, 256, 10, 4096, s(204, seed)),
        hot_cold_code("fe-hotcold-2m", 16, 8192, 64, 7, 1 << 16, s(205, seed)),
        hot_cold_code("fe-hotcold-8m", 16, 32_768, 64, 5, 1 << 16, s(206, seed)),
    ]
}
