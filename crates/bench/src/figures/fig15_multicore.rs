use ipcp_sim::weighted_speedup;
use ipcp_trace::TraceSource;
use ipcp_workloads::SynthTrace;

use crate::combos::TABLE3_COMBOS;
use crate::runner::{geomean, Cell, Experiment, RunScale, Table};

/// The normalized weighted speedup of `mix` under `combo`: the mix run
/// against the per-trace alone IPCs on the same machine.
fn run_mix(exp: &mut Experiment, mix: &[SynthTrace], combo: &str) -> f64 {
    let cores = mix.len() as u32;
    let report = exp.run_mix(mix, combo);
    let alone: Vec<f64> = mix
        .iter()
        .map(|t| exp.alone_ipc(t, combo, cores))
        .collect();
    weighted_speedup(&report, &alone) / f64::from(cores)
}

/// Fig. 15 — Multi-core summary: weighted speedup of homogeneous and
/// heterogeneous 4-core mixes (plus an 8-core sample), normalized to
/// per-trace alone-IPCs, compared across the Table III combinations.
///
/// Paper's shape: IPCP ~23.4% average, next best (Bingo/MLOP) ~21/20%;
/// homogeneous memory-hog mixes (mcf-like) degrade for everyone, IPCP
/// degrading least thanks to accuracy-driven throttling.
///
/// The alone-IPC denominators go through the experiment's memo, so a
/// homogeneous mix simulates each one once, not once per core.
pub fn fig15_multicore(exp: &mut Experiment) {
    // Multicore runs are ~4x the work per mix; trim the default.
    exp.default_scale(RunScale {
        warmup: 50_000,
        instructions: 200_000,
    });
    let all = ipcp_workloads::memory_intensive_suite();
    let find = |n: &str| all.iter().find(|t| t.name() == n).unwrap().clone();

    let mut mixes: Vec<(String, Vec<SynthTrace>)> = Vec::new();
    // Homogeneous 4-core mixes.
    for name in ["bwaves-cs3", "lbm-gs-pos", "mcf-cplx-12", "mcf-irr-994"] {
        mixes.push((format!("homo4-{name}"), vec![find(name); 4]));
    }
    // Heterogeneous 4-core mixes.
    mixes.push((
        "hetero4-a".into(),
        vec![
            find("bwaves-cs3"),
            find("gcc-gs-2226"),
            find("mcf-irr-994"),
            find("xz-cplx-334"),
        ],
    ));
    mixes.push((
        "hetero4-b".into(),
        vec![
            find("fotonik-cs2"),
            find("lbm-gs-pos"),
            find("omnetpp-irr"),
            find("cam4-cs7"),
        ],
    ));
    mixes.push((
        "hetero4-c".into(),
        vec![
            find("wrf-gs-neg"),
            find("roms-cs-neg"),
            find("pop2-nest"),
            find("blender-mixed"),
        ],
    ));
    // Seeded random heterogeneous mixes (the paper runs 1000; scale with
    // the `mixes` setting, `IPCP_MIXES`, default 4).
    let n_random = exp.spec().mixes;
    let mut rng_state = 0x1bc9_5eedu64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    for m in 0..n_random {
        let mix: Vec<SynthTrace> = (0..4)
            .map(|_| all[(next() % all.len() as u64) as usize].clone())
            .collect();
        mixes.push((format!("rand4-{m}"), mix));
    }
    // One 8-core sample.
    mixes.push(("homo8-bwaves-cs3".into(), vec![find("bwaves-cs3"); 8]));

    let combos_with_base: Vec<&str> = std::iter::once("none")
        .chain(TABLE3_COMBOS.iter().copied())
        .collect();
    // Every (mix, combo) run, the per-mix "none" baselines included.
    let speedups: Vec<f64> = mixes
        .iter()
        .flat_map(|(_, mix)| combos_with_base.iter().map(move |&c| (mix, c)))
        .map(|(mix, combo)| run_mix(exp, mix, combo))
        .collect();

    let per_mix = combos_with_base.len();
    let mut per_combo: std::collections::HashMap<String, Vec<f64>> = Default::default();
    let mut header = vec!["mix"];
    header.extend(TABLE3_COMBOS.iter().copied());
    let mut table = Table::new(
        "Fig. 15: multi-core normalized weighted speedup (vs no prefetching)",
        &header,
    );
    for (mi, (name, _)) in mixes.iter().enumerate() {
        let base = speedups[mi * per_mix];
        let mut row = vec![Cell::text(name)];
        for (ci, &combo) in TABLE3_COMBOS.iter().enumerate() {
            let ws = speedups[mi * per_mix + 1 + ci] / base;
            per_combo.entry(combo.into()).or_default().push(ws);
            row.push(Cell::f3(ws));
        }
        table.row(row);
    }
    let mut footer = vec![Cell::text("GEOMEAN")];
    for &combo in TABLE3_COMBOS {
        footer.push(Cell::f3(geomean(&per_combo[combo])));
    }
    table.row(footer);
    exp.table(table);
    exp.note("paper: IPCP 23.4% average, Bingo 20.9%, MLOP 20%; mcf-heavy homogeneous");
    exp.note("       mixes degrade for every prefetcher, IPCP least.");
}
