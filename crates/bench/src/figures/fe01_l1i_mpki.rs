use ipcp_trace::TraceSource;
use ipcp_workloads::frontend_suite;

use crate::runner::{Cell, Experiment, Table};

/// fe-deep ladder entries at the front of `frontend_suite()`.
const LADDER: usize = 4;

/// FE-1 — L1-I demand MPKI and IPC across the instruction-footprint
/// ladder, with and without a front-end prefetcher.
///
/// Expected shape: the no-prefetch L1-I MPKI climbs as the code footprint
/// outgrows the L1-I; the FDIP-style successor cache removes most of the
/// misses, and the MANA-style record table keeps most of FDIP's coverage
/// at a quarter of the storage (fe04 pins the ratio).
///
/// The `fe_footprints` setting (`IPCP_FE_FOOTPRINTS`) trims the fe-deep
/// ladder (smallest footprint first) for quick runs; the hot/cold traces
/// always run.
pub fn fe01_l1i_mpki(exp: &mut Experiment) {
    let keep = exp.spec().fe_footprints.min(LADDER);
    let traces: Vec<_> = frontend_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i < keep || *i >= LADDER)
        .map(|(_, t)| t)
        .collect();
    let mut table = Table::new(
        "FE-1: L1-I demand MPKI and IPC vs instruction footprint",
        &[
            "trace",
            "MPKI none",
            "MPKI fdip",
            "MPKI mana",
            "IPC none",
            "IPC fdip",
            "IPC mana",
        ],
    );
    // By value: a trace's memoized stream is freed after its last run, so
    // the figure holds one trace's memo at a time, not the suite's.
    for t in traces {
        let t = &t;
        let mut mpki = Vec::new();
        let mut ipc = Vec::new();
        for combo in ["none", "fdip", "mana"] {
            let r = exp.run_combo(combo, t);
            let instr = r.cores[0].core.instructions;
            mpki.push(r.cores[0].l1i.demand_misses as f64 * 1000.0 / instr as f64);
            ipc.push(r.ipc());
        }
        table.row(vec![
            Cell::text(t.name()),
            Cell::f2(mpki[0]),
            Cell::f2(mpki[1]),
            Cell::f2(mpki[2]),
            Cell::f3(ipc[0]),
            Cell::f3(ipc[1]),
            Cell::f3(ipc[2]),
        ]);
    }
    exp.table(table);
    exp.note("multi-MB footprints swamp the L1-I; fdip, then mana, recover most of the misses.");
}
