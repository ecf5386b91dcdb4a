use crate::runner::{geomean, Cell, Experiment, Table};

/// Section VI-C — Sensitivity to L1-D PQ/MSHR capacity: (2,4), (4,8),
/// (8,16) default, (16,32).
///
/// Paper's shape: (2,4) loses ~2.7% on average (high-MLP traces hit
/// hardest); (16,32) gains little — the default is near the knee.
pub fn sens_pq_mshr(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: L1-D PQ/MSHR entries (IPCP geomean speedup)",
        &["resources", "speedup"],
    );
    for (pq, mshr) in [(2u32, 4u32), (4, 8), (8, 16), (16, 32)] {
        let mut speeds = Vec::new();
        for t in &traces {
            let tweak = |cfg: &mut ipcp_sim::SimConfig| {
                cfg.l1d.pq_entries = pq;
                cfg.l1d.mshr_entries = mshr;
            };
            let base = exp.run_combo_with("none", t, tweak).ipc();
            let r = exp.run_combo_with("ipcp", t, tweak);
            speeds.push(r.ipc() / base);
        }
        table.row(vec![
            Cell::text(format!("PQ {pq}, MSHR {mshr}")),
            Cell::f3(geomean(&speeds)),
        ]);
    }
    exp.table(table);
    exp.note("paper: (2,4) drops ~2.7% vs the (8,16) default; beyond it, marginal.");
}
