use ipcp_sim::ReplacementKind;

use crate::runner::{geomean, Cell, Experiment, Table};

/// Section VI-C — Sensitivity to the LLC replacement policy.
///
/// Paper's shape: IPCP moves by <1% across policies.
pub fn sens_replacement(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: LLC replacement policy (IPCP geomean speedup)",
        &["policy", "speedup"],
    );
    for (label, kind) in [
        ("LRU (default)", ReplacementKind::Lru),
        ("SRRIP", ReplacementKind::Srrip),
        ("DRRIP", ReplacementKind::Drrip),
        ("SHiP-lite", ReplacementKind::Ship),
        ("Random", ReplacementKind::Random),
    ] {
        let mut speeds = Vec::new();
        for t in &traces {
            let tweak = |cfg: &mut ipcp_sim::SimConfig| {
                cfg.llc.replacement = kind;
            };
            let base = exp.run_combo_with("none", t, tweak).ipc();
            let r = exp.run_combo_with("ipcp", t, tweak);
            speeds.push(r.ipc() / base);
        }
        table.row(vec![Cell::text(label), Cell::f3(geomean(&speeds))]);
    }
    exp.table(table);
    exp.note("paper: IPCP is resilient — less than 1% difference across policies.");
}
