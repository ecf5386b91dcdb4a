use crate::runner::{geomean, Cell, Experiment, Table};

/// Fig. 1 — Utility of L1-D prefetching: the same prefetcher placed at the
/// L2, trained at L1 but filling only to L2, and fully at the L1.
///
/// Paper's shape: L1 placement gives ~6–13% average speedup over L2
/// placement; train-at-L1/fill-to-L2 narrows the gap to 3–7%; only one
/// trace prefers L2 placement, and only marginally.
pub fn fig01_l1_utility(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Fig. 1: utility of L1-D prefetching (geomean speedups, memory-intensive suite)",
        &["prefetcher", "at L2", "train L1, fill L2", "at L1"],
    );
    for pf in ["ip-stride", "mlop", "bingo"] {
        let variants = [
            format!("l2-{pf}"),
            format!("l1fill2-{pf}"),
            format!("l1-{pf}48"),
        ];
        // bingo's L1 registry name is l1-bingo48; the others match l1-<pf>.
        let l1_name = if pf == "bingo" {
            "l1-bingo48".to_string()
        } else {
            format!("l1-{pf}")
        };
        let mut speeds = [Vec::new(), Vec::new(), Vec::new()];
        for t in &traces {
            let base = exp.baseline_ipc(t);
            for (i, name) in [&variants[0], &variants[1], &l1_name].iter().enumerate() {
                let r = exp.run_combo(name, t);
                speeds[i].push(r.ipc() / base);
            }
        }
        table.row(vec![
            Cell::text(pf),
            Cell::f3(geomean(&speeds[0])),
            Cell::f3(geomean(&speeds[1])),
            Cell::f3(geomean(&speeds[2])),
        ]);
    }
    exp.table(table);
    exp.note("paper: at-L1 beats at-L2 by 6–13 percentage points on average;");
    exp.note("       train-L1/fill-L2 closes the gap to 3–7 points.");
}
