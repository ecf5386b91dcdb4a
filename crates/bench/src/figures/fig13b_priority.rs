use ipcp::{IpClass, IpcpConfig};

use crate::runner::{geomean, Cell, Experiment, Table};

/// Fig. 13(b) — Utility of the class priority order.
///
/// Paper's shape: the default GS > CS > CPLX order is best; demoting GS
/// costs up to ~9% on memory-intensive traces.
pub fn fig13b_priority(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let orders: Vec<(&str, [IpClass; 3])> = vec![
        (
            "GS>CS>CPLX (paper)",
            [IpClass::Gs, IpClass::Cs, IpClass::Cplx],
        ),
        ("CS>GS>CPLX", [IpClass::Cs, IpClass::Gs, IpClass::Cplx]),
        ("CPLX>CS>GS", [IpClass::Cplx, IpClass::Cs, IpClass::Gs]),
        ("CS>CPLX>GS", [IpClass::Cs, IpClass::Cplx, IpClass::Gs]),
    ];
    let mut table = Table::new(
        "Fig. 13(b): priority-order ablation (geomean speedup)",
        &["priority", "speedup"],
    );
    for (name, order) in orders {
        let cfg = IpcpConfig::default().with_priority(order);
        let mut speeds = Vec::new();
        for t in &traces {
            let base = exp.baseline_ipc(t);
            let r = exp.run_ipcp(name, t, &cfg, true);
            speeds.push(r.ipc() / base);
        }
        table.row(vec![Cell::text(name), Cell::f3(geomean(&speeds))]);
    }
    // Metadata ablation rides along (Section VI-B2: −3.1% without it).
    {
        let cfg = IpcpConfig::default().without_metadata();
        let mut speeds = Vec::new();
        for t in &traces {
            let base = exp.baseline_ipc(t);
            let r = exp.run_ipcp("no metadata", t, &cfg, true);
            speeds.push(r.ipc() / base);
        }
        table.row(vec![Cell::text("no metadata"), Cell::f3(geomean(&speeds))]);
    }
    exp.table(table);
    exp.note("paper: the GS-first default wins; worst permutation loses ~9%;");
    exp.note("       removing metadata costs ~3.1%.");
}
