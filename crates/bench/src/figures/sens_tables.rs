use ipcp::IpcpConfig;
use ipcp_trace::TraceSource;

use crate::runner::{geomean, Cell, Experiment, Table};

/// Section VI-C — Sensitivity to IPCP table sizes: 2x to 16x bigger IP
/// table / CSPT / RST.
///
/// Paper's shape: only ~0.7% average improvement even at 100x — 895 bytes
/// already captures the needed IPs (cactuBSSN-like outliers excepted).
pub fn sens_tables(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: IPCP table sizes (geomean + cactuBSSN-like outlier)",
        &["tables", "geomean", "cactu-bigip"],
    );
    for (label, mult) in [("1x (paper)", 1usize), ("2x", 2), ("4x", 4), ("16x", 16)] {
        let base_cfg = IpcpConfig::default();
        let cfg = IpcpConfig {
            ip_table_entries: base_cfg.ip_table_entries * mult,
            cspt_entries: base_cfg.cspt_entries * mult,
            rst_entries: base_cfg.rst_entries * mult,
            ..base_cfg
        };
        let mut speeds = Vec::new();
        let mut cactu = 1.0;
        for t in &traces {
            let base = exp.baseline_ipc(t);
            let r = exp.run_ipcp(label, t, &cfg, true);
            let sp = r.ipc() / base;
            speeds.push(sp);
            if t.name() == "cactu-bigip" {
                cactu = sp;
            }
        }
        table.row(vec![
            Cell::text(label),
            Cell::f3(geomean(&speeds)),
            Cell::f3(cactu),
        ]);
    }
    exp.table(table);
    exp.note("paper: bigger tables buy ~0.7% on average; only huge-code-footprint");
    exp.note("       outliers (cactuBSSN) want a larger IP table.");
}
