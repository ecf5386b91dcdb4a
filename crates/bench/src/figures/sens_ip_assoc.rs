use ipcp::IpcpConfig;
use ipcp_trace::TraceSource;

use crate::runner::{geomean, Cell, Experiment, Table};

/// Section VI-B extension — IP-table geometry for huge-code-footprint
/// workloads: the paper notes cactuBSSN has IP reuse distances beyond 1024
/// and "in an extreme case, we need a 1024 associative table".
///
/// This sweep shows the cactu-like trace recovering as the IP table grows
/// in capacity *and* associativity, while the suite average barely moves —
/// exactly the paper's "size the tables up only for outliers" advice.
pub fn sens_ip_assoc(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let mut table = Table::new(
        "Sensitivity: IP-table capacity x associativity",
        &["IP table", "geomean", "cactu-bigip"],
    );
    for (label, entries, ways) in [
        ("64 x 1 (paper)", 64usize, 1usize),
        ("256 x 4", 256, 4),
        ("1024 x 16", 1024, 16),
        ("4096 x 64", 4096, 64),
    ] {
        let cfg = IpcpConfig {
            ip_table_entries: entries,
            ip_table_ways: ways,
            ..IpcpConfig::default()
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
    exp.note("paper: only cactuBSSN-like IP churn wants a big associative table;");
    exp.note("       the suite average is already captured by 64 entries.");
}
