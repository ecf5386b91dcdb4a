use ipcp::{IpClass, IpcpConfig};

use crate::runner::{geomean, Cell, Experiment, Table};

/// Fig. 13(a) — Utility of IPCP classes in isolation and in the bouquet.
///
/// Paper's shape: CS and CPLX are the strongest soloists (>30%); GS alone
/// is weak (<15%) but adds several points to the bouquet; tentative NL adds
/// a little; the L2 adds ~5 more points on top of the L1 bouquet.
pub fn fig13a_class_ablation(exp: &mut Experiment) {
    let traces = ipcp_workloads::memory_intensive_suite();
    let variants: Vec<(&str, IpcpConfig, bool)> = vec![
        ("CS only", IpcpConfig::with_only(&[IpClass::Cs]), false),
        ("CPLX only", IpcpConfig::with_only(&[IpClass::Cplx]), false),
        ("GS only", IpcpConfig::with_only(&[IpClass::Gs]), false),
        (
            "CS+CPLX",
            IpcpConfig::with_only(&[IpClass::Cs, IpClass::Cplx]),
            false,
        ),
        (
            "CS+CPLX+NL",
            IpcpConfig::with_only(&[IpClass::Cs, IpClass::Cplx, IpClass::NoClass]),
            false,
        ),
        ("IPCP L1", IpcpConfig::default(), false),
        ("IPCP L1+L2", IpcpConfig::default(), true),
    ];
    let mut table = Table::new(
        "Fig. 13(a): class ablation (geomean speedup, memory-intensive suite)",
        &["variant", "speedup"],
    );
    for (name, cfg, with_l2) in variants {
        let mut speeds = Vec::new();
        for t in &traces {
            let base = exp.baseline_ipc(t);
            let r = exp.run_ipcp(name, t, &cfg, with_l2);
            speeds.push(r.ipc() / base);
        }
        table.row(vec![Cell::text(name), Cell::f3(geomean(&speeds))]);
    }
    exp.table(table);
    exp.note("paper: CS/CPLX strongest alone; GS weak alone but additive in the bouquet;");
    exp.note("       the full L1 bouquet beats every subset; L2 adds ~5 points more.");
}
