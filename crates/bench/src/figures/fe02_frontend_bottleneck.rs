use ipcp_trace::TraceSource;
use ipcp_workloads::frontend_suite;

use crate::runner::{Cell, Experiment, Table};

const TRACES: &[&str] = &["fe-deep-1m", "fe-deep-4m", "fe-hotcold-2m", "fe-hotcold-8m"];

/// FE-2 — IPCP's data-side gains with the front end as the bottleneck.
///
/// Each trace mixes a multi-MB code footprint with prefetchable data
/// strides. The two speedup columns make the Amdahl split explicit: with
/// the front end cold, IPCP's data-side MPKI reductions (fe03 shows them)
/// barely move IPC because instruction-fetch stalls dominate the
/// pipeline; the IPC the workload actually gains comes from feeding the
/// front end (the fdip column), and the data side only pays off once
/// fetch stops being the bottleneck.
pub fn fe02_frontend_bottleneck(exp: &mut Experiment) {
    let traces: Vec<_> = frontend_suite()
        .into_iter()
        .filter(|t| TRACES.contains(&t.name()))
        .collect();
    let mut table = Table::new(
        "FE-2: IPCP data-side speedup, cold vs fed front end",
        &[
            "trace",
            "IPC base",
            "IPC ipcp",
            "speedup (fe cold)",
            "IPC fdip",
            "IPC fdip-ipcp",
            "speedup (fe fed)",
        ],
    );
    // By value: a trace's memoized stream is freed after its last run, so
    // the figure holds one trace's memo at a time, not the suite's.
    for t in traces {
        let t = &t;
        let base = exp.baseline_ipc(t);
        let ipcp = exp.run_combo("ipcp", t).ipc();
        let fdip = exp.run_combo("fdip", t).ipc();
        let both = exp.run_combo("fdip-ipcp", t).ipc();
        table.row(vec![
            Cell::text(t.name()),
            Cell::f3(base),
            Cell::f3(ipcp),
            Cell::f3(ipcp / base),
            Cell::f3(fdip),
            Cell::f3(both),
            Cell::f3(both / fdip),
        ]);
    }
    exp.table(table);
    exp.note("fetch stalls dominate: data-side MPKI wins barely move IPC on either front end.");
}
