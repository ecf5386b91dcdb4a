use ipcp_sim::SimConfig;

use crate::runner::{Cell, Experiment, Table};

/// Table II — Simulated system parameters (printed from the live config so
/// documentation cannot drift from the implementation).
pub fn table2_config(exp: &mut Experiment) {
    let c = SimConfig::default();
    let cache_row = |x: &ipcp_sim::CacheConfig| {
        format!(
            "{} KB, {}-way, {} cycles, PQ: {}, MSHR: {}, {} ports",
            x.size_bytes / 1024,
            x.ways,
            x.latency,
            x.pq_entries,
            x.mshr_entries,
            x.ports
        )
    };
    let mut table = Table::new(
        "Table II: simulated system parameters",
        &["component", "parameters"],
    );
    table.row(vec![
        Cell::text("Core"),
        Cell::text(format!(
            "4 GHz, {}-wide, {}-entry ROB",
            c.core.fetch_width, c.core.rob_entries
        )),
    ]);
    table.row(vec![
        Cell::text("TLBs"),
        Cell::text(format!(
            "{} DTLB, {} shared L2 TLB entries",
            c.tlb.dtlb_entries, c.tlb.stlb_entries
        )),
    ]);
    table.row(vec![Cell::text("L1I"), Cell::text(cache_row(&c.l1i))]);
    table.row(vec![Cell::text("L1D"), Cell::text(cache_row(&c.l1d))]);
    table.row(vec![Cell::text("L2"), Cell::text(cache_row(&c.l2))]);
    table.row(vec![
        Cell::text("LLC"),
        Cell::text(format!("{} per core (x cores)", cache_row(&c.llc))),
    ]);
    table.row(vec![
        Cell::text("DRAM"),
        Cell::text(format!(
            "{} channel(s), {} banks, peak {:.1} GB/s (2 for multicore)",
            c.dram.channels,
            c.dram.banks_per_channel,
            c.dram.peak_bandwidth_gbps()
        )),
    ]);
    exp.table(table);
}
