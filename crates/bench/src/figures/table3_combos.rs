use crate::combos::{build, TABLE3_COMBOS};
use crate::runner::{Cell, Experiment, Table};

/// Table III — The multi-level prefetching combinations and their hardware
/// budgets.
pub fn table3_combos(exp: &mut Experiment) {
    let mut table = Table::new(
        "Table III: multi-level prefetching combinations",
        &["combo", "placement", "storage"],
    );
    for &name in TABLE3_COMBOS {
        let c = build(name);
        let placement = match name {
            "spp-perc-dspatch" => "throttled-NL(L1) + SPP+PPF+DSPatch(L2) + NL(LLC)",
            "mlop" => "MLOP(L1) + NL(L2) + NL(LLC)",
            "bingo48" => "Bingo-48KB(L1) + NL(L2) + NL(LLC)",
            "tskid" => "T-SKID-lite(L1) + SPP(L2)",
            "ipcp" => "IPCP(L1) + IPCP(L2)",
            _ => "",
        };
        table.row(vec![
            Cell::text(name),
            Cell::text(placement),
            Cell::num(c.storage_bytes() as f64, format!("{} B", c.storage_bytes())),
        ]);
    }
    exp.table(table);
    exp.note("paper: IPCP = 895 B; rivals demand 10x-50x more (T-SKID-lite here is a");
    exp.note("       reduced stand-in; the real T-SKID spends >50 KB).");
}
