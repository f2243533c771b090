//! Extension: early commit of loads (ECL) on an in-order-commit core —
//! the paper's Section 1 motivation (DEC Alpha 21164 stall-on-use, DeSC
//! decoupling). WritersBlock makes the irrevocably bound loads safe; this
//! binary measures what that buys an in-order-commit machine.

use wb_bench::{eval_config, run_suite, speedup_pct};
use wb_kernel::config::CoreClass;
use wb_workloads::Scale;

fn main() {
    println!("ECL extension (SLM-class, 16 cores): speedup over plain in-order commit\n");
    println!("{:<14} {:>9} {:>9} {:>8} {:>10}", "bench", "inorder", "ecl+wb", "speedup", "early-cmts");
    let configs = ["mesi-inorder", "wb-ecl"].map(|arm| eval_config(CoreClass::Slm, arm));
    let rows = run_suite(Scale::Test, &configs);
    for row in &rows {
        let (base, ecl) = (&row[0], &row[1]);
        println!(
            "{:<14} {:>9} {:>9} {:>7.3}x {:>10}",
            base.name,
            base.cycles,
            ecl.cycles,
            base.cycles as f64 / ecl.cycles as f64,
            ecl.stats.get("core_ecl_loads_committed"),
        );
    }
    println!("\ngeomean speedup: {:+.2}%", speedup_pct(&rows, 0, 1));
    println!("(WritersBlock makes early binding safe, not faster: the speedup column says per");
    println!("kernel whether it paid off on this machine — Section 1's ECL/DeSC cases)");
}
