//! Table 6: the simulated system configuration.

use wb_bench::render_table;
use wb_kernel::config::{
    CoreClass, CoreConfig, MemoryConfig, NetworkConfig, L1_HIT_CYCLES, L2_HIT_CYCLES, L3_HIT_CYCLES, MEM_CYCLES,
};

fn main() {
    let rows: Vec<(String, Vec<String>)> = vec![
        ("issue/commit".to_string(), CoreClass::ALL.iter().map(|c| CoreConfig::for_class(*c).width.to_string()).collect()),
        ("IQ entries".to_string(), CoreClass::ALL.iter().map(|c| CoreConfig::for_class(*c).iq_entries.to_string()).collect()),
        ("ROB entries".to_string(), CoreClass::ALL.iter().map(|c| CoreConfig::for_class(*c).rob_entries.to_string()).collect()),
        ("LQ entries".to_string(), CoreClass::ALL.iter().map(|c| CoreConfig::for_class(*c).lq_entries.to_string()).collect()),
        ("SQ/SB entries".to_string(), CoreClass::ALL.iter().map(|c| CoreConfig::for_class(*c).sq_entries.to_string()).collect()),
        ("LDT entries".to_string(), CoreClass::ALL.iter().map(|c| CoreConfig::for_class(*c).ldt_entries.to_string()).collect()),
    ];
    let headers: Vec<&str> = CoreClass::ALL.iter().map(|c| c.label()).collect();
    println!("{}", render_table("Table 6: processor", &headers, &rows));

    let m = MemoryConfig::default();
    let mem_rows = vec![
        ("L1".to_string(), vec![format!("{}KB/{}-way/{}cyc", m.l1_bytes / 1024, m.l1_ways, L1_HIT_CYCLES)]),
        ("L2".to_string(), vec![format!("{}KB/{}-way/{}cyc", m.l2_bytes / 1024, m.l2_ways, L2_HIT_CYCLES)]),
        ("L3 per bank".to_string(), vec![format!("{}MB/{}-way/{}cyc", m.l3_bank_bytes / (1024 * 1024), m.l3_ways, L3_HIT_CYCLES)]),
        ("memory".to_string(), vec![format!("{} cycles", MEM_CYCLES)]),
    ];
    println!("{}", render_table("Table 6: memory", &["value"], &mem_rows));

    let n = NetworkConfig::default();
    let net_rows = vec![
        ("topology".to_string(), vec![format!("{}x{} mesh, X-Y routing", n.mesh_width, n.mesh_height)]),
        ("msg size".to_string(), vec![format!("{} / {} flits", n.data_flits, n.control_flits)]),
        ("hop latency".to_string(), vec![format!("{} cycles", n.hop_cycles)]),
    ];
    println!("{}", render_table("Table 6: network", &["value"], &net_rows));
}
