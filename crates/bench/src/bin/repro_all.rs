//! Prints the paper's tables and figures (§VI) to stdout: all of them in
//! the order below, or those named (`repro_all table4 fig7`). An unknown
//! name exits non-zero and lists the valid ones.

use std::process::ExitCode;

use bench::tables;
use er_core::Dataset;

/// Runs one experiment and prints its rows.
type Table = fn(&[Dataset]);

const TABLES: [(&str, Table); 8] = [
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("fig6", tables::figure6),
    ("table4", tables::table4),
    ("fig7", tables::figure7),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
];

fn main() -> ExitCode {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| TABLES.iter().all(|(name, _)| name != w))
    {
        let names = TABLES.map(|(name, _)| name).join(" ");
        eprintln!("unknown table {unknown:?}; valid names: {names}");
        return ExitCode::FAILURE;
    }
    let datasets = bench::all_datasets();
    for (name, print) in TABLES {
        if wanted.is_empty() || wanted.iter().any(|w| w == name) {
            print(&datasets);
        }
    }
    ExitCode::SUCCESS
}
